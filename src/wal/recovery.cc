#include "wal/recovery.h"

#include <algorithm>
#include <set>

#include "engine/btree.h"
#include "engine/page.h"

namespace polarmp {

Recovery::Recovery(LogStore* log_store, PageStore* page_store,
                   UndoStore* undo_store, BufferFusion* buffer_fusion,
                   uint32_t page_size, Options options)
    : log_store_(log_store),
      page_store_(page_store),
      undo_store_(undo_store),
      buffer_fusion_(buffer_fusion),
      page_size_(page_size),
      options_(options) {}

StatusOr<Recovery::CachedPage*> Recovery::GetPage(PageId page_id) {
  auto it = cache_.find(page_id.Pack());
  if (it != cache_.end()) return &it->second;
  CachedPage cp;
  cp.data = std::make_unique<char[]>(page_size_);  // zeroed
  // DBP first — a node crash leaves disaggregated memory intact, which is
  // what makes recovery fast (§5.5); storage is the fallback.
  if (buffer_fusion_ != nullptr && buffer_fusion_->HasValidPage(page_id)) {
    POLARMP_RETURN_IF_ERROR(buffer_fusion_->ReadPageForRecovery(
        options_.reader, page_id, cp.data.get()));
    cp.exists = true;
    ++stats_.pages_from_dbp;
  } else {
    const Status s = page_store_->ReadPage(page_id, cp.data.get());
    if (s.ok()) {
      cp.exists = true;
      ++stats_.pages_from_storage;
    } else if (!s.IsNotFound()) {
      return s;
    }
  }
  return &cache_.emplace(page_id.Pack(), std::move(cp)).first->second;
}

StatusOr<char*> Recovery::PageForRedo(PageId page_id) {
  POLARMP_ASSIGN_OR_RETURN(CachedPage* cp, GetPage(page_id));
  return cp->data.get();
}

StatusOr<std::vector<Recovery::UncommittedTrx>> Recovery::RedoReplay(
    const std::vector<NodeId>& nodes) {
  RedoMerge merge(log_store_);
  for (NodeId node : nodes) {
    if (!log_store_->LogExists(node)) continue;
    POLARMP_ASSIGN_OR_RETURN(const Lsn from, log_store_->GetCheckpoint(node));
    POLARMP_ASSIGN_OR_RETURN(const Lsn end, log_store_->DurableLsn(node));
    merge.AddStream(node, from, end);
    POLARMP_RETURN_IF_ERROR(undo_store_->AddNode(node));
  }
  UndoStore* const undo = options_.rebuild_undo ? undo_store_ : nullptr;

  std::unordered_map<GTrxId, UndoPtr> last_undo;
  std::set<GTrxId> finished;
  while (!merge.Done()) {
    POLARMP_ASSIGN_OR_RETURN(const bool progressed, merge.Step());
    if (!progressed) return Status::Internal("recovery merge stalled");
    while (const LogRecord* rec = merge.Front()) {
      ++stats_.records_scanned;
      POLARMP_ASSIGN_OR_RETURN(
          const RedoOutcome outcome,
          ApplyRedoRecord(*rec, page_size_, this, undo));
      if (outcome == RedoOutcome::kPageApplied) {
        CachedPage& cp = cache_.at(rec->page_id.Pack());
        cp.exists = cp.dirty = true;
        recovery_llsn_ = std::max(recovery_llsn_, rec->llsn);
        ++stats_.page_records_applied;
      } else if (outcome == RedoOutcome::kPageSkipped) {
        ++stats_.page_records_skipped;
      } else if (rec->type == LogRecordType::kTrxCommit) {
        finished.insert(rec->trx);
        ++stats_.committed_trxs;
      } else if (rec->type == LogRecordType::kTrxRollbackEnd) {
        finished.insert(rec->trx);
      } else if (rec->type == LogRecordType::kUndoAppend) {
        if (undo != nullptr) stats_.undo_bytes_rebuilt += rec->body.size();
        POLARMP_ASSIGN_OR_RETURN(UndoRecord undo_rec,
                                 UndoRecord::Decode(rec->body));
        last_undo[undo_rec.trx] = MakeUndoPtr(rec->node, rec->aux);
      }
      merge.Pop();
    }
  }

  std::vector<UncommittedTrx> uncommitted;
  for (const auto& [gid, ptr] : last_undo) {
    if (finished.count(gid) == 0) {
      uncommitted.push_back(UncommittedTrx{gid, ptr});
      ++stats_.uncommitted_trxs;
    }
  }
  return uncommitted;
}

StatusOr<Recovery::CachedPage*> Recovery::FindLeaf(SpaceId space,
                                                   int64_t key) {
  POLARMP_ASSIGN_OR_RETURN(CachedPage* cp, GetPage(PageId{space, 0}));
  for (int depth = 0; depth < 64; ++depth) {
    Page page(cp->data.get(), page_size_);
    if (!cp->exists) return Status::Corruption("recovered tree missing page");
    if (page.is_leaf()) return cp;
    const PageNo child = BTree::RouteChild(page, key);
    POLARMP_ASSIGN_OR_RETURN(cp, GetPage(PageId{space, child}));
  }
  return Status::Corruption("recovered tree too deep");
}

Status Recovery::OfflineRollback(const std::vector<UncommittedTrx>& trxs) {
  for (const UncommittedTrx& trx : trxs) {
    UndoPtr cursor = trx.last_undo;
    while (cursor != kNullUndoPtr) {
      POLARMP_ASSIGN_OR_RETURN(
          UndoRecord rec,
          undo_store_->Read(UndoPtrNode(cursor), cursor));
      if (rec.trx != trx.gid) {
        return Status::Corruption("undo chain crosses transactions");
      }
      POLARMP_ASSIGN_OR_RETURN(CachedPage* cp, FindLeaf(rec.space, rec.key));
      Page page(cp->data.get(), page_size_);
      if (rec.type == UndoType::kInsert) {
        const Status s = page.RemoveRow(rec.key);
        if (!s.ok() && !s.IsNotFound()) return s;
      } else {
        const int slot = page.FindSlot(rec.key);
        bool restore = true;
        if (slot >= 0) {
          auto row = page.RowAt(slot);
          restore = row.ok() && row.value().g_trx_id == trx.gid;
        }
        if (restore) {
          const std::string image =
              EncodeRow(rec.key, rec.prev_trx, rec.prev_cts, rec.prev_undo,
                        rec.prev_flags, rec.prev_value);
          POLARMP_RETURN_IF_ERROR(page.WriteRow(image));
        }
      }
      page.set_llsn(NextRecoveryLlsn());
      cp->dirty = true;
      cursor = rec.trx_prev;
    }
    ++stats_.offline_rolled_back;
  }
  return Status::OK();
}

Status Recovery::FlushPages() {
  for (auto& [key, cp] : cache_) {
    if (!cp.dirty) continue;
    const PageId page_id = PageId::Unpack(key);
    POLARMP_RETURN_IF_ERROR(page_store_->WritePage(page_id, cp.data.get()));
    if (buffer_fusion_ != nullptr) {
      POLARMP_RETURN_IF_ERROR(buffer_fusion_->HostWritePage(
          page_id, cp.data.get(), Page::PeekLlsn(cp.data.get()),
          /*flushed=*/true));
    }
    cp.dirty = false;
  }
  return Status::OK();
}

Status Recovery::AdvanceCheckpoints(const std::vector<NodeId>& nodes) {
  for (NodeId node : nodes) {
    if (!log_store_->LogExists(node)) continue;
    POLARMP_ASSIGN_OR_RETURN(Lsn end, log_store_->DurableLsn(node));
    POLARMP_RETURN_IF_ERROR(log_store_->SetCheckpoint(node, end));
  }
  return Status::OK();
}

}  // namespace polarmp
