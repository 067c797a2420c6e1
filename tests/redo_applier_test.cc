#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cluster/standby.h"
#include "common/coding.h"
#include "engine/page.h"
#include "engine/undo.h"
#include "rdma/fabric.h"
#include "wal/redo_applier.h"

namespace polarmp {
namespace {

constexpr uint32_t kPageSize = 1024;
constexpr PageId kPage{5, 0};

// ---------------------------------------------------------------------------
// Malformed redo: every record type, cut at every body length and with its
// type byte, body_len and body bytes flipped, goes through LogRecord::Decode
// and ApplyRedoRecord. Malformed shapes must come back non-OK without
// touching a page; nothing may abort. The assertions read the returned
// status rather than relying on a sanitizer, because a short body still
// sits inside std::string's inline buffer.
// ---------------------------------------------------------------------------

// Every page starts as a formatted leaf holding key 7 at LLSN 0, so row
// records hit both the insert and the overwrite paths.
class FakePages : public RedoPageSource {
 public:
  static std::vector<char> Pristine() {
    std::vector<char> buf(kPageSize, 0);
    Page page(buf.data(), kPageSize);
    page.Init(kPage, /*level=*/0, kInvalidPageNo, kInvalidPageNo);
    EXPECT_TRUE(
        page.WriteRow(EncodeRow(7, 1, 1, kNullUndoPtr, 0, "seven")).ok());
    page.set_llsn(0);
    return buf;
  }

  StatusOr<char*> PageForRedo(PageId page_id) override {
    auto it = pages_.find(page_id.Pack());
    if (it == pages_.end()) {
      it = pages_.emplace(page_id.Pack(), Pristine()).first;
    }
    return it->second.data();
  }

  bool Untouched() const {
    const std::vector<char> pristine = Pristine();
    for (const auto& [key, buf] : pages_) {
      if (buf != pristine) return false;
    }
    return true;
  }

 private:
  std::map<uint64_t, std::vector<char>> pages_;
};

class MalformedRedoTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSegmentBytes = 4096;

  MalformedRedoTest()
      : fabric_(ZeroLatencyProfile()),
        dsm_(&fabric_, 1, 1 << 20),
        undo_(&dsm_, kSegmentBytes) {
    EXPECT_TRUE(undo_.AddNode(1).ok());
  }

  static std::string Row(int64_t key, const std::string& value) {
    return EncodeRow(key, MakeGTrxId(1, 2, 3), 9, kNullUndoPtr, 0, value);
  }

  static std::string UndoImage(size_t value_bytes) {
    UndoRecord rec;
    rec.type = UndoType::kUpdate;
    rec.space = kPage.space;
    rec.key = 7;
    rec.trx = MakeGTrxId(1, 2, 3);
    rec.prev_value = std::string(value_bytes, 'u');
    return rec.Encode();
  }

  // One well-formed record of every type, plus an unknown type byte.
  std::vector<LogRecord> Fixtures() const {
    std::vector<LogRecord> out = {
        MakeInitPage(1, 10, kPage, 0, 3, 4),
        MakeWriteRow(1, 10, kPage, Row(9, "nine")),
        MakeRemoveRow(1, 10, kPage, 7),
        MakeSetPageLinks(1, 10, kPage, 3, 4),
        MakeUndoAppend(1, 10, 8, UndoImage(6)),
        MakeTrxCommit(1, MakeGTrxId(1, 2, 3), 42),
        MakeTrxRollbackEnd(1, MakeGTrxId(1, 2, 3)),
        MakeLoadRows(1, 10, kPage, Row(1, "a") + Row(2, "bb")),
        MakeTruncateRows(1, 10, kPage, 5),
        MakeLlsnMark(1, 10),
    };
    LogRecord unknown = MakeWriteRow(1, 10, kPage, Row(9, "nine"));
    unknown.type = static_cast<LogRecordType>(0x42);
    out.push_back(unknown);
    return out;
  }

  static bool KnownType(int type) { return type >= 1 && type <= 10; }

  // Decodes `bytes` and applies the record against fresh pages. Returns the
  // first non-OK status, or OK. A non-OK result must leave pages alone.
  Status DecodeAndApply(const std::string& bytes) {
    size_t consumed = 0;
    auto rec = LogRecord::Decode(bytes, &consumed);
    if (!rec.ok()) return rec.status();
    FakePages pages;
    auto outcome = ApplyRedoRecord(rec.value(), kPageSize, &pages, &undo_);
    if (!outcome.ok()) {
      EXPECT_TRUE(pages.Untouched()) << outcome.status().ToString();
      return outcome.status();
    }
    return Status::OK();
  }

  Fabric fabric_;
  Dsm dsm_;
  UndoStore undo_;
};

TEST_F(MalformedRedoTest, WellFormedFixturesApply) {
  for (const LogRecord& rec : Fixtures()) {
    const Status s = DecodeAndApply(rec.Encode());
    if (KnownType(static_cast<int>(rec.type))) {
      EXPECT_TRUE(s.ok()) << static_cast<int>(rec.type) << ": "
                          << s.ToString();
    } else {
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    }
  }
}

TEST_F(MalformedRedoTest, CutBodiesAreRejected) {
  for (const LogRecord& rec : Fixtures()) {
    const std::string full = rec.Encode();
    // Cut inside the header or the body without fixing body_len: the frame
    // is incomplete.
    for (size_t len = 0; len < full.size(); ++len) {
      EXPECT_FALSE(DecodeAndApply(full.substr(0, len)).ok())
          << "type " << static_cast<int>(rec.type) << " framed cut " << len;
    }
    // Cut the body and fix body_len: the frame is complete, the body is not.
    for (size_t len = 0; len < rec.body.size(); ++len) {
      LogRecord cut = rec;
      cut.body.resize(len);
      // An empty batch and a batch of the first row are whole kLoadRows.
      if (rec.type == LogRecordType::kLoadRows &&
          (len == 0 || len == Row(1, "a").size())) {
        continue;
      }
      EXPECT_FALSE(DecodeAndApply(cut.Encode()).ok())
          << "type " << static_cast<int>(rec.type) << " body cut " << len;
    }
  }
}

TEST_F(MalformedRedoTest, FlippedBodyLenIsRejected) {
  constexpr size_t kBodyLenOffset = 35;
  for (const LogRecord& rec : Fixtures()) {
    const std::string full = rec.Encode();
    std::vector<uint32_t> lens = {0xFFFFFFFFu, 0x80000000u, 0x00010000u};
    for (uint32_t len = 0; len <= rec.body.size() + 8; ++len) {
      lens.push_back(len);
    }
    for (uint32_t len : lens) {
      if (len == rec.body.size()) continue;
      // A shorter body_len frames a cut body; the same kLoadRows cuts as
      // above stay whole.
      if (rec.type == LogRecordType::kLoadRows &&
          (len == 0 || len == Row(1, "a").size())) {
        continue;
      }
      std::string bytes = full;
      EncodeFixed32(bytes.data() + kBodyLenOffset, len);
      EXPECT_FALSE(DecodeAndApply(bytes).ok())
          << "type " << static_cast<int>(rec.type) << " body_len " << len;
    }
  }
}

TEST_F(MalformedRedoTest, FlippedTypeByteNeverAborts) {
  // Body sizes every record of a fixed-shape type must have.
  const std::map<int, size_t> fixed_body = {
      {static_cast<int>(LogRecordType::kInitPage), 9},
      {static_cast<int>(LogRecordType::kRemoveRow), 8},
      {static_cast<int>(LogRecordType::kSetPageLinks), 8},
      {static_cast<int>(LogRecordType::kTrxCommit), 0},
      {static_cast<int>(LogRecordType::kTrxRollbackEnd), 0},
      {static_cast<int>(LogRecordType::kTruncateRows), 0},
      {static_cast<int>(LogRecordType::kLlsnMark), 0},
  };
  for (const LogRecord& rec : Fixtures()) {
    const std::string full = rec.Encode();
    for (int type = 0; type < 256; ++type) {
      if (type == static_cast<int>(rec.type)) continue;
      std::string bytes = full;
      bytes[0] = static_cast<char>(type);
      const Status s = DecodeAndApply(bytes);
      auto fixed = fixed_body.find(type);
      if (!KnownType(type) ||
          (fixed != fixed_body.end() && fixed->second != rec.body.size())) {
        EXPECT_FALSE(s.ok()) << "type " << static_cast<int>(rec.type)
                             << " flipped to " << type;
      }
    }
  }
}

TEST_F(MalformedRedoTest, FlippedLengthFieldsInBodiesAreRejected) {
  constexpr size_t kUndoVlenOffset = UndoRecord::kHeaderSize - 4;
  for (const LogRecord& rec : Fixtures()) {
    // Offsets of the length fields nested inside the body.
    std::set<size_t> length_bytes;
    if (rec.type == LogRecordType::kWriteRow ||
        rec.type == LogRecordType::kLoadRows) {
      for (size_t row = 0; row < rec.body.size();
           row += RowSizeAt(rec.body.data() + row)) {
        for (size_t i = 0; i < 4; ++i) {
          length_bytes.insert(row + kRowVlenOffset + i);
        }
      }
    } else if (rec.type == LogRecordType::kUndoAppend) {
      for (size_t i = 0; i < 4; ++i) length_bytes.insert(kUndoVlenOffset + i);
    }
    for (size_t i = 0; i < rec.body.size(); ++i) {
      LogRecord flipped = rec;
      flipped.body[i] = static_cast<char>(flipped.body[i] ^ 0xFF);
      const Status s = DecodeAndApply(flipped.Encode());
      if (length_bytes.count(i) != 0) {
        EXPECT_FALSE(s.ok()) << "type " << static_cast<int>(rec.type)
                             << " body byte " << i;
      }
    }
  }
}

TEST_F(MalformedRedoTest, PageRecordWithoutLlsnIsRejected) {
  for (LogRecord rec : Fixtures()) {
    if (rec.llsn == 0 || rec.type == LogRecordType::kUndoAppend ||
        rec.type == LogRecordType::kLlsnMark) {
      continue;  // not a page record
    }
    rec.llsn = 0;
    EXPECT_TRUE(DecodeAndApply(rec.Encode()).IsCorruption())
        << static_cast<int>(rec.type);
  }
}

TEST_F(MalformedRedoTest, UndoAppendOutsideSegmentIsRejected) {
  // Larger than the whole segment.
  const LogRecord oversized =
      MakeUndoAppend(1, 10, 8, UndoImage(kSegmentBytes));
  EXPECT_TRUE(DecodeAndApply(oversized.Encode()).IsCorruption());
  // Would straddle the end of the ring, which appends never do.
  const LogRecord straddling =
      MakeUndoAppend(1, 10, kSegmentBytes - 16, UndoImage(6));
  EXPECT_TRUE(DecodeAndApply(straddling.Encode()).IsCorruption());
  // Fits flush against the end: rewritten, and readable back.
  const std::string image = UndoImage(6);
  const uint64_t offset = kSegmentBytes - image.size();
  ASSERT_TRUE(
      DecodeAndApply(MakeUndoAppend(1, 10, offset, image).Encode()).ok());
  auto back = undo_.Read(1, MakeUndoPtr(1, offset));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().prev_value, "uuuuuu");
}

// ---------------------------------------------------------------------------
// RedoMerge: LLSN_bound batching over per-node streams.
// ---------------------------------------------------------------------------
class RedoMergeTest : public ::testing::Test {
 protected:
  RedoMergeTest() : log_(ZeroLatencyProfile()) {
    EXPECT_TRUE(log_.CreateLog(1).ok());
    EXPECT_TRUE(log_.CreateLog(2).ok());
  }

  void Append(NodeId node, const std::vector<LogRecord>& recs) {
    std::string bytes;
    for (const LogRecord& rec : recs) rec.AppendTo(&bytes);
    ASSERT_TRUE(log_.Append(node, bytes).ok());
  }

  Lsn End(NodeId node) { return log_.DurableLsn(node).value(); }

  // Pops every ready record as (node, llsn).
  static std::vector<std::pair<NodeId, Llsn>> Drain(RedoMerge* merge) {
    std::vector<std::pair<NodeId, Llsn>> out;
    while (const LogRecord* rec = merge->Front()) {
      out.emplace_back(rec->node, rec->llsn);
      merge->Pop();
    }
    return out;
  }

  LogStore log_;
};

TEST_F(RedoMergeTest, InterleavesStreamsByLlsnKeepingStreamOrder) {
  Append(1, {MakeWriteRow(1, 1, kPage, "a"), MakeTrxCommit(1, 11, 5),
             MakeWriteRow(1, 4, kPage, "d")});
  Append(2, {MakeWriteRow(2, 2, kPage, "b"), MakeWriteRow(2, 3, kPage, "c")});
  RedoMerge merge(&log_);
  merge.AddStream(1, 0, End(1));
  merge.AddStream(2, 0, End(2));
  std::vector<std::pair<NodeId, Llsn>> order;
  while (!merge.Done()) {
    ASSERT_TRUE(merge.Step().value());
    for (const auto& rec : Drain(&merge)) order.push_back(rec);
  }
  // The commit rides at its predecessor's LLSN, so it stays behind it.
  const std::vector<std::pair<NodeId, Llsn>> want = {
      {1, 1}, {1, 0}, {2, 2}, {2, 3}, {1, 4}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(merge.ConsumedLsn(1), End(1));
  EXPECT_EQ(merge.ConsumedLsn(2), End(2));
}

TEST_F(RedoMergeTest, TailedStreamHoldsTheBoundUntilItsHorizonMoves) {
  Append(1, {MakeWriteRow(1, 1, kPage, "a"), MakeWriteRow(1, 5, kPage, "e")});
  Append(2, {MakeWriteRow(2, 2, kPage, "b")});
  RedoMerge merge(&log_);
  merge.AddStream(1, 0, std::nullopt);
  merge.AddStream(2, 0, std::nullopt);
  ASSERT_TRUE(merge.Step().value());
  const std::vector<std::pair<NodeId, Llsn>> first = {{1, 1}, {2, 2}};
  EXPECT_EQ(Drain(&merge), first);
  EXPECT_FALSE(merge.Step().value());  // node 2 idle: LLSN 5 must wait
  EXPECT_LT(merge.ConsumedLsn(1), End(1));
  Append(2, {MakeLlsnMark(2, 9)});
  ASSERT_TRUE(merge.Step().value());
  // The bound moves to node 1's horizon; node 2's mark is above it.
  const std::vector<std::pair<NodeId, Llsn>> second = {{1, 5}};
  EXPECT_EQ(Drain(&merge), second);
  EXPECT_EQ(merge.ConsumedLsn(1), End(1));
  EXPECT_LT(merge.ConsumedLsn(2), End(2));
  EXPECT_FALSE(merge.Done());  // tailed streams never finish
}

TEST_F(RedoMergeTest, TornTailIsCorruptionOnlyAtAGivenEnd) {
  const std::string whole = MakeWriteRow(1, 1, kPage, "abc").Encode();
  ASSERT_TRUE(log_.Append(1, whole.substr(0, whole.size() - 1)).ok());
  RedoMerge bounded(&log_);
  bounded.AddStream(1, 0, End(1));
  EXPECT_TRUE(bounded.Step().status().IsCorruption());

  RedoMerge tailed(&log_);
  tailed.AddStream(1, 0, std::nullopt);
  ASSERT_TRUE(tailed.Step().ok());
  EXPECT_EQ(tailed.Front(), nullptr);
  ASSERT_TRUE(log_.Append(1, whole.substr(whole.size() - 1)).ok());
  ASSERT_TRUE(tailed.Step().value());
  ASSERT_NE(tailed.Front(), nullptr);
  EXPECT_EQ(tailed.Front()->body, "abc");
}

// ---------------------------------------------------------------------------
// The standby stops at a record it cannot apply instead of skipping it.
// ---------------------------------------------------------------------------
TEST(StandbyApplyError, StopsAtTheCorruptRecord) {
  LogStore log(ZeroLatencyProfile());
  ASSERT_TRUE(log.CreateLog(1).ok());
  std::string bytes;
  MakeInitPage(1, 1, kPage, 0, kInvalidPageNo, kInvalidPageNo)
      .AppendTo(&bytes);
  for (int64_t key = 1; key <= 2; ++key) {
    MakeWriteRow(1, 1 + key, kPage, EncodeRow(key, 1, 1, kNullUndoPtr, 0, "v"))
        .AppendTo(&bytes);
  }
  LogRecord corrupt = MakeRemoveRow(1, 4, kPage, 1);
  corrupt.body.resize(3);  // a key is 8 bytes
  const Lsn corrupt_at = bytes.size();
  corrupt.AppendTo(&bytes);
  for (int64_t key = 3; key <= 4; ++key) {
    MakeWriteRow(1, 2 + key, kPage, EncodeRow(key, 1, 1, kNullUndoPtr, 0, "v"))
        .AppendTo(&bytes);
  }
  ASSERT_TRUE(log.Append(1, bytes).ok());

  StandbyReplicator::Options opts;
  opts.poll_interval_ms = 10;
  opts.page_size = kPageSize;
  StandbyReplicator standby(&log, opts);
  standby.Start();
  EXPECT_FALSE(standby.WaitForCatchUp(200));
  standby.Stop();

  EXPECT_EQ(standby.records_applied(), 3u);  // init + keys 1 and 2
  EXPECT_EQ(standby.LagBytes(), bytes.size() - corrupt_at);
  std::vector<int64_t> keys;
  ASSERT_TRUE(standby
                  .ScanTable(kPage.space,
                             [&](const RowView& row) {
                               keys.push_back(row.key);
                               return true;
                             })
                  .ok());
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));
}

}  // namespace
}  // namespace polarmp
