#include "engine/page.h"

#include <cstring>
#include <vector>

#include "common/coding.h"

namespace polarmp {

namespace {
constexpr size_t kSpaceOff = 0;
constexpr size_t kPageNoOff = 4;
constexpr size_t kLlsnOff = 8;
constexpr size_t kLevelOff = 16;
constexpr size_t kNslotsOff = 18;
constexpr size_t kPrevOff = 20;
constexpr size_t kNextOff = 24;
constexpr size_t kHeapTopOff = 28;
constexpr size_t kGarbageOff = 32;
}  // namespace

void Page::Init(PageId id, uint8_t level, PageNo prev, PageNo next) {
  std::memset(buf_, 0, page_size_);
  EncodeFixed32(buf_ + kSpaceOff, id.space);
  EncodeFixed32(buf_ + kPageNoOff, id.page_no);
  EncodeFixed64(buf_ + kLlsnOff, 0);
  buf_[kLevelOff] = static_cast<char>(level);
  EncodeFixed16(buf_ + kNslotsOff, 0);
  EncodeFixed32(buf_ + kPrevOff, prev);
  EncodeFixed32(buf_ + kNextOff, next);
  EncodeFixed32(buf_ + kHeapTopOff, static_cast<uint32_t>(kHeaderSize));
  EncodeFixed32(buf_ + kGarbageOff, 0);
}

PageId Page::id() const {
  return PageId{DecodeFixed32(buf_ + kSpaceOff), DecodeFixed32(buf_ + kPageNoOff)};
}
Llsn Page::llsn() const { return DecodeFixed64(buf_ + kLlsnOff); }
void Page::set_llsn(Llsn llsn) { EncodeFixed64(buf_ + kLlsnOff, llsn); }
Llsn Page::PeekLlsn(const char* buf) { return DecodeFixed64(buf + kLlsnOff); }
uint8_t Page::level() const { return static_cast<uint8_t>(buf_[kLevelOff]); }
uint16_t Page::nslots() const { return DecodeFixed16(buf_ + kNslotsOff); }
void Page::set_nslots(uint16_t n) { EncodeFixed16(buf_ + kNslotsOff, n); }
PageNo Page::prev() const { return DecodeFixed32(buf_ + kPrevOff); }
PageNo Page::next() const { return DecodeFixed32(buf_ + kNextOff); }
void Page::set_links(PageNo prev, PageNo next) {
  EncodeFixed32(buf_ + kPrevOff, prev);
  EncodeFixed32(buf_ + kNextOff, next);
}
uint32_t Page::heap_top() const { return DecodeFixed32(buf_ + kHeapTopOff); }
void Page::set_heap_top(uint32_t v) { EncodeFixed32(buf_ + kHeapTopOff, v); }
uint32_t Page::garbage() const { return DecodeFixed32(buf_ + kGarbageOff); }
void Page::set_garbage(uint32_t v) { EncodeFixed32(buf_ + kGarbageOff, v); }

uint16_t Page::SlotOffset(int slot) const {
  return DecodeFixed16(buf_ + page_size_ - 2 * (slot + 1));
}
void Page::SetSlotOffset(int slot, uint16_t off) {
  EncodeFixed16(buf_ + page_size_ - 2 * (slot + 1), off);
}

int64_t Page::KeyAt(int slot) const {
  return static_cast<int64_t>(
      DecodeFixed64(buf_ + SlotOffset(slot) + kRowKeyOffset));
}

int Page::LowerBound(int64_t key) const {
  int lo = 0, hi = nslots();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (KeyAt(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int Page::FindSlot(int64_t key) const {
  const int idx = LowerBound(key);
  if (idx < nslots() && KeyAt(idx) == key) return idx;
  return -1;
}

StatusOr<RowView> Page::RowAt(int slot) const {
  POLARMP_CHECK_GE(slot, 0);
  POLARMP_CHECK_LT(slot, nslots());
  const uint16_t off = SlotOffset(slot);
  return DecodeRow(buf_ + off, page_size_ - off);
}

void Page::SetRowTrx(int slot, GTrxId trx) {
  EncodeFixed64(buf_ + SlotOffset(slot) + kRowTrxOffset, trx);
}
void Page::SetRowCts(int slot, Csn cts) {
  EncodeFixed64(buf_ + SlotOffset(slot) + kRowCtsOffset, cts);
}
void Page::SetRowUndoPtr(int slot, UndoPtr undo) {
  EncodeFixed64(buf_ + SlotOffset(slot) + kRowUndoOffset, undo);
}
void Page::SetRowFlags(int slot, uint8_t flags) {
  buf_[SlotOffset(slot) + kRowFlagsOffset] = static_cast<char>(flags);
}

size_t Page::FreeSpace() const {
  return (SlotDirStart() - heap_top()) + garbage();
}

bool Page::HasRoomFor(size_t row_size) const {
  // Worst case needs a new slot entry as well.
  return FreeSpace() >= row_size + 2;
}

Status Page::WriteRow(Slice row_image) {
  POLARMP_CHECK_GE(row_image.size(), kRowHeaderSize);
  const int64_t key =
      static_cast<int64_t>(DecodeFixed64(row_image.data() + kRowKeyOffset));
  const int existing = FindSlot(key);

  if (existing >= 0) {
    const uint16_t off = SlotOffset(existing);
    const size_t old_size = RowSizeAt(buf_ + off);
    if (old_size >= row_image.size()) {
      // Shrinking or equal: rewrite in place, trailing bytes become garbage.
      std::memcpy(buf_ + off, row_image.data(), row_image.size());
      set_garbage(garbage() + static_cast<uint32_t>(old_size - row_image.size()));
      return Status::OK();
    }
    // Growing: retire the old image, append a new one.
    if (heap_top() + row_image.size() > SlotDirStart()) {
      if (FreeSpace() < row_image.size()) {
        return Status::Internal("page full");
      }
      set_garbage(garbage() + static_cast<uint32_t>(old_size));
      // Mark old slot dead by compacting without it: simplest is to record
      // garbage then compact; temporarily point the slot at the new image
      // after compaction below.
      // Remove old image from live set by zero-length trick: rewrite via
      // full compaction path.
      std::vector<std::string> rows;
      rows.reserve(nslots());
      for (int i = 0; i < nslots(); ++i) {
        if (i == existing) {
          rows.emplace_back(row_image.data(), row_image.size());
        } else {
          const uint16_t o = SlotOffset(i);
          rows.emplace_back(buf_ + o, RowSizeAt(buf_ + o));
        }
      }
      RebuildFrom(rows);
      return Status::OK();
    }
    const uint32_t new_off = heap_top();
    std::memcpy(buf_ + new_off, row_image.data(), row_image.size());
    set_heap_top(new_off + static_cast<uint32_t>(row_image.size()));
    set_garbage(garbage() + static_cast<uint32_t>(old_size));
    SetSlotOffset(existing, static_cast<uint16_t>(new_off));
    return Status::OK();
  }

  // Fresh insert.
  if (heap_top() + row_image.size() + 2 * (nslots() + 1u) > page_size_) {
    if (FreeSpace() < row_image.size() + 2) {
      return Status::Internal("page full");
    }
    Compact();
  }
  const uint32_t off = heap_top();
  std::memcpy(buf_ + off, row_image.data(), row_image.size());
  set_heap_top(off + static_cast<uint32_t>(row_image.size()));

  const int pos = LowerBound(key);
  const int n = nslots();
  // Shift slot entries [pos, n) down by one (directory grows downward, so
  // shifting "down" means moving toward lower addresses).
  for (int i = n; i > pos; --i) {
    SetSlotOffset(i, SlotOffset(i - 1));
  }
  set_nslots(static_cast<uint16_t>(n + 1));
  SetSlotOffset(pos, static_cast<uint16_t>(off));
  return Status::OK();
}

Status Page::RemoveRow(int64_t key) {
  const int slot = FindSlot(key);
  if (slot < 0) return Status::NotFound("row missing in page");
  const uint16_t off = SlotOffset(slot);
  set_garbage(garbage() + static_cast<uint32_t>(RowSizeAt(buf_ + off)));
  const int n = nslots();
  for (int i = slot; i < n - 1; ++i) {
    SetSlotOffset(i, SlotOffset(i + 1));
  }
  set_nslots(static_cast<uint16_t>(n - 1));
  return Status::OK();
}

void Page::Compact() {
  std::vector<std::string> rows;
  rows.reserve(nslots());
  for (int i = 0; i < nslots(); ++i) {
    const uint16_t o = SlotOffset(i);
    rows.emplace_back(buf_ + o, RowSizeAt(buf_ + o));
  }
  RebuildFrom(rows);
}

void Page::RebuildFrom(const std::vector<std::string>& rows) {
  uint32_t top = static_cast<uint32_t>(kHeaderSize);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(buf_ + top, rows[i].data(), rows[i].size());
    SetSlotOffset(static_cast<int>(i), static_cast<uint16_t>(top));
    top += static_cast<uint32_t>(rows[i].size());
  }
  set_nslots(static_cast<uint16_t>(rows.size()));
  set_heap_top(top);
  set_garbage(0);
}

int64_t Page::MoveUpperHalfTo(Page* right) {
  const int n = nslots();
  POLARMP_CHECK_GE(n, 2);
  const int split = n / 2;
  int64_t separator = KeyAt(split);
  std::vector<std::string> lower, upper;
  lower.reserve(split);
  upper.reserve(n - split);
  for (int i = 0; i < n; ++i) {
    const uint16_t o = SlotOffset(i);
    auto& dst = (i < split) ? lower : upper;
    dst.emplace_back(buf_ + o, RowSizeAt(buf_ + o));
  }
  right->RebuildFrom(upper);
  RebuildFrom(lower);
  return separator;
}

std::string Page::CopyRowsInRange(int from, int to) const {
  std::string out;
  for (int i = from; i < to && i < nslots(); ++i) {
    const uint16_t o = SlotOffset(i);
    out.append(buf_ + o, RowSizeAt(buf_ + o));
  }
  return out;
}

void Page::TruncateFromKey(int64_t from_key) {
  const int keep = LowerBound(from_key);
  std::vector<std::string> rows;
  rows.reserve(keep);
  for (int i = 0; i < keep; ++i) {
    const uint16_t o = SlotOffset(i);
    rows.emplace_back(buf_ + o, RowSizeAt(buf_ + o));
  }
  RebuildFrom(rows);
}

Status Page::LoadRows(Slice images) {
  size_t pos = 0;
  while (pos < images.size()) {
    if (images.size() - pos < kRowHeaderSize) {
      return Status::Corruption("truncated row image batch");
    }
    const size_t sz = RowSizeAt(images.data() + pos);
    if (pos + sz > images.size()) {
      return Status::Corruption("truncated row image batch");
    }
    POLARMP_RETURN_IF_ERROR(WriteRow(Slice(images.data() + pos, sz)));
    pos += sz;
  }
  return Status::OK();
}

}  // namespace polarmp
