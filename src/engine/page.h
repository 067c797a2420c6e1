#ifndef POLARMP_ENGINE_PAGE_H_
#define POLARMP_ENGINE_PAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/row.h"

namespace polarmp {

inline constexpr PageNo kInvalidPageNo = UINT32_MAX;
// Virtual page number used for the per-tree index PLock that serializes
// structure modifications (§4.3.1 mini-transactions).
inline constexpr PageNo kIndexLockPageNo = UINT32_MAX - 1;

// Slotted B-tree page over a raw buffer (the LBP frame / DBP frame / storage
// page are all this layout):
//
//   [header 40B][row heap, grows up ...free... slot dir, grows down]
//
// The slot directory holds 2-byte heap offsets sorted by row key. The
// header carries the LLSN stamp that orders this page's redo across nodes
// (§4.4) and the leaf chain links.
//
// Page does not own its buffer and has no locking; callers hold the frame
// latch. All mutators are used both by the live engine and by redo replay,
// which is what keeps replay physiological and idempotent.
class Page {
 public:
  static constexpr size_t kHeaderSize = 40;

  Page(char* buf, uint32_t page_size) : buf_(buf), page_size_(page_size) {}

  // Formats the buffer as an empty page.
  void Init(PageId id, uint8_t level, PageNo prev, PageNo next);

  // --- header accessors ---
  PageId id() const;
  Llsn llsn() const;
  void set_llsn(Llsn llsn);
  uint8_t level() const;
  bool is_leaf() const { return level() == 0; }
  uint16_t nslots() const;
  PageNo prev() const;
  PageNo next() const;
  void set_links(PageNo prev, PageNo next);

  // --- row access ---
  // Lower-bound slot index for `key` (first slot with row key >= key).
  int LowerBound(int64_t key) const;
  // Exact-match slot index, or -1.
  int FindSlot(int64_t key) const;

  StatusOr<RowView> RowAt(int slot) const;
  int64_t KeyAt(int slot) const;

  // In-place metadata mutation (fixed-width fields; no size change).
  void SetRowTrx(int slot, GTrxId trx);
  void SetRowCts(int slot, Csn cts);
  void SetRowUndoPtr(int slot, UndoPtr undo);
  void SetRowFlags(int slot, uint8_t flags);

  // Upserts a serialized row image: replaces the row with the same key or
  // inserts a new slot. Fails with kInternal("page full") if there is no
  // room even after compaction; callers then split.
  Status WriteRow(Slice row_image);
  // Physically removes the row with `key` (no-op NotFound if absent).
  Status RemoveRow(int64_t key);

  // True if WriteRow of `row_size` bytes would succeed.
  bool HasRoomFor(size_t row_size) const;
  // Free bytes (contiguous + reclaimable garbage).
  size_t FreeSpace() const;

  // Moves the upper half of the rows (by slot order) into `right`, which
  // must be an empty initialized page. Returns the first key moved (the
  // separator). Used by splits.
  int64_t MoveUpperHalfTo(Page* right);

  // Copies rows in slot range [from, to) as concatenated images.
  std::string CopyRowsInRange(int from, int to) const;
  // Drops every row with key >= from_key (split left-half truncation).
  void TruncateFromKey(int64_t from_key);
  // Bulk-loads rows from concatenated images into an empty page.
  Status LoadRows(Slice images);

  char* raw() { return buf_; }
  const char* raw() const { return buf_; }
  uint32_t page_size() const { return page_size_; }

  // Reads just the LLSN stamp out of a raw page buffer.
  static Llsn PeekLlsn(const char* buf);

 private:
  uint16_t SlotOffset(int slot) const;
  void SetSlotOffset(int slot, uint16_t off);
  size_t SlotDirStart() const { return page_size_ - 2 * nslots(); }
  uint32_t heap_top() const;
  void set_heap_top(uint32_t v);
  uint32_t garbage() const;
  void set_garbage(uint32_t v);
  void set_nslots(uint16_t n);

  // Rewrites the heap dropping dead space. Slot order preserved.
  void Compact();
  // Reformats the heap + slot directory from the given row images (already
  // in slot order).
  void RebuildFrom(const std::vector<std::string>& rows);

  char* buf_;
  uint32_t page_size_;
};

}  // namespace polarmp

#endif  // POLARMP_ENGINE_PAGE_H_
