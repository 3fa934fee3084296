// shadow::store — the shadow memory of the §3 access protocol (paper §3, §6).
//
// For every granule the detector keeps a last-writer and a reader list
// (granule_record.hpp). The store lays them out as the paper's two-level
// direct-mapped scheme: the high bits of addr>>granule_shift select a
// second-level page, the low bits index into it. The paper's artifact used a
// flat top-level table; with 47-bit user address spaces pages are keyed by a
// hash map instead, with a one-entry hot-page cache that preserves the
// two-level lookup cost on the fast path (documented substitution,
// DESIGN.md §2).
//
// The §3 protocol is two store operations, read_step and write_step, which
// the detector calls directly: there is one store, a concrete class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "shadow/granule_record.hpp"

namespace frd::shadow {

// Raised on out-of-range configurations and on store names other than
// kDefaultStore.
class store_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The store's name: the one value session::options::shadow_store and the
// serve protocol's store field accept.
inline constexpr std::string_view kDefaultStore = "hashed-page";

// The error for any other store name; its message names the one store.
store_error unknown_store(std::string_view name);

// history_depth sentinel: keep the full §3 reader list (the default).
inline constexpr std::size_t kUnboundedHistory = static_cast<std::size_t>(-1);

struct store_config {
  // Second-level page size: 2^page_bits granules per page; [4, 24].
  unsigned page_bits = 16;
  // log2 of the granule size in bytes (2 = the paper's 4-byte granules).
  unsigned granule_shift = 2;
  // Retained readers per granule. kUnboundedHistory keeps the full §3
  // reader list; a finite depth >= 1 keeps only the `depth` most recent
  // readers (drop-oldest on append), bounding memory and purge cost at the
  // cost of missing read-write races whose read fell out of the window
  // (short-race-window detection, DESIGN.md §8). Depth 0 is a store_error.
  std::size_t history_depth = kUnboundedHistory;
};

// Throws store_error when cfg is outside the ranges above.
void validate(const store_config& cfg);

class store {
 public:
  // Validates cfg (store_error) and starts with no pages.
  explicit store(const store_config& cfg);
  store(const store&) = delete;
  store& operator=(const store&) = delete;

  // The §3 read step on the granule containing addr: returns the granule's
  // last writer *before* this read (kNoStrand when none) for the caller's
  // race check, and appends `reader` to the reader list unless the serial
  // dedupe applies (the granule's writer or tail reader is already
  // `reader`). Bounded history drops the oldest reader before an append
  // that would exceed the depth; the unbounded sentinel never trips the
  // compare. Allocates the granule's page on first touch.
  strand_id read_step(std::uintptr_t addr, strand_id reader) {
    granule_record& rec = record_for(addr);
    const strand_id prior = rec.writer;
    if (rec.writer != reader && rec.last_reader() != reader) {
      if (rec.reader_count() >= history_depth_) rec.drop_oldest_reader();
      overflow_bytes_ += rec.append_reader(reader);
    }
    return prior;
  }

  // The §3 write step on the granule containing addr: invokes
  // prior(strand_id, bool is_write) once per recorded conflicting access —
  // first the previous writer (is_write = true, skipped when there is
  // none), then every recorded reader (is_write = false) in append order —
  // then purges the reader list and installs `writer` as last-writer. The
  // callback must not re-enter the store.
  template <typename Prior>
  void write_step(std::uintptr_t addr, strand_id writer, Prior&& prior) {
    granule_record& rec = record_for(addr);
    if (rec.writer != rt::kNoStrand) prior(rec.writer, /*is_write=*/true);
    rec.for_each_reader([&](strand_id r) { prior(r, /*is_write=*/false); });
    rec.clear_readers();
    rec.writer = writer;
  }

  // Snapshot of one granule for tests and diagnostics; never allocates.
  // touched == false means the granule's page was never materialized
  // (writer/readers are then the pristine defaults).
  struct granule_state {
    bool touched = false;
    strand_id writer = rt::kNoStrand;
    std::vector<strand_id> readers;  // append order
  };
  granule_state peek(std::uintptr_t addr) const;

  std::size_t page_count() const { return pages_.size(); }
  // Page storage plus the heap the reader lists overflowed into. Overflow
  // capacity is retained across purges, so the figure only grows.
  std::size_t bytes_reserved() const;

 private:
  struct page {
    explicit page(std::size_t n) : records(n) {}
    std::vector<granule_record> records;
  };

  std::uintptr_t granule_of(std::uintptr_t addr) const {
    return addr >> granule_shift_;
  }
  granule_record& record_for(std::uintptr_t addr) {
    const std::uintptr_t g = granule_of(addr);
    return page_for(g >> page_bits_).records[g & page_mask_];
  }
  page& page_for(std::uintptr_t page_id) {
    if (page_id == cached_id_) return *cached_page_;
    return materialize(page_id);
  }
  page& materialize(std::uintptr_t page_id);

  const unsigned granule_shift_;
  const std::size_t history_depth_;
  const unsigned page_bits_;
  const std::uintptr_t page_mask_;
  // Hot-page cache: benchmark kernels touch long runs within one page.
  std::uintptr_t cached_id_ = static_cast<std::uintptr_t>(-1);
  page* cached_page_ = nullptr;
  std::unordered_map<std::uintptr_t, std::unique_ptr<page>> pages_;
  std::size_t overflow_bytes_ = 0;  // reader-list heap, see bytes_reserved()
};

}  // namespace frd::shadow
