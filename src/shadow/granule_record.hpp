// Per-granule reader/writer record (paper §3).
//
// For every granule the detector keeps
//   * last-writer(l): the single most recent writer strand, and
//   * reader-list(l): arbitrarily many reader strands. Futures break the
//     constant-reader property of series-parallel detectors, so the list
//     must grow; it is emptied whenever a write commits (every later strand
//     parallel to a purged reader is also parallel to the new writer, so no
//     race is lost — §3).
//
// This is the record type the shadow store keeps in its pages; the §3
// read/write steps over it run in store.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/events.hpp"

namespace frd::shadow {

using rt::strand_id;

// Reader list with small inline capacity; overflow spills to a heap vector
// that is retained (cleared, not freed) across writer purges so steady-state
// writes allocate nothing. Movable so stores may relocate records (and so a
// record can sit in containers that grow); copying stays deleted — a shadow
// record has exactly one home.
class granule_record {
 public:
  granule_record() = default;
  granule_record(const granule_record&) = delete;
  granule_record& operator=(const granule_record&) = delete;
  granule_record(granule_record&& other) noexcept
      : writer(other.writer),
        n_readers_(std::exchange(other.n_readers_, 0)),
        overflow_(std::move(other.overflow_)) {
    for (std::size_t i = 0; i < kInline; ++i) inline_[i] = other.inline_[i];
    other.writer = rt::kNoStrand;
  }
  granule_record& operator=(granule_record&& other) noexcept {
    if (this != &other) {
      writer = std::exchange(other.writer, rt::kNoStrand);
      n_readers_ = std::exchange(other.n_readers_, 0);
      for (std::size_t i = 0; i < kInline; ++i) inline_[i] = other.inline_[i];
      overflow_ = std::move(other.overflow_);
    }
    return *this;
  }
  ~granule_record() = default;

  strand_id writer = rt::kNoStrand;

  std::size_t reader_count() const { return n_readers_; }
  bool has_readers() const { return n_readers_ != 0; }

  // Most recently appended reader (kNoStrand when empty). The detector uses
  // it to dedupe consecutive reads by the same strand — in a serial
  // execution a strand's reads of l are contiguous, so checking the tail is
  // a complete dedupe.
  strand_id last_reader() const {
    if (n_readers_ == 0) return rt::kNoStrand;
    if (n_readers_ <= kInline) return inline_[n_readers_ - 1];
    return (*overflow_)[n_readers_ - kInline - 1];
  }

  // Appends a reader and returns the heap bytes this call newly reserved:
  // nonzero only when the overflow vector is created or grows, so the store
  // can charge reader overflow to its memory footprint.
  std::size_t append_reader(strand_id s) {
    if (n_readers_ < kInline) {
      inline_[n_readers_++] = s;
      return 0;
    }
    std::size_t grown = 0;
    if (overflow_ == nullptr) {
      overflow_ = std::make_unique<std::vector<strand_id>>();
      grown = sizeof(std::vector<strand_id>);
    }
    const std::size_t capacity = overflow_->capacity();
    overflow_->push_back(s);
    ++n_readers_;
    return grown + (overflow_->capacity() - capacity) * sizeof(strand_id);
  }

  void clear_readers() {
    n_readers_ = 0;
    if (overflow_ != nullptr) overflow_->clear();
  }

  // Drops the OLDEST reader, keeping append order — the bounded-history
  // store calls this right before an append that would exceed the depth
  // cap, so the list always holds the most recent `depth` readers. The
  // front-shift is O(list length), which bounded mode keeps at the (small)
  // configured depth.
  void drop_oldest_reader() {
    if (n_readers_ == 0) return;
    const std::size_t inl = n_readers_ < kInline ? n_readers_ : kInline;
    for (std::size_t i = 1; i < inl; ++i) inline_[i - 1] = inline_[i];
    if (n_readers_ > kInline) {
      inline_[kInline - 1] = overflow_->front();
      overflow_->erase(overflow_->begin());
    }
    --n_readers_;
  }

  template <typename Fn>
  void for_each_reader(Fn&& fn) const {
    const std::size_t inl = n_readers_ < kInline ? n_readers_ : kInline;
    for (std::size_t i = 0; i < inl; ++i) fn(inline_[i]);
    if (n_readers_ > kInline) {
      for (std::size_t i = 0; i < n_readers_ - kInline; ++i)
        fn((*overflow_)[i]);
    }
  }

 private:
  static constexpr std::size_t kInline = 3;
  std::uint32_t n_readers_ = 0;
  strand_id inline_[kInline] = {};
  std::unique_ptr<std::vector<strand_id>> overflow_;
};

}  // namespace frd::shadow
