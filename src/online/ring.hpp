// Bounded single-producer single-consumer ring buffer.
//
// Each online worker owns two: one carrying its published handles to the
// pump, one carrying walked segments back from the pump for reuse. Classic
// head/tail design with cached counterpart indices so the uncontended fast
// path is one relaxed load, one store, and one release store per operation.
// A full handle ring is backpressure: the producer spins with yield in
// engine::publish — safe because the pump drains every handle ring
// whenever it is waiting, so the consumer can never be the one blocked on
// the producer. A full segment ring is not waited on: the pump frees the
// segment instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "support/check.hpp"

namespace frd::online {

template <typename T>
class spsc_ring {
 public:
  explicit spsc_ring(std::size_t capacity)
      : mask_(capacity - 1), slots_(capacity) {
    FRD_CHECK_MSG(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                  "spsc_ring capacity must be a power of two >= 2");
  }
  spsc_ring(const spsc_ring&) = delete;
  spsc_ring& operator=(const spsc_ring&) = delete;

  // Producer side. False when full (caller retries / backs off).
  bool try_push(const T& v) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ > mask_) return false;
    }
    slots_[t & mask_] = v;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. False when empty.
  bool try_pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return false;
    }
    out = slots_[h & mask_];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  // Producer-owned line: tail plus its stale view of head.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  // Consumer-owned line: head plus its stale view of tail.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
  alignas(64) const std::size_t mask_;
  std::vector<T> slots_;
};

}  // namespace frd::online
