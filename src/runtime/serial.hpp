// Serial depth-first eager task runtime (the detection substrate).
//
// Race detection in the paper always executes the program *sequentially in
// depth-first eager order* (§2): `spawn` and `create_fut` run the child to
// completion before the parent's continuation resumes, so a `sync` never
// waits and a forward-pointing `get_fut` always finds its future finished.
// This runtime realizes exactly that order: each construct drives the
// canonical walk (canonical_walk.hpp), which mints strand/function ids and
// streams the dag-growth events of events.hpp to an execution_listener.
//
// API sketch (mirrors Cilk + the paper's future primitives):
//
//   serial_runtime rt{&detector};
//   rt.run([&] {
//     rt.spawn([&] { left(); });
//     right();
//     rt.sync();
//     auto h = rt.create_future([&] { return produce(); });
//     ...
//     int x = rt.get(h);
//   });
//
// Functions have Cilk semantics: an implicit sync runs when a spawned or
// future function body returns with outstanding children.
#pragma once

#include <optional>
#include <type_traits>

#include "runtime/canonical_walk.hpp"
#include "runtime/events.hpp"
#include "support/check.hpp"

namespace frd::rt {

class serial_runtime;

namespace detail {
// State shared by future<T> for every payload type.
struct future_core {
  serial_runtime* rt = nullptr;
  child_record joined;  // the walk's record of the future's function
  int touches = 0;
  bool valid = false;
};
}  // namespace detail

// Handle to an eagerly evaluated future. Move-only: the handle *is* the
// future's bookkeeping record (no heap allocation per future), so copies
// would fork the touch count that single-touch enforcement relies on.
// General (multi-touch) programs call get() repeatedly on the same handle.
template <typename T>
class future {
 public:
  future() = default;
  future(future&& o) noexcept = default;
  future& operator=(future&& o) noexcept = default;
  future(const future&) = delete;
  future& operator=(const future&) = delete;

  bool valid() const { return core_.valid; }
  int touch_count() const { return core_.touches; }

  // Joins with the future: emits the get_fut event and returns the value.
  // Defined after serial_runtime (needs its definition).
  const T& get();

 private:
  friend class serial_runtime;
  detail::future_core core_;
  std::optional<T> value_;
};

template <>
class future<void> {
 public:
  future() = default;
  future(future&&) noexcept = default;
  future& operator=(future&&) noexcept = default;
  future(const future&) = delete;
  future& operator=(const future&) = delete;

  bool valid() const { return core_.valid; }
  int touch_count() const { return core_.touches; }
  void get();

 private:
  friend class serial_runtime;
  detail::future_core core_;
};

class serial_runtime {
 public:
  explicit serial_runtime(execution_listener* listener = nullptr)
      : walk_(listener) {}
  serial_runtime(const serial_runtime&) = delete;
  serial_runtime& operator=(const serial_runtime&) = delete;

  // Generic-kernel seam shared with parallel_runtime (bare, or observed by
  // the online engine): kernels templated on the runtime name their future
  // type through this.
  template <typename T>
  using future_of = future<T>;

  // When true, get() aborts on a second touch of the same future handle —
  // the paper's structured-future "single-touch" restriction (§2).
  void enforce_single_touch(bool on) { single_touch_ = on; }

  // Eager depth-first execution means every task created so far has already
  // run to completion; the parallel runtime's quiesce/help_until degenerate
  // to no-ops here (the waited-on condition must already hold).
  void quiesce() {}
  template <typename P>
  void help_until(P&& done) {
    FRD_CHECK_MSG(done(),
                  "help_until condition not met under eager serial execution "
                  "(program depends on out-of-order completion)");
  }

  // Runs `root` as the main function of a fresh program; reusable, also
  // after a body throws (the exception propagates and the walk is emptied).
  template <typename F>
  void run(F&& root) {
    FRD_CHECK_MSG(!walk_.open(), "serial_runtime::run is not reentrant");
    try {
      walk_.begin();
      root();
      walk_.end();
    } catch (...) {
      walk_.clear();
      throw;
    }
  }

  // Spawns child function `f`; logically parallel with the continuation,
  // executed eagerly here. The child joins at the enclosing sync.
  template <typename F>
  void spawn(F&& f) {
    FRD_CHECK_MSG(walk_.open(), "spawn outside run()");
    const canonical_walk::fork_ids ids = walk_.fork(false);
    f();
    walk_.ret(ids);
  }

  // Joins every child spawned in the current function scope since the last
  // sync. No-op when there are none (like Cilk's sync).
  void sync() {
    FRD_CHECK_MSG(walk_.open(), "sync outside run()");
    walk_.sync();
  }

  // Creates a future running `f` as its own function instance. The future
  // escapes sync scopes; it joins only at get().
  template <typename F>
  auto create_future(F&& f) -> future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    FRD_CHECK_MSG(walk_.open(), "create_future outside run()");
    const canonical_walk::fork_ids ids = walk_.fork(true);
    future<R> fut;
    if constexpr (std::is_void_v<R>) {
      f();
    } else {
      fut.value_.emplace(f());
    }
    fut.core_ = detail::future_core{this, walk_.ret(ids), 0, true};
    return fut;
  }

  // Joins with `fut` (emits the get_fut event). Value access is on the
  // future itself; most callers use fut.get().
  void touch(detail::future_core& core) {
    FRD_CHECK_MSG(core.valid, "get() on an invalid future handle");
    FRD_CHECK_MSG(core.rt == this, "future joined on a different runtime");
    ++core.touches;
    FRD_CHECK_MSG(!single_touch_ || core.touches == 1,
                  "structured futures are single-touch (paper S2); second "
                  "get() on the same handle");
    walk_.get(core.joined);
  }

  template <typename T>
  const T& get(future<T>& fut) {
    return fut.get();
  }
  void get(future<void>& fut) { fut.get(); }

  strand_id current_strand() const { return walk_.current_strand(); }
  std::uint32_t strand_count() const { return walk_.strand_count(); }
  execution_listener* listener() const { return walk_.listener(); }

 private:
  canonical_walk walk_;
  bool single_touch_ = false;
};

template <typename T>
const T& future<T>::get() {
  FRD_CHECK_MSG(core_.rt != nullptr, "get() on a default-constructed future");
  core_.rt->touch(core_);
  return *value_;
}

inline void future<void>::get() {
  FRD_CHECK_MSG(core_.rt != nullptr, "get() on a default-constructed future");
  core_.rt->touch(core_);
}

}  // namespace frd::rt
