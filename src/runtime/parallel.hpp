// Parallel work-stealing runtime.
//
// The paper's detector runs sequentially, but the substrate it instruments
// is a Cilk-style parallel platform; this runtime is our stand-in for Intel
// Cilk Plus when detection is OFF (examples, speedup measurements). It is a
// child-stealing scheduler: `spawn` enqueues the child on the worker's
// Chase-Lev deque and the parent continues; `sync` helps (pops own deque,
// then steals) until every child of the frame has completed. Futures are
// eagerly *created* tasks; `get` leapfrogs — claims the body and runs it
// inline if no one has started it — and otherwise helps until the claimer
// finishes.
//
// Helping runs a task on top of a suspended one, so the suspended one
// cannot resume before the helped task returns. If the helped task waits
// for something the suspended one has yet to do (a get of a future whose
// body is suspended beneath it, on this thread or behind a chain of other
// threads' waits), the workers deadlock. Every wait therefore helps only
// with tasks that begin serially (in the depth-first elision) before the
// waiting point. For the forward-pointing programs the paper's detectors
// accept (§2), a wait at point P depends only on work serially before P,
// so a task stacked on a waiting one never depends on anything beneath it
// and the serially-first waiter can always progress. Tasks carry their
// serial position (see `position`) for that test; a wait sets aside the
// tasks it may not run and pushes them back when it ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace frd::rt {
namespace par {

// Serial position of a function instance: the child indices along its
// path from the program's root (the k-th spawned/created child of the
// k'-th child of ...). Compared lexicographically, positions order
// instances by where they begin in the depth-first serial elision. Paths
// are short (the spawn/create nesting depth), so they live inline and are
// copied into each child rather than shared.
class position {
 public:
  position() = default;  // a program's root
  position child(std::uint32_t index) const {
    position c = *this;
    c.push(index);
    return c;
  }
  std::uint32_t depth() const { return depth_; }
  std::uint32_t at(std::uint32_t level) const {
    return level < kInline ? inline_[level] : deep_[level - kInline];
  }

 private:
  static constexpr std::uint32_t kInline = 12;
  void push(std::uint32_t index) {
    if (depth_ < kInline) {
      inline_[depth_] = index;
    } else {
      deep_.push_back(index);
    }
    ++depth_;
  }
  std::uint32_t depth_ = 0;
  std::uint32_t inline_[kInline] = {};
  std::vector<std::uint32_t> deep_;  // levels past kInline
};

// True when the instance at `t` begins serially before the point in the
// instance at `at` after its first `minted` children.
bool runs_before(const position& t, const position& at, std::uint32_t minted);

// The dynamic scope of one function instance: counts direct spawned
// children that have not completed yet (sync waits on this) and mints the
// serial positions of its children. `pos` is owned by whatever runs the
// instance (its task, its future's shared state, or run()).
struct frame {
  explicit frame(const position& p) : pos(&p) {}
  std::atomic<std::uint64_t> pending{0};
  const position* pos;
  std::uint32_t minted = 0;

  position mint_child() { return pos->child(minted++); }
};

class scheduler;

struct task {
  explicit task(position p) : pos(std::move(p)) {}
  virtual ~task() = default;
  // Runs the task body. Called exactly once by whoever dequeued/claimed it;
  // the caller deletes the task afterwards.
  virtual void execute(scheduler& sched) = 0;
  const position pos;  // of the instance it runs
};

struct future_state_base {
  enum class status : int { pending, running, done };
  std::atomic<status> st{status::pending};
  // The body, installed by create_future before the task is pushed. Living
  // in the shared state (not the queued task) lets a blocked get leapfrog:
  // claim and run the awaited body inline. The runner must mark_done().
  std::function<void(scheduler&)> run_body;
  position pos;  // of the body; set with run_body

  // True if the caller won the right to run the body.
  bool claim() {
    status expected = status::pending;
    return st.compare_exchange_strong(expected, status::running,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire);
  }
  bool done() const { return st.load(std::memory_order_acquire) == status::done; }
  void mark_done() { st.store(status::done, std::memory_order_release); }

  // Claims and runs the body here if nobody has started it.
  bool run_if_pending(scheduler& s) {
    if (!claim()) return false;
    run_body(s);
    return true;
  }
};

template <typename T>
struct future_state : future_state_base {
  std::optional<T> value;
};
template <>
struct future_state<void> : future_state_base {};

// Worker pool + deques + TLS bindings; definition in parallel.cpp.
class scheduler {
 public:
  explicit scheduler(unsigned workers);  // 0 = hardware_concurrency
  ~scheduler();
  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  unsigned worker_count() const;

  void enter_host();  // binds the calling thread as worker 0
  void leave_host();

  void push_task(task* t);              // current worker's deque
  void wait_frame(frame& fr);           // help until fr.pending == 0
  // Leapfrogs into the body if nobody has started it, else helps until
  // st.done().
  void wait_future(future_state_base& st);
  // Generic helping loop: executes ready tasks that begin serially before
  // the current point (own deque, then steals) until `done()` returns true.
  // The online engine's quiesce and the fuzz executor's wait-for-creation
  // are built on this.
  void help_until(const std::function<bool()>& done);

  frame* current_frame() const;
  frame* swap_current_frame(frame* fr);

  // Index of the calling thread's worker binding within its scheduler
  // (host = 0); asserts if the thread is not bound. The online engine keys
  // its per-worker SPSC rings on this.
  static unsigned current_worker_index();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

// Runs `fn` as the Cilk function instance at `pos`: fresh frame for its
// spawns, and an implicit sync before it returns.
template <typename F>
void run_as_function(scheduler& s, const position& pos, F& fn) {
  frame fr(pos);
  frame* prev = s.swap_current_frame(&fr);
  fn();
  if (fr.pending.load(std::memory_order_acquire) != 0) s.wait_frame(fr);
  s.swap_current_frame(prev);
}

template <typename F>
struct child_task final : task {
  child_task(frame* parent, F&& fn, std::atomic<std::uint64_t>* live = nullptr)
      : task(parent->mint_child()),
        parent_(parent),
        fn_(std::move(fn)),
        live_(live) {}
  void execute(scheduler& sched) override {
    run_as_function(sched, pos, fn_);
    parent_->pending.fetch_sub(1, std::memory_order_release);
    if (live_ != nullptr) live_->fetch_sub(1, std::memory_order_release);
  }
  frame* parent_;
  F fn_;
  std::atomic<std::uint64_t>* live_;  // runtime's outstanding-task counter
};

// The queued face of a future: the body itself lives in the shared state
// (so a blocked get can leapfrog into it); the task only offers the state a
// chance to run when dequeued, and settles the live-task accounting.
struct future_task final : task {
  explicit future_task(std::shared_ptr<future_state_base> st,
                       std::atomic<std::uint64_t>* live = nullptr)
      : task(st->pos), state_(std::move(st)), live_(live) {}
  void execute(scheduler& sched) override {
    state_->run_if_pending(sched);
    if (live_ != nullptr) live_->fetch_sub(1, std::memory_order_release);
  }
  std::shared_ptr<future_state_base> state_;
  std::atomic<std::uint64_t>* live_;
};

}  // namespace par

// Shared-state handle to a parallel future. Copyable (shared state), so
// general programs can stash handles in arrays and touch them repeatedly.
template <typename T>
class pfuture {
 public:
  pfuture() = default;
  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->done(); }

  // Handle-style join, mirroring rt::future<T>::get() so generic kernels
  // (templated on the runtime via future_of) run unchanged here.
  const T& get() {
    FRD_CHECK_MSG(state_ != nullptr, "get() on an invalid pfuture");
    sched_->wait_future(*state_);
    return *state_->value;
  }

 private:
  friend class parallel_runtime;
  pfuture(std::shared_ptr<par::future_state<T>> s, par::scheduler* sched)
      : state_(std::move(s)), sched_(sched) {}
  std::shared_ptr<par::future_state<T>> state_;
  par::scheduler* sched_ = nullptr;
};

template <>
class pfuture<void> {
 public:
  pfuture() = default;
  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->done(); }
  void get() {
    FRD_CHECK_MSG(state_ != nullptr, "get() on an invalid pfuture");
    sched_->wait_future(*state_);
  }

 private:
  friend class parallel_runtime;
  pfuture(std::shared_ptr<par::future_state<void>> s, par::scheduler* sched)
      : state_(std::move(s)), sched_(sched) {}
  std::shared_ptr<par::future_state<void>> state_;
  par::scheduler* sched_ = nullptr;
};

class parallel_runtime {
 public:
  explicit parallel_runtime(unsigned workers = 0) : sched_(workers) {}

  // Generic-kernel seam shared with serial_runtime and online::runtime:
  // kernels templated on the runtime name their future type through this.
  template <typename T>
  using future_of = pfuture<T>;

  unsigned worker_count() const { return sched_.worker_count(); }

  // Single-touch enforcement is a detection-time concern; the bare parallel
  // runtime accepts the call (generic drivers may make it) and ignores it.
  void enforce_single_touch(bool /*on*/) {}

  // Runs root to completion (including everything it transitively spawned).
  template <typename F>
  void run(F&& root) {
    sched_.enter_host();
    const par::position main_pos;
    par::run_as_function(sched_, main_pos, root);
    sched_.leave_host();
  }

  template <typename F>
  void spawn(F&& f) {
    par::frame* fr = sched_.current_frame();
    FRD_CHECK_MSG(fr != nullptr, "spawn outside run()");
    fr->pending.fetch_add(1, std::memory_order_relaxed);
    live_.fetch_add(1, std::memory_order_relaxed);
    sched_.push_task(
        new par::child_task<std::decay_t<F>>(fr, std::forward<F>(f), &live_));
  }

  void sync() {
    par::frame* fr = sched_.current_frame();
    FRD_CHECK_MSG(fr != nullptr, "sync outside run()");
    if (fr->pending.load(std::memory_order_acquire) != 0) sched_.wait_frame(*fr);
  }

  template <typename F>
  auto create_future(F&& f) -> pfuture<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    par::frame* fr = sched_.current_frame();
    FRD_CHECK_MSG(fr != nullptr, "create_future outside run()");
    auto state = std::make_shared<par::future_state<R>>();
    state->pos = fr->mint_child();
    // fn rides in a shared_ptr because std::function requires a copyable
    // callable; the raw back-pointer into the state is safe — the closure
    // is owned by that same state.
    state->run_body = [st = state.get(),
                       fn = std::make_shared<std::decay_t<F>>(
                           std::forward<F>(f))](par::scheduler& sched) {
      auto body = [&] {
        if constexpr (std::is_void_v<R>) {
          (*fn)();
        } else {
          st->value.emplace((*fn)());
        }
      };
      par::run_as_function(sched, st->pos, body);
      st->mark_done();
    };
    live_.fetch_add(1, std::memory_order_relaxed);
    sched_.push_task(new par::future_task(state, &live_));
    return pfuture<R>{std::move(state), &sched_};
  }

  // Helps until every task ever pushed has finished executing — including
  // futures nobody touched. Callable only from inside run().
  void quiesce() {
    sched_.help_until(
        [this] { return live_.load(std::memory_order_acquire) == 0; });
  }

  // Helps until `done()` holds; for code that waits on its own condition
  // (e.g. a slot being published by a concurrently running task).
  template <typename P>
  void help_until(P&& done) {
    sched_.help_until(std::forward<P>(done));
  }

  template <typename T>
  const T& get(pfuture<T>& fut) {
    FRD_CHECK_MSG(fut.state_ != nullptr, "get() on an invalid pfuture");
    sched_.wait_future(*fut.state_);
    return *fut.state_->value;
  }
  void get(pfuture<void>& fut) {
    FRD_CHECK_MSG(fut.state_ != nullptr, "get() on an invalid pfuture");
    sched_.wait_future(*fut.state_);
  }

 private:
  par::scheduler sched_;
  std::atomic<std::uint64_t> live_{0};  // tasks pushed but not yet finished
};

}  // namespace frd::rt
