// Parallel work-stealing runtime.
//
// The paper's detector runs sequentially, but the substrate it instruments
// is a Cilk-style parallel platform; this runtime is our stand-in for Intel
// Cilk Plus. It exists once: bare (no observer) it runs programs with
// detection OFF (examples, speedup measurements); with the online engine as
// its parallel_observer it runs them with detection live (DESIGN.md §9,
// online::runtime). It is a child-stealing scheduler: `spawn` enqueues the
// child on the worker's Chase-Lev deque and the parent continues; `sync`
// helps (pops own deque, then steals) until every child of the frame has
// completed. `run` returns once every task has finished. Futures are
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
  std::uint32_t id = 0;  // the observer's id of the body's instance
  std::atomic<int> touches{0};  // gets so far, over every handle

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

}  // namespace par

// Receives a parallel_runtime's dag operations on the threads that perform
// them, as an execution_listener receives serial_runtime's events. The
// observer names each function instance with an id it mints at the fork;
// the runtime carries that id with the instance's task or future and hands
// it back wherever the instance runs (bind) or is touched (get). The online
// detection engine (online/engine.hpp) is the observer; a runtime without
// one is the bare runtime and makes none of these calls.
class parallel_observer {
 public:
  virtual ~parallel_observer() = default;
  // On the host thread before the root starts: the scheduler's width and
  // whether futures are single-touch. Returns the root's id.
  virtual std::uint32_t begin_program(unsigned workers, bool single_touch) = 0;
  // The instance bound to the calling thread forks a child (a future when
  // `future`) before the child can run; returns the child's id.
  virtual std::uint32_t fork(bool future) = 0;
  // The bound instance syncs, or gets the future whose id is `future`;
  // called before any wait.
  virtual void sync() = 0;
  virtual void get(std::uint32_t future) = 0;
  // Binds the instance `id` to the calling thread; returns the binding it
  // replaces, which the runtime restores through the same call.
  virtual std::uint32_t bind(std::uint32_t id) = 0;
  // The bound instance's body returned with its children joined; for the
  // root, every task of the program has finished.
  virtual void end() = 0;
};

class parallel_runtime;

// Shared-state handle to a parallel future. Copyable (shared state), so
// general programs can stash handles in arrays and touch them repeatedly;
// the touch count lives in the shared state, so single-touch enforcement
// sees every copy's gets.
template <typename T>
class pfuture {
 public:
  pfuture() = default;
  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->done(); }
  int touch_count() const {
    return state_ ? state_->touches.load(std::memory_order_relaxed) : 0;
  }

  // Handle-style join, mirroring rt::future<T>::get() so generic kernels
  // (templated on the runtime via future_of) run unchanged here. Returns
  // the value (const T&), or nothing for pfuture<void>. Defined after
  // parallel_runtime.
  decltype(auto) get();

 private:
  friend class parallel_runtime;
  pfuture(std::shared_ptr<par::future_state<T>> s, parallel_runtime* rt)
      : state_(std::move(s)), rt_(rt) {}
  std::shared_ptr<par::future_state<T>> state_;
  parallel_runtime* rt_ = nullptr;
};

// The work-stealing runtime. With an observer attached it is the online
// runtime (online::runtime names it); without one, the bare runtime.
class parallel_runtime {
 public:
  explicit parallel_runtime(unsigned workers = 0,
                            parallel_observer* observer = nullptr)
      : sched_(workers), obs_(observer) {}

  // Generic-kernel seam shared with serial_runtime: kernels templated on
  // the runtime name their future type through this.
  template <typename T>
  using future_of = pfuture<T>;

  unsigned worker_count() const { return sched_.worker_count(); }

  // When true, a second get() of one future aborts: the paper's
  // structured-future "single-touch" restriction (§2), as on
  // serial_runtime. Set it before run().
  void enforce_single_touch(bool on) { single_touch_ = on; }

  // Runs `root` as the program's main function and returns once every
  // task it started has finished, untouched futures included. A root that
  // throws propagates its exception after the same wait, and the runtime
  // can run again.
  template <typename F>
  void run(F&& root) {
    FRD_CHECK_MSG(!task_threw_,
                  "parallel_runtime::run after an exception escaped a task "
                  "(exceptions inside tasks are not supported)");
    const std::uint32_t id =
        obs_ != nullptr ? obs_->begin_program(worker_count(), single_touch_)
                        : 0;
    sched_.enter_host();
    const par::position main_pos;
    par::frame fr(main_pos);
    par::frame* const prev_frame = sched_.swap_current_frame(&fr);
    const std::uint32_t prev = obs_ != nullptr ? obs_->bind(id) : 0;
    const auto leave = [&] {
      if (obs_ != nullptr) obs_->bind(prev);
      sched_.swap_current_frame(prev_frame);
      sched_.leave_host();
    };
    try {
      root();
    } catch (...) {
      // A throw from the root's own code leaves every count in order, so
      // wait for the tasks: their bodies may capture what the unwinding
      // destroys. A task that threw while this thread helped skipped its
      // counts (and left its frame current), so that wait would not end;
      // the exception goes up at once, as a task's throw always did.
      if (sched_.current_frame() == &fr) {
        quiesce();
      } else {
        task_threw_ = true;
      }
      leave();
      throw;
    }
    quiesce();
    if (obs_ != nullptr) obs_->end();
    leave();
  }

  template <typename F>
  void spawn(F&& f) {
    par::frame* fr = sched_.current_frame();
    FRD_CHECK_MSG(fr != nullptr, "spawn outside run()");
    const std::uint32_t id = obs_ != nullptr ? obs_->fork(false) : 0;
    fr->pending.fetch_add(1, std::memory_order_relaxed);
    live_.fetch_add(1, std::memory_order_relaxed);
    sched_.push_task(
        new child_task<std::decay_t<F>>(*this, *fr, id, std::forward<F>(f)));
  }

  void sync() {
    par::frame* fr = sched_.current_frame();
    FRD_CHECK_MSG(fr != nullptr, "sync outside run()");
    if (obs_ != nullptr) obs_->sync();
    if (fr->pending.load(std::memory_order_acquire) != 0) sched_.wait_frame(*fr);
  }

  template <typename F>
  auto create_future(F&& f) -> pfuture<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    par::frame* fr = sched_.current_frame();
    FRD_CHECK_MSG(fr != nullptr, "create_future outside run()");
    auto state = std::make_shared<par::future_state<R>>();
    state->pos = fr->mint_child();
    state->id = obs_ != nullptr ? obs_->fork(true) : 0;
    // fn rides in a shared_ptr because std::function requires a copyable
    // callable; the raw back-pointer into the state is safe — the closure
    // is owned by that same state.
    state->run_body = [this, st = state.get(),
                       fn = std::make_shared<std::decay_t<F>>(
                           std::forward<F>(f))](par::scheduler&) {
      auto body = [&] {
        if constexpr (std::is_void_v<R>) {
          (*fn)();
        } else {
          st->value.emplace((*fn)());
        }
      };
      run_instance(st->id, st->pos, body);
      st->mark_done();
    };
    live_.fetch_add(1, std::memory_order_relaxed);
    sched_.push_task(new future_task(state, *this));
    return pfuture<R>{std::move(state), this};
  }

  template <typename T>
  decltype(auto) get(pfuture<T>& fut) {
    return fut.get();
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

 private:
  template <typename T>
  friend class pfuture;

  // A spawned child: runs as its own function instance, then settles its
  // parent's pending count and the live count.
  template <typename F>
  struct child_task final : par::task {
    child_task(parallel_runtime& rt, par::frame& parent, std::uint32_t id,
               F&& fn)
        : task(parent.mint_child()),
          rt_(rt),
          parent_(parent),
          id_(id),
          fn_(std::move(fn)) {}
    void execute(par::scheduler&) override {
      rt_.run_instance(id_, pos, fn_);
      parent_.pending.fetch_sub(1, std::memory_order_release);
      rt_.live_.fetch_sub(1, std::memory_order_release);
    }
    parallel_runtime& rt_;
    par::frame& parent_;
    const std::uint32_t id_;
    F fn_;
  };

  // The queued face of a future: the body itself lives in the shared state
  // (so a blocked get can leapfrog into it); the task only offers the state
  // a chance to run when dequeued, and settles the live count.
  struct future_task final : par::task {
    future_task(std::shared_ptr<par::future_state_base> st,
                parallel_runtime& rt)
        : task(st->pos), state_(std::move(st)), rt_(rt) {}
    void execute(par::scheduler& sched) override {
      state_->run_if_pending(sched);
      rt_.live_.fetch_sub(1, std::memory_order_release);
    }
    std::shared_ptr<par::future_state_base> state_;
    parallel_runtime& rt_;
  };

  // Runs `fn` as the function instance `id` at `pos`, bound to the calling
  // thread for the observer while its body runs.
  template <typename F>
  void run_instance(std::uint32_t id, const par::position& pos, F& fn) {
    if (obs_ == nullptr) return par::run_as_function(sched_, pos, fn);
    const std::uint32_t prev = obs_->bind(id);
    par::run_as_function(sched_, pos, fn);
    obs_->end();
    obs_->bind(prev);
  }

  // Joins with a future: counts the touch, reports it, then leapfrogs into
  // the body or helps until it is done.
  void touch(par::future_state_base& st) {
    const int count = st.touches.fetch_add(1, std::memory_order_relaxed) + 1;
    FRD_CHECK_MSG(!single_touch_ || count == 1,
                  "structured futures are single-touch (paper S2); second "
                  "get() on the same handle");
    if (obs_ != nullptr) obs_->get(st.id);
    sched_.wait_future(st);
  }

  par::scheduler sched_;
  parallel_observer* const obs_;
  // Tasks pushed but not yet finished. Each task's release decrement comes
  // after its body, so quiesce's acquire of zero orders every body's
  // effects (the online workers' tallies among them) before what follows.
  std::atomic<std::uint64_t> live_{0};
  bool single_touch_ = false;
  bool task_threw_ = false;  // its counts are lost: the runtime is spent
};

template <typename T>
decltype(auto) pfuture<T>::get() {
  FRD_CHECK_MSG(state_ != nullptr, "get() on an invalid pfuture");
  rt_->touch(*state_);
  if constexpr (!std::is_void_v<T>) {
    return static_cast<const T&>(*state_->value);
  }
}

}  // namespace frd::rt
