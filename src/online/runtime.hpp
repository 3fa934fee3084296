// online::runtime — the program-facing API of online detection.
//
// Mirrors rt::serial_runtime's surface (run / spawn / sync / create_future /
// get / future_of / enforce_single_touch / quiesce / help_until) on top of
// the work-stealing scheduler, logging one wire_rec per dag operation into
// the engine's per-worker rings. Kernels templated on the runtime type run
// unchanged on serial_runtime, parallel_runtime, or this.
//
// Futures are shared-state and copyable (like rt::pfuture): a handle can be
// stashed in containers and touched from several concurrently executing
// function instances. Touch counting is atomic so the single-touch
// (structured) discipline is enforced exactly as the serial runtime does.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "online/engine.hpp"
#include "runtime/parallel.hpp"
#include "support/check.hpp"

namespace frd::online {

namespace detail {

template <typename T>
struct fstate {
  rt::par::future_state<T> core;
  std::uint32_t node = 0;  // online node id; the wire name of this future
  std::atomic<int> touches{0};
  engine* eng = nullptr;
};

// Logs the get record and joins with the future's shared state. Factored
// out of future<T>/future<void> so the touch/log/wait sequence exists once.
inline void touch_future(engine& eng, std::uint32_t node,
                         std::atomic<int>& touches,
                         rt::par::future_state_base& core) {
  const int count = touches.fetch_add(1, std::memory_order_acq_rel) + 1;
  FRD_CHECK_MSG(!eng.single_touch() || count == 1,
                "structured futures are single-touch (paper S2); second "
                "get() on the same handle");
  wire_rec r;
  r.node = engine::current_node();
  r.kind = op::get;
  r.arg = node;
  eng.log(r);
  eng.sched().wait_future(core);
}

}  // namespace detail

template <typename T>
class future {
 public:
  future() = default;
  bool valid() const { return st_ != nullptr; }
  int touch_count() const {
    return st_ ? st_->touches.load(std::memory_order_acquire) : 0;
  }

  const T& get() {
    FRD_CHECK_MSG(st_ != nullptr, "get() on an invalid online future");
    detail::touch_future(*st_->eng, st_->node, st_->touches, st_->core);
    return *st_->core.value;
  }

 private:
  friend class runtime;
  explicit future(std::shared_ptr<detail::fstate<T>> s) : st_(std::move(s)) {}
  std::shared_ptr<detail::fstate<T>> st_;
};

template <>
class future<void> {
 public:
  future() = default;
  bool valid() const { return st_ != nullptr; }
  int touch_count() const {
    return st_ ? st_->touches.load(std::memory_order_acquire) : 0;
  }

  void get() {
    FRD_CHECK_MSG(st_ != nullptr, "get() on an invalid online future");
    detail::touch_future(*st_->eng, st_->node, st_->touches, st_->core);
  }

 private:
  friend class runtime;
  explicit future(std::shared_ptr<detail::fstate<void>> s)
      : st_(std::move(s)) {}
  std::shared_ptr<detail::fstate<void>> st_;
};

namespace detail {

template <typename F>
struct child_task final : rt::par::task {
  child_task(engine* eng, std::uint32_t node, rt::par::frame* parent, F&& fn)
      : task(parent->mint_child()),
        eng_(eng),
        node_(node),
        parent_(parent),
        fn_(std::move(fn)) {}
  void execute(rt::par::scheduler& sched) override {
    const std::uint32_t prev = engine::bind_node(node_);
    rt::par::run_as_function(sched, pos, fn_);
    wire_rec r;
    r.node = node_;
    r.kind = op::end;
    eng_->log(r);
    engine::bind_node(prev);
    parent_->pending.fetch_sub(1, std::memory_order_release);
    eng_->note_task_finished();
  }
  engine* eng_;
  std::uint32_t node_;
  rt::par::frame* parent_;
  F fn_;
};

// The queued face of an online future. The body (node binding, user fn,
// end record) lives in the shared state's run_body so a blocked get can
// leapfrog into it; the task only offers the state a chance to run when
// dequeued, then settles the engine's outstanding-task accounting.
template <typename State>
struct future_task final : rt::par::task {
  future_task(std::shared_ptr<State> st, engine* eng)
      : task(st->core.pos), st_(std::move(st)), eng_(eng) {}
  void execute(rt::par::scheduler& sched) override {
    st_->core.run_if_pending(sched);
    eng_->note_task_finished();
  }
  std::shared_ptr<State> st_;
  engine* eng_;
};

}  // namespace detail

class runtime {
 public:
  explicit runtime(engine& eng) : eng_(eng) {}
  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  template <typename T>
  using future_of = future<T>;

  unsigned worker_count() const { return eng_.worker_count(); }
  void enforce_single_touch(bool on) { eng_.enforce_single_touch(on); }
  engine& eng() { return eng_; }

  // Runs `root` as the program's main function. One program per engine: the
  // pump's canonical walk begins here and completes at the root's end
  // record, after quiesce has executed every task ever pushed (untouched
  // futures included) so the walk never waits on a body that will not run.
  template <typename F>
  void run(F&& root) {
    eng_.begin_program();
    rt::par::scheduler& s = eng_.sched();
    s.enter_host();
    const std::uint32_t prev_node = engine::bind_node(0);
    const rt::par::position main_pos;
    rt::par::frame fr(main_pos);
    rt::par::frame* prev_frame = s.swap_current_frame(&fr);
    try {
      root();
      if (fr.pending.load(std::memory_order_acquire) != 0) s.wait_frame(fr);
      eng_.quiesce();
      eng_.end_program();
    } catch (...) {
      // Best effort: let outstanding tasks drain before unwinding destroys
      // the state their bodies capture, then tear the run down.
      if (fr.pending.load(std::memory_order_acquire) != 0) s.wait_frame(fr);
      eng_.quiesce();
      s.swap_current_frame(prev_frame);
      engine::bind_node(prev_node);
      s.leave_host();
      eng_.abort();
      throw;
    }
    s.swap_current_frame(prev_frame);
    engine::bind_node(prev_node);
    s.leave_host();
  }

  template <typename F>
  void spawn(F&& f) {
    rt::par::frame* fr = eng_.sched().current_frame();
    FRD_CHECK_MSG(fr != nullptr, "spawn outside run()");
    const std::uint32_t child = eng_.alloc_node();
    wire_rec r;
    r.node = engine::current_node();
    r.kind = op::spawn;
    r.arg = child;
    eng_.log(r);
    fr->pending.fetch_add(1, std::memory_order_relaxed);
    eng_.note_task_started();
    eng_.sched().push_task(new detail::child_task<std::decay_t<F>>(
        &eng_, child, fr, std::forward<F>(f)));
  }

  void sync() {
    rt::par::frame* fr = eng_.sched().current_frame();
    FRD_CHECK_MSG(fr != nullptr, "sync outside run()");
    wire_rec r;
    r.node = engine::current_node();
    r.kind = op::sync;
    eng_.log(r);
    if (fr->pending.load(std::memory_order_acquire) != 0)
      eng_.sched().wait_frame(*fr);
  }

  template <typename F>
  auto create_future(F&& f) -> future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    rt::par::frame* fr = eng_.sched().current_frame();
    FRD_CHECK_MSG(fr != nullptr, "create_future outside run()");
    auto st = std::make_shared<detail::fstate<R>>();
    st->node = eng_.alloc_node();
    st->eng = &eng_;
    st->core.pos = fr->mint_child();
    // fn rides in a shared_ptr because std::function needs a copyable
    // callable; the raw back-pointer into the state is safe — the closure
    // is owned by that same state.
    st->core.run_body = [st = st.get(),
                         fn = std::make_shared<std::decay_t<F>>(
                             std::forward<F>(f))](rt::par::scheduler& sched) {
      const std::uint32_t prev = engine::bind_node(st->node);
      auto body = [&] {
        if constexpr (std::is_void_v<R>) {
          (*fn)();
        } else {
          st->core.value.emplace((*fn)());
        }
      };
      rt::par::run_as_function(sched, st->core.pos, body);
      wire_rec r;
      r.node = st->node;
      r.kind = op::end;
      st->eng->log(r);
      engine::bind_node(prev);
      st->core.mark_done();
    };
    wire_rec r;
    r.node = engine::current_node();
    r.kind = op::create;
    r.arg = st->node;
    eng_.log(r);
    eng_.note_task_started();
    eng_.sched().push_task(
        new detail::future_task<detail::fstate<R>>(st, &eng_));
    return future<R>{std::move(st)};
  }

  template <typename T>
  const T& get(future<T>& fut) {
    return fut.get();
  }
  void get(future<void>& fut) { fut.get(); }

  // Helps until every task ever pushed has finished (parallel_runtime's
  // quiesce); generic kernels use it to join side-table mutation before
  // reading the tables single-threaded.
  void quiesce() { eng_.quiesce(); }

  template <typename P>
  void help_until(P&& done) {
    eng_.sched().help_until(std::forward<P>(done));
  }

 private:
  engine& eng_;
};

}  // namespace frd::online
