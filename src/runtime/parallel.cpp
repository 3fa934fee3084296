// Scheduler internals for the parallel runtime: Chase-Lev deques, the
// worker pool, and the help-while-waiting loops.
#include "runtime/parallel.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "support/prng.hpp"

namespace frd::rt::par {

namespace {

// Chase-Lev work-stealing deque (memory orders per Le et al., PPoPP'13).
// Owner pushes/pops at the bottom; thieves steal from the top.
class work_deque {
 public:
  work_deque() {
    rings_.push_back(std::make_unique<ring>(kInitialCap));
    active_.store(rings_.back().get(), std::memory_order_relaxed);
  }
  work_deque(const work_deque&) = delete;
  work_deque& operator=(const work_deque&) = delete;

  void push(task* t) {
    std::size_t b = bottom_.load(std::memory_order_relaxed);
    std::size_t tp = top_.load(std::memory_order_acquire);
    ring* r = active_.load(std::memory_order_relaxed);
    if (b - tp >= r->capacity - 1) {
      r = grow(r, b, tp);
    }
    r->put(b, t);
    // Release store (not fence + relaxed): thieves acquire-load bottom_, so
    // this publishes the task payload to them — and unlike a standalone
    // fence, ThreadSanitizer models it, keeping the TSan CI job meaningful.
    bottom_.store(b + 1, std::memory_order_release);
  }

  task* pop() {
    std::size_t b = bottom_.load(std::memory_order_relaxed) - 1;
    ring* r = active_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::size_t tp = top_.load(std::memory_order_relaxed);
    if (tp > b) {  // deque was empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    task* x = r->get(b);
    if (tp == b) {  // last element: race against thieves
      if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        x = nullptr;  // lost to a thief
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return x;
  }

  task* steal() {
    std::size_t tp = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::size_t b = bottom_.load(std::memory_order_acquire);
    if (tp >= b) return nullptr;
    ring* r = active_.load(std::memory_order_consume);
    task* x = r->get(tp);
    if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race; caller retries elsewhere
    }
    return x;
  }

 private:
  static constexpr std::size_t kInitialCap = 256;

  struct ring {
    explicit ring(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(cap) {}
    const std::size_t capacity;
    const std::size_t mask;
    std::vector<std::atomic<task*>> slots;
    task* get(std::size_t i) const {
      return slots[i & mask].load(std::memory_order_relaxed);
    }
    void put(std::size_t i, task* t) {
      slots[i & mask].store(t, std::memory_order_relaxed);
    }
  };

  ring* grow(ring* old, std::size_t b, std::size_t tp) {
    auto bigger = std::make_unique<ring>(old->capacity * 2);
    for (std::size_t i = tp; i < b; ++i) bigger->put(i, old->get(i));
    ring* raw = bigger.get();
    // Old rings stay alive until the deque dies so in-flight thieves can
    // still read (stale) slots safely; their CAS on top_ will fail.
    rings_.push_back(std::move(bigger));
    active_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<std::size_t> top_{1};
  std::atomic<std::size_t> bottom_{1};
  std::atomic<ring*> active_{nullptr};
  std::vector<std::unique_ptr<ring>> rings_;
};

struct worker {
  explicit worker(unsigned idx) : index(idx) {}
  unsigned index;
  work_deque deque;
  frame* current_frame = nullptr;
};

thread_local worker* tls_worker = nullptr;

}  // namespace

bool runs_before(const position& t, const position& at,
                 std::uint32_t minted) {
  const std::uint32_t common = std::min(t.depth(), at.depth());
  for (std::uint32_t l = 0; l < common; ++l) {
    if (t.at(l) != at.at(l)) return t.at(l) < at.at(l);
  }
  // t descends from the waiting instance: it begins before the point iff
  // its branch is one of the first `minted` children.
  if (t.depth() > at.depth()) return t.at(at.depth()) < minted;
  // t is the waiting instance or an ancestor: only the queued face of a
  // future whose body is already running, which executes as a no-op.
  return true;
}

struct scheduler::impl {
  // `owner` must be wired up before the pool threads spawn: pool_loop
  // dereferences it for every executed task, and a post-construction
  // assignment would race with an early steal.
  impl(unsigned n, scheduler* owner) : owner_backref(owner) {
    if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) workers.push_back(std::make_unique<worker>(i));
    for (unsigned i = 1; i < n; ++i)
      threads.emplace_back([this, i] { pool_loop(*workers[i]); });
  }

  ~impl() {
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    // Drain anything left (shouldn't happen after clean runs).
    for (auto& w : workers) {
      while (task* t = w->deque.pop()) delete t;
    }
  }

  // Steals from a random victim; returns null on a failed round.
  task* steal_once(worker& self, prng& rng) {
    const std::size_t n = workers.size();
    if (n <= 1) return nullptr;
    const std::size_t victim =
        (self.index + 1 + rng.below(n - 1)) % n;  // anyone but self
    return workers[victim]->deque.steal();
  }

  // One scheduling round from `self`: own deque first, then a steal attempt.
  task* acquire(worker& self, prng& rng) {
    if (task* t = self.deque.pop()) return t;
    return steal_once(self, rng);
  }

  void execute(scheduler& owner, worker& self, task* t) {
    frame* saved = self.current_frame;
    t->execute(owner);
    self.current_frame = saved;
    delete t;
  }

  // The helping loop of every wait: runs tasks (own deque, then steals)
  // until done(), but only those that begin serially before the waiting
  // point (see parallel.hpp). The others are set aside, out of reach of
  // this wait and of thieves, and pushed back in their order at the end;
  // after one stolen task had to be set aside the wait stops stealing, so
  // it never hoards more than one.
  template <typename Done>
  void help(scheduler& owner, worker& self, prng& rng, const Done& done) {
    FRD_CHECK_MSG(self.current_frame != nullptr, "wait outside run()");
    const frame& at = *self.current_frame;
    std::vector<task*> set_aside;
    bool may_steal = true;
    unsigned idle = 0;
    while (!done()) {
      task* t = self.deque.pop();
      const bool stolen = t == nullptr && may_steal;
      if (stolen) t = steal_once(self, rng);
      if (t == nullptr) {
        if (++idle > 64) std::this_thread::yield();
        continue;
      }
      idle = 0;
      if (runs_before(t->pos, *at.pos, at.minted)) {
        execute(owner, self, t);
      } else {
        set_aside.push_back(t);
        if (stolen) may_steal = false;
      }
    }
    for (auto it = set_aside.rbegin(); it != set_aside.rend(); ++it)
      self.deque.push(*it);
  }

  void pool_loop(worker& self) {
    tls_worker = &self;
    prng rng(0x9e3779b9u + self.index);
    unsigned idle_rounds = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (task* t = acquire(self, rng)) {
        execute(*owner_backref, self, t);
        idle_rounds = 0;
      } else if (++idle_rounds > 64) {
        std::this_thread::yield();
      }
    }
    tls_worker = nullptr;
  }

  std::vector<std::unique_ptr<worker>> workers;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  scheduler* const owner_backref;
};

scheduler::scheduler(unsigned workers)
    : impl_(std::make_unique<impl>(workers, this)) {}

scheduler::~scheduler() = default;

unsigned scheduler::worker_count() const {
  return static_cast<unsigned>(impl_->workers.size());
}

void scheduler::enter_host() {
  FRD_CHECK_MSG(tls_worker == nullptr, "nested parallel_runtime::run");
  tls_worker = impl_->workers[0].get();
}

void scheduler::leave_host() {
  FRD_CHECK(tls_worker == impl_->workers[0].get());
  tls_worker = nullptr;
}

void scheduler::push_task(task* t) {
  FRD_CHECK_MSG(tls_worker != nullptr,
                "task submitted from a thread outside the runtime");
  tls_worker->deque.push(t);
}

frame* scheduler::current_frame() const {
  return tls_worker ? tls_worker->current_frame : nullptr;
}

frame* scheduler::swap_current_frame(frame* fr) {
  FRD_CHECK(tls_worker != nullptr);
  frame* prev = tls_worker->current_frame;
  tls_worker->current_frame = fr;
  return prev;
}

void scheduler::wait_frame(frame& fr) {
  worker& self = *tls_worker;
  prng rng(0xabcdef01u + self.index);
  impl_->help(*this, self, rng, [&] {
    return fr.pending.load(std::memory_order_acquire) == 0;
  });
}

void scheduler::wait_future(future_state_base& st) {
  // Leapfrog: if nobody has started the awaited body, run it right here —
  // it begins serially before the get, so it may sit on top of it.
  if (st.run_if_pending(*this)) return;
  worker& self = *tls_worker;
  prng rng(0x51ed27f3u + self.index);
  impl_->help(*this, self, rng, [&] { return st.done(); });
}

void scheduler::help_until(const std::function<bool()>& done) {
  worker& self = *tls_worker;
  prng rng(0x7e1bda7au + self.index);
  impl_->help(*this, self, rng, done);
}

unsigned scheduler::current_worker_index() {
  FRD_CHECK_MSG(tls_worker != nullptr,
                "current_worker_index on a thread outside the runtime");
  return tls_worker->index;
}

}  // namespace frd::rt::par
