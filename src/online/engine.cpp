// The online detection pump: ring drain + canonical depth-first walk.
//
// The walk below is a line-for-line reimplementation of serial_runtime's id
// minting and listener emission (runtime/serial.hpp) driven by per-node op
// logs instead of eager execution. Any divergence between the two breaks
// the subsystem's core invariant — online report == serial replay of the
// recorded arbitration trace — so changes here must mirror serial.hpp (the
// conformance cube in tests/test_online.cpp holds both to it).
#include "online/engine.hpp"

#include <unordered_map>

#include "support/check.hpp"
#include "support/granule.hpp"

namespace frd::online {

namespace {
thread_local std::uint32_t tls_node = kNoNode;
// The calling thread's repeat-filter window stamp. It only grows, so a
// filter entry from an earlier window (or an earlier engine on this
// thread) never matches; it starts at 1 because empty slots hold 0.
thread_local std::uint64_t tls_window = 1;
// Logs whose consumed prefix is at least this long and at least half the
// log are trimmed.
constexpr std::size_t kTrimRecords = 1024;
// Released log storage kept for reuse.
constexpr std::size_t kSpareLogs = 64;
}  // namespace

engine::engine(const config& cfg)
    : cfg_(cfg),
      sched_(cfg.workers),
      router_(*this),
      granule_mask_(frd::granule_mask(cfg.granule)) {
  FRD_CHECK_MSG(frd::valid_granule(cfg_.granule),
                "online engine granule must be a power of two in [1, 4096]");
  if (cfg_.batch_capacity < 1) cfg_.batch_capacity = 1;
  for (unsigned i = 0; i < sched_.worker_count(); ++i) {
    lanes_.push_back(std::make_unique<lane>(cfg_.ring_capacity));
  }
}

engine::~engine() { abort(); }

std::uint32_t engine::current_node() {
  FRD_CHECK_MSG(tls_node != kNoNode,
                "online operation on a thread with no bound function "
                "instance (instrumented access outside the online run?)");
  return tls_node;
}

// A node switch starts a new window: without it, a task run right after
// another node's accesses with no dag record in between (engine::quiesce
// running untouched futures after the root's last accesses) would see the
// other node's entries as its own.
std::uint32_t engine::bind_node(std::uint32_t node) {
  const std::uint32_t prev = tls_node;
  tls_node = node;
  ++tls_window;
  return prev;
}

void engine::push(lane& l, const wire_rec& r) {
  // A full ring is backpressure: the pump drains every ring whenever it
  // waits, so this spin always terminates.
  while (!l.ring.try_push(r)) std::this_thread::yield();
}

void engine::log(const wire_rec& r) {
  ++tls_window;  // a dag record ends the node's strand, and the window
  push(my_lane(), r);
}

void engine::log_access(const void* p, std::size_t bytes, bool is_write) {
  lane& l = my_lane();
  wire_rec r;
  r.node = current_node();
  r.kind = op::access;
  r.is_write = is_write ? 1 : 0;
  frd::for_each_granule(p, bytes, cfg_.granule, granule_mask_,
                        [&](std::uintptr_t a) {
                          if (cfg_.elide_repeats &&
                              l.filter.repeat(a, tls_window, is_write)) {
                            ++l.elided;
                            return;
                          }
                          r.arg = static_cast<std::uint64_t>(a);
                          push(l, r);
                        });
}

// Each worker bumps its tally only inside task bodies (or the root, on this
// thread), and every task ends with note_task_finished's release; quiesce's
// acquire of outstanding_ == 0 therefore orders all of them before this.
std::uint64_t engine::elided() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->elided;
  return n;
}

void engine::begin_program() {
  FRD_CHECK_MSG(!begun_, "an online engine runs exactly one program");
  begun_ = true;
  const std::uint32_t root = alloc_node();
  FRD_CHECK(root == 0);  // the walk hard-codes main as node 0
  pump_ = std::thread([this] { pump_main(); });
}

void engine::quiesce() {
  sched_.help_until(
      [this] { return outstanding_.load(std::memory_order_acquire) == 0; });
}

void engine::end_program() {
  FRD_CHECK_MSG(begun_ && !ended_, "end_program without a running program");
  ended_ = true;
  wire_rec r;
  r.node = 0;
  r.kind = op::end;
  log(r);
}

void engine::finish() {
  if (!begun_ || finished_) {
    finished_ = true;
    return;
  }
  stop_.store(true, std::memory_order_release);
  pump_.join();
  finished_ = true;
  if (pump_error_) std::rethrow_exception(pump_error_);
}

void engine::abort() noexcept {
  if (!begun_ || finished_) {
    finished_ = true;
    return;
  }
  stop_.store(true, std::memory_order_release);
  pump_.join();
  finished_ = true;
  // Swallow pump_error_: this is the unwind / destructor path.
}

void engine::pump_main() {
  try {
    run_walk();
  } catch (...) {
    pump_error_ = std::current_exception();
  }
  if (pump_error_ != nullptr) {
    // Sink mode: the walk died, but producers may still be running and must
    // never block on a full ring. Keep draining (and discarding) until the
    // host tears the run down.
    while (!stop_.load(std::memory_order_acquire)) {
      if (drain_rings() == 0) std::this_thread::yield();
    }
    drain_rings();
  }
}

// Takes at most one ring's capacity from each ring per call: a worker that
// pushes as fast as the pump pops cannot keep the pump draining (and the
// logs growing) while the walk waits.
std::size_t engine::drain_rings() {
  std::size_t drained = 0;
  wire_rec r;
  for (auto& l : lanes_) {
    for (std::size_t n = 0; n < cfg_.ring_capacity && l->ring.try_pop(r); ++n) {
      if (r.node >= logs_.size()) logs_.resize(r.node + 1);
      std::vector<wire_rec>& ops = logs_[r.node].ops;
      if (ops.capacity() == 0 && !spare_logs_.empty()) {
        ops = std::move(spare_logs_.back());
        spare_logs_.pop_back();
      }
      ops.push_back(r);
      ++drained;
    }
  }
  log_records_ += drained;
  if (log_records_ > peak_log_records_) peak_log_records_ = log_records_;
  return drained;
}

void engine::wait_for_records() {
  unsigned idle = 0;
  while (drain_rings() == 0) {
    if (stop_.load(std::memory_order_acquire)) {
      // Everything the program logged was pushed before stop_ was set, so
      // one more drain either makes progress (records that landed since
      // the drain above) or proves the stream ended.
      if (drain_rings() != 0) return;
      throw online_error(
          "online event stream ended before the canonical walk completed "
          "(program torn down mid-run)");
    }
    if (++idle > 64) std::this_thread::yield();
  }
}

engine::node_log& engine::log_for(std::uint32_t node) {
  if (node >= logs_.size()) logs_.resize(node + 1);
  return logs_[node];
}

// A long-lived node (the root of a long loop of spawns) would otherwise
// keep every record it ever logged. Erasing only once the consumed prefix
// is at least half the log keeps the cost amortized O(1) per record.
void engine::trim_log(node_log& l) {
  if (l.cursor < kTrimRecords || 2 * l.cursor < l.ops.size()) return;
  l.ops.erase(l.ops.begin(),
              l.ops.begin() + static_cast<std::ptrdiff_t>(l.cursor));
  log_records_ -= l.cursor;
  l.cursor = 0;
}

void engine::release_log(std::uint32_t node) {
  node_log& l = logs_[node];
  log_records_ -= l.ops.size();
  l.ops.clear();
  if (spare_logs_.size() < kSpareLogs) spare_logs_.push_back(std::move(l.ops));
  l.ops = {};
  l.cursor = 0;
}

void engine::run_walk() {
  rt::execution_listener* L = cfg_.listener;
  detect::hooks::access_sink* S = cfg_.sink;

  // Canonical id counters — the serial runtime's next_strand_/next_func_.
  std::uint32_t next_strand = 0;
  std::uint32_t next_func = 0;
  rt::strand_id cur = rt::kNoStrand;

  std::vector<walk_frame> stack;
  std::vector<rt::strand_id> joins;
  std::unordered_map<std::uint32_t, future_info> futures;  // by online node id

  std::vector<detect::hooks::access> batch;
  batch.reserve(cfg_.batch_capacity);
  const auto flush = [&] {
    if (batch.empty()) return;
    if (S != nullptr) S->on_accesses(batch, cfg_.granule);
    batch.clear();
  };
  const auto strand_begin = [&](rt::strand_id s, rt::func_id f) {
    if (L != nullptr) L->on_strand_begin(s, f);
  };
  // serial_runtime::sync, verbatim: joins minted in child order, `before`
  // read prior to reassigning cur, children cleared, last join resumes fn.
  const auto do_sync = [&](walk_frame& fr) {
    if (fr.children.empty()) return;
    joins.clear();
    for (std::size_t i = 0; i < fr.children.size(); ++i)
      joins.push_back(next_strand++);
    if (L != nullptr) {
      rt::execution_listener::sync_event e{fr.fn, cur, fr.children, joins};
      L->on_sync(e);
    }
    cur = joins.back();
    fr.children.clear();
    strand_begin(cur, fr.fn);
  };

  // serial_runtime::run prologue.
  const rt::func_id main_fn = next_func++;
  cur = next_strand++;
  if (L != nullptr) L->on_program_begin(main_fn, cur);
  stack.push_back(walk_frame{0, main_fn});
  strand_begin(cur, main_fn);

  while (true) {
    node_log& log = log_for(stack.back().node);
    if (log.cursor >= log.ops.size()) {
      wait_for_records();
      continue;  // log reference may be stale after a resize
    }
    const wire_rec r = log.ops[log.cursor++];
    switch (r.kind) {
      case op::access:
        batch.push_back(detect::hooks::access{
            static_cast<std::uintptr_t>(r.arg), r.is_write != 0});
        if (batch.size() >= cfg_.batch_capacity) flush();
        break;

      case op::spawn:
      case op::create: {
        flush();
        trim_log(log);
        walk_frame& top = stack.back();
        const rt::strand_id u = cur;
        const rt::func_id parent = top.fn;
        const rt::func_id child = next_func++;
        const rt::strand_id w = next_strand++;  // child's first strand
        const rt::strand_id v = next_strand++;  // parent continuation
        if (L != nullptr) {
          if (r.kind == op::spawn) {
            L->on_spawn(parent, u, child, w, v);
          } else {
            L->on_create(parent, u, child, w, v);
          }
        }
        walk_frame f;
        f.node = static_cast<std::uint32_t>(r.arg);
        f.fn = child;
        f.fork_u = u;
        f.first_w = w;
        f.cont_v = v;
        f.is_future = r.kind == op::create;
        stack.push_back(std::move(f));  // descend: child runs to completion
        cur = w;
        strand_begin(w, child);
        break;
      }

      case op::sync:
        // A no-op sync (no outstanding children) emits nothing in the
        // serial runtime, so the recorded trace has no boundary there —
        // flushing would split a batch the replay keeps whole.
        if (!stack.back().children.empty()) flush();
        trim_log(log);
        do_sync(stack.back());
        break;

      case op::get: {
        flush();
        trim_log(log);
        const auto it = futures.find(static_cast<std::uint32_t>(r.arg));
        if (it == futures.end()) {
          throw online_error(
              "online run touched a future before its canonical depth-first "
              "creation point: the program's futures are not forward-pointing "
              "in serial order, which is outside the detectors' supported "
              "class (paper S2)");
        }
        const future_info fi = it->second;
        walk_frame& top = stack.back();
        const rt::strand_id u = cur;
        const rt::func_id fn = top.fn;
        const rt::strand_id v = next_strand++;
        if (L != nullptr) L->on_get(fn, u, v, fi.fn, fi.last, fi.creator);
        cur = v;
        strand_begin(v, fn);
        break;
      }

      case op::end: {
        flush();
        do_sync(stack.back());  // Cilk's implicit sync (no-op if no children)
        const rt::strand_id last = cur;
        if (stack.size() == 1) {
          if (L != nullptr) L->on_program_end(last);
          return;  // walk complete
        }
        const walk_frame fin = std::move(stack.back());
        stack.pop_back();
        release_log(fin.node);  // `end` is the node's last record
        walk_frame& parent = stack.back();
        if (L != nullptr) L->on_return(fin.fn, last, parent.fn);
        if (fin.is_future) {
          futures.emplace(fin.node,
                          future_info{fin.fn, last, fin.fork_u});
        } else {
          parent.children.push_back(rt::child_record{
              fin.fn, fin.fork_u, fin.first_w, last, fin.cont_v});
        }
        cur = fin.cont_v;
        strand_begin(cur, parent.fn);
        break;
      }
    }
  }
}

}  // namespace frd::online
