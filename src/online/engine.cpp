// The online detection pump: ring drain + canonical depth-first walk.
//
// run_walk drives rt::canonical_walk, the walk serial_runtime drives, from
// per-node handle queues instead of eager execution: it forks at a
// spawn/create record and returns at the child's end record, so its ids
// and listener events are serial_runtime's by construction. What stays
// here is online's own: the workers' segments and their handoff, the
// per-node queues, the access run and where it flushes, and the table of
// finished futures by node id.
#include "online/engine.hpp"

#include <algorithm>

#include "runtime/canonical_walk.hpp"
#include "support/check.hpp"
#include "support/granule.hpp"

namespace frd::online {

namespace {
thread_local std::uint32_t tls_node = kNoNode;
// The calling thread's repeat-filter window stamp. It only grows, so a
// filter entry from an earlier window (or an earlier engine on this
// thread) never matches; it starts at 1 because empty slots hold 0.
thread_local std::uint64_t tls_window = 1;
// Walked segments a worker keeps for reuse; the pump frees the rest.
constexpr std::size_t kSpareSegments = 16;
// Queues whose consumed prefix is at least this long and at least half the
// queue are trimmed.
constexpr std::size_t kTrimHandles = 1024;
// Released queue storage kept for reuse.
constexpr std::size_t kSpareQueues = 64;
}  // namespace

thread_local engine::lane* engine::tls_lane_ = nullptr;

engine::lane::lane(unsigned index, std::size_t ring_capacity)
    : index(index),
      ring(ring_capacity),
      spares(kSpareSegments),
      seg(new segment(index)) {}

engine::lane::~lane() {
  delete seg;
  segment* s = nullptr;
  while (spares.try_pop(s)) delete s;
}

engine::engine(const config& cfg)
    : cfg_(cfg),
      router_(*this),
      granule_mask_(frd::granule_mask(cfg.granule)) {
  FRD_CHECK_MSG(frd::valid_granule(cfg_.granule),
                "online engine granule must be a power of two in [1, 4096]");
  run_.copy.reserve(kBatchCapacity);
}

engine::~engine() { abort(); }

std::uint32_t engine::current_node() {
  FRD_CHECK_MSG(tls_node != kNoNode,
                "online operation on a thread with no bound function "
                "instance (instrumented access outside the online run?)");
  return tls_node;
}

// A node switch starts a new window: without it, a task run right after
// another node's accesses with no dag record in between (the runtime's
// quiesce running untouched futures after the root's last accesses) would
// see the other node's entries as its own. The switch also publishes those
// accesses, so a handle never mixes nodes.
std::uint32_t engine::bind(std::uint32_t node) {
  lane& l = my_lane();
  if (l.fill != l.begin) publish(l, op::none, 0);
  tls_lane_ = &l;
  const std::uint32_t prev = tls_node;
  tls_node = node;
  ++tls_window;
  return prev;
}

// Hands the run [begin, fill) of the bound node and the dag record to the
// pump. A full ring is backpressure: the pump drains every ring whenever it
// waits, so this spin always terminates.
void engine::publish(lane& l, op kind, std::uint32_t arg) {
  handle h;
  h.seg = l.seg;
  h.begin = l.begin;
  h.count = l.fill - l.begin;
  h.node = tls_node;
  h.kind = kind;
  h.last = l.fill == segment::kAccesses;
  h.arg = arg;
  while (!l.ring.try_push(h)) std::this_thread::yield();
  l.begin = l.fill;
  if (h.last) take_segment(l);
}

// A worker never waits for its segments to come back: with none pooled it
// allocates, so segment memory follows the walk's backlog.
void engine::take_segment(lane& l) {
  if (!l.spares.try_pop(l.seg)) {
    l.seg = new segment(l.index);
    segments_live_.fetch_add(1, std::memory_order_relaxed);
  }
  l.begin = 0;
  l.fill = 0;
}

void engine::log(op kind, std::uint32_t arg) {
  (void)current_node();
  ++tls_window;  // a dag record ends the node's strand, and the window
  publish(*tls_lane_, kind, arg);
}

void engine::log_access(const void* p, std::size_t bytes, bool is_write) {
  (void)current_node();
  lane& l = *tls_lane_;
  frd::for_each_granule(p, bytes, cfg_.granule, granule_mask_,
                        [&](std::uintptr_t a) {
                          if (cfg_.elide_repeats &&
                              l.filter.repeat(a, tls_window, is_write)) {
                            ++l.elided;
                            return;
                          }
                          if (l.fill == segment::kAccesses) {
                            publish(l, op::none, 0);
                          }
                          l.seg->acc[l.fill++] =
                              detect::hooks::access{a, is_write};
                        });
}

// Each worker bumps its tally only inside task bodies (or the root, on this
// thread), and the runtime releases its live-task count after every task
// body; run() returns only after its quiesce acquired that count at zero,
// which orders all of them before this.
std::uint64_t engine::elided() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->elided;
  return n;
}

std::uint32_t engine::begin_program(unsigned workers, bool single_touch) {
  FRD_CHECK_MSG(!begun_, "an online engine runs exactly one program");
  begun_ = true;
  single_touch_ = single_touch;
  for (unsigned i = 0; i < workers; ++i) {
    lanes_.push_back(std::make_unique<lane>(i, cfg_.ring_capacity));
  }
  segments_live_.store(lanes_.size(), std::memory_order_relaxed);
  const std::uint32_t root = next_node_.fetch_add(1, std::memory_order_relaxed);
  FRD_CHECK(root == 0);  // the walk hard-codes main as node 0
  pump_ = std::thread([this] { pump_main(); });
  return root;
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
  note_held();
  // A completed walk has walked every handle; a failed one leaves queued
  // handles and possibly a pinned run, which go back to their segments.
  discard_queued();
  if (pump_error_ != nullptr) {
    // Sink mode: the walk died, but producers may still be running and must
    // never block on a full ring. Keep draining (and recycling) until the
    // host tears the run down.
    sinking_ = true;
    while (!stop_.load(std::memory_order_acquire)) {
      if (drain_rings() == 0) std::this_thread::yield();
    }
    drain_rings();
  }
}

// Takes at most one ring's capacity from each ring per call: a worker that
// publishes as fast as the pump pops cannot keep the pump draining (and the
// queues growing) while the walk waits.
std::size_t engine::drain_rings() {
  std::size_t drained = 0;
  handle h;
  for (auto& l : lanes_) {
    // Consecutive handles of one worker are mostly one node's.
    std::uint32_t last_node = kNoNode;
    node_queue* q = nullptr;
    for (std::size_t n = 0; n < cfg_.ring_capacity && l->ring.try_pop(h); ++n) {
      ++drained;
      ++h.seg->unwalked;
      if (h.last) h.seg->closed = true;
      if (sinking_) {
        release(h.seg);
        continue;
      }
      if (h.node != last_node) {
        last_node = h.node;
        q = &queues_[h.node];
      }
      enqueue(*q, h);
      log_records_ += h.count + (h.kind != op::none ? 1 : 0);
    }
  }
  if (log_records_ > peak_log_records_) peak_log_records_ = log_records_;
  if (drained != 0) note_held();
  return drained;
}

void engine::wait_for_handles() {
  unsigned idle = 0;
  while (drain_rings() == 0) {
    if (stop_.load(std::memory_order_acquire)) {
      // Everything the program logged was published before stop_ was set,
      // so one more drain either makes progress (handles that landed since
      // the drain above) or proves the stream ended.
      if (drain_rings() != 0) return;
      throw online_error(
          "online event stream ended before the canonical walk completed "
          "(program torn down mid-run)");
    }
    if (++idle > 64) std::this_thread::yield();
  }
}

void engine::enqueue(node_queue& q, const handle& h) {
  if (q.ops.capacity() == 0 && !spare_queues_.empty()) {
    q.ops = std::move(spare_queues_.back());
    spare_queues_.pop_back();
  }
  const std::size_t cap = q.ops.capacity();
  q.ops.push_back(h);
  queue_slots_ += q.ops.capacity() - cap;
}

// A long-lived node (the root of a long loop of spawns) would otherwise
// keep every handle it ever published. Erasing only once the consumed
// prefix is at least half the queue keeps the cost amortized O(1) per
// handle.
void engine::trim_queue(node_queue& q) {
  if (q.cursor < kTrimHandles || 2 * q.cursor < q.ops.size()) return;
  q.ops.erase(q.ops.begin(),
              q.ops.begin() + static_cast<std::ptrdiff_t>(q.cursor));
  q.cursor = 0;
}

void engine::release_queue(std::uint32_t node) {
  const auto it = queues_.find(node);
  std::vector<handle>& ops = it->second.ops;
  if (spare_queues_.size() < kSpareQueues) {
    ops.clear();
    spare_queues_.push_back(std::move(ops));
  } else {
    queue_slots_ -= ops.capacity();
  }
  queues_.erase(it);
}

// A segment goes back once its worker has moved on from it and nothing
// queued or pinned refers to it.
void engine::release(segment* s) {
  if (--s->unwalked != 0 || !s->closed) return;
  s->closed = false;
  if (!lanes_[s->owner]->spares.try_push(s)) {
    delete s;
    segments_live_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void engine::take_run(segment* s, std::uint32_t begin, std::uint32_t count) {
  access_run& r = run_;
  while (count != 0) {
    const auto take = static_cast<std::uint32_t>(
        std::min<std::size_t>(count, kBatchCapacity - r.size));
    if (r.size == 0) {
      r.seg = s;  // starts in place
      r.begin = begin;
      ++s->unwalked;
    } else if (r.seg != s || r.begin + r.size != begin) {
      spill_run();
      r.copy.insert(r.copy.end(), s->acc.begin() + begin,
                    s->acc.begin() + begin + take);
    }
    r.size += take;
    begin += take;
    count -= take;
    if (r.size == kBatchCapacity) flush_run();
  }
}

void engine::spill_run() {
  access_run& r = run_;
  if (r.seg == nullptr) return;
  r.copy.assign(r.seg->acc.begin() + r.begin,
                r.seg->acc.begin() + r.begin + r.size);
  release(r.seg);
  r.seg = nullptr;
}

void engine::flush_run() {
  access_run& r = run_;
  if (r.size == 0) return;
  if (detect::hooks::access_sink* S = cfg_.sink; S != nullptr) {
    if (r.seg != nullptr) {
      S->on_accesses({r.seg->acc.data() + r.begin, r.size}, cfg_.granule);
    } else {
      S->on_accesses(r.copy, cfg_.granule);
    }
  }
  if (r.seg != nullptr) release(r.seg);
  r.seg = nullptr;
  r.size = 0;
  r.copy.clear();
}

void engine::discard_queued() {
  if (run_.seg != nullptr) release(run_.seg);
  run_ = access_run{};
  for (auto& [node, q] : queues_) {
    for (std::size_t i = q.cursor; i < q.ops.size(); ++i) release(q.ops[i].seg);
  }
  queues_.clear();
  spare_queues_.clear();
  queue_slots_ = 0;
  log_records_ = 0;
}

void engine::note_held() {
  // A hash node is its value and a next pointer; buckets are one pointer.
  const auto table = [](const auto& m) {
    return m.size() * (sizeof(*m.begin()) + sizeof(void*)) +
           m.bucket_count() * sizeof(void*);
  };
  const std::size_t held =
      segments_live_.load(std::memory_order_relaxed) * sizeof(segment) +
      queue_slots_ * sizeof(handle) + table(queues_) + table(futures_);
  if (held > peak_held_bytes_) peak_held_bytes_ = held;
}

void engine::run_walk() {
  rt::canonical_walk walk(cfg_.listener);
  // A structured future is got once, so its entry goes at its get.
  const bool erase_touched = single_touch_;

  // The open function instances, innermost last: each one's online node
  // id, its queue, and what the walk minted at its spawn/create (unused for
  // the root).
  struct open_node {
    std::uint32_t node;
    node_queue* q;
    rt::canonical_walk::fork_ids ids;
  };
  std::vector<open_node> open_nodes{open_node{0, &queues_[0], {}}};

  walk.begin();
  while (true) {
    node_queue& q = *open_nodes.back().q;
    if (q.cursor == q.ops.size()) {
      wait_for_handles();
      continue;
    }
    const handle h = q.ops[q.cursor++];
    log_records_ -= h.count + (h.kind != op::none ? 1 : 0);
    if (h.count != 0) take_run(h.seg, h.begin, h.count);
    release(h.seg);
    switch (h.kind) {
      case op::none:
        break;  // a full segment or a node switch; the run goes on

      case op::spawn:
      case op::create:
        flush_run();
        trim_queue(q);
        // Descend: the child's handles are walked to its end first.
        open_nodes.push_back(open_node{h.arg, &queues_[h.arg],
                                       walk.fork(h.kind == op::create)});
        break;

      case op::sync:
        // A no-op sync (no outstanding children) emits nothing, so the
        // recorded trace has no boundary there — flushing would split a
        // batch the replay keeps whole.
        if (walk.has_children()) flush_run();
        trim_queue(q);
        walk.sync();
        break;

      case op::get: {
        flush_run();
        trim_queue(q);
        const auto it = futures_.find(h.arg);
        if (it == futures_.end()) {
          throw online_error(
              "online run touched a future before its canonical depth-first "
              "creation point: the program's futures are not forward-pointing "
              "in serial order, which is outside the detectors' supported "
              "class (paper S2)");
        }
        walk.get(it->second);
        if (erase_touched) futures_.erase(it);
        break;
      }

      case op::end: {
        flush_run();
        if (open_nodes.size() == 1) {
          walk.end();
          return;  // walk complete
        }
        const open_node fin = open_nodes.back();
        open_nodes.pop_back();
        release_queue(fin.node);  // `end` is the node's last record
        const rt::child_record rec = walk.ret(fin.ids);
        if (fin.ids.is_future) {
          futures_.emplace(fin.node, rec);
          note_held();
        }
        break;
      }
    }
  }
}

}  // namespace frd::online
