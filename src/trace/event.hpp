// First-class execution traces: the event model.
//
// A trace is the serializable form of everything a detection run consumes —
// the dag-growth events of rt::execution_listener plus the instrumented
// memory accesses — so that detection can run *without* the program: record
// once, replay through any backend (see trace_recorder / trace_player).
//
// trace_event is a compact POD tagged union. Two listener callbacks need
// flattening to stay self-contained:
//
//   on_sync    carries spans into runtime-owned scratch; it becomes one
//              sync_begin{fn, before, count} followed by exactly `count`
//              sync_child events, each pairing children[i] (spawn order)
//              with join_strands[i] (span order). The player checks them
//              positionally against the sync its canonical walk emits, so
//              the binary-join reversal documented in events.hpp is
//              preserved bit-for-bit.
//   accesses   are granule-normalized at record time: one read/write event
//              per touched granule, carrying the granule's base address.
//              The recording granule lives in the trace_header; replaying
//              under the same granule reproduces the exact shadow behavior.
//
// Sinks and sources are sink-agnostic seams: trace_writer and trace_reader
// (codec.hpp) stream to/from bytes, jsonl_writer renders events for
// reading, memory_trace keeps events in RAM for tests and replay benches.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/events.hpp"

namespace frd::trace {

// Raised on malformed trace input: bad magic, unsupported version, truncated
// stream, unknown event kind, or a replayed trace whose granule does not
// match the session's. Catchable like detect::backend_error.
class trace_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class event_kind : std::uint8_t {
  program_begin = 0,
  program_end,
  strand_begin,
  spawn,
  create,
  ret,
  sync_begin,
  sync_child,
  get,
  read,
  write,
};
inline constexpr int kEventKindCount = 11;

constexpr std::string_view to_string(event_kind k) {
  switch (k) {
    case event_kind::program_begin: return "program_begin";
    case event_kind::program_end: return "program_end";
    case event_kind::strand_begin: return "strand_begin";
    case event_kind::spawn: return "spawn";
    case event_kind::create: return "create";
    case event_kind::ret: return "return";
    case event_kind::sync_begin: return "sync_begin";
    case event_kind::sync_child: return "sync_child";
    case event_kind::get: return "get";
    case event_kind::read: return "read";
    case event_kind::write: return "write";
  }
  return "?";
}

struct trace_event {
  event_kind kind = event_kind::program_begin;
  union {
    struct {
      rt::func_id main_fn;
      rt::strand_id first;
    } program_begin;
    struct {
      rt::strand_id last;
    } program_end;
    struct {
      rt::strand_id s;
      rt::func_id owner;
    } strand_begin;
    // spawn and create share this shape (events.hpp on_spawn/on_create).
    struct {
      rt::func_id parent;
      rt::strand_id u;
      rt::func_id child;
      rt::strand_id w;
      rt::strand_id v;
    } fork;
    struct {
      rt::func_id child;
      rt::strand_id last;
      rt::func_id parent;
    } ret;
    struct {
      rt::func_id fn;
      rt::strand_id before;
      std::uint32_t count;  // sync_child events that follow immediately
    } sync_begin;
    struct {
      rt::func_id child;
      rt::strand_id fork_strand;
      rt::strand_id child_first;
      rt::strand_id child_last;
      rt::strand_id cont_first;
      rt::strand_id join_strand;
    } sync_child;
    struct {
      rt::func_id fn;
      rt::strand_id u;
      rt::strand_id v;
      rt::func_id fut;
      rt::strand_id w;
      rt::strand_id creator;
    } get;
    // read and write share this shape: the granule's base address.
    struct {
      std::uint64_t addr;
    } access;
  };
};

// The codec views every event as kind + up to 6 unsigned fields, so the
// binary and JSONL encoders share one table-driven core.
inline constexpr int kMaxEventFields = 6;

struct event_fields {
  std::uint64_t v[kMaxEventFields] = {};
  int n = 0;
};

int field_count(event_kind k);
// Field names in encoding order, for jsonl_writer (`frd-trace dump`) and
// replay's error messages.
const char* const* field_names(event_kind k);
event_fields fields_of(const trace_event& e);
// Validates ranges (32-bit ids must fit); throws trace_error otherwise.
trace_event event_from(event_kind k, const event_fields& f);

bool operator==(const trace_event& a, const trace_event& b);
inline bool operator!=(const trace_event& a, const trace_event& b) {
  return !(a == b);
}

inline constexpr std::uint32_t kTraceVersion = 1;

struct trace_header {
  std::uint32_t version = kTraceVersion;
  // Shadow granule (bytes, power of two) the accesses were normalized with.
  std::uint32_t granule = 4;
};

// Receiver of a recorded event stream (a codec writer or an in-memory
// buffer). put() is called in program order; the recording run is serial.
// A trace_recorder announces its header (granule) via on_header before the
// first put: buffers adopt it, codec writers (whose header is already on the
// wire) reject a mismatch instead of producing a lying trace.
class trace_sink {
 public:
  virtual ~trace_sink() = default;
  virtual void on_header(const trace_header& /*h*/) {}
  virtual void put(const trace_event& e) = 0;
  // Completes the trace (end marker, flush) and surfaces I/O failure as
  // trace_error; a no-op for sinks with nothing to finalize.
  virtual void finish() {}
};

// Producer side: a stored trace that can be streamed back out.
class trace_source {
 public:
  virtual ~trace_source() = default;
  virtual const trace_header& header() const = 0;
  // Fills `e` and returns true, or returns false at end of trace. Throws
  // trace_error on malformed input.
  virtual bool next(trace_event& e) = 0;
  // Bulk fast path for the replay hot loop: a view of the next run of
  // consecutive read/write events (at most `max` of them), with the cursor
  // advanced past the returned span; the view stays valid until the next
  // call. memory_trace returns views of its storage, and the binary readers
  // decode a run into storage of their own, so the player iterates access
  // runs in place — no per-event virtual dispatch, which is most of a
  // replayed access's fixed cost. An empty span means the next event is a
  // dag event, end of trace, or an event the source cannot hand out as a
  // run (this default returns empty always); the caller then falls back to
  // next(). A source may end a run early.
  virtual std::span<const trace_event> access_run(std::size_t max) {
    (void)max;
    return {};
  }
};

// In-memory trace: a sink that can be rewound into a source as many times as
// needed (replay benches, multi-backend differential tests).
class memory_trace final : public trace_sink, public trace_source {
 public:
  memory_trace() = default;
  explicit memory_trace(trace_header h) : header_(h) {}

  void on_header(const trace_header& h) override { header_ = h; }
  void put(const trace_event& e) override { events_.push_back(e); }
  const trace_header& header() const override { return header_; }
  bool next(trace_event& e) override {
    if (cursor_ >= events_.size()) return false;
    e = events_[cursor_++];
    return true;
  }
  std::span<const trace_event> access_run(std::size_t max) override {
    const std::size_t begin = cursor_;
    std::size_t limit = begin + max;
    if (limit > events_.size()) limit = events_.size();
    std::size_t i = begin;
    while (i < limit && (events_[i].kind == event_kind::read ||
                         events_[i].kind == event_kind::write)) {
      ++i;
    }
    cursor_ = i;
    return {events_.data() + begin, i - begin};
  }

  void rewind() { cursor_ = 0; }
  std::size_t size() const { return events_.size(); }
  const std::vector<trace_event>& events() const { return events_; }
  trace_header& mutable_header() { return header_; }

 private:
  trace_header header_;
  std::vector<trace_event> events_;
  std::size_t cursor_ = 0;
};

}  // namespace frd::trace
