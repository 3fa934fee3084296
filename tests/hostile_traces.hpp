// Hostile FRDT traces: well-formed bytes whose dag events are not the
// canonical depth-first walk's. Replay must end each of them in a
// trace::trace_error, never in a signal or an abort inside a backend. One
// declarative table, named by intent, shared by the replay tests and the
// serve daemon test; tests/hostile-strand-ids.frdt is the first case's
// bytes, for the CLI and CI checks.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/event.hpp"

namespace frd::trace::testing {

// One event, written as its kind and its fields in wire order.
struct raw_event {
  event_kind kind;
  std::vector<std::uint64_t> fields;
};

struct hostile_case {
  const char* name;
  std::vector<raw_event> events;
  // The case forks a future: a fork-join backend refuses the create
  // (detect::capability_error) before the hostile event is reached.
  bool creates_future = false;
};

inline constexpr std::uint64_t kAddr = 256;  // a two-byte varint

inline const std::vector<hostile_case>& hostile_cases() {
  using k = event_kind;
  static const std::vector<hostile_case> cases = {
      {"strand ids the walk never minted (46 bytes)",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {4000000000, 0}},
        {k::write, {kAddr}},
        {k::spawn, {0, 4000000000, 9, 3000000000, 12}},
        {k::strand_begin, {3000000000, 9}},
        {k::write, {kAddr}},
        {k::program_end, {1}}}},
      {"get of a future never created (25 bytes)",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::get, {0, 0, 1, 7, 5, 0}},
        {k::write, {kAddr}},
        {k::program_end, {1}}}},
      {"return with no open fork",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::ret, {1, 0, 0}},
        {k::strand_begin, {1, 0}},
        {k::program_end, {1}}}},
      {"sync_child outside a sync",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::sync_child, {1, 0, 1, 1, 2, 3}},
        {k::program_end, {0}}}},
      {"sync_begin counting two children where one is outstanding",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::spawn, {0, 0, 1, 1, 2}},
        {k::strand_begin, {1, 1}},
        {k::ret, {1, 1, 0}},
        {k::strand_begin, {2, 0}},
        {k::sync_begin, {0, 2, 2}},
        {k::sync_child, {1, 0, 1, 1, 2, 3}},
        {k::sync_child, {1, 0, 1, 1, 2, 4}},
        {k::strand_begin, {4, 0}},
        {k::program_end, {4}}}},
      {"strand_begin that skips an id",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::spawn, {0, 0, 1, 1, 2}},
        {k::strand_begin, {2, 1}},
        {k::write, {kAddr}}}},
      {"second program_begin",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::program_end, {0}}}},
      {"dag event before program_begin",
       {{k::spawn, {0, 0, 1, 1, 2}},
        {k::strand_begin, {1, 1}},
        {k::write, {kAddr}}}},
      {"get of a future from inside its own body",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::create, {0, 0, 1, 1, 2}},
        {k::strand_begin, {1, 1}},
        {k::get, {1, 1, 3, 1, 1, 0}},
        {k::strand_begin, {3, 1}},
        {k::write, {kAddr}}},
       /*creates_future=*/true},
      {"access before program_begin",
       {{k::write, {kAddr}},
        {k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::program_end, {0}}}},
      {"access after program_end",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::program_end, {0}},
        {k::write, {kAddr}}}},
      {"program_end with a fork open",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::spawn, {0, 0, 1, 1, 2}},
        {k::strand_begin, {1, 1}},
        {k::program_end, {1}}}},
      {"sync cut short by the end of the trace",
       {{k::program_begin, {0, 0}},
        {k::strand_begin, {0, 0}},
        {k::spawn, {0, 0, 1, 1, 2}},
        {k::strand_begin, {1, 1}},
        {k::ret, {1, 1, 0}},
        {k::strand_begin, {2, 0}},
        {k::sync_begin, {0, 2, 1}}}},
  };
  return cases;
}

// The case's FRDT bytes at granule 4.
inline std::string hostile_bytes(const hostile_case& c) {
  std::ostringstream out;
  trace_writer w(out, trace_header{kTraceVersion, 4});
  for (const raw_event& r : c.events) {
    event_fields f;
    f.n = static_cast<int>(r.fields.size());
    for (int i = 0; i < f.n; ++i) f.v[i] = r.fields[static_cast<std::size_t>(i)];
    w.put(event_from(r.kind, f));
  }
  w.finish();
  return out.str();
}

}  // namespace frd::trace::testing
