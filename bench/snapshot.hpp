// The one snapshot schema of the bench/ trajectory, and its writer
// (perf/README.md documents the schema; tools/perf_compare.py reads it).
//
// A snapshot names its bench and the host it ran on, then lists one row per
// measured value:
//
//   {"bench": "replay_throughput",
//    "host": {"cpu": "Intel(R) Xeon(R) Processor", "nproc": 4,
//             "build": "release"},
//    "rows": [
//      {"family": "replay", "group": "multibags+",
//       "key": {"trace": "lcs-structured", "backend": "multibags+", ...},
//       "metric": "events_per_sec", "value": 2.6e+07, "direction": "higher"},
//      ...]}
//
// `key` identifies the measurement within its family, so the same key in
// two snapshots is the same measurement. Across hosts, absolute values are
// not comparable; what is comparable is a group's share of its family (the
// geomean of the group's values over the geomean of every group's), so
// `family` is the set of rows whose groups are weighed against each other
// and `group` the unit that share is taken of.
#pragma once

#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace frd::snapshot {

enum class better { higher, lower };

struct row {
  std::string family;
  std::string group;
  std::vector<std::pair<std::string, std::string>> key;
  std::string metric;
  double value = 0;
  better direction = better::higher;
};

// What perf_compare matches before it compares absolute values: the
// processor's brand string (read with CPUID, as perfbench does), the number
// of CPUs this process may run on (what `nproc` prints), and whether the
// bench was built with assertions on (a Debug build on the same machine
// runs several times slower).
struct host {
  std::string cpu;
  unsigned nproc = 0;
  std::string build;
};

inline host this_host() {
#ifdef NDEBUG
  host h{"unknown", 0, "release"};
#else
  host h{"unknown", 0, "debug"};
#endif
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    s.erase(s.find_last_not_of(' ') + 1);
    s.erase(0, s.find_first_not_of(' '));
    if (!s.empty()) h.cpu = s;
  }
#endif
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    h.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  return h;
}

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Writes `rows` as bench `bench`'s snapshot at `path`. A write that fails
// ends the bench with exit 1, so no caller goes on to upload a cut file.
inline void write(const std::string& path, const std::string& bench,
                  const std::vector<row>& rows) {
  const host h = this_host();
  std::string text = "{\"bench\": " + json_string(bench) +
                     ",\n \"host\": {\"cpu\": " + json_string(h.cpu) +
                     ", \"nproc\": " + std::to_string(h.nproc) +
                     ", \"build\": " + json_string(h.build) +
                     "},\n \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const row& r = rows[i];
    FRD_CHECK_MSG(std::isfinite(r.value), "snapshot values must be finite");
    text += i == 0 ? "\n  " : ",\n  ";
    text += "{\"family\": " + json_string(r.family) +
            ", \"group\": " + json_string(r.group) + ", \"key\": {";
    for (std::size_t k = 0; k < r.key.size(); ++k) {
      text += (k == 0 ? "" : ", ") + json_string(r.key[k].first) + ": " +
              json_string(r.key[k].second);
    }
    char value[32];
    std::snprintf(value, sizeof value, "%.6g", r.value);
    text += "}, \"metric\": " + json_string(r.metric) + ", \"value\": " +
            value + ", \"direction\": " +
            json_string(r.direction == better::higher ? "higher" : "lower") +
            "}";
  }
  text += "\n ]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool ok = f != nullptr &&
                  std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f == nullptr || std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "%s: writing %s failed\n", bench.c_str(),
                 path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace frd::snapshot
