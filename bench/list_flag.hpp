// Comma-separated flag values ("64,256,1024", "1,0.1", "multibags,multibags+")
// for the benches. Every token must be consumed whole: "1x", "64;256", an
// empty token or an out-of-range number is a usage error that names the
// flag and exits 2, never a silent run of some other configuration.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace frd::list_flag {

[[noreturn]] inline void reject(const char* flag, const std::string& spec,
                                const std::string& want) {
  std::fprintf(stderr, "--%s '%s': expected %s\n", flag, spec.c_str(),
               want.c_str());
  std::exit(2);
}

// The tokens of `spec`, empty ones included; an empty spec has none.
inline std::vector<std::string> split(const std::string& spec) {
  std::vector<std::string> out;
  if (spec.empty()) return out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = spec.find(',', pos);
    out.push_back(spec.substr(pos, comma - pos));
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

inline std::vector<std::string> names(const char* flag,
                                      const std::string& spec) {
  std::vector<std::string> out = split(spec);
  for (const std::string& tok : out) {
    if (tok.empty()) reject(flag, spec, "comma-separated names");
  }
  return out;
}

// Integers in [lo, hi].
inline std::vector<std::int64_t> integers(const char* flag,
                                          const std::string& spec,
                                          std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> out;
  for (const std::string& tok : split(spec)) {
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (tok.empty() || *end != '\0' || v < lo || v > hi) {
      reject(flag, spec,
             "comma-separated integers in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]");
    }
    out.push_back(v);
  }
  return out;
}

// Sampling rates, each in (0, 1].
inline std::vector<double> rates(const char* flag, const std::string& spec) {
  std::vector<double> out;
  for (const std::string& tok : split(spec)) {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || *end != '\0' || !(v > 0.0 && v <= 1.0)) {
      reject(flag, spec, "comma-separated rates in (0, 1]");
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace frd::list_flag
