#include "corpus/runner.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "api/session.hpp"
#include "container/writer.hpp"
#include "corpus/programs.hpp"
#include "detect/registry.hpp"
#include "trace/codec.hpp"

namespace frd::corpus {

std::vector<std::string> eligible_backends(detect::future_support needed) {
  std::vector<std::string> out;
  const auto& reg = detect::backend_registry::instance();
  for (const std::string& name : reg.names()) {
    const detect::future_support have = reg.at(name).futures;
    if (have == detect::future_support::none) continue;
    if (needed == detect::future_support::general &&
        have == detect::future_support::structured) {
      continue;
    }
    out.push_back(name);
  }
  return out;
}

trace::memory_trace normalize_addresses(trace::memory_trace& raw) {
  trace::memory_trace out(raw.header());
  const std::uint64_t granule = raw.header().granule;
  std::unordered_map<std::uint64_t, std::uint64_t> remap;
  raw.rewind();
  trace::trace_event e;
  while (raw.next(e)) {
    if (e.kind == trace::event_kind::read ||
        e.kind == trace::event_kind::write) {
      const auto [it, fresh] = remap.try_emplace(
          e.access.addr, kNormalizedBase + remap.size() * granule);
      (void)fresh;
      e.access.addr = it->second;
    }
    out.put(e);
  }
  raw.rewind();
  return out;
}

trace::memory_trace record_entry(const corpus_entry& e) {
  const corpus_program* prog = find_program(e.program);
  if (prog == nullptr) {
    throw corpus_error("corpus entry '" + e.name + "' names unknown program '" +
                       e.program + "'");
  }
  trace::memory_trace raw(
      trace::trace_header{trace::kTraceVersion, e.granule});
  // multibags+ accepts both program classes, so every recording runs under
  // the paper's §5 algorithm while the tape captures the raw stream.
  session s(session::options{.backend = "multibags+", .granule = e.granule});
  s.record_to(raw);
  prog->run(s, e.seed);
  return normalize_addresses(raw);
}

namespace {

// Replay outcome in golden_report shape, so diffing is uniform.
golden_report replay_report(trace::memory_trace& tape,
                            const std::string& backend) {
  tape.rewind();
  session s(session::options{.backend = backend,
                             .granule = tape.header().granule});
  const std::uint64_t events = s.replay(tape);
  tape.rewind();
  golden_report r;
  r.granule = tape.header().granule;
  r.events = events;
  r.accesses = s.access_count();
  r.gets = s.get_count();
  r.violations = s.structured_violations();
  for (const std::uintptr_t a : s.report().racy_granules()) {
    r.racy_granules.insert(static_cast<std::uint64_t>(a));
  }
  return r;
}

}  // namespace

golden_report gold_from_trace(trace::memory_trace& tape,
                              detect::future_support futures) {
  golden_report g = replay_report(tape, "reference");
  if (futures == detect::future_support::structured) {
    // The reference backend does not count discipline violations; anchor
    // that number with MultiBags, the §4 algorithm that defines it.
    g.violations = replay_report(tape, "multibags").violations;
  } else {
    g.violations = 0;  // no violation-counting backend replays general traces
  }
  return g;
}

std::vector<std::string> check_backend(trace::memory_trace& tape,
                                       const golden_report& golden,
                                       const std::string& backend) {
  const bool counts =
      detect::backend_registry::instance().at(backend).counts_violations;
  golden_report actual;
  try {
    actual = replay_report(tape, backend);
  } catch (const std::exception& ex) {
    return {std::string("replay threw: ") + ex.what()};
  }
  return diff_goldens(golden, actual, counts);
}

trace::memory_trace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw corpus_error("cannot open trace '" + path + "'");
  // Auto-detects flat binary traces and .frdtz containers.
  auto reader = trace::open_source(in);
  trace::memory_trace tape(reader->header());
  trace::trace_event e;
  while (reader->next(e)) tape.put(e);
  return tape;
}

void save_trace(const std::string& path, trace::memory_trace& tape) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw corpus_error("cannot open trace '" + path + "' for writing");
  // Entries named *.frdtz are stored compressed; the container wraps the
  // same byte stream trace_writer would emit.
  std::unique_ptr<trace::trace_sink> w;
  if (path.size() >= 6 && path.compare(path.size() - 6, 6, ".frdtz") == 0) {
    w = std::make_unique<container::container_writer>(out, tape.header());
  } else {
    w = std::make_unique<trace::trace_writer>(out, tape.header());
  }
  tape.rewind();
  trace::trace_event e;
  while (tape.next(e)) w->put(e);
  tape.rewind();
  w->finish();
  out.close();
  if (!out) throw corpus_error("writing trace '" + path + "' failed");
}

void save_golden(const std::string& path, const golden_report& g) {
  std::ofstream out(path);
  if (!out) throw corpus_error("cannot open golden '" + path + "' for writing");
  write_golden(out, g);
  out.close();
  if (!out) throw corpus_error("writing golden '" + path + "' failed");
}

manifest builtin_manifest() {
  struct spec {
    const char* name;
    entry_kind kind;
    std::uint64_t seed;
    // Million-event entries are stored as .frdtz containers; a flat FRDT
    // artifact at that scale would dwarf the rest of the corpus combined.
    bool compressed = false;
  };
  // Program name == entry name: the builtin corpus records each registered
  // program exactly once, at a fixed seed.
  static constexpr spec kSpecs[] = {
      {"lcs-structured", entry_kind::paper_kernel, 1},
      {"lcs-general", entry_kind::paper_kernel, 2},
      {"sw-structured", entry_kind::paper_kernel, 3},
      {"bst-structured", entry_kind::paper_kernel, 4},
      {"bst-general", entry_kind::paper_kernel, 5},
      {"dedup-structured", entry_kind::paper_kernel, 6},
      {"heartwall-general", entry_kind::paper_kernel, 7},
      {"mm-structured", entry_kind::paper_kernel, 8},
      {"mm-structured-large", entry_kind::paper_kernel, 9},
      {"mm-structured-xl", entry_kind::paper_kernel, 10, true},
      {"tracking-structured-xl", entry_kind::paper_kernel, 11, true},
      {"wavefront-structured-large", entry_kind::paper_kernel, 12, true},
      {"deep-get-chain", entry_kind::adversarial, 0},
      {"wide-fanin", entry_kind::adversarial, 0},
      {"purge-stress", entry_kind::adversarial, 0},
      {"sync-heavy", entry_kind::adversarial, 0},
      {"fuzz-structured", entry_kind::fuzz, 23},
      {"fuzz-general", entry_kind::fuzz, 29},
  };
  manifest m;
  for (const spec& sp : kSpecs) {
    const corpus_program* prog = find_program(sp.name);
    if (prog == nullptr) {
      throw corpus_error(std::string("builtin corpus names unknown program '") +
                         sp.name + "'");
    }
    corpus_entry e;
    e.name = sp.name;
    e.kind = sp.kind;
    e.program = sp.name;
    e.futures = prog->futures;
    e.granule = 4;
    e.seed = sp.seed;
    e.trace_file = e.name + (sp.compressed ? ".frdtz" : ".frdt");
    e.golden_file = e.name + ".golden";
    e.provenance = prog->description;
    m.entries.push_back(std::move(e));
  }
  return m;
}

verify_result verify_corpus(const manifest& m, const std::string& dir,
                            std::string_view only_backend) {
  verify_result out;
  for (const corpus_entry& e : m.entries) {
    trace::memory_trace tape;
    golden_report golden;
    try {
      tape = load_trace(dir + "/" + e.trace_file);
      golden = load_golden(dir + "/" + e.golden_file);
    } catch (const std::exception& ex) {
      out.failures.push_back({e.name, "<corpus artifact>", {ex.what()}});
      continue;
    }
    if (tape.header().granule != e.granule) {
      out.failures.push_back(
          {e.name,
           "<corpus artifact>",
           {"manifest says granule " + std::to_string(e.granule) +
            " but the trace header says " +
            std::to_string(tape.header().granule)}});
      continue;
    }
    for (const std::string& backend : eligible_backends(e.futures)) {
      if (!only_backend.empty() && backend != only_backend) continue;
      ++out.checks;
      std::vector<std::string> details = check_backend(tape, golden, backend);
      if (!details.empty()) {
        out.failures.push_back({e.name, backend, std::move(details)});
      }
    }
  }
  if (out.checks == 0) {
    std::string why;
    if (only_backend.empty()) {
      why = "no (entry, backend) pair was checked";
    } else {
      why = "backend '" + std::string(only_backend) +
            "' is eligible for no corpus entry (fork-join-only or "
            "structured-only vs. this corpus) — 0 checks is not a pass";
    }
    out.failures.push_back(
        {"<corpus>",
         std::string(only_backend.empty() ? "<none>" : only_backend),
         {std::move(why)}});
  }
  return out;
}

}  // namespace frd::corpus
