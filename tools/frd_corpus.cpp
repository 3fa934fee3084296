// frd-corpus — generate, verify, and regold the golden trace corpus.
//
//   frd-corpus generate [--dir corpus] [--only NAME]
//   frd-corpus verify   [--dir corpus] [--backend NAME]
//   frd-corpus regold   [--dir corpus] [--only NAME]
//   frd-corpus list     [--dir corpus]
//
// `generate` records the builtin corpus (paper kernels, adversarial shapes,
// fuzz programs) into address-normalized traces, derives their goldens, and
// rewrites corpus/MANIFEST — artifacts are byte-reproducible, so a clean
// regeneration leaves git quiet. `verify` replays every manifest entry
// through every eligible backend and diffs the reports against the goldens;
// on divergence it prints which backend missed which granule on which entry
// and exits 1 (the conformance test runs the same engine under ctest).
// `regold` keeps the traces fixed and re-derives only the goldens — the
// workflow for an intentional detector-behavior change.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/programs.hpp"
#include "corpus/runner.hpp"
#include "detect/registry.hpp"
#include "support/flags.hpp"
#include "trace/event.hpp"

namespace {

using namespace frd;

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <command> ...\n"
               "  generate [--dir corpus] [--only NAME]   record traces + goldens + MANIFEST\n"
               "  verify   [--dir corpus] [--backend NAME]\n"
               "           replay all entries through every eligible backend,\n"
               "           diff vs goldens\n"
               "  regold   [--dir corpus] [--only NAME]   re-derive goldens from existing traces\n"
               "  list     [--dir corpus]                  print the manifest\n",
               prog);
  return 2;
}

// Entries selected by --only (empty selects all); complains on a bad name so
// a typo cannot silently verify nothing.
std::vector<const corpus::corpus_entry*> select(const corpus::manifest& m,
                                                const std::string& only) {
  std::vector<const corpus::corpus_entry*> out;
  for (const corpus::corpus_entry& e : m.entries) {
    if (only.empty() || e.name == only) out.push_back(&e);
  }
  if (out.empty()) {
    throw corpus::corpus_error("--only '" + only +
                               "' matches no corpus entry");
  }
  return out;
}

int cmd_generate(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& dir = flags.string_flag("dir", "corpus", "corpus directory");
  auto& only = flags.string_flag("only", "", "regenerate one entry");
  flags.parse();

  corpus::manifest m = corpus::builtin_manifest();
  for (const corpus::corpus_entry* e : select(m, only)) {
    trace::memory_trace tape = corpus::record_entry(*e);
    const corpus::golden_report gold =
        corpus::gold_from_trace(tape, e->futures);
    // Hold every eligible backend to the fresh golden before anything is
    // written: generate must never ship a corpus that verify would reject.
    for (const std::string& backend : corpus::eligible_backends(e->futures)) {
      const auto details = corpus::check_backend(tape, gold, backend);
      for (const std::string& d : details) {
        std::fprintf(stderr, "generate %s [%s]: %s\n", e->name.c_str(),
                     backend.c_str(), d.c_str());
      }
      if (!details.empty()) return 1;
    }
    corpus::save_trace(dir + "/" + e->trace_file, tape);
    corpus::save_golden(dir + "/" + e->golden_file, gold);
    std::printf("generated %-16s %6zu events, %3zu racy granule(s)\n",
                e->name.c_str(), tape.size(), gold.racy_granules.size());
  }
  if (only.empty()) {
    std::ofstream out(dir + "/MANIFEST");
    if (!out) {
      std::fprintf(stderr, "generate: cannot write %s/MANIFEST\n",
                   dir.c_str());
      return 1;
    }
    corpus::write_manifest(out, m);
    std::printf("wrote %s/MANIFEST (%zu entries)\n", dir.c_str(),
                m.entries.size());
  }
  return 0;
}

int cmd_regold(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& dir = flags.string_flag("dir", "corpus", "corpus directory");
  auto& only = flags.string_flag("only", "", "regold one entry");
  flags.parse();

  const corpus::manifest m = corpus::load_manifest(dir + "/MANIFEST");
  for (const corpus::corpus_entry* e : select(m, only)) {
    trace::memory_trace tape = corpus::load_trace(dir + "/" + e->trace_file);
    const corpus::golden_report gold =
        corpus::gold_from_trace(tape, e->futures);
    corpus::save_golden(dir + "/" + e->golden_file, gold);
    std::printf("regolded %-16s %3zu racy granule(s)\n", e->name.c_str(),
                gold.racy_granules.size());
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& dir = flags.string_flag("dir", "corpus", "corpus directory");
  auto& backend = flags.string_flag("backend", "",
                                    "check only this backend (default: all)");
  flags.parse();

  const corpus::manifest m = corpus::load_manifest(dir + "/MANIFEST");
  if (!backend.empty()) {
    detect::backend_registry::instance().at(backend);  // throws with the list
  }
  const corpus::verify_result result = corpus::verify_corpus(m, dir, backend);
  for (const corpus::divergence& d : result.failures) {
    for (const std::string& line : d.details) {
      std::fprintf(stderr, "FAIL %s [%s]: %s\n", d.entry.c_str(),
                   d.backend.c_str(), line.c_str());
    }
  }
  if (!result.ok()) {
    std::fprintf(stderr,
                 "corpus verify: %zu divergent entry/backend pair(s) out of "
                 "%zu checks\n",
                 result.failures.size(), result.checks);
    return 1;
  }
  std::printf("corpus verify: %zu entries x eligible backends, %zu checks, "
              "all conform\n",
              m.entries.size(), result.checks);
  return 0;
}

int cmd_list(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& dir = flags.string_flag("dir", "corpus", "corpus directory");
  flags.parse();

  const corpus::manifest m = corpus::load_manifest(dir + "/MANIFEST");
  std::printf("%-16s %-12s %-10s %7s %6s  %s\n", "entry", "kind", "futures",
              "granule", "seed", "provenance");
  for (const corpus::corpus_entry& e : m.entries) {
    std::printf("%-16s %-12s %-10s %7u %6llu  %s\n", e.name.c_str(),
                std::string(to_string(e.kind)).c_str(),
                e.futures == detect::future_support::general ? "general"
                                                             : "structured",
                e.granule, static_cast<unsigned long long>(e.seed),
                e.provenance.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc - 1, argv + 1);
    if (cmd == "verify") return cmd_verify(argc - 1, argv + 1);
    if (cmd == "regold") return cmd_regold(argc - 1, argv + 1);
    if (cmd == "list") return cmd_list(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "frd-corpus %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage(argv[0]);
}
