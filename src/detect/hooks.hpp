// Memory-access hooks: the seam between instrumented kernels and a detector.
//
// Kernels are compiled against a hooks policy (`none` or `active`). The
// `active` policy makes one out-of-line call per access — the call itself is
// the instrumentation cost the paper's "instr" configuration measures, like
// the compiler pass with history maintenance disabled (§6). The call routes
// into the currently installed access_sink, which frd::session installs and
// restores RAII-style around each detection run (scoped_sink), so stacked
// sessions always unwind to the enclosing session's sink. The sink pointer
// is an implementation detail of hooks.cpp; nothing else touches it. The
// pointer itself is atomic so online runs (rt::parallel_runtime observed by
// the online engine, src/online/) can read it from scheduler workers;
// install/restore still happens on one thread at a time (the session's host
// thread), and the installed sink must itself be thread safe when the
// program runs on the parallel runtime (the online engine's router is; the
// plain detector is serial-only).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace frd::detect::hooks {

// One element of a batched access run (on_accesses): a single-granule
// access, already split — addr is the granule base address and the access
// does not cross a granule boundary. Replayed traces store accesses in
// exactly this form, which is what makes the batch path branch-cheap.
struct access {
  std::uintptr_t addr;
  bool is_write;
};

// Receiver of instrumented accesses (implemented by detect::detector).
class access_sink {
 public:
  virtual ~access_sink() = default;
  virtual void on_read(const void* p, std::size_t bytes) = 0;
  virtual void on_write(const void* p, std::size_t bytes) = 0;

  // Batched entry point: a run of single-granule accesses, each `bytes`
  // wide (the recording granule), delivered in one virtual call. The
  // default unrolls into per-access on_read/on_write so every sink accepts
  // batches; the detector overrides it with a loop that skips the
  // per-access dispatch and granule splitting — the replay hot path.
  virtual void on_accesses(std::span<const access> batch, std::size_t bytes);
};

// The sink `active` currently routes into (null when no session is running).
access_sink* current_sink();

// RAII install/restore of the hook sink; nests like the sessions that own it.
class scoped_sink {
 public:
  explicit scoped_sink(access_sink* s);
  ~scoped_sink();
  scoped_sink(const scoped_sink&) = delete;
  scoped_sink& operator=(const scoped_sink&) = delete;

 private:
  access_sink* prev_;
};

// No instrumentation: compiles to nothing (baseline / reachability configs).
struct none {
  static constexpr bool enabled = false;
  static void read(const void*, std::size_t) {}
  static void write(const void*, std::size_t) {}
};

// Full instrumentation: one out-of-line call per access.
struct active {
  static constexpr bool enabled = true;
  static void read(const void* p, std::size_t n);
  static void write(const void* p, std::size_t n);
};

// Typed access helpers used by kernels: H::read/H::write fire before the
// underlying load/store, mirroring where a compiler pass would instrument.
template <typename H, typename T>
inline T ld(const T& x) {
  H::read(&x, sizeof(T));
  return x;
}
template <typename H, typename T, typename V>
inline void st(T& x, V&& v) {
  H::write(&x, sizeof(T));
  x = static_cast<T>(std::forward<V>(v));
}

}  // namespace frd::detect::hooks
