// online::runtime — the program-facing API of online detection.
//
// There is one work-stealing runtime, rt::parallel_runtime; an online run
// is that runtime with an online::engine as its observer:
//
//   online::engine eng(online::engine::config{...});
//   online::runtime rt(workers, &eng);
//   rt.run([&] { ... });
//   eng.finish();
//
// The runtime owns the scheduler, the tasks and futures, and run(); the
// engine logs each dag operation and binds each function instance to the
// worker that runs it (online/engine.hpp). Kernels templated on the runtime
// type run unchanged on serial_runtime or on this, bare or observed.
#pragma once

#include "online/engine.hpp"
#include "runtime/parallel.hpp"

namespace frd::online {

using runtime = rt::parallel_runtime;
template <typename T>
using future = rt::pfuture<T>;

}  // namespace frd::online
