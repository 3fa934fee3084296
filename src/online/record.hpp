// Online detection: the wire format between program threads and the pump.
//
// Every worker of the online scheduler owns one SPSC ring (ring.hpp) into
// which it pushes wire_rec entries as the program executes: one per
// instrumented granule access (less the same-window repeats the worker's
// filter drops, engine.hpp) and one per dag operation (spawn, create,
// sync, get, function end). Records carry the *online node id* of the
// function instance that issued them — a dense id minted by the engine at
// spawn/create time in real-time order. The pump (engine.cpp) demultiplexes
// the rings into per-node logs; because a function instance's body runs
// entirely on one thread (child-stealing scheduler, continuations never
// migrate) and helping only ever executes *other* instances, each node's
// records arrive in its program order even though the ring interleaves many
// nodes.
//
// Canonical strand/function ids are NOT on the wire: the pump's walk mints
// them through rt::canonical_walk, the walk serial_runtime drives, so the
// emitted event stream is serial_runtime's (runtime/canonical_walk.hpp).
#pragma once

#include <cstdint>

namespace frd::online {

// "No node" marker for the thread-local node binding (engine::bind_node).
inline constexpr std::uint32_t kNoNode = static_cast<std::uint32_t>(-1);

enum class op : std::uint8_t {
  access = 0,  // arg = granule base address, is_write set accordingly
  spawn,       // arg = online node id of the spawned child
  create,      // arg = online node id of the created future
  sync,        // joins the node's outstanding canonical children
  get,         // arg = online node id of the touched future
  end,         // the node's body returned; last record of every node
};

// 16 bytes, trivially copyable; the only thing that crosses the rings.
struct wire_rec {
  std::uint32_t node = 0;     // issuing function instance (online node id)
  op kind = op::access;
  std::uint8_t is_write = 0;  // access records only
  std::uint16_t pad = 0;
  std::uint64_t arg = 0;
};

static_assert(sizeof(wire_rec) == 16, "wire_rec should stay ring-friendly");

}  // namespace frd::online
