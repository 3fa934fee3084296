// Online detection: the wire format between program threads and the pump.
//
// Every worker of the online scheduler appends the granule accesses of the
// function instance it is running (less the same-window repeats its filter
// drops, engine.hpp) into a private *segment* with plain stores, and
// publishes them on its SPSC ring (ring.hpp) as one *handle*: a run of one
// node's accesses in a segment, closed by at most one dag record (spawn,
// create, sync, get, function end). A worker publishes at every dag record,
// at every node switch and when its segment fills, so a handle never mixes
// nodes. Handles carry the *online node id* of the function instance that
// issued them — a dense id minted by the engine at spawn/create time in
// real-time order. The pump (engine.cpp) queues handles per node; because
// a function instance's body runs entirely on one thread (child-stealing
// scheduler, continuations never migrate) and helping only ever executes
// *other* instances, each node's handles arrive in its program order even
// though a ring interleaves many nodes.
//
// Canonical strand/function ids are NOT on the wire: the pump's walk mints
// them through rt::canonical_walk, the walk serial_runtime drives, so the
// emitted event stream is serial_runtime's (runtime/canonical_walk.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "detect/hooks.hpp"

namespace frd::online {

// "No node" marker for the thread-local node binding (engine::bind).
inline constexpr std::uint32_t kNoNode = static_cast<std::uint32_t>(-1);

enum class op : std::uint8_t {
  none = 0,  // no dag record: the handle is an access run only
  spawn,     // arg = online node id of the spawned child
  create,    // arg = online node id of the created future
  sync,      // joins the node's outstanding canonical children
  get,       // arg = online node id of the touched future
  end,       // the node's body returned; last record of every node
};

// A block of granule accesses one worker appends to, in the form the
// detector's batched path takes (hooks::on_accesses), so the pump hands
// runs to it in place. The access array is written only by the owning
// worker; the pump's bookkeeping lives in its own cache line and is
// touched only by the pump while the segment is published.
struct segment {
  static constexpr std::size_t kAccesses = 4096;  // 64 KiB of accesses

  explicit segment(unsigned owner_lane) : owner(owner_lane) {}

  const unsigned owner;        // lane whose worker appends to it
  std::uint32_t unwalked = 0;  // pump: queued handles into it, not yet walked
  bool closed = false;         // pump: the worker appends nothing more
  // Left uninitialized: the worker writes each slot before publishing it.
  alignas(64) std::array<detect::hooks::access, kAccesses> acc;
};

// What crosses a ring: accesses [begin, begin + count) of seg, all issued by
// `node`, then the dag record `kind` (none for a run cut by a node switch or
// a full segment).
struct handle {
  segment* seg = nullptr;
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
  std::uint32_t node = 0;  // issuing function instance (online node id)
  op kind = op::none;
  bool last = false;       // the worker has moved on to another segment
  std::uint32_t arg = 0;   // child / future node id (spawn, create, get)
};

static_assert(sizeof(handle) == 32, "two handles per cache line");

}  // namespace frd::online
