// The reachability query shared by all backends (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <string_view>

#include "runtime/events.hpp"

namespace frd::detect {

// A reachability backend consumes the runtime's dag-growth events and
// answers the only query a determinacy race detector needs (paper §3):
// "does previously executed strand u precede the currently executing
// strand?" (If not, they are logically parallel — the current strand cannot
// be preceded by u's successors, which have not executed yet.)
//
// Every dag event advances version() before the backend's handler runs, so
// an answer holds for one epoch, the stretch between two dag events. The
// detector caches answers per epoch on that stamp, and a backend may hoist
// the current-strand side of its query once per epoch the same way
// (multibags_plus). precedes_current is not safe to call concurrently: bag
// lookups path-compress.
class reachability_backend : public rt::execution_listener {
 public:
  // The §3 query: u precedes the currently executing strand.
  virtual bool precedes_current(rt::strand_id u) = 0;

  // Epoch stamp: advanced by every dag-growth event, before the backend's
  // handler runs.
  std::uint64_t version() const { return version_; }

  virtual std::string_view name() const = 0;
  // Structured-future discipline violations noticed at get_fut (0 when the
  // backend does not check).
  virtual std::uint64_t structured_violations() const { return 0; }

  // execution_listener — final on purpose: the base class owns the epoch,
  // so no backend can forget to advance it. Backends override the handle_*
  // hooks instead.
  void on_program_begin(rt::func_id f, rt::strand_id s) final {
    ++version_;
    handle_program_begin(f, s);
  }
  void on_program_end(rt::strand_id s) final {
    ++version_;
    handle_program_end(s);
  }
  void on_strand_begin(rt::strand_id s, rt::func_id f) final {
    ++version_;
    handle_strand_begin(s, f);
  }
  void on_spawn(rt::func_id p, rt::strand_id u, rt::func_id c, rt::strand_id w,
                rt::strand_id v) final {
    ++version_;
    handle_spawn(p, u, c, w, v);
  }
  void on_create(rt::func_id p, rt::strand_id u, rt::func_id c, rt::strand_id w,
                 rt::strand_id v) final {
    ++version_;
    handle_create(p, u, c, w, v);
  }
  void on_return(rt::func_id c, rt::strand_id last, rt::func_id p) final {
    ++version_;
    handle_return(c, last, p);
  }
  void on_sync(const sync_event& e) final {
    ++version_;
    handle_sync(e);
  }
  void on_get(rt::func_id fn, rt::strand_id u, rt::strand_id v, rt::func_id fut,
              rt::strand_id w, rt::strand_id creator) final {
    ++version_;
    handle_get(fn, u, v, fut, w, creator);
  }

 protected:
  virtual void handle_program_begin(rt::func_id, rt::strand_id) {}
  virtual void handle_program_end(rt::strand_id) {}
  virtual void handle_strand_begin(rt::strand_id, rt::func_id) {}
  virtual void handle_spawn(rt::func_id, rt::strand_id, rt::func_id,
                            rt::strand_id, rt::strand_id) {}
  virtual void handle_create(rt::func_id, rt::strand_id, rt::func_id,
                             rt::strand_id, rt::strand_id) {}
  virtual void handle_return(rt::func_id, rt::strand_id, rt::func_id) {}
  virtual void handle_sync(const sync_event&) {}
  virtual void handle_get(rt::func_id, rt::strand_id, rt::strand_id,
                          rt::func_id, rt::strand_id, rt::strand_id) {}

 private:
  std::uint64_t version_ = 0;
};

}  // namespace frd::detect
