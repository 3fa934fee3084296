// The canonical depth-first walk: the one place strand and function ids are
// minted and the dag-growth events of events.hpp are emitted, in the serial
// depth-first eager order the paper's detectors are defined over (§2).
//
// serial_runtime runs each child body eagerly between fork() and ret(); the
// online pump (online/engine.cpp) forks at a child's spawn/create record
// and returns at its end record. Both drive this class, so the pump emits
// serial_runtime's event stream by construction. What fork() minted
// stays with the caller and comes back at ret(), so a frame holds only
// its function id and outstanding spawned children.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/events.hpp"

namespace frd::rt {

class canonical_walk {
 public:
  // The ids fork() minted for one child function instance.
  struct fork_ids {
    func_id child = kNoFunc;
    strand_id u = kNoStrand;  // parent strand that ended with the fork
    strand_id w = kNoStrand;  // child's first strand
    strand_id v = kNoStrand;  // parent's continuation strand
    bool is_future = false;
  };

  explicit canonical_walk(execution_listener* listener) : listener_(listener) {}

  // Starts a fresh program: ids restart at 0 with the main function and
  // its first strand.
  void begin() {
    next_strand_ = 0;
    next_func_ = 0;
    const func_id main_fn = next_func_++;
    cur_ = next_strand_++;
    if (listener_) listener_->on_program_begin(main_fn, cur_);
    stack_.push_back(frame{main_fn, {}});
    if (listener_) listener_->on_strand_begin(cur_, main_fn);
  }

  // The main function returns (after Cilk's implicit sync).
  void end() {
    sync();
    stack_.pop_back();
    if (listener_) listener_->on_program_end(cur_);
  }

  // Drops every open frame, for a caller whose program unwound mid-walk.
  void clear() { stack_.clear(); }

  bool open() const { return !stack_.empty(); }

  // The current function spawns a child (is_future = false) or creates a
  // future; the walk descends into the new function instance.
  fork_ids fork(bool is_future) {
    const func_id parent = stack_.back().fn;
    // A braced list is evaluated left to right: w is minted before v.
    const fork_ids ids{next_func_++, cur_, next_strand_++, next_strand_++,
                       is_future};
    if (listener_) {
      if (is_future) {
        listener_->on_create(parent, ids.u, ids.child, ids.w, ids.v);
      } else {
        listener_->on_spawn(parent, ids.u, ids.child, ids.w, ids.v);
      }
    }
    stack_.push_back(frame{ids.child, {}});
    cur_ = ids.w;
    if (listener_) listener_->on_strand_begin(ids.w, ids.child);
    return ids;
  }

  // The child that fork() returned `ids` for returns, after Cilk's implicit
  // sync, and its parent resumes at ids.v. A spawned child waits in the
  // parent's frame for its next sync; a future is joined only by get(),
  // which takes the record returned here.
  child_record ret(const fork_ids& ids) {
    sync();
    const child_record rec{ids.child, ids.u, ids.w, cur_, ids.v};
    stack_.pop_back();
    frame& parent = stack_.back();
    if (listener_) listener_->on_return(ids.child, rec.child_last, parent.fn);
    if (!ids.is_future) parent.children.push_back(rec);
    cur_ = ids.v;
    if (listener_) listener_->on_strand_begin(ids.v, parent.fn);
    return rec;
  }

  // Joins every child spawned in the current function since its last
  // sync, one binary join per child (events.hpp). Emits nothing when there
  // are none, like Cilk's sync.
  void sync() {
    frame& fr = stack_.back();
    if (fr.children.empty()) return;
    joins_.clear();
    for (std::size_t i = 0; i < fr.children.size(); ++i)
      joins_.push_back(next_strand_++);
    if (listener_) {
      execution_listener::sync_event e{fr.fn, cur_, fr.children, joins_};
      listener_->on_sync(e);
    }
    cur_ = joins_.back();
    fr.children.clear();
    if (listener_) listener_->on_strand_begin(cur_, fr.fn);
  }

  // The current function gets the future whose ret() returned `fut`.
  void get(const child_record& fut) {
    const func_id fn = stack_.back().fn;
    const strand_id u = cur_;
    const strand_id v = next_strand_++;
    if (listener_)
      listener_->on_get(fn, u, v, fut.child, fut.child_last, fut.fork_strand);
    cur_ = v;
    if (listener_) listener_->on_strand_begin(v, fn);
  }

  // True when the current function has spawned children a sync would join.
  bool has_children() const { return !stack_.back().children.empty(); }

  strand_id current_strand() const { return cur_; }
  std::uint32_t strand_count() const { return next_strand_; }
  execution_listener* listener() const { return listener_; }

 private:
  struct frame {
    func_id fn;
    std::vector<child_record> children;
  };

  execution_listener* listener_;
  std::vector<frame> stack_;
  std::vector<strand_id> joins_;
  strand_id cur_ = kNoStrand;
  std::uint32_t next_strand_ = 0;
  std::uint32_t next_func_ = 0;
};

}  // namespace frd::rt
