#include "core/manager.h"

#include <algorithm>

#include "core/error.h"
#include "core/object.h"

namespace alps {

namespace {

/// Total string and blob payload bytes in `list`, nested lists included.
std::size_t payload_bytes(const ValueList& list) {
  std::size_t n = 0;
  for (const Value& v : list) {
    switch (v.kind()) {
      case ValueKind::kString: n += v.string_view().size(); break;
      case ValueKind::kBlob: n += v.as_blob().size(); break;
      case ValueKind::kList: n += payload_bytes(v.as_list()); break;
      default: break;
    }
  }
  return n;
}

}  // namespace

void Manager::check_stop() const {
  if (obj_->stop_source_.stop_requested()) {
    raise(ErrorCode::kObjectStopped, "object " + obj_->name() + " stopping");
  }
  // A watchdog escalation unwinds the manager here with a typed error; the
  // supervision policy (restart/quarantine) takes over from its catch.
  obj_->check_manager_abort();
}

void Manager::assert_manager_thread(const char* op) const {
  // The manager is a single CSP-like process; its primitives are not
  // thread-safe against each other by design, so misuse is caught early.
  if (obj_->manager_thread_id_.load(std::memory_order_acquire) !=
      std::this_thread::get_id()) {
    raise(ErrorCode::kProtocolViolation,
          std::string(op) + " called off the manager thread of object " +
              obj_->name());
  }
}

bool Manager::stop_requested() const {
  return obj_->stop_source_.stop_requested();
}

std::stop_token Manager::stop_token() const {
  return obj_->stop_source_.get_token();
}

std::size_t Manager::pending(EntryRef entry) const {
  return obj_->pending(entry);
}

Accepted Manager::accept(EntryRef entry) {
  assert_manager_thread("accept");
  Object::EntryCore& e = obj_->core_checked(entry, "accept");
  if (!e.intercepted) {
    raise(ErrorCode::kProtocolViolation,
          "accept on non-intercepted entry " + e.decl.name);
  }
  // Ticket-before-check: the ticket snapshots the wake epoch before we
  // inspect kernel state, so a dispatch that lands between our drain and
  // the wait bumps the epoch and the wait returns immediately.
  Object::ActivityScope activity(*obj_, Object::kActAcceptWait);
  for (;;) {
    support::EventCount::Ticket ticket(obj_->mgr_wake_);
    {
      std::scoped_lock lock(obj_->mu_);
      if (auto a = try_accept_locked(entry.index())) return std::move(*a);
    }
    ticket.wait();
  }
}

std::optional<Accepted> Manager::try_accept(EntryRef entry) {
  assert_manager_thread("try_accept");
  obj_->core_checked(entry, "try_accept");
  std::scoped_lock lock(obj_->mu_);
  return try_accept_locked(entry.index());
}

std::optional<Accepted> Manager::try_accept_locked(std::size_t entry) {
  Object::EntryCore& e = obj_->core(entry);
  obj_->drain_intake_locked();
  check_stop();
  if (e.attached.empty()) return std::nullopt;
  const std::size_t slot = e.attached.front();
  obj_->accept_locked(entry, slot);
  obj_->note_progress();
  return obj_->accepted(entry, slot);
}

void Manager::start(const Accepted& a, ValueList hidden_params) {
  assert_manager_thread("start");
  start_body(a, std::nullopt, std::move(hidden_params), /*executing=*/false);
}

void Manager::start_with(const Accepted& a, ValueList iparams,
                         ValueList hidden_params) {
  assert_manager_thread("start");
  start_body(a, std::move(iparams), std::move(hidden_params),
             /*executing=*/false);
}

std::optional<ValueList> Manager::start_locked(const Accepted& a,
                                               std::optional<ValueList> iparams,
                                               ValueList hidden_params) {
  Object::EntryCore& e = obj_->core(a.entry);
  Object::Slot& s = e.slots[a.slot];
  if (s.state != Object::SlotState::kAccepted) {
    raise(ErrorCode::kProtocolViolation,
          "start on " + e.decl.name + "[" + std::to_string(a.slot) +
              "] which is not in the Accepted state");
  }
  if (s.abandoned) {
    // The caller was failed (deadline/cancel) between accept and start:
    // never launch the body. The slot goes straight to Ready carrying the
    // typed error, so the manager's await/finish protocol runs unchanged
    // and reclaims it.
    s.state = Object::SlotState::kReady;
    obj_->note_progress();
    e.ready.push_back(e.slots, a.slot);
    return std::nullopt;
  }
  if (iparams && iparams->size() != e.icept_params) {
    raise(ErrorCode::kArityMismatch,
          "start " + e.decl.name + ": manager must supply the " +
              std::to_string(e.icept_params) +
              " intercepted parameter(s), got " +
              std::to_string(iparams->size()));
  }
  if (hidden_params.size() != e.impl.hidden_params) {
    raise(ErrorCode::kArityMismatch,
          "start " + e.decl.name + ": expects " +
              std::to_string(e.impl.hidden_params) +
              " hidden parameter(s), got " +
              std::to_string(hidden_params.size()));
  }
  // Body parameter list = intercepted prefix, the caller's remaining
  // parameters, then the hidden parameters. The caller's parameters are
  // moved out of the record (the kernel never reads them after start); when
  // the manager re-supplies the prefix unchanged, that is the caller's whole
  // list, with no per-call copy. hidden_params rides by value and is moved.
  ValueList full;
  if (iparams) {
    full = std::move(*iparams);
    full.reserve(full.size() + (s.call->params.size() - e.icept_params) +
                 hidden_params.size());
    full.insert(full.end(),
                std::make_move_iterator(
                    s.call->params.begin() +
                    static_cast<std::ptrdiff_t>(e.icept_params)),
                std::make_move_iterator(s.call->params.end()));
  } else {
    full = std::move(s.call->params);
    full.reserve(full.size() + hidden_params.size());
  }
  s.call->params.clear();
  full.insert(full.end(), std::make_move_iterator(hidden_params.begin()),
              std::make_move_iterator(hidden_params.end()));
  s.state = Object::SlotState::kRunning;
  ++e.starts;
  obj_->trace(e, s.call->id, a.slot, CallPhase::kStarted);
  obj_->note_progress();
  return full;
}

void Manager::start_body(const Accepted& a, std::optional<ValueList> iparams,
                         ValueList hidden_params, bool executing) {
  // The body runs right here on the manager thread, instead of costing a
  // handoff to a pooled worker and one back, when the manager would sit in
  // await on it anyway (executing) or its entry declares it short
  // (ImplDecl::inline_start). Slot states, trace events and counters are
  // those of a pooled start: run_body is the pooled task's own
  // body-plus-epilogue, and it leaves the slot Ready for the next await.
  // Calls carrying >= kZeroCopySliceThreshold payload bytes still take the
  // pool, and so does a start that begins once stop or a watchdog abort is
  // pending (the manager must reach a primitive to unwind). DESIGN.md §4.13.
  std::optional<ValueList> full;
  bool run_inline = false;
  {
    std::scoped_lock lock(obj_->mu_);
    full = start_locked(a, std::move(iparams), std::move(hidden_params));
    run_inline = full &&
                 (executing || obj_->core(a.entry).impl.inline_start) &&
                 payload_bytes(*full) < kZeroCopySliceThreshold &&
                 !obj_->stop_source_.stop_requested() &&
                 !obj_->mgr_abort_.load(std::memory_order_acquire);
    obj_->mgr_inline_ = run_inline;
  }
  if (!run_inline) {
    if (full) obj_->submit_body(a.entry, a.slot, std::move(*full));
    return;
  }
  // The watchdog reports an inline body as the await it replaces.
  obj_->mgr_activity_.store(Object::kActAwaitWait, std::memory_order_relaxed);
  obj_->run_body(a.entry, a.slot, std::move(*full));
  std::scoped_lock lock(obj_->mu_);
  if (obj_->manager_retired()) {
    // stop() or a watchdog escalation retired this thread mid-body and has
    // already failed the call and applied the supervision policy.
    raise(stop_requested() ? ErrorCode::kObjectStopped : ErrorCode::kTimeout,
          "manager of object " + obj_->name() +
              " retired while running an inline body");
  }
  obj_->mgr_inline_ = false;
  obj_->mgr_activity_.store(Object::kActUserCode, std::memory_order_relaxed);
}

void Manager::check_compat_path(std::size_t entry, const char* op) const {
  const Object::EntryCore& e = obj_->core(entry);
  if (!e.compat_participant) {
    raise(ErrorCode::kProtocolViolation,
          std::string(op) + " on entry " + e.decl.name +
              " without compatibility annotations (use compatible_with/"
              "serial_group on the EntryDecl)");
  }
  if (e.impl.hidden_params > 0 || e.impl.hidden_results > 0) {
    raise(ErrorCode::kProtocolViolation,
          std::string(op) + " on entry " + e.decl.name +
              ": hidden params/results need the await/finish protocol and "
              "are not supported on the compat path");
  }
}

void Manager::start_compatible(const Accepted& a) {
  // Multiactive dispatch (DESIGN.md §4.8): launch the accepted call if it is
  // compatible with every in-flight group, otherwise park it kernel-side —
  // the kernel launches it in arrival order when the conflict drains, and
  // completes the caller directly when the body returns (no await/finish).
  assert_manager_thread("start_compatible");
  std::vector<sched::BatchItem> launch;
  {
    std::scoped_lock lock(obj_->mu_);
    Object::EntryCore& e = obj_->core(a.entry);
    Object::Slot& s = e.slots[a.slot];
    if (s.state != Object::SlotState::kAccepted) {
      raise(ErrorCode::kProtocolViolation,
            "start_compatible on " + e.decl.name + "[" +
                std::to_string(a.slot) +
                "] which is not in the Accepted state");
    }
    check_compat_path(a.entry, "start_compatible");
    if (s.abandoned) {
      // Caller already failed (deadline/cancel between accept and start):
      // reclaim immediately — no body, no deferral.
      ++e.finishes;
      obj_->release_slot_locked(a.entry, a.slot);
      obj_->note_progress();
      return;
    }
    // The compat path never substitutes the intercepted prefix: the body's
    // parameter list is the caller's own, moved out of the record.
    ValueList full = std::move(s.call->params);
    s.call->params.clear();
    if (obj_->compat_admissible_locked(a.entry)) {
      obj_->ma_mark_running_locked(a.entry, a.slot);
      launch.push_back(obj_->make_body_task(a.entry, a.slot, std::move(full)));
    } else {
      s.state = Object::SlotState::kDeferred;
      s.multiactive = true;
      s.deferred_params = std::move(full);
      ++e.ma_conflicts;
      if (e.ma_deferred == 0) ++obj_->compat_gen_;
      ++e.ma_deferred;
      obj_->ma_queue_.emplace_back(a.entry, a.slot);
      obj_->trace(e, s.call->id, a.slot, CallPhase::kDeferred);
    }
    obj_->note_progress();
  }
  if (!launch.empty()) obj_->executor_->submit_batch(std::move(launch));
}

std::size_t Manager::start_compatible_pending(EntryRef entry) {
  // Batched accept+start_compatible: under ONE lock acquisition, accept and
  // launch attached calls of `entry` while the compat gate stays open (the
  // gate closes when an incompatible group is in flight or an older
  // incompatible call is waiting its turn). One executor wakeup for the
  // whole batch — this is the multiactive fast path.
  assert_manager_thread("start_compatible_pending");
  Object::EntryCore& e = obj_->core_checked(entry, "start_compatible_pending");
  if (!e.intercepted) {
    raise(ErrorCode::kProtocolViolation,
          "start_compatible_pending on non-intercepted entry " + e.decl.name);
  }
  std::vector<sched::BatchItem> launch;
  std::size_t n = 0;
  {
    std::scoped_lock lock(obj_->mu_);
    obj_->drain_intake_locked();
    check_stop();
    const std::size_t idx = entry.index();
    check_compat_path(idx, "start_compatible_pending");
    while (!e.attached.empty() && obj_->compat_gate_open_locked(idx)) {
      const std::size_t slot_idx = e.attached.front();
      obj_->accept_locked(idx, slot_idx);
      Object::Slot& s = e.slots[slot_idx];
      ValueList full = std::move(s.call->params);
      s.call->params.clear();
      obj_->ma_mark_running_locked(idx, slot_idx);
      launch.push_back(obj_->make_body_task(idx, slot_idx, std::move(full)));
      ++n;
    }
    if (n > 0) obj_->note_progress();
  }
  if (!launch.empty()) obj_->executor_->submit_batch(std::move(launch));
  return n;
}

Awaited Manager::await(EntryRef entry) {
  assert_manager_thread("await");
  obj_->core_checked(entry, "await");
  Object::ActivityScope activity(*obj_, Object::kActAwaitWait);
  for (;;) {
    support::EventCount::Ticket ticket(obj_->mgr_wake_);
    {
      std::scoped_lock lock(obj_->mu_);
      if (auto w = try_await_locked(entry.index())) return std::move(*w);
    }
    ticket.wait();
  }
}

Awaited Manager::await(const Accepted& a) {
  assert_manager_thread("await");
  Object::ActivityScope activity(*obj_, Object::kActAwaitWait);
  for (;;) {
    support::EventCount::Ticket ticket(obj_->mgr_wake_);
    {
      std::scoped_lock lock(obj_->mu_);
      Object::EntryCore& e = obj_->core(a.entry);
      const Object::Slot& s = e.slots[a.slot];
      if (s.state != Object::SlotState::kRunning &&
          s.state != Object::SlotState::kReady) {
        raise(ErrorCode::kProtocolViolation,
              "await on " + e.decl.name + "[" + std::to_string(a.slot) +
                  "] which was not started");
      }
      check_stop();
      if (s.state == Object::SlotState::kReady) {
        obj_->note_progress();
        return obj_->await_locked(a.entry, a.slot);
      }
    }
    ticket.wait();
  }
}

std::optional<Awaited> Manager::try_await(EntryRef entry) {
  assert_manager_thread("try_await");
  obj_->core_checked(entry, "try_await");
  std::scoped_lock lock(obj_->mu_);
  return try_await_locked(entry.index());
}

std::optional<Awaited> Manager::try_await_locked(std::size_t entry) {
  Object::EntryCore& e = obj_->core(entry);
  obj_->drain_intake_locked();
  check_stop();
  if (e.ready.empty()) return std::nullopt;
  obj_->note_progress();
  return obj_->await_locked(entry, e.ready.front());
}

void Manager::finish(const Awaited& w) {
  Object::EntryCore& e = obj_->core(w.entry);
  ValueList echo(w.results.begin(),
                 w.results.begin() +
                     static_cast<std::ptrdiff_t>(std::min(
                         e.icept_results, w.results.size())));
  finish_with(w, std::move(echo));
}

void Manager::finish_with(const Awaited& w, ValueList iresults) {
  assert_manager_thread("finish");
  std::shared_ptr<CallState> caller;
  ValueList final_results;
  std::exception_ptr err;
  {
    std::scoped_lock lock(obj_->mu_);
    Object::EntryCore& e = obj_->core(w.entry);
    Object::Slot& s = e.slots[w.slot];
    if (s.state != Object::SlotState::kAwaited) {
      raise(ErrorCode::kProtocolViolation,
            "finish on " + e.decl.name + "[" + std::to_string(w.slot) +
                "] which was not awaited");
    }
    if (!s.body_error && iresults.size() != e.icept_results) {
      raise(ErrorCode::kArityMismatch,
            "finish " + e.decl.name + ": manager must supply the " +
                std::to_string(e.icept_results) +
                " intercepted result(s), got " +
                std::to_string(iresults.size()));
    }
    caller = s.call->state;
    // Move, not copy: the slot's reference to the exception object transfers
    // through `err` into the caller's CallState below, so the final release
    // of a failing body's exception lands on a caller-synchronized thread
    // (see the matching move in submit_body).
    err = std::move(s.body_error);
    if (!err) {
      final_results = std::move(iresults);
      final_results.reserve(final_results.size() + s.rest_results.size());
      final_results.insert(final_results.end(),
                           std::make_move_iterator(s.rest_results.begin()),
                           std::make_move_iterator(s.rest_results.end()));
    }
    ++e.finishes;
    obj_->trace(e, s.call->id, w.slot,
                err ? CallPhase::kFailed : CallPhase::kFinished);
    obj_->release_slot_locked(w.entry, w.slot);
    obj_->note_progress();
  }
  // No wakeup: the only mgr_wake_ waiter is the manager thread, which is
  // the thread executing this primitive. Re-attachment done by
  // release_slot_locked is observed by the manager's own next wait loop.
  // Complete outside the kernel lock (the caller-side callback may run
  // arbitrary code, e.g. sending an RPC response frame).
  if (err) {
    caller->fail(std::move(err));
  } else {
    caller->complete(std::move(final_results));
  }
}

void Manager::combine_finish(const Accepted& a, ValueList all_results) {
  assert_manager_thread("combine_finish");
  std::shared_ptr<CallState> caller;
  {
    std::scoped_lock lock(obj_->mu_);
    Object::EntryCore& e = obj_->core(a.entry);
    Object::Slot& s = e.slots[a.slot];
    if (s.state != Object::SlotState::kAccepted) {
      raise(ErrorCode::kProtocolViolation,
            "combine_finish on " + e.decl.name + "[" + std::to_string(a.slot) +
                "] which is not in the Accepted state");
    }
    // §2.7: "the manager is responsible to receive all invocation
    // parameters in the accept primitive [and] to generate all the results
    // that the caller expects".
    if (e.icept_params != e.decl.params) {
      raise(ErrorCode::kProtocolViolation,
            "combine_finish " + e.decl.name +
                ": intercepts clause must cover all parameters");
    }
    if (all_results.size() != e.decl.results) {
      raise(ErrorCode::kArityMismatch,
            "combine_finish " + e.decl.name + ": expects " +
                std::to_string(e.decl.results) + " results, got " +
                std::to_string(all_results.size()));
    }
    caller = s.call->state;
    ++e.combines;
    ++e.finishes;
    obj_->trace(e, s.call->id, a.slot, CallPhase::kCombined);
    obj_->release_slot_locked(a.entry, a.slot);
    obj_->note_progress();
  }
  caller->complete(std::move(all_results));
}

void Manager::fail(const Accepted& a, const std::string& why) {
  assert_manager_thread("fail");
  fail_slot(a.entry, a.slot, /*awaited=*/false, why);
}

void Manager::fail(const Awaited& w, const std::string& why) {
  assert_manager_thread("fail");
  fail_slot(w.entry, w.slot, /*awaited=*/true, why);
}

void Manager::fail_slot(std::size_t entry, std::size_t slot, bool awaited,
                        const std::string& why) {
  std::shared_ptr<CallState> caller;
  {
    std::scoped_lock lock(obj_->mu_);
    Object::EntryCore& e = obj_->core(entry);
    Object::Slot& s = e.slots[slot];
    if (s.state != (awaited ? Object::SlotState::kAwaited
                            : Object::SlotState::kAccepted)) {
      raise(ErrorCode::kProtocolViolation,
            std::string("fail on a call that is not in the ") +
                (awaited ? "Awaited" : "Accepted") + " state");
    }
    caller = s.call->state;
    ++e.finishes;
    obj_->trace(e, s.call->id, slot, CallPhase::kFailed);
    obj_->release_slot_locked(entry, slot);
    obj_->note_progress();
  }
  caller->fail(ErrorCode::kBodyFailed, why);
}

Awaited Manager::execute(const Accepted& a, ValueList hidden_params) {
  // execute = start; await; finish (§2.3). The manager would sit in await on
  // this one call for the whole body, so start_body runs the body inline.
  assert_manager_thread("execute");
  start_body(a, std::nullopt, std::move(hidden_params), /*executing=*/true);
  Awaited w = await(a);
  finish(w);
  return w;
}

}  // namespace alps
