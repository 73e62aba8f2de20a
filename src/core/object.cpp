#include "core/object.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <semaphore>
#include <utility>

#include "core/error.h"
#include "core/manager.h"
#include "support/log.h"
#include "support/thread_util.h"

namespace alps {

CallHandle BodyCtx::call_sibling(EntryRef target, ValueList params) const {
  if (target.object() != obj_) {
    raise(ErrorCode::kProtocolViolation,
          "call_sibling target belongs to a different object");
  }
  return obj_->dispatch(target.index(), std::move(params), /*external=*/false);
}

Object::Object(std::string name, ObjectOptions opts)
    : name_(std::move(name)),
      opts_(opts),
      callers_run_bodies_(
          opts_.supervision.mode == SupervisionMode::kFailFast &&
          !(opts_.watchdog.enabled && opts_.watchdog.escalate) &&
          opts_.model != sched::ProcessModel::kSlotBound) {}

Object::~Object() { stop(); }

void Object::require_started(const char* op) const {
  if (!started_.load(std::memory_order_acquire)) {
    raise(ErrorCode::kProtocolViolation,
          std::string(op) + " before start() on object " + name_);
  }
}

void Object::require_not_started(const char* op) const {
  if (started_.load(std::memory_order_acquire)) {
    raise(ErrorCode::kProtocolViolation,
          std::string(op) + " after start() on object " + name_);
  }
}

EntryRef Object::define_entry(EntryDecl decl) {
  require_not_started("define_entry");
  std::scoped_lock lock(mu_);
  if (by_name_.count(decl.name)) {
    raise(ErrorCode::kProtocolViolation,
          "duplicate entry " + decl.name + " on object " + name_);
  }
  auto core = std::make_unique<EntryCore>();
  core->decl = std::move(decl);
  const std::size_t idx = entries_.size();
  by_name_.emplace(core->decl.name, idx);
  entries_.push_back(std::move(core));
  return EntryRef(this, idx);
}

void Object::implement(EntryRef entry, BodyFn body) {
  implement(entry, ImplDecl{}, std::move(body));
}

void Object::implement(EntryRef entry, ImplDecl impl, BodyFn body) {
  require_not_started("implement");
  if (entry.object() != this) {
    raise(ErrorCode::kProtocolViolation, "implement with foreign EntryRef");
  }
  if (impl.array == 0) {
    raise(ErrorCode::kProtocolViolation, "procedure array size must be >= 1");
  }
  std::scoped_lock lock(mu_);
  EntryCore& e = core(entry.index());
  e.impl = impl;
  e.body = std::move(body);
  e.implemented = true;
}

void Object::set_tracer(Tracer* tracer) {
  require_not_started("set_tracer");
  tracer_ = tracer;
}

void Object::set_manager(std::vector<InterceptClause> clauses, ManagerFn fn) {
  require_not_started("set_manager");
  std::scoped_lock lock(mu_);
  for (const auto& c : clauses) {
    if (c.entry.object() != this) {
      raise(ErrorCode::kProtocolViolation, "intercept of foreign entry");
    }
    EntryCore& e = core(c.entry.index());
    if (c.n_params > e.decl.params) {
      raise(ErrorCode::kArityMismatch,
            "intercepts " + e.decl.name + ": parameter prefix longer than the "
            "entry's parameter list");
    }
    if (c.n_results > e.decl.results) {
      raise(ErrorCode::kArityMismatch,
            "intercepts " + e.decl.name + ": result prefix longer than the "
            "entry's result list");
    }
    e.intercepted = true;
    e.icept_params = c.n_params;
    e.icept_results = c.n_results;
  }
  manager_fn_ = std::move(fn);
  has_manager_ = true;
}

void Object::start() {
  require_not_started("start");

  std::size_t total_slots = 0;
  {
    std::scoped_lock lock(mu_);
    for (auto& ep : entries_) {
      EntryCore& e = *ep;
      if (!e.implemented) {
        raise(ErrorCode::kProtocolViolation,
              "entry " + e.decl.name + " defined but not implemented");
      }
      if (e.intercepted && !has_manager_) {
        raise(ErrorCode::kProtocolViolation,
              "entry " + e.decl.name + " intercepted but no manager set");
      }
      if (!e.intercepted &&
          (e.impl.hidden_params > 0 || e.impl.hidden_results > 0)) {
        raise(ErrorCode::kProtocolViolation,
              "entry " + e.decl.name +
                  " has hidden params/results but is not intercepted (only "
                  "the manager can supply/receive them)");
      }
      if (e.intercepted) {
        e.slots.resize(e.impl.array);
        for (auto& s : e.slots) s.global_key = total_slots++;
      }
    }
    // Freeze the compatibility matrix (multiactive scheduling, DESIGN.md
    // §4.8). Compatibility is symmetric: listing B on A also admits A
    // beside B, and naming an entry (or being named) makes it participate.
    const std::size_t n = entries_.size();
    for (auto& ep : entries_) ep->compat.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      EntryCore& e = *entries_[i];
      if (!e.decl.compat_annotated) continue;
      if (!e.intercepted) {
        raise(ErrorCode::kProtocolViolation,
              "entry " + e.decl.name +
                  " has compatibility annotations but is not intercepted "
                  "(only managed entries are compat-scheduled)");
      }
      e.compat_participant = true;
      for (const std::string& other : e.decl.compatible) {
        auto it = by_name_.find(other);
        if (it == by_name_.end()) {
          raise(ErrorCode::kNoSuchEntry,
                "compatible_with(\"" + other + "\") on entry " + e.decl.name +
                    ": no such entry on object " + name_);
        }
        EntryCore& o = *entries_[it->second];
        if (!o.intercepted) {
          raise(ErrorCode::kProtocolViolation,
                "compatible_with(\"" + other + "\") on entry " + e.decl.name +
                    ": target entry is not intercepted");
        }
        o.compat_participant = true;
        e.compat[it->second] = true;
        o.compat[i] = true;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (entries_[i]->compat_participant) compat_participants_.push_back(i);
    }
    executor_ = sched::make_executor(opts_.model, total_slots,
                                     opts_.pool_workers, name_);
  }

  started_.store(true, std::memory_order_release);

  if (has_manager_) {
    // Restart and watchdog both need the supervisor thread from the first
    // instant; deadline/cancel callers start it lazily otherwise.
    if (opts_.supervision.mode == SupervisionMode::kRestart ||
        opts_.watchdog.enabled) {
      ensure_supervisor();
    }
    spawn_manager();
  }
}

void Object::spawn_manager() {
  mgr_live_.store(true, std::memory_order_release);
  // Gate the body behind the handle assignment: a manager that crashes
  // instantly would otherwise wake the supervisor into joining/replacing
  // manager_thread_ while the move-assignment below is still in flight —
  // the supervisor could even spawn a replacement that this assignment then
  // clobbers. The release() after the assignment gives the supervisor a
  // happens-before edge to a fully-written handle.
  auto gate = std::make_shared<std::binary_semaphore>(0);
  manager_thread_ = std::jthread([this, gate] {
    gate->acquire();
    support::set_current_thread_name("mgr:" + name_);
    // Best effort; the dedicated thread preserves the intent when it fails.
    support::try_boost_priority();
    manager_thread_id_.store(std::this_thread::get_id(),
                             std::memory_order_release);
    Manager m(*this);
    std::exception_ptr err;
    std::string what;
    try {
      manager_fn_(m);
    } catch (const Error& e) {
      // Stop-induced unwinding is the normal shutdown path.
      if (e.code() != ErrorCode::kObjectStopped) {
        err = std::current_exception();
        what = e.what();
      }
    } catch (const std::exception& ex) {
      err = std::current_exception();
      what = ex.what();
    } catch (...) {
      err = std::current_exception();
      what = "unknown error";
    }
    {
      // A retired thread is no longer the manager: whoever retired it has
      // already withdrawn its orders and applied the policy on its behalf
      // (see retire_manager_locked).
      std::scoped_lock lock(mu_);
      if (manager_retired()) return;
      clear_arrival_orders_locked();
    }
    if (err) {
      handle_manager_failure(std::move(err), what);
    } else {
      mgr_live_.store(false, std::memory_order_release);
    }
  });
  gate->release();
}

void Object::handle_manager_failure(std::exception_ptr err,
                                    const std::string& what) {
  mgr_live_.store(false, std::memory_order_release);
  mgr_activity_.store(kActDown, std::memory_order_relaxed);
  {
    std::scoped_lock lock(mu_);
    manager_error_ = err;
  }
  ALPS_LOG_ERROR("object %s: manager terminated with error: %s", name_.c_str(),
                 what.c_str());
  if (stopping_.load(std::memory_order_acquire)) return;
  const bool watchdog_abort = mgr_abort_.load(std::memory_order_acquire);
  switch (opts_.supervision.mode) {
    case SupervisionMode::kFailFast:
      // A watchdog escalation must contain the stall even here: leaving the
      // object up with a dead manager would make escalation a silent no-op.
      if (watchdog_abort) {
        take_down(err, "object " + name_ +
                           " quarantined: watchdog aborted a stalled manager");
      }
      break;
    case SupervisionMode::kQuarantine:
      take_down(err,
                "object " + name_ + " quarantined: manager failed: " + what);
      break;
    case SupervisionMode::kRestart: {
      // Hand off to the supervisor thread: this (dying) thread cannot join
      // or replace itself. The supervisor was started in start().
      auto hub = hub_;
      {
        std::scoped_lock lk(hub->mu);
        hub->manager_down = true;
        hub->down_cause = err;
        hub->down_what = what;
      }
      hub->cv.notify_one();
      break;
    }
  }
}

void Object::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Another stop() is in progress (or finished); wait for quiescence.
    stop_done_.wait();
    return;
  }

  stop_source_.request_stop();
  mgr_wake_.signal();

  // Stop the supervisor BEFORE joining the manager: the supervisor is the
  // only other thread that joins/replaces manager_thread_ (restart), so
  // retiring it first makes the join below race-free. The empty critical
  // section is a barrier: stopping_ is already set, so any in-flight
  // ensure_supervisor() has either finished spawning (joinable below) or
  // bailed out — it checks stopping_ under this same mutex.
  { std::scoped_lock lock(mu_); }
  {
    std::scoped_lock lk(hub_->mu);
    hub_->stop = true;
  }
  hub_->cv.notify_all();
  if (supervisor_thread_.joinable()) supervisor_thread_.join();

  {
    // A manager inside an inline body unwinds only once the body returns,
    // and the body may be waiting on a call that only this manager could
    // serve. Retire it instead of joining it: the calls failed below
    // release such a body, and the thread is joined after that. A start or
    // execute that begins after request_stop() takes the pool path, so the
    // check cannot miss a body that starts later.
    std::scoped_lock lock(mu_);
    if (mgr_inline_) retire_manager_locked();
  }
  if (manager_thread_.joinable()) manager_thread_.join();

  // Fail every call that never reached finish *before* draining the
  // executor: a still-running body may be blocked on a sibling call whose
  // manager is now gone, and failing its handle is what unblocks it.
  std::vector<std::shared_ptr<CallState>> to_fail;
  {
    std::scoped_lock lock(mu_);
    fail_unfinished_locked(Teardown::kStop, to_fail);
  }
  for (auto& state : to_fail) {
    state->fail(ErrorCode::kObjectStopped, "object " + name_ + " stopped");
  }
  // Fail the intake backlog (records that never reached the scheduling
  // structures). stopping_ is set, so this flush fails rather than routes;
  // a racing dispatch that pushes after this re-flushes on its own.
  flush_intake();

  std::vector<std::jthread> retired;
  {
    std::scoped_lock lock(mu_);
    retired.swap(retired_managers_);
  }
  for (auto& t : retired) t.join();
  if (executor_) executor_->shutdown();
  {
    // Caller-run bodies drain like the pool's. Every launch that could hand
    // one off is over by now (manager and supervisor joined, pool drained),
    // and a caller-run body's own launches precede its decrement.
    std::unique_lock lock(caller_run_mu_);
    caller_run_cv_.wait(lock, [&] { return caller_runs_ == 0; });
  }
  // Every call is complete, so each parked caller is waking and leaves
  // parked_callers_ at once; it must not find the object gone.
  while (parked_callers_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  stop_done_.set();
}

void Object::retire_manager_locked() {
  clear_arrival_orders_locked();
  mgr_inline_ = false;
  manager_thread_id_.store(std::thread::id{}, std::memory_order_release);
  retired_managers_.push_back(std::move(manager_thread_));
}

void Object::clear_arrival_orders_locked() {
  for (auto& ep : entries_) {
    ep->admit_on_arrival.store(false, std::memory_order_relaxed);
  }
}

bool Object::running() const {
  return started_.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire);
}

Object::EntryCore& Object::core_checked(EntryRef entry, const char* op) {
  if (entry.object() != this || entry.index() >= entries_.size()) {
    raise(ErrorCode::kProtocolViolation,
          std::string(op) + ": EntryRef does not belong to object " + name_);
  }
  return core(entry.index());
}

void Object::update_pending_locked(EntryCore& e) {
  e.pending.store(e.overflow.size() + e.attached.size(),
                  std::memory_order_relaxed);
  // Attached-queue membership of a participant feeds the compat gate's
  // arrival-fairness term; re-key the gate so select re-derives it (the
  // recompute is O(participants) and happens only when the gen moved).
  if (e.compat_participant) ++compat_gen_;
}

CallHandle Object::async_call(EntryRef entry, ValueList params) {
  if (entry.object() != this) {
    raise(ErrorCode::kProtocolViolation, "async_call with foreign EntryRef");
  }
  return dispatch(entry.index(), std::move(params), /*external=*/true);
}

CallHandle Object::async_call(const std::string& entry_name, ValueList params) {
  return dispatch(entry(entry_name).index(), std::move(params),
                  /*external=*/true);
}

CallHandle Object::async_call(EntryRef entry, ValueList params,
                              const CallOptions& opts) {
  if (entry.object() != this) {
    raise(ErrorCode::kProtocolViolation, "async_call with foreign EntryRef");
  }
  return dispatch(entry.index(), std::move(params), /*external=*/true, &opts);
}

CallHandle Object::async_call(const std::string& entry_name, ValueList params,
                              const CallOptions& opts) {
  return dispatch(entry(entry_name).index(), std::move(params),
                  /*external=*/true, &opts);
}

ValueList Object::call(EntryRef e, ValueList params) {
  return async_call(e, std::move(params)).get();
}

ValueList Object::call(EntryRef e, ValueList params, const CallOptions& opts) {
  return async_call(e, std::move(params), opts).get();
}

EntryRef Object::entry(const std::string& name) const {
  // Lock-free: the name table is built single-threaded before start() and
  // immutable afterwards, and guard conditions (which run under the kernel
  // lock) legitimately call this via the `#P` pending-count operator.
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    raise(ErrorCode::kNoSuchEntry, name + " on object " + name_);
  }
  return EntryRef(const_cast<Object*>(this), it->second);
}

std::size_t Object::pending(EntryRef entry) const {
  if (entry.object() != this || entry.index() >= entries_.size()) {
    raise(ErrorCode::kProtocolViolation, "pending with foreign EntryRef");
  }
  // #P = waiting-to-attach + attached-but-not-accepted + still in the
  // intake queue. Guard conditions run right after a drain, so the last
  // term is zero where the paper's semantics need exactness.
  const EntryCore& e = *entries_[entry.index()];
  return e.pending.load(std::memory_order_relaxed) +
         e.in_intake.load(std::memory_order_relaxed);
}

CallHandle Object::dispatch(std::size_t entry_idx, ValueList params,
                            bool external, const CallOptions* opts) {
  require_started("call");
  auto state = std::make_shared<CallState>();
  CallHandle handle(state);

  if (stopping_.load(std::memory_order_acquire)) {
    state->fail(ErrorCode::kObjectStopped, "object " + name_ + " stopped");
    return handle;
  }
  if (down_.load(std::memory_order_acquire)) {
    // down_msg_ is written before the seq_cst store to down_; the acquire
    // load above makes it safely readable (and it is never written again).
    state->fail(ErrorCode::kObjectDown, down_msg_);
    return handle;
  }

  // The whole dispatch path is lock-free: decl/impl/intercepted are frozen
  // at start(), counters are atomics, and the record goes onto the MPSC
  // intake queue rather than into the scheduling structures directly.
  EntryCore& e = core(entry_idx);
  if (external && !e.decl.exported) {
    state->fail(ErrorCode::kNotExported,
                e.decl.name + " is local to object " + name_);
    return handle;
  }
  if (params.size() != e.decl.params) {
    state->fail(ErrorCode::kArityMismatch,
                e.decl.name + " expects " + std::to_string(e.decl.params) +
                    " params, got " + std::to_string(params.size()));
    return handle;
  }
  if (opts != nullptr && opts->cancel && opts->cancel->cancelled()) {
    // A pre-cancelled token never queues: the caller gets a deterministic
    // kCancelled instead of racing the manager for the slot.
    state->fail(ErrorCode::kCancelled,
                e.decl.name + " on " + name_ + " cancelled before dispatch");
    return handle;
  }
  const std::uint64_t call_id =
      next_call_id_.fetch_add(1, std::memory_order_relaxed);
  e.calls.fetch_add(1, std::memory_order_relaxed);
  trace(e, call_id, kNoSlot, CallPhase::kArrived);

  const bool intercepted = e.intercepted;
  const bool guarded = opts != nullptr && !opts->none();
  // Only a compat participant's call can be handed to its parked caller.
  if (e.compat_participant) state->count_parked_in(&parked_callers_);
  CallRecord rec{std::move(params), state, std::chrono::steady_clock::now(),
                 call_id, guarded};
  // A guarded call keeps the manager path: its body stays pooled, so its
  // deadline or cancel reaches its caller on time.
  if (!guarded && callers_run_bodies_ &&
      e.admit_on_arrival.load(std::memory_order_relaxed) &&
      admit_on_arrival(entry_idx, rec)) {
    return handle;
  }
  if (intercepted) e.in_intake.fetch_add(1, std::memory_order_relaxed);
  intake_.push(IntakeItem{entry_idx, std::move(rec)});
  if (intercepted) {
    // Batched intake: the manager drains the whole backlog under one lock
    // acquisition when it next evaluates accept/select. signal() skips the
    // wake syscall when the manager is not actually sleeping.
    mgr_wake_.signal();
    if (stopping_.load(std::memory_order_seq_cst) ||
        down_.load(std::memory_order_seq_cst)) {
      // stop()/take_down() may have drained before our push landed; the
      // seq_cst push/flag ordering guarantees one of us sees the record.
      flush_intake();
    }
  } else {
    // Unmanaged dispatch: drain immediately — uncontended callers get a
    // batch of one, concurrent callers combine into one drain.
    flush_intake();
  }
  if (guarded && !state->ready()) {
    register_call_guard(call_id, entry_idx, state, *opts);
  }
  return handle;
}

bool Object::admit_on_arrival(std::size_t entry_idx, CallRecord& rec) {
  EntryCore& e = core(entry_idx);
  const std::uint64_t call_id = rec.id;
  std::vector<BodyLaunch> launch;
  std::optional<BodyLaunch> own;
  bool wake = false;
  {
    std::scoped_lock lock(mu_);
    if (!e.admit_on_arrival.load(std::memory_order_relaxed) ||
        stopping_.load(std::memory_order_acquire) ||
        down_.load(std::memory_order_acquire)) {
      return false;
    }
    // Every earlier arrival attaches first, so the loop judges this call
    // against all of them, as the manager would after its own drain.
    drain_intake_locked();
    attach_locked(entry_idx, std::move(rec));
    wake = admit_standing_locked(launch);
    if (e.impl.inline_start) {
      for (auto it = launch.begin(); it != launch.end(); ++it) {
        if (it->entry == entry_idx && e.slots[it->slot].call->id == call_id) {
          own = std::move(*it);
          launch.erase(it);
          // Counted before mu_ drops: a stop() that follows waits for it,
          // and for the launches below.
          std::scoped_lock run_lock(caller_run_mu_);
          ++caller_runs_;
          break;
        }
      }
    }
  }
  if (wake) mgr_wake_.signal();
  if (!launch.empty()) launch_bodies(std::move(launch));
  if (own) {
    run_body(own->entry, own->slot, std::move(own->params));
    end_caller_run();
  }
  return true;
}

void Object::drain_intake_locked() {
  if (intake_.empty()) return;
  if (stopping_.load(std::memory_order_acquire) ||
      down_.load(std::memory_order_acquire)) {
    // Leave the backlog queued: stop()/take_down() flush (and fail) it
    // outside the kernel lock, where completion callbacks may run.
    return;
  }
  std::vector<sched::BatchItem> batch;
  intake_.drain([&](IntakeItem&& item) {
    EntryCore& e = core(item.entry);
    if (e.intercepted) {
      e.in_intake.fetch_sub(1, std::memory_order_relaxed);
      attach_locked(item.entry, std::move(item.rec));
    } else {
      batch.push_back(make_unintercepted_task(item.entry, std::move(item.rec)));
    }
  });
  if (!batch.empty()) {
    // Executor locks are leaves (never taken around kernel calls), so
    // submitting under mu_ is deadlock-free. Refused tasks fail their
    // caller on destruction (see make_unintercepted_task).
    executor_->submit_batch(std::move(batch));
  }
}

void Object::flush_intake() {
  while (!intake_.empty()) {
    std::vector<IntakeItem> items;
    intake_.drain([&](IntakeItem&& item) { items.push_back(std::move(item)); });
    if (items.empty()) continue;  // another drainer took this chain

    const bool stopped_now = stopping_.load(std::memory_order_acquire);
    if (stopped_now || down_.load(std::memory_order_acquire)) {
      for (auto& item : items) {
        EntryCore& e = core(item.entry);
        if (e.intercepted) e.in_intake.fetch_sub(1, std::memory_order_relaxed);
        trace(e, item.rec.id, kNoSlot, CallPhase::kFailed);
        if (stopped_now) {
          item.rec.state->fail(ErrorCode::kObjectStopped,
                               "object " + name_ + " stopped");
        } else {
          item.rec.state->fail(ErrorCode::kObjectDown, down_msg_);
        }
      }
      continue;
    }

    std::vector<sched::BatchItem> batch;
    bool attached_any = false;
    bool need_lock = false;
    for (const auto& item : items) {
      if (core(item.entry).intercepted) need_lock = true;
    }
    if (need_lock) {
      std::scoped_lock lock(mu_);
      for (auto& item : items) {
        EntryCore& e = core(item.entry);
        if (e.intercepted) {
          e.in_intake.fetch_sub(1, std::memory_order_relaxed);
          attach_locked(item.entry, std::move(item.rec));
          attached_any = true;
        } else {
          batch.push_back(
              make_unintercepted_task(item.entry, std::move(item.rec)));
        }
      }
    } else {
      for (auto& item : items) {
        batch.push_back(
            make_unintercepted_task(item.entry, std::move(item.rec)));
      }
    }
    if (attached_any) mgr_wake_.signal();
    if (!batch.empty()) executor_->submit_batch(std::move(batch));
  }
}

void Object::attach_locked(std::size_t entry_idx, CallRecord rec) {
  EntryCore& e = core(entry_idx);
  // Attach to a free slot if one exists, else queue (paper §2.5: "if there
  // are more requests than can be accommodated in the procedure array, the
  // remaining requests continue to wait").
  for (std::size_t i = 0; i < e.slots.size(); ++i) {
    if (e.slots[i].state == SlotState::kFree) {  // clean: see Slot::reset
      e.slots[i].state = SlotState::kAttached;
      trace(e, rec.id, i, CallPhase::kAttached);
      e.slots[i].call = std::move(rec);
      e.attached.push_back(e.slots, i);
      update_pending_locked(e);
      return;
    }
  }
  e.overflow.push_back(std::move(rec));
  update_pending_locked(e);
}

void Object::release_slot_locked(std::size_t entry_idx, std::size_t slot_idx) {
  EntryCore& e = core(entry_idx);
  Slot& s = e.slots[slot_idx];
  s.reset();
  if (!e.overflow.empty()) {
    CallRecord next = std::move(e.overflow.front());
    e.overflow.pop_front();
    s.state = SlotState::kAttached;
    trace(e, next.id, slot_idx, CallPhase::kAttached);
    s.call = std::move(next);
    e.attached.push_back(e.slots, slot_idx);
  }
  update_pending_locked(e);
  // No wakeup here: from a manager primitive the manager cannot be asleep
  // (it is the only mgr_wake_ waiter); a body's epilogue and fail_call wake
  // it themselves, and the teardown table runs with no manager alive.
}

void Object::accept_locked(std::size_t entry_idx, std::size_t slot_idx) {
  EntryCore& e = core(entry_idx);
  Slot& s = e.slots[slot_idx];
  e.attached.remove(e.slots, slot_idx);
  s.state = SlotState::kAccepted;
  ++e.accepts;
  update_pending_locked(e);
  trace(e, s.call->id, slot_idx, CallPhase::kAccepted);
}

Accepted Object::accepted(std::size_t entry_idx, std::size_t slot_idx) {
  EntryCore& e = core(entry_idx);
  const ValueList& params = e.slots[slot_idx].call->params;
  Accepted a;
  a.entry = entry_idx;
  a.slot = slot_idx;
  a.params.assign(params.begin(),
                  params.begin() + static_cast<std::ptrdiff_t>(e.icept_params));
  return a;
}

Awaited Object::await_locked(std::size_t entry_idx, std::size_t slot_idx) {
  EntryCore& e = core(entry_idx);
  Slot& s = e.slots[slot_idx];
  e.ready.remove(e.slots, slot_idx);
  s.state = SlotState::kAwaited;
  Awaited w;
  w.entry = entry_idx;
  w.slot = slot_idx;
  w.results = std::move(s.mgr_results);
  w.failed = (s.body_error != nullptr);
  w.abandoned = s.abandoned;
  w.error = s.body_error;
  return w;
}

namespace {

/// Fails the call if the wrapping task is destroyed without having run
/// (executor refused or dropped it during shutdown). CallState's
/// first-completion-wins makes the failure a no-op after a normal finish.
/// Held via shared_ptr so std::function copies cannot fire it early.
class FailOnDrop {
 public:
  FailOnDrop(std::shared_ptr<CallState> state, const std::string& obj_name)
      : state_(std::move(state)), obj_name_(obj_name) {}
  ~FailOnDrop() {
    state_->fail(ErrorCode::kObjectStopped,
                 "object " + obj_name_ + " stopped before the body could run");
  }
  FailOnDrop(const FailOnDrop&) = delete;
  FailOnDrop& operator=(const FailOnDrop&) = delete;

 private:
  std::shared_ptr<CallState> state_;
  std::string obj_name_;
};

}  // namespace

sched::BatchItem Object::make_unintercepted_task(std::size_t entry_idx,
                                                 CallRecord rec) {
  auto state = std::move(rec.state);
  auto guard = std::make_shared<FailOnDrop>(state, name_);
  return sched::BatchItem{
      sched::kUnboundTask,
      [this, entry_idx, id = rec.id, params = std::move(rec.params), state,
       guard]() mutable {
        EntryCore& ec = core(entry_idx);
        BodyCtx ctx(this, ec.decl.name, kNoSlot, std::move(params));
        ValueList out;
        try {
          out = ec.body(ctx);
          if (out.size() != ec.decl.results) {
            raise(ErrorCode::kArityMismatch,
                  ec.decl.name + " body returned " +
                      std::to_string(out.size()) + " results, declared " +
                      std::to_string(ec.decl.results));
          }
        } catch (...) {
          trace(ec, id, kNoSlot, CallPhase::kFailed);
          state->fail(std::current_exception());
          return;
        }
        trace(ec, id, kNoSlot, CallPhase::kFinished);
        state->complete(std::move(out));
      }};
}

void Object::submit_body(std::size_t entry_idx, std::size_t slot_idx,
                         ValueList full_params) {
  sched::BatchItem item =
      make_body_task(entry_idx, slot_idx, std::move(full_params));
  const bool ok = executor_->submit(item.slot_key, std::move(item.task));
  if (!ok) {
    // Executor already shut down; stop() will fail the caller.
    ALPS_LOG_DEBUG("object %s: start after shutdown dropped", name_.c_str());
  }
}

sched::BatchItem Object::make_body_task(std::size_t entry_idx,
                                        std::size_t slot_idx,
                                        ValueList full_params) {
  EntryCore& e = core(entry_idx);
  const std::size_t key = e.slots[slot_idx].global_key;
  return sched::BatchItem{
      key,
      [this, entry_idx, slot_idx, params = std::move(full_params)]() mutable {
        run_body(entry_idx, slot_idx, std::move(params));
      }};
}

void Object::run_body(std::size_t entry_idx, std::size_t slot_idx,
                      ValueList params) {
  EntryCore& ec = core(entry_idx);
  BodyCtx ctx(this, ec.decl.name, slot_idx, std::move(params));
  ValueList out;
  std::exception_ptr err;
  try {
    out = ec.body(ctx);
    const std::size_t want = ec.decl.results + ec.impl.hidden_results;
    if (out.size() != want) {
      raise(ErrorCode::kArityMismatch,
            ec.decl.name + " body returned " + std::to_string(out.size()) +
                " results, expected " + std::to_string(want) +
                " (visible + hidden)");
    }
  } catch (...) {
    err = std::current_exception();
  }

  std::shared_ptr<CallState> caller;
  ValueList final_results;
  std::vector<BodyLaunch> launch;
  bool wake_mgr = true;
  {
    std::scoped_lock lock(mu_);
    Slot& s = ec.slots[slot_idx];
    if (s.state != SlotState::kRunning) {
      // Object stopped and reset the slot while the body ran; the
      // caller has already been failed.
      return;
    }
    if (s.multiactive) {
      // Compat-path epilogue: the kernel completes the caller itself
      // (no await/finish round-trip through the manager), retires the
      // group occupancy and launches any deferred calls that the
      // departure unblocked. This thread then admits what its leaving
      // let in under the standing orders (admit_standing_locked), and
      // wakes the manager only for what the kernel leaves to it, or
      // when the object is stopping. A plain completion needs no manager
      // turn at all — that is the multiactive throughput win.
      if (--ec.ma_running == 0) ++compat_gen_;
      --ma_total_running_;
      ++ec.finishes;
      if (!s.discard_on_ready && !s.abandoned) {
        caller = s.call->state;
        trace(ec, s.call->id, slot_idx,
              err ? CallPhase::kFailed : CallPhase::kFinished);
        if (!err) final_results = std::move(out);
      }
      release_slot_locked(entry_idx, slot_idx);
      drain_deferred_locked(launch);
      wake_mgr = admit_standing_locked(launch) ||
                 stopping_.load(std::memory_order_relaxed);
    } else if (s.discard_on_ready) {
      // No manager will ever await this body (quarantine, or a
      // restart that could not replay a started call): the caller was
      // already failed, so drop the result and reclaim the slot — a
      // queued overflow call re-attaches for the next incarnation.
      release_slot_locked(entry_idx, slot_idx);
    } else {
      if (err) {
        // Move (not copy): the body thread's reference transfers into the
        // slot here, under mu_, so every later release of the exception
        // object happens on a mutex-synchronized thread. Holding a copy
        // until this function returns would let this thread do the *final*
        // release after mgr_wake_.signal(), racing readers that TSan
        // cannot relate through libstdc++'s internal refcounting.
        s.body_error = std::move(err);
        err = nullptr;
      } else {
        // Split [visible..., hidden...]: the manager's await sees the
        // intercepted visible prefix plus all hidden results; the rest
        // goes straight to the caller at finish. `out` is dead after
        // the split, so move every element instead of copying.
        const auto icept =
            out.begin() + static_cast<std::ptrdiff_t>(ec.icept_results);
        const auto visible =
            out.begin() + static_cast<std::ptrdiff_t>(ec.decl.results);
        s.mgr_results.reserve(ec.icept_results + ec.impl.hidden_results);
        s.mgr_results.assign(std::make_move_iterator(out.begin()),
                             std::make_move_iterator(icept));
        s.mgr_results.insert(s.mgr_results.end(),
                             std::make_move_iterator(visible),
                             std::make_move_iterator(out.end()));
        s.rest_results.assign(std::make_move_iterator(icept),
                              std::make_move_iterator(visible));
      }
      s.state = SlotState::kReady;
      trace(ec, s.call->id, slot_idx, CallPhase::kReady);
      ec.ready.push_back(ec.slots, slot_idx);
    }
  }
  // Wake the manager's await/select (two atomic ops when it is not
  // sleeping, which is always the case after an inline body: that body
  // ran on the manager thread). On the compat path this also re-keys gated
  // guards via compat_gen_.
  if (wake_mgr) mgr_wake_.signal();
  if (caller) {
    // Outside mu_: completion callbacks run user code.
    if (err) {
      caller->fail(std::move(err));
    } else {
      caller->complete(std::move(final_results));
    }
  }
  if (!launch.empty()) launch_bodies(std::move(launch));
}

void Object::launch_bodies(std::vector<BodyLaunch> launches) {
  // The parked caller would wake for the completion anyway; running the body
  // itself saves the pool worker's wakeup and the completion's handoff back.
  // A launch with a body no caller can take wakes the pool regardless, so
  // all of its bodies go there: the pool then still bounds how many run at
  // once, as under pipelined load, where caller-run bodies on top of a busy
  // pool cost throughput (EXPERIMENTS.md, E16).
  const bool to_callers =
      std::all_of(launches.begin(), launches.end(),
                  [](const BodyLaunch& l) { return l.caller != nullptr; });
  std::vector<sched::BatchItem> pooled;
  for (BodyLaunch& l : launches) {
    // The count rises before the caller can see the body. noexcept: what
    // escapes run_body ends the program, as on a pool worker.
    if (to_callers && l.caller->hand_to_waiter([&] {
          {
            std::scoped_lock lock(caller_run_mu_);
            ++caller_runs_;
          }
          return [this, entry = l.entry, slot = l.slot,
                  params = std::move(l.params)]() mutable noexcept {
            run_body(entry, slot, std::move(params));
            end_caller_run();
          };
        })) {
      continue;
    }
    pooled.push_back(make_body_task(l.entry, l.slot, std::move(l.params)));
  }
  if (!pooled.empty()) executor_->submit_batch(std::move(pooled));
}

void Object::end_caller_run() {
  // Under the mutex, so stop() cannot see zero, return and destroy the
  // object before this thread is done with caller_run_cv_.
  std::scoped_lock lock(caller_run_mu_);
  if (--caller_runs_ == 0) caller_run_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Multiactive scheduling: compatibility groups (DESIGN.md §4.8)
// ---------------------------------------------------------------------------

bool Object::compat_admissible_locked(std::size_t i) const {
  // Launchable now: compatible with every participant that has in-flight
  // (running or deferred) calls. Deferred occupancy counts so a newly
  // accepted call cannot overtake an earlier parked incompatible one.
  for (std::size_t j : compat_participants_) {
    const EntryCore& ej = *entries_[j];
    if (ej.ma_running + ej.ma_deferred == 0) continue;
    if (!entries_[i]->compat[j]) return false;
  }
  return true;
}

bool Object::compat_gate_open_locked(std::size_t i) const {
  // Select-gate for entry i: admissible AND no incompatible participant has
  // an attached call older than i's own oldest attached call. Call ids are
  // globally increasing, so the second term is arrival-order fairness: a
  // stream of compatible calls cannot starve an incompatible one that
  // arrived first (the paper's writer-takes-its-turn property).
  const EntryCore& ei = *entries_[i];
  const std::uint64_t my_oldest =
      ei.attached.empty()
          ? std::numeric_limits<std::uint64_t>::max()
          : ei.slots[ei.attached.front()].call->id;
  for (std::size_t j : compat_participants_) {
    if (entries_[i]->compat[j]) continue;
    const EntryCore& ej = *entries_[j];
    if (ej.ma_running + ej.ma_deferred > 0) return false;
    if (j != i && !ej.attached.empty() &&
        ej.slots[ej.attached.front()].call->id < my_oldest) {
      return false;
    }
  }
  return true;
}

bool Object::admissible_on_arrival_locked(std::size_t i) const {
  if (!compat_gate_open_locked(i)) return false;
  // The manager accepts a call (in select) and starts it (in the arm) under
  // two lock acquisitions. An incompatible call it has accepted is older
  // than this one, and admitting this one now would defer it behind it.
  for (std::size_t j : compat_participants_) {
    if (entries_[i]->compat[j]) continue;
    for (const Slot& s : entries_[j]->slots) {
      if (s.state == SlotState::kAccepted) return false;
    }
  }
  return true;
}

bool Object::admit_standing_locked(std::vector<BodyLaunch>& out) {
  // Whether the kernel may take e's oldest attached call: an unguarded call
  // of an entry under an order, on an object whose callers may run bodies
  // and that is neither stopping nor down.
  const bool admits = callers_run_bodies_ &&
                      !stopping_.load(std::memory_order_acquire) &&
                      !down_.load(std::memory_order_acquire);
  auto kernel_takes = [admits](const EntryCore& e) {
    return admits && e.admit_on_arrival.load(std::memory_order_relaxed) &&
           !e.slots[e.attached.front()].call->guarded;
  };
  for (;;) {
    // Oldest first across participants (call ids rise with arrival), and
    // stop at the first call the kernel may not take: no call overtakes an
    // older one.
    std::size_t ei = kNoSlot;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t j : compat_participants_) {
      const EntryCore& ej = *entries_[j];
      if (ej.attached.empty()) continue;
      const std::uint64_t id = ej.slots[ej.attached.front()].call->id;
      if (id < oldest) {
        oldest = id;
        ei = j;
      }
    }
    if (ei == kNoSlot) return false;
    EntryCore& e = core(ei);
    if (!kernel_takes(e) || !admissible_on_arrival_locked(ei)) break;
    const std::size_t slot_idx = e.attached.front();
    Slot& s = e.slots[slot_idx];
    accept_locked(ei, slot_idx);
    ValueList full = std::move(s.call->params);
    s.call->params.clear();
    ma_start_locked(ei, slot_idx, std::move(full), out);
  }
  // What is left, judged per participant by its oldest attached call. The
  // manager's call wakes it once its gate is open. A closed gate opens only
  // when running or deferred work leaves, and that epilogue comes back
  // here, or when an older call it waits behind is taken, which this
  // answer judges too. The kernel's call waits for a running body's
  // epilogue; with none running, its gate is held by a call the manager
  // accepted, and only the manager moves it.
  for (std::size_t j : compat_participants_) {
    if (entries_[j]->attached.empty()) continue;
    if (kernel_takes(*entries_[j]) ? ma_total_running_ == 0
                                   : compat_gate_open_locked(j)) {
      return true;
    }
  }
  return false;
}

void Object::ma_start_locked(std::size_t entry_idx, std::size_t slot_idx,
                             ValueList params, std::vector<BodyLaunch>& out) {
  EntryCore& e = core(entry_idx);
  Slot& s = e.slots[slot_idx];
  s.state = SlotState::kRunning;
  s.multiactive = true;
  ++e.starts;
  ++e.ma_started;
  if (e.ma_running == 0) ++compat_gen_;
  ++e.ma_running;
  ++ma_total_running_;
  if (ma_total_running_ > 1) ++e.ma_concurrent;
  trace(e, s.call->id, slot_idx, CallPhase::kStarted, ma_total_running_);
  // Who runs the body (DESIGN.md §4.8): a guarded call keeps the pool so its
  // deadline or cancel reaches a waiting caller on time, and so does every
  // call of an object whose callers may not run bodies (callers_run_bodies_).
  // A call nobody waits on yet (a pipelined one) skips the handoff attempt;
  // hand_to_waiter decides. The call's waiter count is one more cache line
  // under mu_, so it is read only while some caller of this object is
  // parked, and not once a launch in `out` has no caller: the whole batch
  // then takes the pool (launch_bodies).
  std::shared_ptr<CallState> caller;
  if ((out.empty() || out.back().caller) && !s.call->guarded &&
      callers_run_bodies_ &&
      parked_callers_.load(std::memory_order_relaxed) > 0 &&
      s.call->state->waiters() > 0) {
    caller = s.call->state;
  }
  out.push_back(
      BodyLaunch{entry_idx, slot_idx, std::move(params), std::move(caller)});
}

void Object::drain_deferred_locked(std::vector<BodyLaunch>& out) {
  if (ma_queue_.empty()) return;
  // FIFO with a blocked-set: a deferred call launches only if it is
  // compatible with everything running AND with every earlier-deferred call
  // still parked — a later arrival never overtakes an earlier incompatible
  // one (arrival-order serial equivalence).
  std::vector<std::size_t> blocked;
  for (std::size_t qi = 0; qi < ma_queue_.size();) {
    const auto [ei, si] = ma_queue_[qi];
    EntryCore& e = core(ei);
    Slot& s = e.slots[si];
    bool ok = true;
    for (std::size_t j : compat_participants_) {
      if (core(j).ma_running > 0 && !e.compat[j]) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (std::size_t b : blocked) {
        if (!e.compat[b]) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) {
      blocked.push_back(ei);
      ++qi;
      continue;
    }
    ma_queue_.erase(ma_queue_.begin() +
                    static_cast<std::ptrdiff_t>(qi));
    if (e.ma_deferred > 0) --e.ma_deferred;
    if (e.ma_deferred == 0) ++compat_gen_;
    if (s.state != SlotState::kDeferred || s.abandoned) {
      // Failed/cancelled while parked (fail_call unqueues eagerly, but be
      // robust): reclaim without running — the caller is already failed.
      if (s.state == SlotState::kDeferred) release_slot_locked(ei, si);
      continue;
    }
    ValueList full = std::move(s.deferred_params);
    s.deferred_params.clear();
    ma_start_locked(ei, si, std::move(full), out);
    // A launch only adds occupancy (more restrictive), so the scan resumes
    // at the same index with the updated ma_running counts.
  }
}

void Object::ma_unqueue_locked(std::size_t entry_idx, std::size_t slot_idx) {
  for (auto it = ma_queue_.begin(); it != ma_queue_.end(); ++it) {
    if (it->first == entry_idx && it->second == slot_idx) {
      ma_queue_.erase(it);
      break;
    }
  }
  EntryCore& e = core(entry_idx);
  if (e.ma_deferred > 0) --e.ma_deferred;
  if (e.ma_deferred == 0) ++compat_gen_;
}

ObjectStats Object::stats() const {
  ObjectStats out;
  Object* self = const_cast<Object*>(this);
  std::scoped_lock lock(mu_);
  // Fold any undrained arrivals into the snapshot so counts are current.
  if (started_.load(std::memory_order_acquire)) self->drain_intake_locked();
  out.entries.reserve(entries_.size());
  for (const auto& ep : entries_) {
    const EntryCore& e = *ep;
    EntryStats st;
    st.name = e.decl.name;
    st.calls = e.calls.load(std::memory_order_relaxed);
    st.accepts = e.accepts;
    st.starts = e.starts;
    st.finishes = e.finishes;
    st.combines = e.combines;
    st.pending = e.pending.load(std::memory_order_relaxed) +
                 e.in_intake.load(std::memory_order_relaxed);
    st.ma_started = e.ma_started;
    st.ma_concurrent_starts = e.ma_concurrent;
    st.ma_conflict_blocks = e.ma_conflicts;
    out.entries.push_back(std::move(st));
  }
  if (executor_) {
    out.threads_created = executor_->threads_created();
    out.threads_alive = executor_->threads_alive();
  }
  return out;
}

void Object::notify_external_event() {
  // The generation bump discards every cached guard evaluation: "wake and
  // re-evaluate the guards" is this call's documented contract, and callers
  // use it to announce arbitrary state changes the kernel cannot see.
  // Sources with their own generation counter (channels, the slot queues)
  // use the cheaper wake_manager() instead, so the delta machinery keeps
  // its caches across their events.
  guard_inval_gen_.fetch_add(1, std::memory_order_release);
  mgr_wake_.signal();
}

std::exception_ptr Object::manager_error() const {
  std::scoped_lock lock(mu_);
  return manager_error_;
}

// ---------------------------------------------------------------------------
// Supervision: quarantine, restart, deadlines/cancellation, watchdog
// (DESIGN.md §4.6)
// ---------------------------------------------------------------------------

void Object::check_manager_abort() const {
  if (mgr_abort_.load(std::memory_order_acquire)) {
    raise(ErrorCode::kTimeout,
          "manager of object " + name_ + " aborted by watchdog (stalled)");
  }
}

void Object::take_down(std::exception_ptr cause, const std::string& why) {
  std::vector<std::shared_ptr<CallState>> to_fail;
  {
    std::scoped_lock lock(mu_);
    if (down_.load(std::memory_order_relaxed) ||
        stopping_.load(std::memory_order_acquire)) {
      return;
    }
    down_msg_ = why;
    if (!manager_error_ && cause) manager_error_ = cause;
    // seq_cst store paired with dispatch's push-then-recheck: a caller that
    // pushed before this store is flushed below; one that pushes after it
    // sees down_ and flushes (or fails) itself.
    down_.store(true, std::memory_order_seq_cst);
    fail_unfinished_locked(Teardown::kQuarantine, to_fail);
  }
  for (auto& state : to_fail) {
    state->fail(ErrorCode::kObjectDown, why);
  }
  // Fail the intake backlog; new arrivals see down_ in dispatch.
  flush_intake();
}

void Object::reconcile_for_restart() {
  std::vector<std::shared_ptr<CallState>> to_fail;
  {
    std::scoped_lock lock(mu_);
    fail_unfinished_locked(opts_.supervision.replay_pending
                               ? Teardown::kRestartReplay
                               : Teardown::kRestart,
                           to_fail);
  }
  for (auto& state : to_fail) {
    state->fail(ErrorCode::kObjectDown,
                "object " + name_ + ": call dropped during manager restart");
  }
}

void Object::fail_unfinished_locked(
    Teardown cause, std::vector<std::shared_ptr<CallState>>& to_fail) {
  const bool replay = cause == Teardown::kRestartReplay;
  for (std::size_t ei = 0; ei < entries_.size(); ++ei) {
    EntryCore& e = core(ei);
    // Calls still waiting for a slot never reached a manager: a replay
    // keeps them and re-attaches them below, after the slot table, so they
    // queue behind the calls it re-queues (which arrived earlier).
    std::deque<CallRecord> waiting;
    waiting.swap(e.overflow);
    if (!replay) {
      for (const CallRecord& rec : waiting) {
        trace(e, rec.id, kNoSlot, CallPhase::kFailed);
        to_fail.push_back(rec.state);
      }
      waiting.clear();
    }
    for (std::size_t i = 0; i < e.slots.size(); ++i) {
      Slot& s = e.slots[i];
      // Quarantine, a restart or fail_call already traced and failed this
      // call: its slot is freed (or its occupancy retired) as any other,
      // but the caller gets no second terminal event.
      const bool already_failed = s.abandoned || s.discard_on_ready;
      switch (s.state) {
        case SlotState::kFree:
          continue;
        case SlotState::kAttached:
          if (replay) continue;  // waits for the next incarnation
          e.attached.remove(e.slots, i);
          break;
        case SlotState::kDeferred:
          ma_unqueue_locked(ei, i);
          if (replay && !s.abandoned) {
            s.call->params = std::move(s.deferred_params);
            s.deferred_params.clear();
            s.multiactive = false;
          }
          [[fallthrough]];
        case SlotState::kAccepted:
          if (replay && !s.abandoned) {
            // The body never ran, so there are no side effects: re-queue it
            // at the tail of the accept queue for the next incarnation.
            s.state = SlotState::kAttached;
            e.attached.push_back(e.slots, i);
            continue;
          }
          break;
        case SlotState::kRunning:
          if (cause == Teardown::kStop) {
            // stop frees the slot under the body, whose epilogue then bails
            // without retiring its multiactive occupancy: retire it here.
            if (s.multiactive) {
              --e.ma_running;
              --ma_total_running_;
            }
            break;
          }
          // A multiactive body completes its caller in its own epilogue,
          // with no manager turn, so a restart leaves it running.
          if (s.multiactive && cause != Teardown::kQuarantine) continue;
          // No manager will await this body, and a started body cannot be
          // replayed: fail its caller now; its completion frees the slot.
          if (!already_failed) {
            trace(e, s.call->id, i, CallPhase::kFailed);
            to_fail.push_back(s.call->state);
          }
          s.discard_on_ready = true;
          continue;
        case SlotState::kReady:
          e.ready.remove(e.slots, i);
          break;
        case SlotState::kAwaited:
          break;
      }
      if (!already_failed) {
        trace(e, s.call->id, i, CallPhase::kFailed);
        to_fail.push_back(s.call->state);
      }
      release_slot_locked(ei, i);
    }
    for (CallRecord& rec : waiting) attach_locked(ei, std::move(rec));
    update_pending_locked(e);
  }
}

void Object::handle_manager_down(std::exception_ptr cause,
                                 const std::string& what) {
  if (stopping_.load(std::memory_order_acquire) ||
      down_.load(std::memory_order_acquire)) {
    return;
  }
  const SupervisionPolicy& pol = opts_.supervision;
  const int attempt = restarts_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (pol.max_restarts >= 0 && attempt > pol.max_restarts) {
    restarts_.fetch_sub(1, std::memory_order_acq_rel);
    take_down(cause, "object " + name_ +
                         " quarantined: restart budget exhausted (" +
                         std::to_string(pol.max_restarts) +
                         " restarts) after manager failure: " + what);
    return;
  }

  // Bounded exponential backoff, interruptible by stop().
  const double mult = pol.backoff_multiplier < 1.0 ? 1.0
                                                   : pol.backoff_multiplier;
  double delay_ms = static_cast<double>(pol.initial_backoff.count()) *
                    std::pow(mult, attempt - 1);
  delay_ms = std::min(delay_ms, static_cast<double>(pol.max_backoff.count()));
  if (delay_ms > 0) {
    std::unique_lock lk(hub_->mu);
    hub_->cv.wait_for(lk,
                      std::chrono::milliseconds(static_cast<long>(delay_ms)),
                      [&] { return hub_->stop; });
    if (hub_->stop) return;
  }
  if (stopping_.load(std::memory_order_acquire)) return;

  reconcile_for_restart();
  if (pol.on_restart) pol.on_restart();
  mgr_abort_.store(false, std::memory_order_release);
  // The old incarnation's thread has exited its catch block (it only
  // notified the hub); join it before installing the replacement. stop()
  // cannot race this join: it retires the supervisor thread first.
  if (manager_thread_.joinable()) manager_thread_.join();
  ALPS_LOG_INFO("object %s: restarting manager (attempt %d): %s",
                name_.c_str(), attempt, what.c_str());
  spawn_manager();
}

void Object::ensure_supervisor() {
  std::scoped_lock lock(mu_);
  if (supervisor_started_ || stopping_.load(std::memory_order_acquire)) {
    return;
  }
  supervisor_started_ = true;
  supervisor_thread_ = std::jthread([this] { supervisor_loop(); });
}

void Object::register_call_guard(std::uint64_t id, std::size_t entry_idx,
                                 const std::shared_ptr<CallState>& state,
                                 const CallOptions& opts) {
  ensure_supervisor();
  if (opts.deadline.count() > 0) {
    {
      std::scoped_lock lk(hub_->mu);
      hub_->deadlines.push_back(SupervisorHub::Deadline{
          std::chrono::steady_clock::now() + opts.deadline, id, entry_idx,
          state});
      std::push_heap(hub_->deadlines.begin(), hub_->deadlines.end(),
                     [](const SupervisorHub::Deadline& a,
                        const SupervisorHub::Deadline& b) {
                       return a.due > b.due;  // min-heap by due
                     });
      hub_->kick = true;
    }
    hub_->cv.notify_one();
  }
  if (opts.cancel) {
    // The subscription captures only a weak hub reference: if the token
    // outlives the object, the callback finds the hub expired and falls
    // back to failing the (already-failed) state directly.
    std::weak_ptr<SupervisorHub> whub = hub_;
    std::weak_ptr<CallState> wstate = state;
    opts.cancel->subscribe([whub, wstate, id, entry_idx] {
      if (auto hub = whub.lock()) {
        {
          std::scoped_lock lk(hub->mu);
          hub->doomed.push_back(SupervisorHub::Doomed{id, entry_idx, wstate});
          hub->kick = true;
        }
        hub->cv.notify_one();
      } else if (auto st = wstate.lock()) {
        st->fail(ErrorCode::kCancelled, "call cancelled");
      }
    });
  }
}

void Object::fail_call(std::uint64_t id, std::size_t entry_idx,
                       const std::weak_ptr<CallState>& wstate, ErrorCode code,
                       const std::string& why) {
  auto state = wstate.lock();
  if (!state || state->ready()) return;
  bool touched_sched = false;
  std::vector<BodyLaunch> launch;
  {
    std::scoped_lock lock(mu_);
    if (!stopping_.load(std::memory_order_acquire) &&
        !down_.load(std::memory_order_acquire)) {
      // Make sure the record reached the scheduling structures (the caller
      // registered the guard after pushing to intake).
      drain_intake_locked();
      EntryCore& e = core(entry_idx);
      if (e.intercepted) {
        bool found = false;
        for (auto it = e.overflow.begin(); it != e.overflow.end(); ++it) {
          if (it->id == id) {
            trace(e, id, kNoSlot, CallPhase::kFailed);
            e.overflow.erase(it);
            update_pending_locked(e);
            touched_sched = true;
            found = true;
            break;
          }
        }
        if (!found) {
          for (std::size_t i = 0; i < e.slots.size(); ++i) {
            Slot& s = e.slots[i];
            if (!s.call.has_value() || s.call->id != id) continue;
            switch (s.state) {
              case SlotState::kAttached:
                // Unqueue before the manager ever sees it; the freed slot
                // immediately re-attaches any waiting overflow call.
                e.attached.remove(e.slots, i);
                trace(e, id, i, CallPhase::kFailed);
                release_slot_locked(entry_idx, i);
                touched_sched = true;
                break;
              case SlotState::kAccepted:
                // The manager holds this call: mark it abandoned so start
                // skips the body and await reports the failure; the slot
                // travels the normal accept→finish protocol and is
                // reclaimed there.
                s.abandoned = true;
                s.body_error = std::make_exception_ptr(Error(code, why));
                trace(e, id, i, CallPhase::kFailed);
                touched_sched = true;
                break;
              case SlotState::kDeferred:
                // Parked by the compat scheduler: unqueue and reclaim now;
                // later-deferred calls it was blocking may have become
                // launchable, so drain after the removal.
                ma_unqueue_locked(entry_idx, i);
                trace(e, id, i, CallPhase::kFailed);
                release_slot_locked(entry_idx, i);
                drain_deferred_locked(launch);
                touched_sched = true;
                break;
              case SlotState::kRunning:
              case SlotState::kReady:
              case SlotState::kAwaited:
                // Body started (or finished): let the protocol run; the
                // manager sees `abandoned` at await and its finish becomes
                // a no-op completion. A multiactive body's completion
                // handler sees `abandoned` and skips caller completion.
                s.abandoned = true;
                trace(e, id, i, CallPhase::kFailed);
                touched_sched = true;
                break;
              case SlotState::kFree:
                break;
            }
            break;
          }
        }
      }
    }
  }
  // Complete the caller outside the kernel lock (callbacks may run user
  // code). First-completion-wins: if finish/fail raced past us, this no-ops
  // and the caller keeps the real completion.
  state->fail(code, why);
  if (!launch.empty()) launch_bodies(std::move(launch));
  if (touched_sched) {
    // #P moved or a candidate vanished: discard cached guard verdicts and
    // wake the manager so select/accept re-evaluates against the new state.
    notify_external_event();
  }
}

void Object::supervisor_loop() {
  support::set_current_thread_name("sup:" + name_);
  auto hub = hub_;
  const WatchdogOptions wd = opts_.watchdog;
  std::chrono::milliseconds poll = wd.poll_interval;
  if (wd.enabled && poll.count() <= 0) {
    poll = std::max(wd.stall_threshold / 4, std::chrono::milliseconds(1));
  }
  WatchdogState wds;
  auto wd_next = std::chrono::steady_clock::now() + poll;

  const auto heap_less = [](const SupervisorHub::Deadline& a,
                            const SupervisorHub::Deadline& b) {
    return a.due > b.due;
  };

  std::unique_lock lk(hub->mu);
  for (;;) {
    auto due = std::chrono::steady_clock::time_point::max();
    if (!hub->deadlines.empty()) due = hub->deadlines.front().due;
    if (wd.enabled) due = std::min(due, wd_next);
    const auto pred = [&] {
      return hub->stop || hub->kick || hub->manager_down;
    };
    if (due == std::chrono::steady_clock::time_point::max()) {
      hub->cv.wait(lk, pred);
    } else {
      hub->cv.wait_until(lk, due, pred);
    }
    if (hub->stop) return;
    hub->kick = false;

    std::vector<SupervisorHub::Doomed> doomed = std::move(hub->doomed);
    hub->doomed.clear();
    std::vector<SupervisorHub::Deadline> expired;
    const auto now = std::chrono::steady_clock::now();
    while (!hub->deadlines.empty() && hub->deadlines.front().due <= now) {
      std::pop_heap(hub->deadlines.begin(), hub->deadlines.end(), heap_less);
      expired.push_back(std::move(hub->deadlines.back()));
      hub->deadlines.pop_back();
    }
    const bool mgr_down = hub->manager_down;
    hub->manager_down = false;
    std::exception_ptr cause = std::move(hub->down_cause);
    std::string what = std::move(hub->down_what);
    hub->down_cause = nullptr;
    hub->down_what.clear();

    lk.unlock();
    for (const auto& d : doomed) {
      fail_call(d.id, d.entry, d.state, ErrorCode::kCancelled,
                "call cancelled by caller on object " + name_);
    }
    for (const auto& d : expired) {
      fail_call(d.id, d.entry, d.state, ErrorCode::kTimeout,
                "call deadline expired on object " + name_);
    }
    if (mgr_down) handle_manager_down(cause, what);
    if (wd.enabled && std::chrono::steady_clock::now() >= wd_next) {
      watchdog_tick(wds);
      wd_next = std::chrono::steady_clock::now() + poll;
    }
    lk.lock();
  }
}

void Object::watchdog_tick(WatchdogState& wd) {
  if (stopping_.load(std::memory_order_acquire) ||
      down_.load(std::memory_order_acquire)) {
    return;
  }
  if (!mgr_live_.load(std::memory_order_acquire)) {
    // Between incarnations (or after a fail-fast death): not a stall.
    wd.have_baseline = false;
    wd.reported = false;
    return;
  }
  const std::uint64_t ops = mgr_ops_.load(std::memory_order_relaxed);
  bool work_pending = false;
  {
    std::scoped_lock lock(mu_);
    for (const auto& ep : entries_) {
      const EntryCore& e = *ep;
      if (e.pending.load(std::memory_order_relaxed) > 0 ||
          e.in_intake.load(std::memory_order_relaxed) > 0) {
        work_pending = true;
        break;
      }
      for (const Slot& s : e.slots) {
        if (s.state != SlotState::kFree) {
          work_pending = true;
          break;
        }
      }
      if (work_pending) break;
    }
  }
  const auto now = std::chrono::steady_clock::now();
  if (!wd.have_baseline || ops != wd.last_ops || !work_pending) {
    wd.have_baseline = true;
    wd.last_ops = ops;
    wd.last_progress = now;
    wd.reported = false;
    return;
  }
  const auto stalled =
      std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                            wd.last_progress);
  if (stalled < opts_.watchdog.stall_threshold || wd.reported) return;
  wd.reported = true;  // once per stall episode; re-arms on progress
  const bool escalate = opts_.watchdog.escalate;
  StallReport report = build_stall_report(stalled, escalate);
  ALPS_LOG_ERROR("%s", report.summary().c_str());
  if (tracer_) tracer_->on_stall(report);
  if (escalate) {
    mgr_abort_.store(true, std::memory_order_release);
    bool retired = false;
    {
      std::scoped_lock lock(mu_);
      if (mgr_inline_) {
        retire_manager_locked();
        retired = true;
      }
    }
    if (retired) {
      // The manager is inside an inline body and reaches no primitive until
      // it returns. Apply the policy on its behalf, as if it had unwound
      // from await; the body's slot is failed like any started body of a
      // dead incarnation.
      try {
        check_manager_abort();
      } catch (const Error& err) {
        handle_manager_failure(std::current_exception(), err.what());
      }
      return;
    }
    // The manager converts the flag into a typed unwind at its next
    // blocking primitive; the policy then decides restart vs quarantine.
    notify_external_event();
  }
}

StallReport Object::build_stall_report(std::chrono::milliseconds stalled,
                                       bool escalated) {
  static const char* const kActivityNames[] = {
      "user-code", "accept-wait", "await-wait", "select-wait", "down"};
  StallReport report;
  report.object = name_;
  report.stalled_for = stalled;
  report.escalated = escalated;
  const std::uint8_t act = mgr_activity_.load(std::memory_order_relaxed);
  report.manager_activity = kActivityNames[act <= kActDown ? act : 0];
  std::scoped_lock lock(mu_);
  report.guards = guard_snapshot_;
  report.entries.reserve(entries_.size());
  for (const auto& ep : entries_) {
    const EntryCore& e = *ep;
    StallReport::EntryRow row;
    row.name = e.decl.name;
    row.pending = e.pending.load(std::memory_order_relaxed) +
                  e.in_intake.load(std::memory_order_relaxed);
    for (const Slot& s : e.slots) {
      switch (s.state) {
        case SlotState::kFree: break;
        case SlotState::kAttached: ++row.attached; break;
        case SlotState::kAccepted: ++row.accepted; break;
        case SlotState::kRunning: ++row.running; break;
        case SlotState::kReady: ++row.ready; break;
        case SlotState::kAwaited: ++row.awaited; break;
        case SlotState::kDeferred: ++row.deferred; break;
      }
    }
    report.entries.push_back(std::move(row));
  }
  return report;
}

}  // namespace alps
