// alps::Object — the kernel of the reproduction.
//
// An object (paper §2.2) is shared data + entry procedures + an optional
// manager process. This class implements the call lifecycle:
//
//   invoke ──(not intercepted)──▶ body starts implicitly ──▶ caller completed
//   invoke ──(intercepted)─▶ attach to a free slot of P[1..N] (else queue)
//      Attached ─accept→ Accepted ─start→ Running ─body returns→ Ready
//      Ready ─await→ Awaited ─finish→ slot freed, caller completed
//      Accepted ─combine_finish→ caller completed without executing the body
//      Accepted ─start_compatible→ Running, or Deferred (an incompatible
//        group is in flight) ─group drains→ Running
//      Running (multiactive) ─body returns→ slot freed, caller completed by
//        the kernel (no await/finish)
//
// Each transition is written once, in a kernel helper: accept_locked,
// await_locked, release_slot_locked (which frees through Slot::reset), and
// fail_unfinished_locked, the one table of what stop, quarantine and a
// restart do to every unfinished call (DESIGN.md §4.6).
//
// Threading model: one kernel mutex per object guards all scheduling state;
// bodies and manager handlers never run under it. The manager runs on a
// dedicated std::jthread (the paper wants it at higher priority so it stays
// receptive to entry calls; a dedicated always-runnable thread is the
// portable equivalent, and try_boost_priority() is attempted on top).
//
// Hot-path contention (see DESIGN.md §4.3):
//  - async_call never takes the kernel mutex: the call record goes onto a
//    lock-free MPSC intake queue and the kernel drains the whole backlog
//    under ONE lock acquisition the next time the manager (or, for
//    unintercepted entries, the dispatching caller) runs — N concurrent
//    callers pay one mutex round instead of N;
//  - wakeups use a waiter-counted event epoch (support::EventCount): a
//    kernel event with no sleeping manager is two atomic ops and no
//    syscall, and the only mgr_wake_ waiter is ever the manager thread
//    itself, so manager-side primitives (finish et al.) need no
//    self-notification at all;
//  - the attached/ready scheduling lists are intrusive FIFO queues with the
//    links stored in the slot (O(1) push/pop/remove, no find+erase) and each
//    carries a generation-stamped delta journal so the select engine can
//    react to exactly the slots that changed instead of rescanning
//    (DESIGN.md §4.4).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/call.h"
#include "core/entry.h"
#include "core/supervision.h"
#include "core/trace.h"
#include "core/value.h"
#include "sched/executor.h"
#include "support/queue.h"
#include "support/sync.h"

namespace alps {

class Manager;
class Select;
struct Accepted;
struct Awaited;

using ManagerFn = std::function<void(Manager&)>;

struct ObjectOptions {
  /// Process model for the procedure-array processes (paper §3).
  sched::ProcessModel model = sched::ProcessModel::kPooled;
  /// M, for the pooled model.
  std::size_t pool_workers = 4;
  /// What to do when the manager fails (see core/supervision.h). Fields are
  /// appended here so existing designated initializers keep compiling.
  SupervisionPolicy supervision{};
  /// Manager progress monitor (off by default; see core/supervision.h).
  WatchdogOptions watchdog{};
};

struct EntryStats {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t accepts = 0;
  std::uint64_t starts = 0;
  std::uint64_t finishes = 0;
  std::uint64_t combines = 0;
  std::size_t pending = 0;
  // -- multiactive counters (DESIGN.md §4.8); zero for unannotated entries --
  /// Calls launched through the compatibility path (start_compatible).
  std::uint64_t ma_started = 0;
  /// Of those, launches that overlapped >=1 other in-flight multiactive
  /// body (the intra-object parallelism actually realized).
  std::uint64_t ma_concurrent_starts = 0;
  /// start_compatible calls parked because an incompatible group was in
  /// flight (each later launched in arrival order when the group drained).
  std::uint64_t ma_conflict_blocks = 0;
};

struct ObjectStats {
  std::vector<EntryStats> entries;
  std::uint64_t threads_created = 0;
  std::uint64_t threads_alive = 0;
};

class Object {
 public:
  explicit Object(std::string name, ObjectOptions opts = {});
  ~Object();

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  // ---- definition part (§2.2) ----

  /// Declares an entry (or, with decl.exported=false, a local procedure).
  /// Must be called before start().
  EntryRef define_entry(EntryDecl decl);

  // ---- implementation part ----

  /// Provides the body; ImplDecl{} gives a plain single procedure.
  void implement(EntryRef entry, BodyFn body);
  /// Provides the body plus the hidden-array / hidden-params configuration.
  void implement(EntryRef entry, ImplDecl impl, BodyFn body);

  /// Installs the manager process with its intercepts clause. Optional: an
  /// object without a manager starts every call implicitly (§2.3).
  void set_manager(std::vector<InterceptClause> clauses, ManagerFn fn);

  /// Installs a lifecycle tracer (see core/trace.h). Must be called before
  /// start(); the tracer must outlive the object. Pass nullptr to disable.
  void set_tracer(Tracer* tracer);

  /// Freezes the definition, creates the process-model executor and the
  /// manager thread. Calls are only allowed between start() and stop().
  void start();

  /// Stops the manager, drains running bodies, fails unfinished calls with
  /// kObjectStopped. Idempotent; also run by the destructor.
  void stop();

  // ---- invocation (callers) ----

  /// External asynchronous invocation `X.P(...)`. All parameters are
  /// supplied here; the kernel routes the intercepted prefix to the manager.
  CallHandle async_call(EntryRef entry, ValueList params);
  CallHandle async_call(const std::string& entry_name, ValueList params);

  /// As above with per-call options: a deadline and/or a CancelToken,
  /// enforced at every stage of the intercepted-call lifecycle. On expiry or
  /// cancellation the caller observes a typed Error (kTimeout / kCancelled)
  /// exactly once: still-pending calls are unqueued and their slot reclaimed,
  /// accepted ones are abandoned before the body runs, started ones have
  /// their result discarded at finish.
  CallHandle async_call(EntryRef entry, ValueList params,
                        const CallOptions& opts);
  CallHandle async_call(const std::string& entry_name, ValueList params,
                        const CallOptions& opts);

  /// Blocking call; returns the results (throws the call's error).
  ValueList call(EntryRef entry, ValueList params);
  ValueList call(EntryRef entry, ValueList params, const CallOptions& opts);

  // ---- introspection ----

  /// The paper's `#P`: pending calls = waiting-to-attach + attached-but-not-
  /// yet-accepted. Lock-free, safe inside guard conditions.
  std::size_t pending(EntryRef entry) const;

  EntryRef entry(const std::string& name) const;

  /// Wakes the manager's select statement to re-evaluate its guards;
  /// harmless to call at any time. Bumps the guard invalidation generation
  /// so cached `when`/`pri` results are discarded — this is the documented
  /// way to tell select "arbitrary object state changed". (Sources with
  /// their own generation counter — channels, the attached/ready lists —
  /// don't need it; their observers use the cheaper wake_manager().)
  void notify_external_event();

  /// Guard-cache invalidation epoch (see notify_external_event and
  /// DESIGN.md §4.4). Select re-runs every closure when this moves.
  std::uint64_t guard_inval_gen() const {
    return guard_inval_gen_.load(std::memory_order_acquire);
  }

  const std::string& name() const { return name_; }
  bool running() const;
  ObjectStats stats() const;
  /// Error that escaped the manager function, if any (nullptr otherwise).
  /// Under kRestart this is the most recent incarnation's failure.
  std::exception_ptr manager_error() const;

  /// True once the object has been quarantined (manager failed under
  /// SupervisionMode::kQuarantine, restart budget exhausted, or a watchdog
  /// escalation under kFailFast). Every call then fails with kObjectDown.
  bool quarantined() const { return down_.load(std::memory_order_acquire); }

  /// Manager restarts performed so far (kRestart only).
  int restarts() const { return restarts_.load(std::memory_order_acquire); }

 private:
  friend class Manager;
  friend class Select;
  friend class BodyCtx;

  enum class SlotState : std::uint8_t {
    kFree,
    kAttached,
    kAccepted,
    kRunning,
    kReady,
    kAwaited,
    /// start_compatible'd while an incompatible group was in flight: parked
    /// kernel-side (params staged in the slot, FIFO position in ma_queue_)
    /// until the conflict drains, then launched without the manager.
    kDeferred,
  };

  struct Slot {
    SlotState state = SlotState::kFree;
    /// The caller was failed (deadline/cancel) while this call was in or
    /// past Accepted: the protocol still runs to finish, but the result is
    /// discarded there (first-completion-wins makes the finish a no-op).
    bool abandoned = false;
    /// No manager will ever await this started body (quarantine/restart):
    /// the body-completion handler releases the slot directly.
    bool discard_on_ready = false;
    /// Launched via the compatibility path: the kernel completes the caller
    /// directly when the body returns (no await/finish round-trip) and
    /// drains the deferred queue on the way out.
    bool multiactive = false;
    /// Full body parameter list of a kDeferred call, staged until launch.
    ValueList deferred_params;
    std::optional<CallRecord> call;
    /// After the body returns: intercepted visible results + hidden results
    /// (what `await` hands to the manager).
    ValueList mgr_results;
    /// Visible results beyond the intercepted prefix (go straight to the
    /// caller at finish).
    ValueList rest_results;
    std::exception_ptr body_error;
    /// Executor key for the slot-bound process model.
    std::size_t global_key = sched::kUnboundTask;
    /// Intrusive links for the attached/ready queues. A slot is in at most
    /// one queue at a time (kAttached => attached, kReady => ready), so one
    /// pair of links serves both; they double as the back-pointers that make
    /// mid-queue removal O(1) instead of find+erase.
    std::size_t q_prev = kNoSlot;
    std::size_t q_next = kNoSlot;

    /// Back to kFree holding nothing: the one list of what a free slot
    /// carries, so payloads are released when the slot is freed rather than
    /// when a later call reuses it. The queue links are the queues' business
    /// and global_key is fixed at start().
    void reset() {
      state = SlotState::kFree;
      abandoned = false;
      discard_on_ready = false;
      multiactive = false;
      deferred_params.clear();
      call.reset();
      mgr_results.clear();
      rest_results.clear();
      body_error = nullptr;
    }
  };

  /// One membership change of a SlotQueue (for the selector's delta replay).
  struct SlotDelta {
    std::uint32_t slot = 0;
    bool added = false;
  };

  /// Intrusive FIFO over Slot::q_prev/q_next plus a generation-stamped ring
  /// journal of membership changes. `log_gen` counts every push/remove ever;
  /// a consumer that remembers the generation it last synced at can replay
  /// the ring window [seen, log_gen) to learn exactly which slots changed,
  /// or fall back to a full scan of the list when it is more than kWindow
  /// events behind. All operations require the object's kernel lock.
  struct SlotQueue {
    static constexpr std::size_t kWindow = 64;

    std::size_t head = kNoSlot;
    std::size_t tail = kNoSlot;
    std::size_t count = 0;
    std::uint64_t log_gen = 0;
    std::array<SlotDelta, kWindow> log;

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    void record(std::size_t slot, bool added) {
      log[log_gen % kWindow] = SlotDelta{static_cast<std::uint32_t>(slot), added};
      ++log_gen;
    }

    void push_back(std::vector<Slot>& slots, std::size_t idx) {
      Slot& s = slots[idx];
      s.q_prev = tail;
      s.q_next = kNoSlot;
      if (tail == kNoSlot) {
        head = idx;
      } else {
        slots[tail].q_next = idx;
      }
      tail = idx;
      ++count;
      record(idx, /*added=*/true);
    }

    void remove(std::vector<Slot>& slots, std::size_t idx) {
      assert(count > 0 && "remove on empty SlotQueue");
      Slot& s = slots[idx];
      // Fail fast on a slot that is not actually linked in THIS queue —
      // unlinking it anyway would silently corrupt head/tail/count.
      assert((s.q_prev != kNoSlot ? slots[s.q_prev].q_next == idx
                                  : head == idx) &&
             "slot not linked in this queue");
      assert((s.q_next != kNoSlot ? slots[s.q_next].q_prev == idx
                                  : tail == idx) &&
             "slot not linked in this queue");
      if (s.q_prev == kNoSlot) {
        head = s.q_next;
      } else {
        slots[s.q_prev].q_next = s.q_next;
      }
      if (s.q_next == kNoSlot) {
        tail = s.q_prev;
      } else {
        slots[s.q_next].q_prev = s.q_prev;
      }
      s.q_prev = s.q_next = kNoSlot;
      --count;
      record(idx, /*added=*/false);
    }

    std::size_t front() const { return head; }

  };

  struct EntryCore {
    EntryDecl decl;
    ImplDecl impl;
    BodyFn body;
    bool implemented = false;
    bool intercepted = false;
    std::size_t icept_params = 0;
    std::size_t icept_results = 0;
    std::vector<Slot> slots;
    std::deque<CallRecord> overflow;  ///< waiting to attach (FIFO)
    SlotQueue attached;               ///< slots awaiting accept (FIFO)
    SlotQueue ready;                  ///< slots ready to terminate (FIFO)
    std::atomic<std::size_t> pending{0};  ///< #P, lock-free mirror
    /// Intercepted calls pushed to the intake but not yet drained; #P
    /// counts them so callers polling pending() see an arrival immediately.
    std::atomic<std::size_t> in_intake{0};
    /// Incremented lock-free at dispatch (the call path never takes mu_).
    std::atomic<std::uint64_t> calls{0};
    std::uint64_t accepts = 0, starts = 0, finishes = 0, combines = 0;

    // -- compatibility scheduling (DESIGN.md §4.8); frozen at start() --
    /// This entry carries a compat annotation (or is named by one).
    bool compat_participant = false;
    /// compat[j]: a call of this entry may run concurrently with a call of
    /// entry j. Symmetric across entries; compat[self] only when the entry
    /// listed itself. Sized entries_.size() at start().
    std::vector<bool> compat;
    /// In-flight multiactive bodies / parked deferred calls of this entry
    /// (guarded by mu_). Occupancy 0<->nonzero transitions bump compat_gen_.
    std::size_t ma_running = 0;
    std::size_t ma_deferred = 0;
    /// Stats mirrors of the EntryStats multiactive counters.
    std::uint64_t ma_started = 0, ma_concurrent = 0, ma_conflicts = 0;
  };

  /// One undrained async_call. Producers (callers) push these lock-free;
  /// whoever next holds the kernel lock — a manager wait/select, stats(),
  /// or an unmanaged dispatch — drains the whole backlog as a batch.
  struct IntakeItem {
    std::size_t entry;
    CallRecord rec;
  };

  /// Shared state between the object and its supervisor thread (deadlines,
  /// cancellations, manager-failure events, watchdog pacing). Held via
  /// shared_ptr so CancelToken subscriptions can capture a weak_ptr and
  /// outlive the object safely: a token fired after the object is gone
  /// simply finds the hub expired.
  struct SupervisorHub {
    struct Doomed {
      std::uint64_t id = 0;
      std::size_t entry = 0;
      std::weak_ptr<CallState> state;
    };
    struct Deadline {
      std::chrono::steady_clock::time_point due;
      std::uint64_t id = 0;
      std::size_t entry = 0;
      std::weak_ptr<CallState> state;
    };

    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    bool kick = false;              ///< new deadline/doomed entry queued
    bool manager_down = false;      ///< manager failed under kRestart
    std::exception_ptr down_cause;
    std::string down_what;
    std::vector<Doomed> doomed;     ///< cancelled calls awaiting cleanup
    std::vector<Deadline> deadlines;  ///< min-heap by due (std::*_heap)
  };

  /// Manager-thread activity for the watchdog's stall report (what the
  /// manager was last seen doing). Values index kActivityNames.
  enum : std::uint8_t {
    kActUserCode = 0,
    kActAcceptWait = 1,
    kActAwaitWait = 2,
    kActSelectWait = 3,
    kActDown = 4,
  };

  /// RAII marker for the manager's blocking primitives (accept/await/select
  /// waits); restores "user-code" on exit, including unwinds.
  class ActivityScope {
   public:
    ActivityScope(Object& obj, std::uint8_t activity) : obj_(obj) {
      obj_.mgr_activity_.store(activity, std::memory_order_relaxed);
    }
    ~ActivityScope() {
      obj_.mgr_activity_.store(kActUserCode, std::memory_order_relaxed);
    }
    ActivityScope(const ActivityScope&) = delete;
    ActivityScope& operator=(const ActivityScope&) = delete;

   private:
    Object& obj_;
  };

  // -- kernel helpers (suffix _locked requires mu_ held) --
  /// Wakes the manager's select WITHOUT discarding cached guard results.
  /// For event sources that carry their own generation counter (a channel's
  /// front_gen, the slot queues' journals): the selector re-checks those on
  /// every pass, so a global cache flush would be pure waste.
  void wake_manager() { mgr_wake_.signal(); }
  EntryCore& core(std::size_t idx) { return *entries_[idx]; }
  EntryCore& core_checked(EntryRef entry, const char* op);
  void update_pending_locked(EntryCore& e);
  void attach_locked(std::size_t entry_idx, CallRecord rec);
  CallHandle dispatch(std::size_t entry_idx, ValueList params, bool external,
                      const CallOptions* opts = nullptr);
  /// Manager primitives (and select fires) bump this so the watchdog can
  /// tell "blocked with nothing to do" from "wedged with work pending".
  void note_progress() { mgr_ops_.fetch_add(1, std::memory_order_relaxed); }
  /// Throws the watchdog-abort error if an escalation has flagged this
  /// manager incarnation; called from the manager's blocking primitives.
  void check_manager_abort() const;

  // -- supervision (core/supervision.h; DESIGN.md §4.6) --
  /// Spawns the manager thread for a (re)start; its catch block routes
  /// failures to handle_manager_failure.
  void spawn_manager();
  /// Runs on the failing manager thread: records manager_error_, then
  /// applies the policy (quarantine / schedule a restart / nothing).
  void handle_manager_failure(std::exception_ptr err, const std::string& what);
  /// Quarantines the object: fails every pending caller and all future
  /// calls with Error(kObjectDown, why). Idempotent.
  void take_down(std::exception_ptr cause, const std::string& why);
  /// Supervisor-thread half of kRestart: backoff, reconcile pending calls,
  /// on_restart hook, join the dead thread, spawn the next incarnation.
  void handle_manager_down(std::exception_ptr cause, const std::string& what);
  /// Re-queues / fails the failed incarnation's calls per replay_pending.
  void reconcile_for_restart();
  /// What ends the calls fail_unfinished_locked sweeps.
  enum class Teardown : std::uint8_t {
    kStop,           ///< stop(): every call fails kObjectStopped
    kQuarantine,     ///< take_down(): every call fails kObjectDown
    kRestart,        ///< restart without replay_pending
    kRestartReplay,  ///< restart that re-queues calls whose body never ran
  };
  /// The teardown table (DESIGN.md §4.6): for every call the object holds
  /// that has not finished — queued for a slot or in any slot state — fails
  /// it (trace kFailed, caller appended to `to_fail` for failing outside
  /// mu_), keeps it, or re-queues it, as `cause` dictates, and frees the
  /// slots of the failed ones unless a body still runs in them. Requires mu_.
  void fail_unfinished_locked(Teardown cause,
                              std::vector<std::shared_ptr<CallState>>& to_fail);
  /// Starts the supervisor thread once (no-op when already running or
  /// stopping); needed for deadlines/cancellation, kRestart and watchdog.
  void ensure_supervisor();
  void supervisor_loop();
  /// Registers deadline/cancel enforcement for a dispatched call.
  void register_call_guard(std::uint64_t id, std::size_t entry_idx,
                           const std::shared_ptr<CallState>& state,
                           const CallOptions& opts);
  /// Fails one call wherever it currently is in the lifecycle (intake,
  /// overflow, attached, accepted, started...) with a typed error; the
  /// caller observes exactly one completion.
  void fail_call(std::uint64_t id, std::size_t entry_idx,
                 const std::weak_ptr<CallState>& wstate, ErrorCode code,
                 const std::string& why);
  /// One watchdog sample; state lives in the supervisor loop's frame.
  struct WatchdogState {
    bool have_baseline = false;
    std::uint64_t last_ops = 0;
    std::chrono::steady_clock::time_point last_progress{};
    bool reported = false;
  };
  void watchdog_tick(WatchdogState& wd);
  StallReport build_stall_report(std::chrono::milliseconds stalled,
                                 bool escalated);
  /// Drains the intake under the already-held kernel lock: attaches
  /// intercepted calls, batch-submits unintercepted bodies. Skips (leaving
  /// items queued for stop()'s flush) once stopping_ is set.
  void drain_intake_locked();
  /// Drains the intake without holding mu_ (takes it only if the batch
  /// contains intercepted calls). Fails everything drained once stopping_.
  void flush_intake();
  /// Builds the executor task for one unintercepted call. The task's
  /// captures fail the caller if the task is destroyed without running.
  sched::BatchItem make_unintercepted_task(std::size_t entry_idx,
                                           CallRecord rec);
  /// Runs one started intercepted body (slot is already kRunning and holds
  /// the call) and its completion epilogue, on whichever thread calls it: a
  /// pooled worker via make_body_task, or the manager thread itself for an
  /// inline body (execute, or start of an ImplDecl::inline_start entry).
  /// The epilogue routes on Slot::multiactive: the serial path parks the
  /// result for await/finish, the compat path completes the caller directly
  /// and drains the deferred queue. Call without mu_.
  void run_body(std::size_t entry_idx, std::size_t slot_idx,
                ValueList params);
  /// Wraps run_body as an executor task. Requires mu_ (reads global_key;
  /// safe either way, but every caller already holds it).
  sched::BatchItem make_body_task(std::size_t entry_idx, std::size_t slot_idx,
                                  ValueList full_params);
  void submit_body(std::size_t entry_idx, std::size_t slot_idx,
                   ValueList full_params);
  /// Detaches the manager thread while it is inside an inline body
  /// (mgr_inline_): it becomes an ordinary body thread whose slot the caller
  /// (stop, watchdog escalation) fails like any started body, and it is
  /// joined in stop() once that body returns. Its manager primitives refuse
  /// from here on, and its exit runs no supervision handling. Requires mu_.
  void retire_manager_locked();
  /// True on a manager thread that retire_manager_locked detached.
  bool manager_retired() const {
    return manager_thread_id_.load(std::memory_order_acquire) !=
           std::this_thread::get_id();
  }

  // -- compatibility scheduling (multiactive; DESIGN.md §4.8) --
  bool compat_ok(std::size_t i, std::size_t j) const {
    return entries_[i]->compat[j];
  }
  /// Admissible to launch a call of entry i now: compatible with every
  /// entry holding running or deferred multiactive work (self included).
  bool compat_admissible_locked(std::size_t i) const;
  /// Accept-gate for compat-gated select guards: launch-admissible AND no
  /// incompatible participant holds an attached call older than entry i's
  /// oldest attached call (arrival-order fairness — an incompatible call
  /// that arrived first gets its turn before the gate reopens).
  bool compat_gate_open_locked(std::size_t i) const;
  /// Marks an accepted slot Running on the compat path: counters, occupancy
  /// transitions, kStarted trace (with the realized concurrency level).
  void ma_mark_running_locked(std::size_t entry_idx, std::size_t slot_idx);
  /// Launches every deferred call that became admissible, FIFO with a
  /// blocked-set (a deferred call never overtakes an earlier-deferred
  /// incompatible one). Appends body tasks for submission outside mu_.
  void drain_deferred_locked(std::vector<sched::BatchItem>& out);
  /// Removes one slot's (entry,slot) pair from ma_queue_ (fail/teardown).
  void ma_unqueue_locked(std::size_t entry_idx, std::size_t slot_idx);
  /// accept (§2.3) of an attached slot: unlinks it from the attached queue,
  /// marks it Accepted, counts the accept, republishes #P and traces
  /// kAccepted. The caller builds any Accepted it hands out (accepted()).
  void accept_locked(std::size_t entry_idx, std::size_t slot_idx);
  /// The Accepted for an accepted slot (requires mu_): its intercepted
  /// parameter prefix is copied, O(prefix) refcount bumps (DESIGN.md §4.9);
  /// the whole list stays in the record for start.
  Accepted accepted(std::size_t entry_idx, std::size_t slot_idx);
  /// await (§2.3) of a Ready slot: unlinks it from the ready queue, marks it
  /// Awaited and moves its manager-visible results into the Awaited.
  Awaited await_locked(std::size_t entry_idx, std::size_t slot_idx);
  /// Frees a slot (Slot::reset) and attaches the next queued call to it.
  /// The slot must already be out of the attached/ready queues.
  void release_slot_locked(std::size_t entry_idx, std::size_t slot_idx);
  void require_started(const char* op) const;
  void require_not_started(const char* op) const;
  /// Emits a trace event if a tracer is installed. Safe with or without the
  /// kernel lock held (the tracer must not reenter the kernel).
  /// `concurrency` is the number of in-flight multiactive bodies including
  /// this call (meaningful on kStarted events from the compat path; 0
  /// elsewhere).
  void trace(const EntryCore& e, std::uint64_t call_id, std::size_t slot,
             CallPhase phase, std::size_t concurrency = 0) const {
    if (tracer_) {
      tracer_->on_event(TraceEvent{e.decl.name, call_id, slot, phase,
                                   concurrency,
                                   std::chrono::steady_clock::now()});
    }
  }

  std::string name_;
  ObjectOptions opts_;

  mutable std::mutex mu_;
  /// Wakes the manager thread (the only waiter) after kernel events that
  /// originate off it: call intake, body completion, channel observers,
  /// stop. Prepare-ticket/recheck/wait gives select an epoch snapshot.
  support::EventCount mgr_wake_;
  /// Lock-free call intake (see IntakeItem).
  support::MpscIntakeQueue<IntakeItem> intake_;

  std::vector<std::unique_ptr<EntryCore>> entries_;
  std::unordered_map<std::string, std::size_t> by_name_;

  ManagerFn manager_fn_;
  bool has_manager_ = false;
  Tracer* tracer_ = nullptr;
  std::atomic<std::uint64_t> next_call_id_{1};
  std::unique_ptr<sched::Executor> executor_;
  std::jthread manager_thread_;
  std::atomic<std::thread::id> manager_thread_id_{};
  /// The manager thread is running a body inline (guarded by
  /// mu_): it reaches no blocking primitive until the body returns, so stop
  /// and watchdog escalation retire it instead of waiting for it.
  bool mgr_inline_ = false;
  /// Manager threads retired mid-body; joined by stop() (guarded by mu_).
  std::vector<std::jthread> retired_managers_;
  std::stop_source stop_source_;
  std::exception_ptr manager_error_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> guard_inval_gen_{1};
  support::Event stop_done_;

  // -- compatibility scheduling state (all guarded by mu_) --
  /// Generation of the compat dimension: bumped on occupancy-set changes
  /// (an entry's multiactive work going 0<->nonzero) and on attached-queue
  /// changes of participant entries. Select's compat gate re-derives only
  /// when this moves — the "group occupancy as a cached guard dimension"
  /// contract.
  std::uint64_t compat_gen_ = 1;
  /// FIFO of deferred calls: (entry, slot). Arrival order across entries.
  std::deque<std::pair<std::size_t, std::size_t>> ma_queue_;
  /// Entry indices participating in compatibility scheduling.
  std::vector<std::size_t> compat_participants_;
  /// Total in-flight multiactive bodies (concurrent-start stat).
  std::size_t ma_total_running_ = 0;

  // -- supervision state --
  std::shared_ptr<SupervisorHub> hub_ = std::make_shared<SupervisorHub>();
  std::jthread supervisor_thread_;
  bool supervisor_started_ = false;  // guarded by mu_
  /// Quarantined: set once (seq_cst, mirroring stopping_'s dispatch/flush
  /// handshake), never cleared. down_msg_ is written before the store and
  /// read only after an acquire load observes true.
  std::atomic<bool> down_{false};
  std::string down_msg_;
  std::atomic<int> restarts_{0};
  /// Watchdog escalation flag: manager primitives convert it into a typed
  /// unwind (check_manager_abort). Reset before each restart.
  std::atomic<bool> mgr_abort_{false};
  /// A manager incarnation is running (false between failure and restart).
  std::atomic<bool> mgr_live_{false};
  /// Manager progress counter (see note_progress).
  std::atomic<std::uint64_t> mgr_ops_{0};
  std::atomic<std::uint8_t> mgr_activity_{kActUserCode};
  /// Guard descriptions of the manager's most recent select (guarded by
  /// mu_); copied by value into stall reports so they survive the Select.
  std::vector<std::string> guard_snapshot_;
};

}  // namespace alps
