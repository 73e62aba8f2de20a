// The manager primitives (paper §2.3): accept / start / await / finish,
// the packaged `execute`, and request combining (§2.7).
//
// A Manager is handed to the user's manager function on the dedicated
// manager thread; all primitives must be invoked from that thread (the
// manager is "a single CSP-like process" — the paper contrasts this with
// the internally concurrent mediator). The kernel enforces this.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <stop_token>
#include <string>

#include "core/entry.h"
#include "core/value.h"

namespace alps {

class Object;
class Select;

/// Result of an `accept P[i](...)`: identifies the slot and carries the
/// intercepted parameter prefix.
struct Accepted {
  std::size_t entry = static_cast<std::size_t>(-1);
  std::size_t slot = kNoSlot;
  /// First `n_params` (from the intercepts clause) invocation parameters.
  ValueList params;

  bool valid() const { return slot != kNoSlot; }
};

/// Result of an `await P[i](...)`: the intercepted result prefix followed by
/// all hidden results. `failed` is set when the body raised instead of
/// returning — the entry-body exception surfaces here, to the manager, as a
/// per-call failure (`error` holds it for inspection) and is delivered to
/// the caller at finish. `abandoned` is set when the caller was already
/// failed (deadline expiry / cancellation / restart): the manager should
/// finish normally — the completion is discarded — and skip side effects it
/// only wants for live callers.
struct Awaited {
  std::size_t entry = static_cast<std::size_t>(-1);
  std::size_t slot = kNoSlot;
  ValueList results;
  bool failed = false;
  bool abandoned = false;
  std::exception_ptr error;

  bool valid() const { return slot != kNoSlot; }
};

class Manager {
 public:
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // ---- accept ----

  /// Blocks until a call is attached to some slot of `entry`, accepts it
  /// (arrival order), and returns the intercepted parameters.
  Accepted accept(EntryRef entry);

  /// Non-blocking variant.
  std::optional<Accepted> try_accept(EntryRef entry);

  // ---- start ----

  /// Starts the body asynchronously w.r.t. the manager, re-supplying the
  /// intercepted parameters unchanged and appending `hidden_params`
  /// (must match the entry's ImplDecl::hidden_params arity). An entry
  /// declared ImplDecl::inline_start runs the body here on the manager
  /// thread instead and returns with its slot Ready, under the same
  /// payload cutoff as execute (DESIGN.md §4.13).
  void start(const Accepted& a, ValueList hidden_params = {});

  /// As start(), but the manager substitutes `iparams` for the intercepted
  /// parameter prefix (the manager "supplies these invocation parameters to
  /// P when it is started" — it may transform them).
  void start_with(const Accepted& a, ValueList iparams,
                  ValueList hidden_params = {});

  // ---- multiactive dispatch (compatibility groups, DESIGN.md §4.8) ----

  /// Starts an accepted call of a compat-annotated entry. If the call is
  /// compatible with every in-flight multiactive group it launches
  /// immediately (possibly overlapping other bodies of this object);
  /// otherwise the kernel parks it and launches it in arrival order once the
  /// conflicting group drains. Either way the kernel completes the caller
  /// directly when the body returns — do NOT await/finish such a call. The
  /// entry must carry compatibility annotations and must not declare hidden
  /// params/results (those need the await/finish round-trip). Bodies always
  /// go to the pool: ImplDecl::inline_start is ignored here and by
  /// start_compatible_pending.
  void start_compatible(const Accepted& a);

  /// Batched accept + start_compatible: accepts attached calls of `entry`
  /// in arrival order and launches each, for as long as the compat gate
  /// stays open (no incompatible group in flight and no older incompatible
  /// call waiting its turn). The whole batch costs one kernel-lock
  /// acquisition and one executor wakeup. Returns the number launched
  /// (0 when nothing was attached or the gate is closed).
  std::size_t start_compatible_pending(EntryRef entry);

  // ---- await ----

  /// Blocks until *some* started call of `entry` is ready to terminate and
  /// returns its intercepted+hidden results (arrival order).
  Awaited await(EntryRef entry);

  /// Blocks until this specific call is ready to terminate.
  Awaited await(const Accepted& a);

  std::optional<Awaited> try_await(EntryRef entry);

  // ---- finish ----

  /// Endorses termination, echoing the intercepted results unchanged to the
  /// caller. The caller receives [intercepted prefix, body's remaining
  /// results]; hidden results stay with the manager.
  void finish(const Awaited& w);

  /// As finish(), with the manager substituting the intercepted result
  /// prefix (it "can monitor the results being returned by P").
  void finish_with(const Awaited& w, ValueList iresults);

  /// Combining (§2.7): completes an accepted call *without starting it*.
  /// Requires the intercepts clause to cover all parameters, and
  /// `all_results` to be the full visible result list.
  void combine_finish(const Accepted& a, ValueList all_results);

  /// Completes an accepted or awaited call with an error (extension; useful
  /// for admission control).
  void fail(const Accepted& a, const std::string& why);
  void fail(const Awaited& w, const std::string& why);

  // ---- execute = start; await; finish (§2.3) ----

  /// Runs the call to completion in exclusion w.r.t. the manager and returns
  /// what await returned (so hidden results remain inspectable). The body
  /// runs on the manager thread itself unless its parameters carry
  /// kZeroCopySliceThreshold or more payload bytes (DESIGN.md §4.13).
  Awaited execute(const Accepted& a, ValueList hidden_params = {});

  // ---- environment ----

  /// The paper's `#P` for guard conditions.
  std::size_t pending(EntryRef entry) const;

  bool stop_requested() const;
  std::stop_token stop_token() const;
  Object& object() { return *obj_; }

 private:
  friend class Object;
  friend class Select;

  explicit Manager(Object& obj) : obj_(&obj) {}

  /// The kernel half of start, start_with and execute (requires the kernel
  /// lock): validates `a`, moves its slot to Running and returns the body's
  /// parameter list, with `iparams` (start_with) in place of the
  /// intercepted prefix. Returns nullopt for a call abandoned since accept;
  /// its slot goes straight to Ready for the manager's await/finish to
  /// reclaim.
  std::optional<ValueList> start_locked(const Accepted& a,
                                        std::optional<ValueList> iparams,
                                        ValueList hidden_params);
  /// start_locked, then runs the body: inline on the manager thread for an
  /// execute or an ImplDecl::inline_start entry (below the payload cutoff,
  /// and not once stop or a watchdog abort is pending), else on the pool.
  void start_body(const Accepted& a, std::optional<ValueList> iparams,
                  ValueList hidden_params, bool executing);
  /// The kernel step of accept and try_accept (requires the kernel lock):
  /// drains the intake, checks for stop, then accepts the oldest attached
  /// call of `entry`, if any.
  std::optional<Accepted> try_accept_locked(std::size_t entry);
  /// The same step for await(entry) and try_await: awaits the oldest Ready
  /// call of `entry`, if any.
  std::optional<Awaited> try_await_locked(std::size_t entry);
  /// Refuses the compat path (start_compatible*) for an entry without
  /// compatibility annotations or with hidden params/results.
  void check_compat_path(std::size_t entry, const char* op) const;
  /// Both fail overloads: the call must be Accepted (or Awaited).
  void fail_slot(std::size_t entry, std::size_t slot, bool awaited,
                 const std::string& why);
  /// Throws kObjectStopped when the object is stopping, or the watchdog's
  /// kTimeout once it aborted this manager (the manager unwinds).
  void check_stop() const;
  void assert_manager_thread(const char* op) const;

  Object* obj_;
};

}  // namespace alps
