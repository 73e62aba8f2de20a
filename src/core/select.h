// Nondeterministic selection (paper §2.4): the `select` and `loop`
// statements with accept / await / receive / when guards, acceptance
// conditions (`when B` evaluated against tentatively received values), and
// run-time priorities (`pri E`, smallest value wins).
//
//   Select()
//     .on(accept_guard(deposit)
//           .when([&](const ValueList&) { return count < N; })
//           .then([&](Accepted a) { m.execute(a); ++count; }))
//     .on(await_guard(deposit)
//           .then([&](Awaited w) { m.finish(w); }))
//     .loop(m);
//
// An accept/await guard stands for the whole family `(i:1..N) accept P[i]`;
// every eligible slot is a separate candidate, so `when`/`pri` can depend on
// each call's own values (e.g. shortest-seek-first scheduling).
//
// Selection is delta-driven (DESIGN.md §4.4): every event source carries a
// generation counter (the attached/ready queues' journals, the channels'
// front generation, the object's external-event epoch), and the selector
// caches each candidate's `when`/`pri` evaluation keyed on the generation it
// was computed at. A wakeup replays only the membership deltas of sources
// that actually moved; unchanged closures are never re-run. Eligible
// candidates live in a persistent min-heap keyed (pri, insertion seq) —
// pick-best is O(log n) rather than a rescan of guards × slots, and the seq
// key round-robins equal-pri candidates because a fired candidate re-enters
// behind its peers.
//
// Caching contract: by default `when`/`pri` closures are re-evaluated on
// every pass — they may freely read mutable state (the enclosing manager's
// locals, clocks, #P, ...), matching the pre-caching API. A guard whose
// closures are pure functions of their argument can opt into the fast path
// with `.cacheable()`: its verdicts are then cached per candidate and the
// closures are never re-run while the candidate is unchanged. Guards with
// no closures at all cache implicitly (their verdict depends on nothing);
// plain when-guards (`when B => S`) re-evaluate implicitly, and
// `Object::notify_external_event()` discards every cached result for
// callers that mutate state the kernel cannot see.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/channel.h"
#include "core/entry.h"
#include "core/manager.h"
#include "core/value.h"

namespace alps {

class Object;

/// Acceptance condition: sees the tentatively received values (intercepted
/// params for accept, intercepted+hidden results for await, the message for
/// receive). Must be side-effect free; it runs under the kernel lock and may
/// be evaluated for candidates that end up not selected. If the guard is
/// marked `cacheable`, it must also be a pure function of its argument —
/// the selector then caches its result per candidate.
using ValuePred = std::function<bool(const ValueList&)>;
/// Run-time priority (`pri E`); smaller is more urgent. Same restrictions.
using ValuePri = std::function<std::int64_t(const ValueList&)>;

struct AcceptGuard {
  EntryRef entry;
  ValuePred when_fn;
  ValuePri pri_fn;
  std::function<void(Accepted)> then_fn;
  bool cache = false;
  bool compat_gate = false;

  AcceptGuard&& when(ValuePred p) && {
    when_fn = std::move(p);
    return std::move(*this);
  }
  /// Gates the guard on the entry's compatibility group (DESIGN.md §4.8):
  /// candidates are eligible only while a call of this entry could launch —
  /// no incompatible group in flight and no older incompatible call waiting
  /// its turn. Group occupancy is a cached guard dimension: the verdict is
  /// keyed on the object's compat generation and re-derived only when that
  /// moves (occupancy transitions, participant queue changes) — never by a
  /// per-pass rescan. The entry must carry compatibility annotations; pair
  /// the guard's `then` with Manager::start_compatible (or
  /// start_compatible_pending).
  AcceptGuard&& compatible() && {
    compat_gate = true;
    return std::move(*this);
  }
  AcceptGuard&& pri(ValuePri p) && {
    pri_fn = std::move(p);
    return std::move(*this);
  }
  /// Declares the `when`/`pri` closures pure functions of their argument:
  /// the selector may cache their verdict per candidate and never re-run
  /// them while the candidate is unchanged (the delta-driven fast path).
  /// Without this, closure-bearing guards re-evaluate on every pass.
  AcceptGuard&& cacheable() && {
    cache = true;
    return std::move(*this);
  }
  AcceptGuard&& then(std::function<void(Accepted)> h) && {
    then_fn = std::move(h);
    return std::move(*this);
  }
};

struct AwaitGuard {
  EntryRef entry;
  ValuePred when_fn;
  ValuePri pri_fn;
  std::function<void(Awaited)> then_fn;
  bool cache = false;

  AwaitGuard&& when(ValuePred p) && {
    when_fn = std::move(p);
    return std::move(*this);
  }
  AwaitGuard&& pri(ValuePri p) && {
    pri_fn = std::move(p);
    return std::move(*this);
  }
  /// See AcceptGuard::cacheable.
  AwaitGuard&& cacheable() && {
    cache = true;
    return std::move(*this);
  }
  AwaitGuard&& then(std::function<void(Awaited)> h) && {
    then_fn = std::move(h);
    return std::move(*this);
  }
};

struct ReceiveGuard {
  ChannelRef channel;
  ValuePred when_fn;
  ValuePri pri_fn;
  std::function<void(ValueList)> then_fn;
  bool cache = false;

  ReceiveGuard&& when(ValuePred p) && {
    when_fn = std::move(p);
    return std::move(*this);
  }
  ReceiveGuard&& pri(ValuePri p) && {
    pri_fn = std::move(p);
    return std::move(*this);
  }
  /// See AcceptGuard::cacheable.
  ReceiveGuard&& cacheable() && {
    cache = true;
    return std::move(*this);
  }
  ReceiveGuard&& then(std::function<void(ValueList)> h) && {
    then_fn = std::move(h);
    return std::move(*this);
  }
};

/// A pure boolean guard (`when B => S`). Its condition reads arbitrary
/// state by construction, so it is implicitly always re-evaluated.
struct WhenGuard {
  std::function<bool()> cond;
  std::function<std::int64_t()> pri_fn;
  std::function<void()> then_fn;

  WhenGuard&& pri(std::function<std::int64_t()> p) && {
    pri_fn = std::move(p);
    return std::move(*this);
  }
  WhenGuard&& then(std::function<void()> h) && {
    then_fn = std::move(h);
    return std::move(*this);
  }
};

inline AcceptGuard accept_guard(EntryRef e) {
  return AcceptGuard{e, {}, {}, {}};
}
inline AwaitGuard await_guard(EntryRef e) { return AwaitGuard{e, {}, {}, {}}; }
inline ReceiveGuard receive_guard(ChannelRef c) {
  return ReceiveGuard{std::move(c), {}, {}, {}};
}
inline WhenGuard when_guard(std::function<bool()> cond) {
  return WhenGuard{std::move(cond), {}, {}};
}

class Select {
 public:
  Select();
  ~Select();

  Select(const Select&) = delete;
  Select& operator=(const Select&) = delete;

  Select& on(AcceptGuard g);
  Select& on(AwaitGuard g);
  Select& on(ReceiveGuard g);
  Select& on(WhenGuard g);

  /// Runs one selection: blocks until a guard fires, runs its `then`
  /// handler (outside the kernel lock), and returns the guard's index.
  /// Throws kNoEligibleGuard if no guard is eligible and none can become so
  /// (only false when-guards remain); throws kObjectStopped when the object
  /// is stopping.
  std::size_t select(Manager& m);

  /// The paper's `loop`: selects repeatedly until the object stops. Returns
  /// normally on stop.
  void loop(Manager& m);

  /// Enables the naive O(N) slot-scan eligibility check that re-runs every
  /// closure on every wakeup — the wasteful strategy §3 warns about, and the
  /// differential baseline the incremental engine is tested against. Exists
  /// for experiment E9 (and that test).
  Select& use_naive_polling(bool enable);

  std::size_t guard_count() const { return guards_.size(); }

 private:
  enum class Kind { kAccept, kAwait, kReceive, kWhen };

  struct GuardRec {
    Kind kind;
    EntryRef entry;      // accept/await
    ChannelRef channel;  // receive
    ValuePred when_v;
    ValuePri pri_v;
    std::function<bool()> when_b;         // when-guard condition
    std::function<std::int64_t()> pri_b;  // when-guard priority
    std::function<void(Accepted)> on_accept;
    std::function<void(Awaited)> on_await;
    std::function<void(ValueList)> on_receive;
    std::function<void()> on_when;
    /// Closures read mutable state: never skip them via the cache.
    bool reeval = false;
    /// Accept guard gated on the entry's compat group (see
    /// AcceptGuard::compatible).
    bool compat_gate = false;
  };

  /// Cached evaluation of one candidate (a slot for accept/await guards;
  /// the single pseudo-candidate of a receive/when guard).
  struct SlotCache {
    /// Which evaluation the cache holds: the call id for accept/await (calls
    /// never re-attach, so an id match proves same values), the channel
    /// front generation for receive. 0 = never evaluated.
    std::uint64_t key = 0;
    /// Heap insertion seq of the live index entry (meaningful iff in_index).
    std::uint64_t seq = 0;
    std::int64_t pri = 0;
    bool eligible = false;
    /// A live heap entry for this candidate exists (with seq above). Heap
    /// entries are lazily deleted: anything disagreeing with the cache is
    /// garbage, discarded at pop or compaction.
    bool in_index = false;
  };

  struct GuardState {
    bool primed = false;      ///< evaluated at least once
    std::uint64_t src_gen = 0;  ///< source generation at last sync
    /// Compat-gated guards: object compat generation the gate verdict was
    /// derived at, and the verdict itself. While the gate is closed the
    /// guard contributes no candidates and skips its delta journal (a
    /// reopen rescans the members, re-adding cached verdicts cheaply).
    std::uint64_t compat_gen = 0;
    bool gate_open = true;
    std::vector<SlotCache> slots;
  };

  /// Persistent priority-index entry: min by (pri, seq). seq is assigned at
  /// insertion and kept while the candidate stays eligible with unchanged
  /// pri; a fired candidate re-inserts with a fresh seq and thus queues
  /// behind equal-pri peers — rotation fairness falls out of the key.
  struct IndexEntry {
    std::int64_t pri = 0;
    std::uint64_t seq = 0;
    std::uint32_t guard = 0;
    std::uint32_t slot = 0;  ///< kNoCacheSlot for receive/when
  };

  struct Fired {
    std::size_t guard_idx;
    Accepted accepted;
    Awaited awaited;
    ValueList message;
  };

  Fired select_impl(Manager& m);
  Fired select_impl_naive(Manager& m);
  /// Human-readable guard description for the watchdog's stall report.
  static std::string describe_guard(const GuardRec& g, Object* obj);

  // -- incremental engine internals (all require the kernel lock) --
  static bool index_before(const IndexEntry& a, const IndexEntry& b);
  void sync_guard(Object* obj, std::size_t gi, bool invalidated);
  void consider_slot(std::size_t gi, Object* obj, std::size_t slot_idx,
                     bool force);
  void update_mono_cache(std::size_t gi, std::uint64_t key, bool eligible,
                         std::int64_t pri);
  void push_entry(std::size_t gi, std::uint32_t slot, SlotCache& c,
                  std::int64_t pri);
  SlotCache& cache_of(const IndexEntry& e);
  bool entry_live(const IndexEntry& e) const;
  bool validate_top(Object* obj, const IndexEntry& e) const;
  void compact_index();

  std::vector<GuardRec> guards_;
  std::vector<GuardState> state_;
  std::vector<IndexEntry> index_;  ///< binary min-heap, lazy deletion
  std::size_t live_count_ = 0;     ///< non-garbage entries in index_
  ValueList scratch_view_;         ///< reused intercepted-params view
  std::uint64_t next_seq_ = 0;
  std::uint64_t seen_inval_gen_ = 0;
  std::uint64_t rotation_ = 0;  ///< naive path's tie rotation
  bool naive_polling_ = false;
  // Scratch buffers for the naive path, reused across iterations (no
  // per-iteration heap allocation).
  struct NaiveCandidate {
    std::size_t guard_idx = 0;
    std::size_t slot = kNoSlot;
    std::int64_t pri = 0;
  };
  std::vector<NaiveCandidate> scratch_candidates_;
  std::vector<std::size_t> scratch_tied_;
};

}  // namespace alps
