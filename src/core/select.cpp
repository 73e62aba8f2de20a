#include "core/select.h"

#include <algorithm>
#include <limits>

#include "core/error.h"
#include "core/object.h"

namespace alps {

namespace {

/// Heap slot value for the single pseudo-candidate of receive/when guards
/// (their cache lives at SlotCache index 0).
constexpr std::uint32_t kNoCacheSlot = 0xffffffffu;

/// The caching default, safe-side: closure-bearing guards re-evaluate on
/// every pass unless the author vouches for purity with `.cacheable()` —
/// a `when`/`pri` reading mutable state (the common `count < N` pattern)
/// must keep working without any annotation. Closure-less guards have a
/// state-independent verdict and always cache.
template <typename Guard>
bool effective_reeval(const Guard& g) {
  return (g.when_fn || g.pri_fn) && !g.cache;
}

}  // namespace

Select::Select() = default;
Select::~Select() = default;

Select& Select::on(AcceptGuard g) {
  GuardRec rec;
  rec.kind = Kind::kAccept;
  rec.entry = g.entry;
  rec.reeval = effective_reeval(g);  // before the closures move out of g
  rec.when_v = std::move(g.when_fn);
  rec.pri_v = std::move(g.pri_fn);
  rec.on_accept = std::move(g.then_fn);
  rec.compat_gate = g.compat_gate;
  guards_.push_back(std::move(rec));
  return *this;
}

Select& Select::on(AwaitGuard g) {
  GuardRec rec;
  rec.kind = Kind::kAwait;
  rec.entry = g.entry;
  rec.reeval = effective_reeval(g);  // before the closures move out of g
  rec.when_v = std::move(g.when_fn);
  rec.pri_v = std::move(g.pri_fn);
  rec.on_await = std::move(g.then_fn);
  guards_.push_back(std::move(rec));
  return *this;
}

Select& Select::on(ReceiveGuard g) {
  GuardRec rec;
  rec.kind = Kind::kReceive;
  rec.channel = std::move(g.channel);
  rec.reeval = effective_reeval(g);  // before the closures move out of g
  rec.when_v = std::move(g.when_fn);
  rec.pri_v = std::move(g.pri_fn);
  rec.on_receive = std::move(g.then_fn);
  guards_.push_back(std::move(rec));
  return *this;
}

Select& Select::on(WhenGuard g) {
  GuardRec rec;
  rec.kind = Kind::kWhen;
  rec.when_b = std::move(g.cond);
  rec.pri_b = std::move(g.pri_fn);
  rec.on_when = std::move(g.then_fn);
  rec.reeval = true;  // reads arbitrary state by construction
  guards_.push_back(std::move(rec));
  return *this;
}

Select& Select::use_naive_polling(bool enable) {
  naive_polling_ = enable;
  return *this;
}

namespace {

/// RAII registration of a wake-up observer on every channel guard: the
/// observer signals the object's waiter-counted manager event, making
/// channel receive guards event-driven (and nearly free when the manager
/// is not actually parked in select). The observer only *wakes* — it does
/// not bump the guard invalidation epoch, because a channel carries its own
/// front generation which the selector re-checks on every pass; flushing
/// every accept/await cache on each message would defeat the delta engine
/// for channel-heavy managers.
class ChannelObservers {
 public:
  ChannelObservers() = default;
  ~ChannelObservers() { clear(); }

  void add(ChannelRef channel, std::function<void()> wake);
  void clear() {
    for (auto& [chan, token] : regs_) chan->remove_observer(token);
    regs_.clear();
  }
  bool empty() const { return regs_.empty(); }

 private:
  std::vector<std::pair<ChannelRef, ChannelCore::ObserverToken>> regs_;
};

}  // namespace

void ChannelObservers::add(ChannelRef channel, std::function<void()> wake) {
  auto token = channel->add_observer(std::move(wake));
  regs_.emplace_back(std::move(channel), token);
}

// ---------------------------------------------------------------------------
// Incremental engine
// ---------------------------------------------------------------------------

bool Select::index_before(const IndexEntry& a, const IndexEntry& b) {
  if (a.pri != b.pri) return a.pri < b.pri;
  return a.seq < b.seq;
}

void Select::push_entry(std::size_t gi, std::uint32_t slot, SlotCache& c,
                        std::int64_t pri) {
  if (!c.in_index) ++live_count_;
  // If a live entry existed (pri changed), it turns to garbage here: c.seq
  // moves on and lazy deletion discards the old key at pop or compaction.
  c.seq = next_seq_++;
  c.pri = pri;
  c.eligible = true;
  c.in_index = true;
  index_.push_back(IndexEntry{pri, c.seq,
                              static_cast<std::uint32_t>(gi), slot});
  std::push_heap(index_.begin(), index_.end(),
                 [](const IndexEntry& a, const IndexEntry& b) {
                   return index_before(b, a);
                 });
}

Select::SlotCache& Select::cache_of(const IndexEntry& e) {
  return state_[e.guard].slots[e.slot == kNoCacheSlot ? 0 : e.slot];
}

bool Select::entry_live(const IndexEntry& e) const {
  const GuardState& st = state_[e.guard];
  const SlotCache& c = st.slots[e.slot == kNoCacheSlot ? 0 : e.slot];
  return c.in_index && c.seq == e.seq;
}

bool Select::validate_top(Object* obj, const IndexEntry& e) const {
  const GuardRec& g = guards_[e.guard];
  switch (g.kind) {
    case Kind::kAccept:
    case Kind::kAwait: {
      // The cache can outlive the kernel event that retires a slot when the
      // guard last synced via full rescan (rescans visit current members
      // only); the kernel state is the ground truth at commit time.
      const Object::EntryCore& ec = obj->core(g.entry.index());
      const Object::Slot& s = ec.slots[e.slot];
      const auto want = g.kind == Kind::kAccept ? Object::SlotState::kAttached
                                                : Object::SlotState::kReady;
      const SlotCache& c = state_[e.guard].slots[e.slot];
      return s.state == want && s.call && s.call->id == c.key;
    }
    case Kind::kReceive:
    case Kind::kWhen:
      // Receive commits revalidate against the channel (take_front_if);
      // when-guards were re-evaluated in this very pass.
      return true;
  }
  return false;
}

void Select::consider_slot(std::size_t gi, Object* obj, std::size_t slot_idx,
                          bool force) {
  GuardRec& g = guards_[gi];
  GuardState& st = state_[gi];
  Object::EntryCore& e = obj->core(g.entry.index());
  const Object::Slot& s = e.slots[slot_idx];
  SlotCache& c = st.slots[slot_idx];
  const std::uint64_t call_id = s.call->id;

  if (!force && c.key == call_id) {
    // Cached evaluation of the same call's values: closures are pure in
    // their argument (the cacheable contract), so the verdict stands.
    // Re-insert only if the live entry was consumed out from under a still-
    // eligible candidate (e.g. a slot removed and re-attached with the same
    // call within one replay window — the removal retired the fresh entry).
    if (c.eligible && !c.in_index) {
      push_entry(gi, static_cast<std::uint32_t>(slot_idx), c, c.pri);
    }
    return;
  }

  bool eligible = false;
  std::int64_t pri = 0;
  if (g.kind == Kind::kAccept) {
    // View of the intercepted parameter prefix (scratch buffer: capacity is
    // reused across evaluations, no per-candidate allocation steady-state;
    // element copies are O(1) payload-refcount bumps, DESIGN.md §4.9).
    scratch_view_.assign(s.call->params.begin(),
                         s.call->params.begin() +
                             static_cast<std::ptrdiff_t>(e.icept_params));
    eligible = !g.when_v || g.when_v(scratch_view_);
    if (eligible) pri = g.pri_v ? g.pri_v(scratch_view_) : 0;
  } else {
    eligible = !g.when_v || g.when_v(s.mgr_results);
    if (eligible) pri = g.pri_v ? g.pri_v(s.mgr_results) : 0;
  }

  c.key = call_id;
  if (!eligible) {
    if (c.in_index) --live_count_;
    c.eligible = false;
    c.in_index = false;
    return;
  }
  if (c.in_index && c.eligible && c.pri == pri) {
    // Continuously eligible with unchanged pri: keep the entry and its seq,
    // preserving the candidate's place among equal-pri peers.
    return;
  }
  push_entry(gi, static_cast<std::uint32_t>(slot_idx), c, pri);
}

void Select::update_mono_cache(std::size_t gi, std::uint64_t key,
                               bool eligible, std::int64_t pri) {
  SlotCache& c = state_[gi].slots[0];
  c.key = key;
  if (!eligible) {
    if (c.in_index) --live_count_;
    c.eligible = false;
    c.in_index = false;
    return;
  }
  if (c.in_index && c.eligible && c.pri == pri) return;  // keep seq
  push_entry(gi, kNoCacheSlot, c, pri);
}

void Select::sync_guard(Object* obj, std::size_t gi, bool invalidated) {
  GuardRec& g = guards_[gi];
  GuardState& st = state_[gi];
  switch (g.kind) {
    case Kind::kAccept:
    case Kind::kAwait: {
      Object::EntryCore& e = obj->core(g.entry.index());
      Object::SlotQueue& q =
          g.kind == Kind::kAccept ? e.attached : e.ready;
      if (st.slots.size() < e.slots.size()) st.slots.resize(e.slots.size());
      if (g.kind == Kind::kAccept && g.compat_gate) {
        // Group occupancy as a cached guard dimension: the gate verdict is
        // keyed on the object's compat generation; unchanged gen => the
        // cached verdict stands with no recompute.
        if (!e.compat_participant) {
          raise(ErrorCode::kProtocolViolation,
                "compatible() accept guard on entry " + e.decl.name +
                    " without compatibility annotations");
        }
        const std::uint64_t cg = obj->compat_gen_;
        bool open = st.gate_open;
        if (!st.primed || st.compat_gen != cg || invalidated) {
          open = obj->compat_gate_open_locked(g.entry.index());
          st.compat_gen = cg;
        }
        if (!open) {
          if (st.gate_open || !st.primed) {
            // Transition open->closed (or first sync while closed): retire
            // this guard's live heap entries once. The cached per-call
            // verdicts stay, so the reopen rescan is a cheap re-add.
            for (SlotCache& c : st.slots) {
              if (c.in_index) {
                --live_count_;
                c.in_index = false;
              }
            }
          }
          st.gate_open = false;
          // Skip the journal while closed; the reopen path rescans members.
          st.src_gen = q.log_gen;
          st.primed = true;
          return;
        }
        if (!st.gate_open) {
          // Reopened: deltas were skipped while closed — full member rescan.
          st.gate_open = true;
          const bool rescan_force = g.reeval || invalidated;
          for (std::size_t i = q.front(); i != kNoSlot;
               i = e.slots[i].q_next) {
            consider_slot(gi, obj, i, rescan_force);
          }
          st.src_gen = q.log_gen;
          st.primed = true;
          return;
        }
        // Gate open and was open: fall through to the normal delta path.
      }
      const bool force = g.reeval || !st.primed || invalidated;
      if (!force) {
        if (st.src_gen == q.log_gen) return;  // source unchanged: all cached
        const std::uint64_t behind = q.log_gen - st.src_gen;
        if (behind <= Object::SlotQueue::kWindow) {
          // Replay exactly the membership deltas since the last sync.
          for (std::uint64_t p = st.src_gen; p != q.log_gen; ++p) {
            const Object::SlotDelta& d =
                q.log[p % Object::SlotQueue::kWindow];
            SlotCache& c = st.slots[d.slot];
            if (!d.added) {
              // Retire the live index entry only; keep the cached verdict.
              // `eligible` records the evaluation's outcome, not queue
              // membership — clearing it here would make a same-call re-add
              // later in this window hit the cache fast path with
              // eligible=false and never re-enter the index, leaving the
              // slot invisible until an unrelated external event (an
              // add/remove/add window occurs when the manager mixes select
              // with direct accept/await on the same entry).
              if (c.in_index) --live_count_;
              c.in_index = false;
              continue;
            }
            // The slot may have left the list again later in the window;
            // only evaluate content that is currently live for this guard.
            const auto want = g.kind == Kind::kAccept
                                  ? Object::SlotState::kAttached
                                  : Object::SlotState::kReady;
            if (e.slots[d.slot].state == want) {
              consider_slot(gi, obj, d.slot, /*force=*/false);
            }
          }
          st.src_gen = q.log_gen;
          st.primed = true;
          return;
        }
      }
      // Too far behind (or forced): full rescan of the current members.
      // Departed slots' stale entries are caught by validate_top at pop.
      for (std::size_t i = q.front(); i != kNoSlot; i = e.slots[i].q_next) {
        consider_slot(gi, obj, i, force);
      }
      st.src_gen = q.log_gen;
      st.primed = true;
      return;
    }
    case Kind::kReceive: {
      if (st.slots.empty()) st.slots.resize(1);
      const std::uint64_t fg = g.channel->front_gen();
      const bool force = g.reeval || !st.primed || invalidated;
      if (!force && st.src_gen == fg) {
        // Same front message; re-insert if the entry was consumed by a
        // commit that raced away.
        SlotCache& c = st.slots[0];
        if (c.eligible && !c.in_index) push_entry(gi, kNoCacheSlot, c, c.pri);
        return;
      }
      bool eligible = false;
      std::int64_t pri = 0;
      g.channel->peek_front([&](const ValueList& msg) {
        if (g.when_v && !g.when_v(msg)) return;
        eligible = true;
        pri = g.pri_v ? g.pri_v(msg) : 0;
      });
      update_mono_cache(gi, fg, eligible, pri);
      st.src_gen = fg;
      st.primed = true;
      return;
    }
    case Kind::kWhen: {
      if (st.slots.empty()) st.slots.resize(1);
      const bool eligible = g.when_b && g.when_b();
      const std::int64_t pri = (eligible && g.pri_b) ? g.pri_b() : 0;
      update_mono_cache(gi, 0, eligible, pri);
      st.primed = true;
      return;
    }
  }
}

void Select::compact_index() {
  // Lazy deletion leaves garbage keys in the heap; squeeze them out once
  // they dominate (amortized — live_count_ makes the trigger O(1)).
  if (index_.size() <= 64 || index_.size() <= 2 * live_count_) return;
  std::size_t w = 0;
  for (std::size_t r = 0; r < index_.size(); ++r) {
    if (entry_live(index_[r])) index_[w++] = index_[r];
  }
  index_.resize(w);
  std::make_heap(index_.begin(), index_.end(),
                 [](const IndexEntry& a, const IndexEntry& b) {
                   return index_before(b, a);
                 });
}

std::string Select::describe_guard(const GuardRec& g, Object* obj) {
  std::string desc;
  switch (g.kind) {
    case Kind::kAccept:
      desc = "accept " + obj->core(g.entry.index()).decl.name;
      break;
    case Kind::kAwait:
      desc = "await " + obj->core(g.entry.index()).decl.name;
      break;
    case Kind::kReceive:
      desc = "receive <channel>";
      break;
    case Kind::kWhen:
      desc = "when <cond>";
      break;
  }
  if (g.when_v) desc += " when(...)";
  if (g.pri_v || g.pri_b) desc += " pri(...)";
  if (g.compat_gate) desc += " compatible()";
  return desc;
}

Select::Fired Select::select_impl(Manager& m) {
  if (naive_polling_) return select_impl_naive(m);
  Object* obj = m.obj_;
  ChannelObservers observers;
  bool observers_registered = false;

  bool publish_guards = false;
  if (state_.size() != guards_.size()) {
    // First selection (or guards added since): start cold.
    state_.assign(guards_.size(), GuardState{});
    index_.clear();
    live_count_ = 0;
    publish_guards = true;
  }
  bool any_waitable = false;
  for (const auto& g : guards_) {
    if (g.kind != Kind::kWhen) any_waitable = true;
  }

  Object::ActivityScope activity(*obj, Object::kActSelectWait);
  for (;;) {
    // Epoch ticket taken before the kernel lock: any event signalled after
    // this point (call intake, body completion, channel send, external
    // invalidation, stop) makes the tail wait return immediately.
    support::EventCount::Ticket ticket(obj->mgr_wake_);
    bool need_observers = false;
    {
      std::unique_lock lock(obj->mu_);
      m.check_stop();
      if (publish_guards) {
        // Snapshot the guard set BY VALUE into the object so the watchdog's
        // stall report can cite it after this Select is long gone.
        obj->guard_snapshot_.clear();
        obj->guard_snapshot_.reserve(guards_.size());
        for (const auto& g : guards_) {
          obj->guard_snapshot_.push_back(describe_guard(g, obj));
        }
        publish_guards = false;
      }
      obj->drain_intake_locked();

      // Loaded after the ticket: an invalidation bumped later signals the
      // event and the tail wait returns for a re-sync next pass.
      const std::uint64_t inval = obj->guard_inval_gen();
      const bool invalidated = inval != seen_inval_gen_;
      for (std::size_t gi = 0; gi < guards_.size(); ++gi) {
        sync_guard(obj, gi, invalidated);
      }
      seen_inval_gen_ = inval;
      compact_index();

      // Pick-best: pop until a live, kernel-confirmed entry surfaces.
      while (!index_.empty()) {
        std::pop_heap(index_.begin(), index_.end(),
                      [](const IndexEntry& a, const IndexEntry& b) {
                        return index_before(b, a);
                      });
        const IndexEntry top = index_.back();
        index_.pop_back();
        if (!entry_live(top)) continue;  // lazily deleted
        SlotCache& c = cache_of(top);
        c.in_index = false;  // consumed (or retired just below)
        --live_count_;
        if (!validate_top(obj, top)) {
          c.eligible = false;
          continue;
        }

        GuardRec& g = guards_[top.guard];
        Fired fired;
        fired.guard_idx = top.guard;
        switch (g.kind) {
          case Kind::kAccept: {
            const std::size_t entry = g.entry.index();
            obj->accept_locked(entry, top.slot);
            // The only journal event since this guard's sync is our own
            // removal; absorb it so the next pass replays nothing.
            state_[top.guard].src_gen = obj->core(entry).attached.log_gen;
            fired.accepted = obj->accepted(entry, top.slot);
            return fired;
          }
          case Kind::kAwait: {
            const std::size_t entry = g.entry.index();
            fired.awaited = obj->await_locked(entry, top.slot);
            state_[top.guard].src_gen = obj->core(entry).ready.log_gen;
            return fired;
          }
          case Kind::kReceive: {
            // Commit must revalidate: another receiver may have consumed
            // the message between the cached peek and now (channels are
            // point-to-point by convention, not enforcement).
            auto msg = g.channel->take_front_if([&](const ValueList& front) {
              return !g.when_v || g.when_v(front);
            });
            // Raced away: the front generation moved, so the guard re-syncs
            // next pass; meanwhile fall through to the next-best candidate.
            if (!msg) continue;
            fired.message = std::move(*msg);
            return fired;
          }
          case Kind::kWhen:
            return fired;
        }
      }

      if (!any_waitable) {
        raise(ErrorCode::kNoEligibleGuard,
              "select on object " + obj->name() +
                  ": no eligible guard and no event source to wait on");
      }

      if (!observers_registered) need_observers = true;
    }  // kernel lock released

    if (need_observers) {
      // Register channel wake-ups, then re-evaluate once: a message that
      // arrived before registration must not be missed. (Registration
      // bumps the channel's observer count, so sends from here on signal
      // mgr_wake_; the fresh ticket on the next iteration covers them.)
      for (auto& g : guards_) {
        if (g.kind == Kind::kReceive) {
          observers.add(g.channel, [obj] { obj->wake_manager(); });
        }
      }
      observers_registered = true;
      continue;
    }

    ticket.wait();
  }
}

// ---------------------------------------------------------------------------
// Naive strawman (experiment E9, and the differential-test baseline):
// rescan every guard and re-run every closure on every wakeup.
// ---------------------------------------------------------------------------

Select::Fired Select::select_impl_naive(Manager& m) {
  Object* obj = m.obj_;
  ChannelObservers observers;
  bool observers_registered = false;

  Object::ActivityScope activity(*obj, Object::kActSelectWait);
  for (;;) {
    support::EventCount::Ticket ticket(obj->mgr_wake_);
    bool need_observers = false;
    {
      std::unique_lock lock(obj->mu_);
      m.check_stop();
      obj->drain_intake_locked();

      scratch_candidates_.clear();
      bool any_waitable = false;
      for (std::size_t gi = 0; gi < guards_.size(); ++gi) {
        GuardRec& g = guards_[gi];
        switch (g.kind) {
          case Kind::kAccept:
          case Kind::kAwait: {
            any_waitable = true;
            Object::EntryCore& e = obj->core(g.entry.index());
            if (g.kind == Kind::kAccept && g.compat_gate) {
              if (!e.compat_participant) {
                raise(ErrorCode::kProtocolViolation,
                      "compatible() accept guard on entry " + e.decl.name +
                          " without compatibility annotations");
              }
              // Naive parity: recompute the gate on every pass (the
              // incremental engine caches it keyed on compat_gen_).
              if (!obj->compat_gate_open_locked(g.entry.index())) break;
            }
            const auto want = g.kind == Kind::kAccept
                                  ? Object::SlotState::kAttached
                                  : Object::SlotState::kReady;
            // Deliberately wasteful O(N) scan over the whole procedure
            // array (experiment E9's strawman).
            for (std::size_t i = 0; i < e.slots.size(); ++i) {
              const Object::Slot& s = e.slots[i];
              if (s.state != want) continue;
              if (g.kind == Kind::kAccept) {
                scratch_view_.assign(
                    s.call->params.begin(),
                    s.call->params.begin() +
                        static_cast<std::ptrdiff_t>(e.icept_params));
                if (g.when_v && !g.when_v(scratch_view_)) continue;
                const std::int64_t pri =
                    g.pri_v ? g.pri_v(scratch_view_) : 0;
                scratch_candidates_.push_back(NaiveCandidate{gi, i, pri});
              } else {
                if (g.when_v && !g.when_v(s.mgr_results)) continue;
                const std::int64_t pri =
                    g.pri_v ? g.pri_v(s.mgr_results) : 0;
                scratch_candidates_.push_back(NaiveCandidate{gi, i, pri});
              }
            }
            break;
          }
          case Kind::kReceive: {
            any_waitable = true;
            bool eligible = false;
            std::int64_t pri = 0;
            g.channel->peek_front([&](const ValueList& msg) {
              if (g.when_v && !g.when_v(msg)) return;
              eligible = true;
              pri = g.pri_v ? g.pri_v(msg) : 0;
            });
            if (eligible) {
              scratch_candidates_.push_back(NaiveCandidate{gi, kNoSlot, pri});
            }
            break;
          }
          case Kind::kWhen: {
            if (g.when_b && g.when_b()) {
              const std::int64_t pri = g.pri_b ? g.pri_b() : 0;
              scratch_candidates_.push_back(NaiveCandidate{gi, kNoSlot, pri});
            }
            break;
          }
        }
      }

      if (!scratch_candidates_.empty()) {
        // Smallest pri wins (paper: "among the guarded commands that are
        // eligible for selection, one with the smallest pri value will be
        // selected"); ties rotate for fairness across guards.
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (const auto& c : scratch_candidates_) best = std::min(best, c.pri);
        scratch_tied_.clear();
        for (std::size_t i = 0; i < scratch_candidates_.size(); ++i) {
          if (scratch_candidates_[i].pri == best) scratch_tied_.push_back(i);
        }
        const NaiveCandidate chosen =
            scratch_candidates_[scratch_tied_[rotation_++ %
                                              scratch_tied_.size()]];
        GuardRec& g = guards_[chosen.guard_idx];

        Fired fired;
        fired.guard_idx = chosen.guard_idx;
        switch (g.kind) {
          case Kind::kAccept:
            obj->accept_locked(g.entry.index(), chosen.slot);
            fired.accepted = obj->accepted(g.entry.index(), chosen.slot);
            return fired;
          case Kind::kAwait:
            fired.awaited = obj->await_locked(g.entry.index(), chosen.slot);
            return fired;
          case Kind::kReceive: {
            auto msg = g.channel->take_front_if([&](const ValueList& front) {
              return !g.when_v || g.when_v(front);
            });
            if (!msg) continue;  // raced away; re-evaluate from scratch
            fired.message = std::move(*msg);
            return fired;
          }
          case Kind::kWhen:
            return fired;
        }
      }

      if (!any_waitable) {
        raise(ErrorCode::kNoEligibleGuard,
              "select on object " + obj->name() +
                  ": no eligible guard and no event source to wait on");
      }

      if (!observers_registered) need_observers = true;
    }  // kernel lock released

    if (need_observers) {
      for (auto& g : guards_) {
        if (g.kind == Kind::kReceive) {
          observers.add(g.channel, [obj] { obj->wake_manager(); });
        }
      }
      observers_registered = true;
      continue;
    }

    ticket.wait();
  }
}

std::size_t Select::select(Manager& m) {
  m.assert_manager_thread("select");
  if (guards_.empty()) {
    raise(ErrorCode::kProtocolViolation, "select with no guards");
  }
  Fired fired = select_impl(m);
  // A fired guard is manager progress for the watchdog, whatever its kind.
  m.obj_->note_progress();
  GuardRec& g = guards_[fired.guard_idx];
  // Handlers run outside the kernel lock and may freely use the manager
  // primitives (the paper's `G => S` statement sequence).
  switch (g.kind) {
    case Kind::kAccept:
      if (g.on_accept) g.on_accept(std::move(fired.accepted));
      break;
    case Kind::kAwait:
      if (g.on_await) g.on_await(std::move(fired.awaited));
      break;
    case Kind::kReceive:
      if (g.on_receive) g.on_receive(std::move(fired.message));
      break;
    case Kind::kWhen:
      if (g.on_when) g.on_when();
      break;
  }
  return fired.guard_idx;
}

void Select::loop(Manager& m) {
  try {
    for (;;) {
      select(m);
    }
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kObjectStopped) throw;
    // Normal termination: the loop runs until the object stops (the paper
    // uses no distributed-termination convention).
  }
}

}  // namespace alps
