// Entry-procedure declarations: the definition/implementation split (§2.2),
// hidden procedure arrays (§2.5), the intercepts clause with parameter and
// result subsequences (§2.3, §2.6), and hidden parameters/results (§2.8).
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/call.h"
#include "core/value.h"

namespace alps {

class Object;
class BodyCtx;

/// No-slot marker (non-intercepted entries never occupy an array slot).
inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// The *definition part* of an entry procedure: what users of the object see.
/// `params`/`results` are the visible arities (the kernel is dynamically
/// typed; the typed façade in core/typed.h layers static types over this).
struct EntryDecl {
  std::string name;
  std::size_t params = 0;
  std::size_t results = 0;
  /// Local procedures (§2.3 "intercept even local procedures") are declared
  /// with exported=false: they are callable from bodies of the same object
  /// but not from outside.
  bool exported = true;
  /// Compatibility annotations (multiactive scheduling, DESIGN.md §4.8).
  /// Entries named here may execute concurrently with this one when the
  /// manager dispatches through Manager::start_compatible (or a
  /// compat-gated accept guard). Compatibility is symmetric: listing B on A
  /// also makes A compatible with B. List the entry's own name to let calls
  /// of this entry overlap each other (e.g. readers). An annotated entry
  /// *participates* in compatibility scheduling; within the participant
  /// set, any pair not listed conflicts and is serialized in arrival
  /// order. Unannotated entries are untouched and keep the fully-serial
  /// manager protocol.
  std::vector<std::string> compatible{};
  /// True once any compatibility annotation was applied (serial_group()
  /// sets it with an empty list: participate, conflict with everyone).
  bool compat_annotated = false;

  EntryDecl&& compatible_with(std::initializer_list<const char*> names) && {
    for (const char* n : names) compatible.emplace_back(n);
    compat_annotated = true;
    return std::move(*this);
  }
  /// Participates in compatibility scheduling but conflicts with every
  /// participant (including itself): calls run one at a time, ordered
  /// against compatible groups by arrival. The annotation for writers.
  EntryDecl&& serial_group() && {
    compat_annotated = true;
    return std::move(*this);
  }
};

/// The *implementation part*: the hidden procedure array size N (§2.5) and
/// any hidden parameters/results (§2.8), all invisible to users.
struct ImplDecl {
  std::size_t array = 1;
  std::size_t hidden_params = 0;
  std::size_t hidden_results = 0;
  /// The body is short and never waits on its own object, so Manager::start
  /// and start_with may run it on the manager thread, as execute does, and
  /// save the two thread handoffs of a pooled start (DESIGN.md §4.13). Off:
  /// the paper's asynchronous start. start_compatible and
  /// start_compatible_pending ignore it.
  bool inline_start = false;
};

/// The body of an entry procedure. It receives the full parameter list
/// (visible params, then hidden params supplied by the manager at `start`)
/// and returns the full result list (visible results, then hidden results
/// that only the manager sees at `await`).
using BodyFn = std::function<ValueList(BodyCtx&)>;

/// Opaque handle to an entry of a specific object.
class EntryRef {
 public:
  EntryRef() = default;

  bool valid() const { return obj_ != nullptr; }
  std::size_t index() const { return idx_; }
  Object* object() const { return obj_; }

  bool operator==(const EntryRef& o) const {
    return obj_ == o.obj_ && idx_ == o.idx_;
  }

 private:
  friend class Object;
  EntryRef(Object* obj, std::size_t idx) : obj_(obj), idx_(idx) {}

  Object* obj_ = nullptr;
  std::size_t idx_ = 0;
};

/// One element of the manager's intercepts clause:
/// `intercepts P(params; results)` — the manager receives the first
/// `n_params` invocation parameters at accept (and re-supplies them at
/// start), and the first `n_results` results at await (and re-supplies them
/// at finish). Build with intercept(e).params(k).results(m).
struct InterceptClause {
  EntryRef entry;
  std::size_t n_params = 0;
  std::size_t n_results = 0;

  InterceptClause&& params(std::size_t k) && {
    n_params = k;
    return std::move(*this);
  }
  InterceptClause&& results(std::size_t m) && {
    n_results = m;
    return std::move(*this);
  }
};

inline InterceptClause intercept(EntryRef e) { return InterceptClause{e, 0, 0}; }

/// Execution context handed to a BodyFn.
class BodyCtx {
 public:
  /// Full parameter list: visible params followed by hidden params.
  const ValueList& params() const { return params_; }
  const Value& param(std::size_t i) const { return params_.at(i); }
  std::size_t num_params() const { return params_.size(); }

  /// Which element of the hidden procedure array this call is attached to
  /// (kNoSlot for non-intercepted entries).
  std::size_t slot() const { return slot_; }

  const std::string& entry_name() const { return entry_name_; }

  Object& object() const { return *obj_; }

  /// Invokes a procedure of the *same* object from inside a body; local
  /// (non-exported) procedures are allowed, and if the target is intercepted
  /// the call goes through the manager like any other (§2.3: managers can
  /// control entry procedures even after starting them by intercepting the
  /// local procedures they call).
  CallHandle call_sibling(EntryRef target, ValueList params) const;

 private:
  friend class Object;
  BodyCtx(Object* obj, std::string entry_name, std::size_t slot,
          ValueList params)
      : obj_(obj),
        entry_name_(std::move(entry_name)),
        slot_(slot),
        params_(std::move(params)) {}

  Object* obj_;
  std::string entry_name_;
  std::size_t slot_;
  ValueList params_;
};

}  // namespace alps
