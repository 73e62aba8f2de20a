#include "lang/interp.h"

#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "lang/parser.h"
#include "lang/token.h"

namespace alps::lang {

namespace {

[[noreturn]] void rt_error(const std::string& what, std::size_t line = 0) {
  throw LangError("runtime error: " + what, line, 0);
}

// ---------------------------------------------------------------------------
// Environments
// ---------------------------------------------------------------------------

/// One lexical frame. The shared-data frame of an object carries a mutex so
/// concurrently executing bodies cannot tear the interpreter's own state.
struct Frame {
  std::map<std::string, Value> vars;
  std::mutex* lock = nullptr;  // non-null for the shared frame

  bool has(const std::string& name) const { return vars.count(name) > 0; }
};

/// A scope chain, innermost first.
class Env {
 public:
  void push(Frame* frame) { frames_.push_back(frame); }

  Value get(const std::string& name, std::size_t line) const {
    for (Frame* f : frames_) {
      if (f->lock) {
        std::scoped_lock lock(*f->lock);
        auto it = f->vars.find(name);
        if (it != f->vars.end()) return it->second;
      } else {
        auto it = f->vars.find(name);
        if (it != f->vars.end()) return it->second;
      }
    }
    rt_error("undefined variable '" + name + "'", line);
  }

  void set(const std::string& name, Value v, std::size_t line) {
    for (Frame* f : frames_) {
      if (f->lock) {
        std::scoped_lock lock(*f->lock);
        auto it = f->vars.find(name);
        if (it != f->vars.end()) {
          it->second = std::move(v);
          return;
        }
      } else {
        auto it = f->vars.find(name);
        if (it != f->vars.end()) {
          it->second = std::move(v);
          return;
        }
      }
    }
    rt_error("assignment to undeclared variable '" + name + "'", line);
  }

  /// Mutates one element of an array variable in place.
  void set_index(const std::string& name, std::size_t index, Value v,
                 std::size_t line) {
    auto assign_at = [&](Value& arr) {
      if (!arr.is_list()) {
        rt_error("'" + name + "' is not an array", line);
      }
      ValueList& list = arr.as_list();
      if (index >= list.size()) {
        rt_error("index " + std::to_string(index) + " out of bounds for '" +
                     name + "' (size " + std::to_string(list.size()) + ")",
                 line);
      }
      list[index] = std::move(v);
    };
    for (Frame* f : frames_) {
      if (f->lock) {
        std::scoped_lock lock(*f->lock);
        auto it = f->vars.find(name);
        if (it != f->vars.end()) {
          assign_at(it->second);
          return;
        }
      } else {
        auto it = f->vars.find(name);
        if (it != f->vars.end()) {
          assign_at(it->second);
          return;
        }
      }
    }
    rt_error("assignment to undeclared array '" + name + "'", line);
  }

 private:
  std::vector<Frame*> frames_;
};

Value default_value(TypeName type) {
  switch (type) {
    case TypeName::kInt: return Value(0);
    case TypeName::kBool: return Value(false);
    case TypeName::kReal: return Value(0.0);
    case TypeName::kString: return Value(std::string());
    case TypeName::kChan: return Value(make_channel());
  }
  return Value();
}

Value default_value(const VarDecl& decl) {
  if (decl.array == 0) return default_value(decl.type);
  ValueList list(decl.array, default_value(decl.type));
  return Value(std::move(list));
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

bool truthy(const Value& v, std::size_t line) {
  if (v.is_bool()) return v.as_bool();
  rt_error("condition is not a bool, got " + v.to_string(), line);
}

Value eval(const Expr& e, const Env& env, Object* obj);

Value eval_binary(const Expr& e, const Env& env, Object* obj) {
  // Short-circuit boolean operators first.
  if (e.bin_op == BinOp::kAnd) {
    if (!truthy(eval(*e.lhs, env, obj), e.line)) return Value(false);
    return Value(truthy(eval(*e.rhs, env, obj), e.line));
  }
  if (e.bin_op == BinOp::kOr) {
    if (truthy(eval(*e.lhs, env, obj), e.line)) return Value(true);
    return Value(truthy(eval(*e.rhs, env, obj), e.line));
  }

  const Value a = eval(*e.lhs, env, obj);
  const Value b = eval(*e.rhs, env, obj);
  const bool both_int = a.is_int() && b.is_int();
  const bool numeric = (a.is_int() || a.is_real()) && (b.is_int() || b.is_real());

  switch (e.bin_op) {
    case BinOp::kAdd:
      if (both_int) return Value(a.as_int() + b.as_int());
      if (numeric) return Value(a.as_real() + b.as_real());
      if (a.is_string() && b.is_string()) return Value(a.as_string() + b.as_string());
      break;
    case BinOp::kSub:
      if (both_int) return Value(a.as_int() - b.as_int());
      if (numeric) return Value(a.as_real() - b.as_real());
      break;
    case BinOp::kMul:
      if (both_int) return Value(a.as_int() * b.as_int());
      if (numeric) return Value(a.as_real() * b.as_real());
      break;
    case BinOp::kDiv:
      if (both_int) {
        if (b.as_int() == 0) rt_error("division by zero", e.line);
        return Value(a.as_int() / b.as_int());
      }
      if (numeric) return Value(a.as_real() / b.as_real());
      break;
    case BinOp::kMod:
      if (both_int) {
        if (b.as_int() == 0) rt_error("mod by zero", e.line);
        return Value(a.as_int() % b.as_int());
      }
      break;
    case BinOp::kEq: return Value(a == b);
    case BinOp::kNeq: return Value(!(a == b));
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      int cmp;
      if (numeric) {
        const double x = a.as_real(), y = b.as_real();
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      } else if (a.is_string() && b.is_string()) {
        cmp = a.as_string().compare(b.as_string());
      } else {
        rt_error("incomparable operands " + a.to_string() + " and " +
                     b.to_string(),
                 e.line);
      }
      switch (e.bin_op) {
        case BinOp::kLt: return Value(cmp < 0);
        case BinOp::kLe: return Value(cmp <= 0);
        case BinOp::kGt: return Value(cmp > 0);
        default: return Value(cmp >= 0);
      }
    }
    default: break;
  }
  rt_error("bad operand types " + a.to_string() + " / " + b.to_string(), e.line);
}

Value eval(const Expr& e, const Env& env, Object* obj) {
  switch (e.kind) {
    case Expr::Kind::kIntLit: return Value(e.int_val);
    case Expr::Kind::kRealLit: return Value(e.real_val);
    case Expr::Kind::kStringLit: return Value(e.name);
    case Expr::Kind::kBoolLit: return Value(e.bool_val);
    case Expr::Kind::kName: return env.get(e.name, e.line);
    case Expr::Kind::kIndex: {
      const Value arr = env.get(e.name, e.line);
      if (!arr.is_list()) rt_error("'" + e.name + "' is not an array", e.line);
      const auto idx =
          static_cast<std::size_t>(eval(*e.lhs, env, obj).as_int());
      const ValueList& list = arr.as_list();
      if (idx >= list.size()) {
        rt_error("index " + std::to_string(idx) + " out of bounds for '" +
                     e.name + "'",
                 e.line);
      }
      return list[idx];
    }
    case Expr::Kind::kPending: {
      if (!obj) rt_error("#" + e.name + " outside an object context", e.line);
      return Value(static_cast<std::int64_t>(obj->pending(obj->entry(e.name))));
    }
    case Expr::Kind::kUnary: {
      const Value v = eval(*e.lhs, env, obj);
      if (e.un_op == UnOp::kNeg) {
        if (v.is_int()) return Value(-v.as_int());
        if (v.is_real()) return Value(-v.as_real());
        rt_error("cannot negate " + v.to_string(), e.line);
      }
      return Value(!truthy(v, e.line));
    }
    case Expr::Kind::kBinary: return eval_binary(e, env, obj);
  }
  rt_error("unreachable expression kind", e.line);
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

/// Non-error control-flow escape for `return (values)`.
struct ReturnSignal {
  ValueList values;
};

/// Per-manager interpreter state: which call handle each (entry, slot) pair
/// holds, plus each entry's most recent handle for the bare `start P` form.
struct ManagerState {
  Manager* mgr = nullptr;
  Object* obj = nullptr;
  std::map<std::pair<std::size_t, std::size_t>, Accepted> accepted;
  std::map<std::pair<std::size_t, std::size_t>, Awaited> awaited;
  std::map<std::size_t, std::size_t> last_slot;  // entry → most recent slot
  /// entry → (intercepted-param count, hidden-param count); used to split a
  /// `start P[i](args)` argument list the way the paper's examples read:
  /// `start Search[i](Word)` re-supplies the intercepted parameter while
  /// `start Deposit[i](Free[FreeIn])` passes a hidden one.
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> start_arity;
};

class BodyExec;  // fwd

void exec_stmts(const StmtList& stmts, Env& env, Frame& frame, Object* obj,
                ManagerState* ms);

std::size_t resolve_slot(const PrimTarget& target, Env& env, Object* obj,
                         ManagerState& ms, std::size_t entry_idx,
                         std::size_t line) {
  if (target.slot_expr) {
    return static_cast<std::size_t>(
        eval(*target.slot_expr, env, obj).as_int());
  }
  auto it = ms.last_slot.find(entry_idx);
  if (it == ms.last_slot.end()) {
    rt_error("no current call for entry " + target.entry, line);
  }
  return it->second;
}

void do_finish(ManagerState& ms, std::size_t entry_idx, std::size_t slot,
               const std::vector<ExprPtr>& args, Env& env, Object* obj,
               std::size_t line) {
  const auto key = std::make_pair(entry_idx, slot);
  if (auto it = ms.awaited.find(key); it != ms.awaited.end()) {
    Awaited w = std::move(it->second);
    ms.awaited.erase(it);
    if (args.empty()) {
      ms.mgr->finish(w);  // echo intercepted results
    } else {
      ValueList iresults;
      for (const auto& a : args) iresults.push_back(eval(*a, env, obj));
      ms.mgr->finish_with(w, std::move(iresults));
    }
    return;
  }
  if (auto it = ms.accepted.find(key); it != ms.accepted.end()) {
    // finish after accept without start = combining (§2.7).
    Accepted a = std::move(it->second);
    ms.accepted.erase(it);
    ValueList results;
    for (const auto& arg : args) results.push_back(eval(*arg, env, obj));
    ms.mgr->combine_finish(a, std::move(results));
    return;
  }
  rt_error("finish on a call that is neither accepted nor awaited", line);
}

void exec_manager_prim(const Stmt& stmt, Env& env, Frame& frame, Object* obj,
                       ManagerState& ms) {
  const std::size_t entry_idx = obj->entry(stmt.target.entry).index();
  switch (stmt.kind) {
    case Stmt::Kind::kAccept: {
      Accepted a = ms.mgr->accept(obj->entry(stmt.target.entry));
      if (!stmt.target.slot_binder.empty()) {
        frame.vars[stmt.target.slot_binder] =
            Value(static_cast<std::int64_t>(a.slot));
      }
      for (std::size_t i = 0; i < stmt.binders.size(); ++i) {
        if (i >= a.params.size()) {
          rt_error("accept binds more values than intercepted", stmt.line);
        }
        frame.vars[stmt.binders[i]] = a.params[i];
      }
      ms.last_slot[entry_idx] = a.slot;
      ms.accepted[{entry_idx, a.slot}] = std::move(a);
      return;
    }
    case Stmt::Kind::kStart: {
      const std::size_t slot =
          resolve_slot(stmt.target, env, obj, ms, entry_idx, stmt.line);
      auto it = ms.accepted.find({entry_idx, slot});
      if (it == ms.accepted.end()) {
        rt_error("start on a call that was not accepted", stmt.line);
      }
      ValueList args;
      for (const auto& a : stmt.args) args.push_back(eval(*a, env, obj));
      const auto [n_icept, n_hidden] = ms.start_arity[entry_idx];
      if (args.size() == n_hidden) {
        // Hidden params only; intercepted prefix echoed automatically.
        ms.mgr->start(it->second, std::move(args));
      } else if (args.size() == n_icept + n_hidden) {
        ValueList iparams(std::make_move_iterator(args.begin()),
                          std::make_move_iterator(args.begin() +
                                                  static_cast<std::ptrdiff_t>(n_icept)));
        ValueList hidden(std::make_move_iterator(args.begin() +
                                                 static_cast<std::ptrdiff_t>(n_icept)),
                         std::make_move_iterator(args.end()));
        ms.mgr->start_with(it->second, std::move(iparams), std::move(hidden));
      } else {
        rt_error("start " + stmt.target.entry + ": expected " +
                     std::to_string(n_hidden) + " (hidden) or " +
                     std::to_string(n_icept + n_hidden) +
                     " (intercepted+hidden) arguments, got " +
                     std::to_string(args.size()),
                 stmt.line);
      }
      return;
    }
    case Stmt::Kind::kAwait: {
      const std::size_t slot =
          resolve_slot(stmt.target, env, obj, ms, entry_idx, stmt.line);
      auto it = ms.accepted.find({entry_idx, slot});
      if (it == ms.accepted.end()) {
        rt_error("await on a call that was not accepted here", stmt.line);
      }
      Awaited w = ms.mgr->await(it->second);
      ms.accepted.erase(it);
      for (std::size_t i = 0; i < stmt.binders.size(); ++i) {
        if (i >= w.results.size()) {
          rt_error("await binds more values than received", stmt.line);
        }
        frame.vars[stmt.binders[i]] = w.results[i];
      }
      ms.awaited[{entry_idx, slot}] = std::move(w);
      return;
    }
    case Stmt::Kind::kFinish: {
      const std::size_t slot =
          resolve_slot(stmt.target, env, obj, ms, entry_idx, stmt.line);
      do_finish(ms, entry_idx, slot, stmt.args, env, obj, stmt.line);
      return;
    }
    case Stmt::Kind::kExecute: {
      const std::size_t slot =
          resolve_slot(stmt.target, env, obj, ms, entry_idx, stmt.line);
      auto it = ms.accepted.find({entry_idx, slot});
      if (it == ms.accepted.end()) {
        rt_error("execute on a call that was not accepted", stmt.line);
      }
      ValueList hidden;
      for (const auto& a : stmt.args) hidden.push_back(eval(*a, env, obj));
      Accepted a = std::move(it->second);
      ms.accepted.erase(it);
      ms.mgr->execute(a, std::move(hidden));
      return;
    }
    default:
      rt_error("manager primitive outside a manager", stmt.line);
  }
}

void exec_guarded(const Stmt& stmt, Env& env, Frame& frame, Object* obj,
                  ManagerState& ms) {
  // Build an alps::Select whose guards evaluate the interpreted conditions
  // with the tentatively received values bound to the binder names.
  Select sel;
  for (const Guard& g : stmt.guards) {
    // Shared by when/pri/handler closures of one guard.
    auto bind_values = [&env, &g, obj](const ValueList& values) {
      // A fresh frame layered over the manager env for the binders.
      Frame temp;
      for (std::size_t i = 0; i < g.binders.size() && i < values.size(); ++i) {
        temp.vars[g.binders[i]] = values[i];
      }
      return temp;
    };
    switch (g.kind) {
      case Guard::Kind::kAccept: {
        EntryRef entry = obj->entry(g.target.entry);
        const std::size_t entry_idx = entry.index();
        AcceptGuard ag = accept_guard(entry);
        if (g.when) {
          const Expr* raw = g.when.get();
          ag = std::move(ag).when([raw, &env, obj, bind_values](const ValueList& v) {
            Frame temp = bind_values(v);
            Env chain = env;
            chain.push(&temp);
            return truthy(eval(*raw, chain, obj), raw->line);
          });
        }
        if (g.pri) {
          const Expr* raw = g.pri.get();
          ag = std::move(ag).pri([raw, &env, obj, bind_values](const ValueList& v) {
            Frame temp = bind_values(v);
            Env chain = env;
            chain.push(&temp);
            return eval(*raw, chain, obj).as_int();
          });
        }
        // Interpreted conditions read the live manager environment (any
        // variable may change between selections); left uncacheable, the
        // selector re-evaluates them on every pass.
        const Guard* guard = &g;
        ag = std::move(ag).then([guard, &env, &frame, obj, &ms,
                                 entry_idx](Accepted a) {
          if (!guard->target.slot_binder.empty()) {
            frame.vars[guard->target.slot_binder] =
                Value(static_cast<std::int64_t>(a.slot));
          }
          for (std::size_t i = 0;
               i < guard->binders.size() && i < a.params.size(); ++i) {
            frame.vars[guard->binders[i]] = a.params[i];
          }
          ms.last_slot[entry_idx] = a.slot;
          ms.accepted[{entry_idx, a.slot}] = std::move(a);
          exec_stmts(guard->body, env, frame, obj, &ms);
        });
        sel.on(std::move(ag));
        break;
      }
      case Guard::Kind::kAwait: {
        EntryRef entry = obj->entry(g.target.entry);
        const std::size_t entry_idx = entry.index();
        AwaitGuard wg = await_guard(entry);
        if (g.when) {
          const Expr* raw = g.when.get();
          wg = std::move(wg).when([raw, &env, obj, bind_values](const ValueList& v) {
            Frame temp = bind_values(v);
            Env chain = env;
            chain.push(&temp);
            return truthy(eval(*raw, chain, obj), raw->line);
          });
        }
        if (g.pri) {
          const Expr* raw = g.pri.get();
          wg = std::move(wg).pri([raw, &env, obj, bind_values](const ValueList& v) {
            Frame temp = bind_values(v);
            Env chain = env;
            chain.push(&temp);
            return eval(*raw, chain, obj).as_int();
          });
        }
        const Guard* guard = &g;
        wg = std::move(wg).then([guard, &env, &frame, obj, &ms,
                                 entry_idx](Awaited w) {
          if (!guard->target.slot_binder.empty()) {
            frame.vars[guard->target.slot_binder] =
                Value(static_cast<std::int64_t>(w.slot));
          }
          for (std::size_t i = 0;
               i < guard->binders.size() && i < w.results.size(); ++i) {
            frame.vars[guard->binders[i]] = w.results[i];
          }
          // Drop any stale accepted handle for this slot (it was started).
          ms.accepted.erase({entry_idx, w.slot});
          ms.last_slot[entry_idx] = w.slot;
          ms.awaited[{entry_idx, w.slot}] = std::move(w);
          exec_stmts(guard->body, env, frame, obj, &ms);
        });
        sel.on(std::move(wg));
        break;
      }
      case Guard::Kind::kReceive: {
        const Value chan_v = env.get(g.channel, stmt.line);
        if (!chan_v.is_channel()) {
          rt_error("'" + g.channel + "' is not a channel", stmt.line);
        }
        ReceiveGuard rg = receive_guard(chan_v.as_channel());
        if (g.when) {
          const Expr* raw = g.when.get();
          rg = std::move(rg).when([raw, &env, obj, bind_values](const ValueList& v) {
            Frame temp = bind_values(v);
            Env chain = env;
            chain.push(&temp);
            return truthy(eval(*raw, chain, obj), raw->line);
          });
        }
        if (g.pri) {
          const Expr* raw = g.pri.get();
          rg = std::move(rg).pri([raw, &env, obj, bind_values](const ValueList& v) {
            Frame temp = bind_values(v);
            Env chain = env;
            chain.push(&temp);
            return eval(*raw, chain, obj).as_int();
          });
        }
        const Guard* guard = &g;
        rg = std::move(rg).then([guard, &env, &frame, obj, &ms](ValueList msg) {
          for (std::size_t i = 0;
               i < guard->binders.size() && i < msg.size(); ++i) {
            frame.vars[guard->binders[i]] = msg[i];
          }
          exec_stmts(guard->body, env, frame, obj, &ms);
        });
        sel.on(std::move(rg));
        break;
      }
      case Guard::Kind::kWhen: {
        const Expr* raw = g.when.get();
        if (!raw) rt_error("when-guard without condition", stmt.line);
        WhenGuard whg = when_guard([raw, &env, obj] {
          return truthy(eval(*raw, env, obj), raw->line);
        });
        const Guard* guard = &g;
        whg = std::move(whg).then([guard, &env, &frame, obj, &ms] {
          exec_stmts(guard->body, env, frame, obj, &ms);
        });
        sel.on(std::move(whg));
        break;
      }
    }
  }
  if (stmt.kind == Stmt::Kind::kLoop) {
    sel.loop(*ms.mgr);
  } else {
    sel.select(*ms.mgr);
  }
}

void exec_stmts(const StmtList& stmts, Env& env, Frame& frame, Object* obj,
                ManagerState* ms) {
  for (const StmtPtr& sp : stmts) {
    const Stmt& stmt = *sp;
    switch (stmt.kind) {
      case Stmt::Kind::kAssign:
        if (stmt.assign_index) {
          const auto idx = static_cast<std::size_t>(
              eval(*stmt.assign_index, env, obj).as_int());
          env.set_index(stmt.assign_name, idx,
                        eval(*stmt.assign_value, env, obj), stmt.line);
        } else {
          env.set(stmt.assign_name, eval(*stmt.assign_value, env, obj),
                  stmt.line);
        }
        break;
      case Stmt::Kind::kIf: {
        bool taken = false;
        for (const auto& [cond, body] : stmt.if_arms) {
          if (truthy(eval(*cond, env, obj), stmt.line)) {
            exec_stmts(body, env, frame, obj, ms);
            taken = true;
            break;
          }
        }
        if (!taken) exec_stmts(stmt.else_body, env, frame, obj, ms);
        break;
      }
      case Stmt::Kind::kWhile:
        while (truthy(eval(*stmt.while_cond, env, obj), stmt.line)) {
          exec_stmts(stmt.while_body, env, frame, obj, ms);
        }
        break;
      case Stmt::Kind::kReturn: {
        ReturnSignal sig;
        for (const auto& e : stmt.return_values) {
          sig.values.push_back(eval(*e, env, obj));
        }
        throw sig;
      }
      case Stmt::Kind::kLoop:
      case Stmt::Kind::kSelect:
        if (!ms) rt_error("loop/select outside a manager", stmt.line);
        exec_guarded(stmt, env, frame, obj, *ms);
        break;
      case Stmt::Kind::kSend: {
        const Value chan = env.get(stmt.channel, stmt.line);
        if (!chan.is_channel()) {
          rt_error("'" + stmt.channel + "' is not a channel", stmt.line);
        }
        ValueList message;
        for (const auto& a : stmt.args) message.push_back(eval(*a, env, obj));
        chan.as_channel()->send(std::move(message));  // asynchronous (2.1.2)
        break;
      }
      case Stmt::Kind::kReceive: {
        const Value chan = env.get(stmt.channel, stmt.line);
        if (!chan.is_channel()) {
          rt_error("'" + stmt.channel + "' is not a channel", stmt.line);
        }
        ValueList message = chan.as_channel()->receive();  // blocking
        for (std::size_t i = 0; i < stmt.binders.size(); ++i) {
          if (i >= message.size()) {
            rt_error("receive binds more values than the message carries",
                     stmt.line);
          }
          frame.vars[stmt.binders[i]] = message[i];
        }
        break;
      }
      case Stmt::Kind::kAccept:
      case Stmt::Kind::kStart:
      case Stmt::Kind::kAwait:
      case Stmt::Kind::kFinish:
      case Stmt::Kind::kExecute:
        if (!ms) rt_error("manager primitive outside a manager", stmt.line);
        exec_manager_prim(stmt, env, frame, obj, *ms);
        break;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

struct Machine::ObjectRuntime {
  std::string name;
  std::unique_ptr<Object> object;
  Frame shared;
  std::mutex shared_lock;
  std::unordered_map<std::string, EntryRef> entries;
  // AST references into the Machine-owned Program (the "object type").
  const ObjectImpl* impl = nullptr;
  const ObjectDef* def = nullptr;
};

Machine::Machine(const std::string& source) : Machine(parse_program(source)) {}

Machine::Machine(Program program)
    : prog_(std::make_unique<Program>(std::move(program))) {
  // Index definitions by name once.
  for (const auto& def : prog_->defs) defs_[def.name] = &def;
  for (const ObjectImpl& impl : prog_->impls) {
    auto it = defs_.find(impl.name);
    instantiate_impl(impl, it == defs_.end() ? nullptr : it->second, impl.name);
  }
}

Object& Machine::create_instance(const std::string& type_name,
                                 const std::string& instance_name) {
  // §2.2 "future version" feature: an implemented object acts as an object
  // type; each create_instance materializes an independent instance with its
  // own shared data, manager process and procedure-array processes.
  for (const auto& rt : runtimes_) {
    if (rt->name == instance_name) {
      rt_error("an object named '" + instance_name + "' already exists");
    }
  }
  for (const ObjectImpl& impl : prog_->impls) {
    if (impl.name == type_name) {
      auto it = defs_.find(type_name);
      instantiate_impl(impl, it == defs_.end() ? nullptr : it->second,
                       instance_name);
      return *runtimes_.back()->object;
    }
  }
  rt_error("no object type '" + type_name + "' in the program");
}

Machine::~Machine() { stop(); }

void Machine::stop() {
  for (auto& rt : runtimes_) {
    if (rt->object) rt->object->stop();
  }
}

Object& Machine::object(const std::string& name) {
  for (auto& rt : runtimes_) {
    if (rt->name == name) return *rt->object;
  }
  rt_error("no such object '" + name + "'");
}

std::vector<std::string> Machine::objects() const {
  std::vector<std::string> out;
  out.reserve(runtimes_.size());
  for (const auto& rt : runtimes_) out.push_back(rt->name);
  return out;
}

ValueList Machine::call(const std::string& obj, const std::string& entry,
                        ValueList args) {
  return async_call(obj, entry, std::move(args)).get();
}

CallHandle Machine::async_call(const std::string& obj, const std::string& entry,
                               ValueList args) {
  Object& o = object(obj);
  return o.async_call(o.entry(entry), std::move(args));
}

void Machine::instantiate_impl(const ObjectImpl& impl_ast,
                               const ObjectDef* def,
                               const std::string& instance_name) {
  {
    auto rt = std::make_unique<ObjectRuntime>();
    rt->name = instance_name;
    rt->shared.lock = &rt->shared_lock;
    rt->def = def;
    rt->impl = &impl_ast;

    rt->object = std::make_unique<Object>(rt->name);
    Object* obj = rt->object.get();

    // Shared data.
    for (const VarDecl& v : rt->impl->shared) {
      rt->shared.vars[v.name] = default_value(v);
    }

    // Entries: visible arity from the definition part; anything beyond it in
    // the implementation's parameter/result lists is hidden (§2.8).
    for (const ProcBody& proc : rt->impl->procs) {
      const ProcDecl* decl = nullptr;
      if (def) {
        for (const auto& d : def->procs) {
          if (d.name == proc.name) decl = &d;
        }
      }
      const std::size_t visible_params =
          decl ? decl->params.size() : proc.params.size();
      const std::size_t visible_results =
          decl ? decl->results.size() : proc.results.size();
      if (proc.params.size() < visible_params ||
          proc.results.size() < visible_results) {
        rt_error("implementation of " + proc.name +
                 " has fewer parameters/results than its definition");
      }
      // With a definition part, only the procedures it declares are
      // exported; an object written without one exports everything.
      const bool exported = (def == nullptr) || (decl != nullptr);
      EntryRef entry = obj->define_entry(
          EntryDecl{proc.name, visible_params, visible_results, exported});
      rt->entries.emplace(proc.name, entry);

      ImplDecl impl_decl{proc.array, proc.params.size() - visible_params,
                         proc.results.size() - visible_results};

      ObjectRuntime* rtp = rt.get();
      const ProcBody* procp = &proc;  // stable: impl moved into rt already
      obj->implement(entry, impl_decl, [rtp, procp](BodyCtx& ctx) -> ValueList {
        Frame locals;
        for (std::size_t i = 0; i < procp->params.size(); ++i) {
          const std::string& pname = procp->params[i].name.empty()
                                         ? "$p" + std::to_string(i)
                                         : procp->params[i].name;
          locals.vars[pname] = ctx.param(i);
        }
        for (const VarDecl& v : procp->locals) {
          locals.vars[v.name] = default_value(v);
        }
        Env env;
        env.push(&locals);
        env.push(&rtp->shared);
        try {
          exec_stmts(procp->body, env, locals, rtp->object.get(), nullptr);
        } catch (ReturnSignal& sig) {
          return std::move(sig.values);
        }
        // Falling off the end returns no results.
        return {};
      });
    }

    // Manager.
    if (rt->impl->manager) {
      ObjectRuntime* rtp = rt.get();
      const ManagerDecl* mgr_decl = rt->impl->manager.get();
      std::vector<InterceptClause> clauses;
      for (const InterceptDecl& icept : mgr_decl->intercepts) {
        auto it = rt->entries.find(icept.entry);
        if (it == rt->entries.end()) {
          rt_error("intercepts unknown procedure " + icept.entry);
        }
        InterceptClause clause{it->second, icept.n_params, icept.n_results};
        clauses.push_back(clause);
      }
      // Per-entry (intercepted, hidden) parameter counts for `start` args.
      std::map<std::size_t, std::pair<std::size_t, std::size_t>> start_arity;
      for (const ProcBody& proc : rt->impl->procs) {
        const std::size_t entry_idx = rt->entries.at(proc.name).index();
        std::size_t visible = proc.params.size();
        if (def) {
          for (const auto& d : def->procs) {
            if (d.name == proc.name) visible = d.params.size();
          }
        }
        std::size_t icept = 0;
        for (const InterceptClause& c : clauses) {
          if (c.entry.index() == entry_idx) icept = c.n_params;
        }
        start_arity[entry_idx] = {icept, proc.params.size() - visible};
      }

      obj->set_manager(clauses, [rtp, mgr_decl, start_arity](Manager& m) {
        Frame locals;
        for (const VarDecl& v : mgr_decl->locals) {
          locals.vars[v.name] = default_value(v);
        }
        Env env;
        env.push(&locals);
        env.push(&rtp->shared);
        ManagerState ms;
        ms.mgr = &m;
        ms.obj = rtp->object.get();
        ms.start_arity = start_arity;
        exec_stmts(mgr_decl->body, env, locals, rtp->object.get(), &ms);
      });
    }

    // Initialization code runs before the object opens for business (§2.2).
    if (!rt->impl->init.empty()) {
      Frame locals;
      Env env;
      env.push(&locals);
      env.push(&rt->shared);
      exec_stmts(rt->impl->init, env, locals, rt->object.get(), nullptr);
    }

    rt->object->start();
    runtimes_.push_back(std::move(rt));
  }
}

}  // namespace alps::lang
