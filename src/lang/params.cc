#include "src/lang/params.h"

#include <set>
#include <unordered_map>

#include "src/util/string_utils.h"

namespace aiql {

namespace {

std::string LinePrefix(int line) { return "line " + std::to_string(line) + ": "; }

// Shared traversal order for the collector and the binder: global constraint,
// global time windows, then the query body's predicates, pattern windows, and
// return/filter expressions. Visiting both bodies is harmless — the inactive
// one is default-constructed and contains no parameters.
class Collector {
 public:
  std::vector<ParamInfo> Run(const ast::Query& q) {
    Pred(q.global.constraint);
    for (const ast::TimeWindowSpec& w : q.global.time_windows) {
      Window(w);
    }
    Multievent(q.multievent);
    Dependency(q.dependency);
    return std::move(out_);
  }

 private:
  void Add(const std::string& name, ParamType type, int line) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = out_.size();
      out_.push_back(ParamInfo{name, type, line});
      return;
    }
    // A name used both ways keeps the stricter timestamp typing.
    if (type == ParamType::kTimestamp) {
      out_[it->second].type = ParamType::kTimestamp;
    }
  }

  void Pred(const PredExpr& p) {
    if (p.kind() == PredExpr::Kind::kLeaf) {
      for (const Value& v : p.leaf().values) {
        if (v.is_param()) {
          Add(v.param().name, ParamType::kValue, v.param().line);
        }
      }
      return;
    }
    for (const PredExpr& child : p.children()) {
      Pred(child);
    }
  }

  void Window(const ast::TimeWindowSpec& w) {
    if (!w.at_param.empty()) {
      Add(w.at_param, ParamType::kTimestamp, w.line);
    }
    if (!w.from_param.empty()) {
      Add(w.from_param, ParamType::kTimestamp, w.line);
    }
    if (!w.to_param.empty()) {
      Add(w.to_param, ParamType::kTimestamp, w.line);
    }
  }

  void ExprWalk(const Expr& e) {
    if (e.kind == Expr::Kind::kParam) {
      Add(e.name, ParamType::kValue, e.line);
    }
    for (const Expr& c : e.children) {
      ExprWalk(c);
    }
  }

  void ReturnAndFilters(const ast::ReturnClause& ret, const ast::Filters& filters) {
    for (const ast::ReturnItem& item : ret.items) {
      ExprWalk(item.expr);
    }
    for (const ast::ReturnItem& item : filters.group_by) {
      ExprWalk(item.expr);
    }
    if (filters.having.has_value()) {
      ExprWalk(*filters.having);
    }
    for (const ast::SortKey& key : filters.sort_by) {
      ExprWalk(key.expr);
    }
  }

  void Multievent(const ast::MultieventQuery& mq) {
    for (const ast::EventPattern& p : mq.patterns) {
      Pred(p.subject.constraint);
      Pred(p.object.constraint);
      Pred(p.evt_constraint);
      if (p.time_window.has_value()) {
        Window(*p.time_window);
      }
    }
    ReturnAndFilters(mq.ret, mq.filters);
  }

  void Dependency(const ast::DependencyQuery& dq) {
    for (const ast::EntityRef& node : dq.nodes) {
      Pred(node.constraint);
    }
    ReturnAndFilters(dq.ret, dq.filters);
  }

  std::vector<ParamInfo> out_;
  std::unordered_map<std::string, size_t> index_;
};

class Binder {
 public:
  explicit Binder(const ParamSet& params) : params_(params) {}

  Status Run(ast::Query* q) {
    Status s = Pred(&q->global.constraint);
    if (!s.ok()) {
      return s;
    }
    for (ast::TimeWindowSpec& w : q->global.time_windows) {
      s = Window(&w);
      if (!s.ok()) {
        return s;
      }
    }
    s = Multievent(&q->multievent);
    if (!s.ok()) {
      return s;
    }
    return Dependency(&q->dependency);
  }

 private:
  Status Lookup(const std::string& name, int line, const Value** out) {
    const Value* bound = params_.Find(name);
    if (bound == nullptr) {
      return Status::Error(LinePrefix(line) + "unbound parameter $" + name +
                           " — supply it via PreparedQuery::Bind");
    }
    *out = bound;
    return Status::Ok();
  }

  Status Pred(PredExpr* p) {
    if (p->kind() == PredExpr::Kind::kLeaf) {
      AttrPredicate* leaf = p->mutable_leaf();
      bool substituted = false;
      for (Value& v : leaf->values) {
        if (!v.is_param()) {
          continue;
        }
        const Value* bound = nullptr;
        Status s = Lookup(v.param().name, v.param().line, &bound);
        if (!s.ok()) {
          return s;
        }
        v = *bound;
        substituted = true;
      }
      // Deferred wildcard promotion: '=' against a bound string containing
      // LIKE wildcards means LIKE, matching the parser's handling of literal
      // values (p1["%osql%"]).
      if (substituted && (leaf->op == CmpOp::kEq || leaf->op == CmpOp::kNe) &&
          leaf->values.size() == 1 && leaf->values[0].is_string() &&
          HasLikeWildcards(leaf->values[0].as_string())) {
        leaf->op = leaf->op == CmpOp::kEq ? CmpOp::kLike : CmpOp::kNotLike;
      }
      return Status::Ok();
    }
    for (PredExpr& child : *p->mutable_children()) {
      Status s = Pred(&child);
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  // Binds one parameterized endpoint to a datetime. `range` selects whether
  // the bound string parses as a range (at $p) or an instant (from/to $p).
  Status Endpoint(std::string* param, int line, bool range, std::optional<TimestampMs>* instant,
                  std::optional<TimeRange>* out_range) {
    if (param->empty()) {
      return Status::Ok();
    }
    const Value* bound = nullptr;
    Status s = Lookup(*param, line, &bound);
    if (!s.ok()) {
      return s;
    }
    if (!bound->is_string()) {
      return Status::Error(LinePrefix(line) + "parameter $" + *param +
                           " is a time-window endpoint and expects a datetime string, got " +
                           bound->ToString());
    }
    if (range) {
      Result<TimeRange> r = ParseDateTimeRange(bound->as_string());
      if (!r.ok()) {
        return Status::Error(LinePrefix(line) + "parameter $" + *param + ": " + r.error());
      }
      *out_range = r.value();
    } else {
      Result<TimestampMs> t = ParseDateTime(bound->as_string());
      if (!t.ok()) {
        return Status::Error(LinePrefix(line) + "parameter $" + *param + ": " + t.error());
      }
      *instant = t.value();
    }
    param->clear();
    return Status::Ok();
  }

  Status Window(ast::TimeWindowSpec* w) {
    Status s = Endpoint(&w->at_param, w->line, /*range=*/true, nullptr, &w->fixed);
    if (!s.ok()) {
      return s;
    }
    s = Endpoint(&w->from_param, w->line, /*range=*/false, &w->from_fixed, nullptr);
    if (!s.ok()) {
      return s;
    }
    s = Endpoint(&w->to_param, w->line, /*range=*/false, &w->to_fixed, nullptr);
    if (!s.ok()) {
      return s;
    }
    if (!w->fixed.has_value() && w->from_fixed.has_value() && w->to_fixed.has_value()) {
      w->fixed = TimeRange{*w->from_fixed, *w->to_fixed};
    }
    return Status::Ok();
  }

  Status ExprWalk(Expr* e) {
    if (e->kind == Expr::Kind::kParam) {
      const Value* bound = nullptr;
      Status s = Lookup(e->name, e->line, &bound);
      if (!s.ok()) {
        return s;
      }
      if (bound->is_string()) {
        *e = Expr::String(bound->as_string());
      } else {
        *e = Expr::Number(bound->as_double());
      }
      return Status::Ok();
    }
    for (Expr& c : e->children) {
      Status s = ExprWalk(&c);
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  Status ReturnAndFilters(ast::ReturnClause* ret, ast::Filters* filters) {
    for (ast::ReturnItem& item : ret->items) {
      Status s = ExprWalk(&item.expr);
      if (!s.ok()) {
        return s;
      }
    }
    for (ast::ReturnItem& item : filters->group_by) {
      Status s = ExprWalk(&item.expr);
      if (!s.ok()) {
        return s;
      }
    }
    if (filters->having.has_value()) {
      Status s = ExprWalk(&*filters->having);
      if (!s.ok()) {
        return s;
      }
    }
    for (ast::SortKey& key : filters->sort_by) {
      Status s = ExprWalk(&key.expr);
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  Status Multievent(ast::MultieventQuery* mq) {
    for (ast::EventPattern& p : mq->patterns) {
      Status s = Pred(&p.subject.constraint);
      if (!s.ok()) {
        return s;
      }
      s = Pred(&p.object.constraint);
      if (!s.ok()) {
        return s;
      }
      s = Pred(&p.evt_constraint);
      if (!s.ok()) {
        return s;
      }
      if (p.time_window.has_value()) {
        s = Window(&*p.time_window);
        if (!s.ok()) {
          return s;
        }
      }
    }
    return ReturnAndFilters(&mq->ret, &mq->filters);
  }

  Status Dependency(ast::DependencyQuery* dq) {
    for (ast::EntityRef& node : dq->nodes) {
      Status s = Pred(&node.constraint);
      if (!s.ok()) {
        return s;
      }
    }
    return ReturnAndFilters(&dq->ret, &dq->filters);
  }

  const ParamSet& params_;
};

}  // namespace

std::vector<ParamInfo> CollectParams(const ast::Query& query) {
  return Collector().Run(query);
}

Status BindParams(ast::Query* query, const ParamSet& params) {
  std::vector<ParamInfo> declared = CollectParams(*query);
  std::set<std::string> names;
  for (const ParamInfo& p : declared) {
    names.insert(p.name);
  }
  for (const auto& [name, value] : params.values()) {
    if (names.count(name) == 0) {
      std::string known;
      for (const ParamInfo& p : declared) {
        known += known.empty() ? "$" + p.name : ", $" + p.name;
      }
      return Status::Error("unknown parameter $" + name + ": the query declares " +
                           (known.empty() ? "no parameters" : known));
    }
  }
  return Binder(params).Run(query);
}

Result<TimeRange> ResolveTimeWindow(const ast::TimeWindowSpec& spec) {
  if (spec.parameterized()) {
    const std::string& p = !spec.at_param.empty()    ? spec.at_param
                           : !spec.from_param.empty() ? spec.from_param
                                                      : spec.to_param;
    return Result<TimeRange>::Error(LinePrefix(spec.line) + "unbound parameter $" + p +
                                    " in time window — prepare the query and supply it via "
                                    "PreparedQuery::Bind");
  }
  if (spec.fixed.has_value()) {
    return *spec.fixed;
  }
  // Unreachable today (every endpoint is literal or parameterized), kept for
  // robustness: a half-bound from..to resolves to the bounded side only.
  TimeRange out;
  if (spec.from_fixed.has_value()) {
    out.begin = *spec.from_fixed;
  }
  if (spec.to_fixed.has_value()) {
    out.end = *spec.to_fixed;
  }
  return out;
}

}  // namespace aiql
