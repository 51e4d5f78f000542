#include "src/lang/params.h"

#include <algorithm>

namespace aiql {

namespace {

std::string LinePrefix(int line) { return "line " + std::to_string(line) + ": "; }

template <typename E, typename Fn>
void ForEachParamNode(E& e, Fn& fn) {
  if (e.kind == Expr::Kind::kParam) {
    fn(e);
    return;
  }
  for (auto& child : e.children) {
    ForEachParamNode(child, fn);
  }
}

// Calls site(x) on every parameter site of `q` in source order: the global
// constraint, the global time windows, each pattern's subject, object and
// event constraints and its window, each dependency node's constraint, then
// return and filter expressions. A site is a predicate leaf holding a $value,
// an Expr::kParam node, or a time window with a $endpoint. Both query bodies
// are walked; the inactive one is default-constructed and holds none. `Q` is
// ast::Query or const ast::Query, and the sites share its constness.
template <typename Q, typename Site>
void ForEachParamSite(Q& q, Site&& site) {
  auto pred = [&](auto& p) {
    p.ForEachLeaf([&](auto& leaf) {
      if (std::any_of(leaf.values.begin(), leaf.values.end(),
                      [](const Value& v) { return v.is_param(); })) {
        site(leaf);
      }
    });
  };
  auto window = [&](auto& w) {
    if (w.parameterized()) {
      site(w);
    }
  };
  auto outputs = [&](auto& ret, auto& filters) {
    for (auto& item : ret.items) {
      ForEachParamNode(item.expr, site);
    }
    for (auto& item : filters.group_by) {
      ForEachParamNode(item.expr, site);
    }
    if (filters.having.has_value()) {
      ForEachParamNode(*filters.having, site);
    }
    for (auto& key : filters.sort_by) {
      ForEachParamNode(key.expr, site);
    }
  };
  pred(q.global.constraint);
  for (auto& w : q.global.time_windows) {
    window(w);
  }
  for (auto& p : q.multievent.patterns) {
    pred(p.subject.constraint);
    pred(p.object.constraint);
    pred(p.evt_constraint);
    if (p.time_window.has_value()) {
      window(*p.time_window);
    }
  }
  outputs(q.multievent.ret, q.multievent.filters);
  for (auto& node : q.dependency.nodes) {
    pred(node.constraint);
  }
  outputs(q.dependency.ret, q.dependency.filters);
}

// The distinct parameters of the sites it is called on, in first-occurrence
// order. A name used both as a time-window endpoint and a value keeps the
// stricter timestamp type.
class ParamList {
 public:
  void operator()(const AttrPredicate& leaf) {
    for (const Value& v : leaf.values) {
      if (v.is_param()) {
        Add(v.param().name, ParamType::kValue, v.param().line);
      }
    }
  }
  void operator()(const Expr& e) { Add(e.name, ParamType::kValue, e.line); }
  void operator()(const ast::TimeWindowSpec& w) {
    for (const std::string* name : {&w.at_param, &w.from_param, &w.to_param}) {
      if (!name->empty()) {
        Add(*name, ParamType::kTimestamp, w.line);
      }
    }
  }

  bool Declares(const std::string& name) const {
    return std::any_of(params_.begin(), params_.end(),
                       [&](const ParamInfo& p) { return p.name == name; });
  }
  std::vector<ParamInfo> Take() { return std::move(params_); }

 private:
  void Add(const std::string& name, ParamType type, int line) {
    for (ParamInfo& p : params_) {
      if (p.name == name) {
        if (type == ParamType::kTimestamp) {
          p.type = ParamType::kTimestamp;
        }
        return;
      }
    }
    params_.push_back(ParamInfo{name, type, line});
  }

  std::vector<ParamInfo> params_;
};

Status Unbound(const std::string& name, int line) {
  return Status::Error(LinePrefix(line) + "unbound parameter $" + name +
                       " — supply it via PreparedQuery::Bind");
}

// Writes the bound values into one site.
Status BindSite(const ParamSet& params, AttrPredicate& leaf) {
  for (Value& v : leaf.values) {
    if (v.is_param()) {
      const Value* bound = params.Find(v.param().name);
      if (bound == nullptr) {
        return Unbound(v.param().name, v.param().line);
      }
      v = *bound;
    }
  }
  leaf.PromoteWildcardEquality();
  return Status::Ok();
}

Status BindSite(const ParamSet& params, Expr& e) {
  const Value* bound = params.Find(e.name);
  if (bound == nullptr) {
    return Unbound(e.name, e.line);
  }
  e = bound->is_string() ? Expr::String(bound->as_string()) : Expr::Number(bound->as_double());
  return Status::Ok();
}

// `at $p` binds to the range its datetime string covers, `from $p` and
// `to $p` to instants.
Status BindSite(const ParamSet& params, ast::TimeWindowSpec& w) {
  auto endpoint = [&](std::string* param, auto parse, auto* out) {
    if (param->empty()) {
      return Status::Ok();
    }
    const Value* bound = params.Find(*param);
    if (bound == nullptr) {
      return Unbound(*param, w.line);
    }
    if (!bound->is_string()) {
      return Status::Error(LinePrefix(w.line) + "parameter $" + *param +
                           " is a time-window endpoint and expects a datetime string, got " +
                           bound->ToString());
    }
    auto r = parse(bound->as_string());
    if (!r.ok()) {
      return Status::Error(LinePrefix(w.line) + "parameter $" + *param + ": " + r.error());
    }
    *out = r.value();
    param->clear();
    return Status::Ok();
  };
  Status s = endpoint(&w.at_param, ParseDateTimeRange, &w.fixed);
  if (s.ok()) {
    s = endpoint(&w.from_param, ParseDateTime, &w.from_fixed);
  }
  if (s.ok()) {
    s = endpoint(&w.to_param, ParseDateTime, &w.to_fixed);
  }
  if (s.ok() && !w.fixed.has_value() && w.from_fixed.has_value() && w.to_fixed.has_value()) {
    w.fixed = TimeRange{*w.from_fixed, *w.to_fixed};
  }
  return s;
}

}  // namespace

std::vector<ParamInfo> CollectParams(const ast::Query& query) {
  ParamList params;
  ForEachParamSite(query, params);
  return params.Take();
}

Status BindParams(ast::Query* query, const ParamSet& params) {
  // One walk: every site's names go to `declared` for the unknown-name check,
  // and values are written until the first failure.
  ParamList declared;
  Status bound;
  ForEachParamSite(*query, [&](auto& site) {
    declared(site);
    if (bound.ok()) {
      bound = BindSite(params, site);
    }
  });
  for (const auto& [name, value] : params.values()) {
    if (!declared.Declares(name)) {
      std::string known;
      for (const ParamInfo& p : declared.Take()) {
        known += known.empty() ? "$" + p.name : ", $" + p.name;
      }
      return Status::Error("unknown parameter $" + name + ": the query declares " +
                           (known.empty() ? "no parameters" : known));
    }
  }
  return bound;
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
  // The parser and BindParams set `fixed` once both endpoints are known.
  return spec.fixed.value_or(TimeRange{});
}

}  // namespace aiql
