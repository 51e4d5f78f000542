// Brute-force reference for the core aggregation layer: return items, group
// by, aggregates, having, DISTINCT, sort by / top, and the sliding-window
// anomaly model (per-group history states, x[k] refs, SMA/CMA/WMA/EWMA).
//
// It is written for clarity, not speed. Expressions are evaluated by a small
// interpreter of its own over string-keyed alias maps; groups are found by
// scanning every row for every key; each (window, group) step scans every
// event again. It includes only public headers and shares no grouping,
// window, distinct or expression-evaluation code with src/core, so a
// semantic drift in the engine's aggregation shows up as a mismatch.
//
// The semantics it encodes:
// - A group's key string is each key value's rendering followed by \x1f;
//   groups are visited in ascending key string, their rows in input order.
// - Aggregates: count() counts rows, count(x) non-null x, count_distinct(x)
//   distinct renderings of x; sum/avg/min/max read x as a double and are 0
//   over no values.
// - A name resolves to a moving average (having only), then an aggregate
//   (by rendered call text), then a return item evaluated earlier in the same
//   row or group. A ref that cannot be read from a row reads its name.
// - Anomaly windows start at the query's time range and advance by `step`;
//   a group is visited from the first window that holds one of its events
//   on, in every later window. Absent groups read their key columns from
//   their first event's key, emit only through having, and append to their
//   history like the others.
// - DISTINCT sorts rows lexicographically and drops equal neighbours. Sort by
//   is a stable sort by output column (over input order, or over the DISTINCT
//   order); without it multievent rows are sorted lexicographically and
//   anomaly rows keep window order. Top truncates.
#ifndef AIQL_TESTS_REFERENCE_AGGREGATE_H_
#define AIQL_TESTS_REFERENCE_AGGREGATE_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/result_table.h"
#include "src/lang/query_context.h"
#include "src/storage/event_view.h"
#include "src/util/time_utils.h"

namespace aiql::reference {

using Row = std::vector<EventView>;
using Names = std::map<std::string, Value>;
using History = std::function<std::optional<Value>(const std::string& alias, int back)>;

struct Input {
  const std::vector<size_t>& patterns;  // patterns[i] is the pattern of row column i
  const EntityCatalog& catalog;
};

inline bool Truthy(const Value& v) {
  return v.is_string() ? !v.as_string().empty() : v.as_double() != 0.0;
}

inline std::optional<Value> ReadRef(const ResolvedRef& ref, const Row& row, const Input& in) {
  for (size_t i = 0; i < in.patterns.size() && i < row.size(); ++i) {
    if (in.patterns[i] != ref.pattern) {
      continue;
    }
    const EventView& e = row[i];
    std::optional<Value> v;
    if (ref.side == RefSide::kSubject) {
      v = in.catalog.AttrOf(EntityType::kProcess, e.subject_idx(), ref.attr);
    } else if (ref.side == RefSide::kObject) {
      v = in.catalog.AttrOf(e.object_type(), e.object_idx(), ref.attr);
    } else {
      v = EventAttr(e, in.catalog, ref.attr);
    }
    return v.value_or(Value());
  }
  return std::nullopt;
}

// Evaluates `e` over `row` (null: no row) with `names` for aliases and
// calls, and `history` for x[k] (null: none).
inline std::optional<Value> Eval(const Expr& e, const Row* row, const Input& in,
                                 const Names* names, const History* history) {
  auto name = [&](const std::string& n) -> std::optional<Value> {
    if (names == nullptr || names->count(n) == 0) {
      return std::nullopt;
    }
    return names->at(n);
  };
  switch (e.kind) {
    case Expr::Kind::kNumber:
      if (e.number == std::floor(e.number) && std::abs(e.number) < 1e15) {
        return Value(static_cast<int64_t>(e.number));
      }
      return Value(e.number);
    case Expr::Kind::kString:
      return Value(e.str);
    case Expr::Kind::kParam:
      return std::nullopt;
    case Expr::Kind::kVarRef:
      if (e.resolved.has_value() && e.resolved->side == RefSide::kAlias) {
        return name(e.name);
      }
      if (e.resolved.has_value() && row != nullptr) {
        return ReadRef(*e.resolved, *row, in);
      }
      return name(e.name);
    case Expr::Kind::kHistRef:
      return history != nullptr && *history ? (*history)(e.name, e.hist_offset) : std::nullopt;
    case Expr::Kind::kCall:
      return name(e.ToString());
    case Expr::Kind::kUnary: {
      std::optional<Value> v = Eval(e.children[0], row, in, names, history);
      if (!v.has_value()) {
        return std::nullopt;
      }
      if (e.uop == '!') {
        return Value(static_cast<int64_t>(!Truthy(*v)));
      }
      if (v->is_int() && v->as_int() > INT64_MIN) {
        return Value(-v->as_int());
      }
      return Value(-v->as_double());
    }
    case Expr::Kind::kBinary: {
      std::optional<Value> l = Eval(e.children[0], row, in, names, history);
      std::optional<Value> r = Eval(e.children[1], row, in, names, history);
      if (!l.has_value() || !r.has_value()) {
        return std::nullopt;
      }
      const bool ints = l->is_int() && r->is_int();
      const double a = l->as_double();
      const double b = r->as_double();
      auto number = [&](double x) {
        // int op int stays an int while it fits in int64.
        return ints && x >= -9223372036854775808.0 && x < 9223372036854775808.0
                   ? Value(static_cast<int64_t>(x))
                   : Value(x);
      };
      auto flag = [](bool x) { return Value(static_cast<int64_t>(x)); };
      switch (e.bop) {
        case BinOp::kAdd:
          return number(a + b);
        case BinOp::kSub:
          return number(a - b);
        case BinOp::kMul:
          return number(a * b);
        case BinOp::kDiv:
          return b == 0 ? Value(0.0) : Value(a / b);
        case BinOp::kEq:
          return flag(*l == *r);
        case BinOp::kNe:
          return flag(*l != *r);
        case BinOp::kLt:
          return flag(*l < *r);
        case BinOp::kLe:
          return flag(*l <= *r);
        case BinOp::kGt:
          return flag(*l > *r);
        case BinOp::kGe:
          return flag(*l >= *r);
        case BinOp::kAnd:
          return flag(Truthy(*l) && Truthy(*r));
        case BinOp::kOr:
          return flag(Truthy(*l) || Truthy(*r));
      }
    }
  }
  return std::nullopt;
}

// Every aggregate call of the return items and having clause.
inline void AggregateCalls(const Expr& e, std::vector<const Expr*>* out) {
  if (e.IsAggregateCall()) {
    out->push_back(&e);
    return;
  }
  for (const Expr& c : e.children) {
    AggregateCalls(c, out);
  }
}

inline Names Aggregates(const QueryContext& ctx, const std::vector<const Row*>& rows,
                        const Input& in) {
  std::vector<const Expr*> calls;
  for (const OutputItem& item : ctx.items) {
    AggregateCalls(item.expr, &calls);
  }
  if (ctx.having.has_value()) {
    AggregateCalls(*ctx.having, &calls);
  }
  Names out;
  for (const Expr* call : calls) {
    std::vector<Value> xs;  // non-null argument values, in row order
    for (const Row* row : rows) {
      if (!call->children.empty()) {
        if (std::optional<Value> v = Eval(call->children[0], row, in, nullptr, nullptr)) {
          xs.push_back(*v);
        }
      }
    }
    Value result;
    if (call->func == "count") {
      result = Value(static_cast<int64_t>(call->children.empty() ? rows.size() : xs.size()));
    } else if (call->func == "count_distinct") {
      std::set<std::string> distinct;
      for (const Value& x : xs) {
        distinct.insert(x.ToString());
      }
      result = Value(static_cast<int64_t>(distinct.size()));
    } else {
      double sum = 0;
      double lo = xs.empty() ? 0 : xs[0].as_double();
      double hi = lo;
      for (const Value& x : xs) {
        sum += x.as_double();
        lo = std::min(lo, x.as_double());
        hi = std::max(hi, x.as_double());
      }
      if (call->func == "sum") {
        result = Value(sum);
      } else if (call->func == "avg") {
        result = Value(xs.empty() ? 0.0 : sum / static_cast<double>(xs.size()));
      } else if (call->func == "min") {
        result = Value(lo);
      } else if (call->func == "max") {
        result = Value(hi);
      }
    }
    out.emplace(call->ToString(), result);  // the first of equal renderings
  }
  return out;
}

inline std::string KeyString(const std::vector<Value>& key) {
  std::string out;
  for (const Value& v : key) {
    out += v.ToString() + '\x1f';
  }
  return out;
}

inline std::vector<Value> KeyOf(const QueryContext& ctx, const Row& row, const Input& in) {
  std::vector<Value> key;
  for (const OutputItem& g : ctx.group_by) {
    key.push_back(Eval(g.expr, &row, in, nullptr, nullptr).value_or(Value()));
  }
  return key;
}

inline bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Stable sort by the sort-by columns, then top.
inline void SortAndTop(const QueryContext& ctx, ResultTable* table) {
  std::vector<std::pair<int, bool>> keys;
  for (const ast::SortKey& k : ctx.sort_by) {
    const std::string name = k.expr.kind == Expr::Kind::kVarRef && k.expr.attr.empty()
                                 ? k.expr.name
                                 : k.expr.ToString();
    int col = table->ColumnIndex(name);
    keys.emplace_back(col >= 0 ? col : table->ColumnIndex(k.expr.ToString()), k.ascending);
  }
  std::stable_sort(table->mutable_rows()->begin(), table->mutable_rows()->end(),
                   [&](const std::vector<Value>& a, const std::vector<Value>& b) {
                     for (auto [col, asc] : keys) {
                       if (a[col] < b[col] || b[col] < a[col]) {
                         return asc == (a[col] < b[col]);
                       }
                     }
                     return false;
                   });
  if (ctx.top.has_value() && *ctx.top >= 0 &&
      table->num_rows() > static_cast<size_t>(*ctx.top)) {
    table->mutable_rows()->resize(static_cast<size_t>(*ctx.top));
  }
}

// The names an expression sees: later layers shadow earlier ones.
inline Names Overlay(std::initializer_list<const Names*> layers) {
  Names out;
  for (const Names* layer : layers) {
    for (const auto& [n, v] : *layer) {
      out[n] = v;
    }
  }
  return out;
}

// The projection of a multievent query's final rows.
inline ResultTable Project(const QueryContext& ctx, const std::vector<Row>& rows,
                           const Input& in) {
  std::vector<std::string> columns;
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);
  bool aggregated = !ctx.group_by.empty();
  for (const OutputItem& item : ctx.items) {
    aggregated = aggregated || item.expr.Any([](const Expr& x) { return x.IsAggregateCall(); });
  }

  if (!aggregated) {
    for (const Row& row : rows) {
      std::vector<Value> out;
      Names items;
      for (const OutputItem& item : ctx.items) {
        out.push_back(Eval(item.expr, &row, in, nullptr, nullptr).value_or(Value()));
        items[item.name] = out.back();
      }
      std::optional<Value> ok =
          ctx.having.has_value() ? Eval(*ctx.having, &row, in, &items, nullptr) : Value(1);
      if (ok.has_value() && Truthy(*ok)) {
        table.AddRow(out);
      }
    }
  } else {
    std::set<std::string> keys;
    for (const Row& row : rows) {
      keys.insert(KeyString(KeyOf(ctx, row, in)));
    }
    if (ctx.group_by.empty()) {
      keys.insert("");  // one global group, even over no rows
    }
    for (const std::string& key : keys) {
      std::vector<const Row*> members;
      for (const Row& row : rows) {
        if (KeyString(KeyOf(ctx, row, in)) == key) {
          members.push_back(&row);
        }
      }
      const Names aggs = Aggregates(ctx, members, in);
      Names computed;  // the items evaluated so far
      const Row* first = members.empty() ? nullptr : members.front();
      std::vector<Value> out;
      for (const OutputItem& item : ctx.items) {
        const Names visible = Overlay({&computed, &aggs});
        out.push_back(Eval(item.expr, first, in, &visible, nullptr).value_or(Value()));
        computed[item.name] = out.back();
      }
      const Names visible = Overlay({&computed, &aggs});
      std::optional<Value> ok =
          ctx.having.has_value() ? Eval(*ctx.having, first, in, &visible, nullptr) : Value(1);
      if (ok.has_value() && Truthy(*ok)) {
        table.AddRow(out);
      }
    }
  }

  auto* out = table.mutable_rows();
  if (ctx.distinct || ctx.sort_by.empty()) {
    std::stable_sort(out->begin(), out->end(), RowLess);
  }
  if (ctx.distinct) {
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
  if (ctx.count_all) {
    ResultTable count({"count"});
    count.AddRow({Value(static_cast<int64_t>(table.num_rows()))});
    return count;
  }
  SortAndTop(ctx, &table);
  return table;
}

// Moving averages over a series (most recent value last).
inline double MovingAverage(const std::string& func, const std::vector<double>& xs,
                            double param) {
  if (xs.empty()) {
    return 0;
  }
  if (func == "ewma") {
    const double alpha = param > 0 ? param : 0.9;
    double s = xs[0];
    for (size_t i = 1; i < xs.size(); ++i) {
      s = alpha * s + (1 - alpha) * xs[i];
    }
    return s;
  }
  const size_t n = func == "cma" ? xs.size()
                   : param > 0      ? static_cast<size_t>(std::min(param, 1e18))
                                    : 3;
  if (n == 0) {
    return 0;
  }
  const size_t take = std::min(n, xs.size());
  if (func == "wma") {  // linear weights, the most recent value weighs `take`
    double num = 0;
    double den = 0;
    for (size_t k = 0; k < take; ++k) {
      num += static_cast<double>(take - k) * xs[xs.size() - 1 - k];
      den += static_cast<double>(take - k);
    }
    return num / den;
  }
  double sum = 0;  // sma / cma: the mean of the last `take` values
  for (size_t i = xs.size() - take; i < xs.size(); ++i) {
    sum += xs[i];
  }
  return sum / static_cast<double>(take);
}

// The anomaly query over `events`: its single pattern's matches, sorted by
// (start_time, id).
inline ResultTable Anomaly(const QueryContext& ctx, const std::vector<EventView>& events,
                           const Input& in) {
  std::vector<std::string> columns{"window"};
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);
  const DurationMs window = *ctx.window;
  const DurationMs step = ctx.step.value_or(window);
  const TimeRange range = ctx.global_time;

  std::map<std::string, std::vector<Value>> first_key;  // key string -> first event's key
  std::map<std::string, std::map<std::string, std::vector<double>>> series;
  for (TimestampMs ws = range.begin; ws < range.end; ws += step) {
    const TimestampMs we = std::min<TimestampMs>(ws + window, range.end);
    for (const EventView& e : events) {
      if (e.start_time() >= ws && e.start_time() < we) {
        const std::vector<Value> key = KeyOf(ctx, {e}, in);
        first_key.emplace(KeyString(key), key);
      }
    }
    for (const auto& [key, key_values] : first_key) {
      std::vector<Row> rows;
      for (const EventView& e : events) {
        if (e.start_time() >= ws && e.start_time() < we && KeyString(KeyOf(ctx, {e}, in)) == key) {
          rows.push_back({e});
        }
      }
      std::vector<const Row*> members;
      for (const Row& r : rows) {
        members.push_back(&r);
      }
      std::map<std::string, std::vector<double>>& past = series[key];
      const Names aggs = Aggregates(ctx, members, in);
      Names computed;  // an absent group's key columns, then the items so far
      if (rows.empty()) {
        for (size_t g = 0; g < ctx.group_by.size(); ++g) {
          computed[ctx.group_by[g].name] = key_values[g];
        }
      }
      const History history = [&](const std::string& alias, int back) -> std::optional<Value> {
        if (past[alias].empty()) {
          return Value(0.0);
        }
        if (back == 0) {
          return computed.count(alias) ? std::optional<Value>(computed.at(alias)) : std::nullopt;
        }
        const int idx = static_cast<int>(past[alias].size()) - back;
        return Value(idx < 0 ? 0.0 : past[alias][static_cast<size_t>(idx)]);
      };
      const Row* first = rows.empty() ? nullptr : &rows.front();
      std::vector<Value> out{Value(FormatTimestamp(ws))};
      for (const OutputItem& item : ctx.items) {
        const Names visible = Overlay({&computed, &aggs});
        out.push_back(Eval(item.expr, first, in, &visible, &history).value_or(Value()));
        computed[item.name] = out.back();
      }
      bool emit = !rows.empty();
      if (ctx.having.has_value()) {
        Names averages;
        ctx.having->Any([&](const Expr& e) {
          if (e.IsMovingAverageCall() && !e.children.empty()) {
            const std::string& alias = e.children[0].name;
            std::vector<double> xs = past.count(alias) ? past[alias] : std::vector<double>{};
            if (computed.count(alias)) {
              xs.push_back(computed.at(alias).as_double());
            }
            const double param = e.children.size() > 1 ? e.children[1].number : 0;
            averages[e.ToString()] = Value(MovingAverage(e.func, xs, param));
          }
          return false;
        });
        const Names visible = Overlay({&computed, &aggs, &averages});
        std::optional<Value> ok = Eval(*ctx.having, first, in, &visible, &history);
        emit = ok.has_value() && Truthy(*ok);
      }
      if (emit) {
        table.AddRow(out);
      }
      for (const OutputItem& item : ctx.items) {
        if (!computed.at(item.name).is_string()) {
          past[item.name].push_back(computed.at(item.name).as_double());
        }
      }
    }
  }
  SortAndTop(ctx, &table);
  return table;
}

}  // namespace aiql::reference

#endif  // AIQL_TESTS_REFERENCE_AGGREGATE_H_
