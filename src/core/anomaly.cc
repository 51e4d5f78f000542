#include "src/core/anomaly.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/core/projector.h"

namespace aiql {

double Sma(const std::vector<double>& series, size_t n) {
  if (series.empty() || n == 0) {
    return 0;
  }
  size_t take = std::min(n, series.size());
  double sum = 0;
  for (size_t i = series.size() - take; i < series.size(); ++i) {
    sum += series[i];
  }
  return sum / static_cast<double>(take);
}

double Cma(const std::vector<double>& series) { return Sma(series, series.size()); }

double Wma(const std::vector<double>& series, size_t n) {
  if (series.empty() || n == 0) {
    return 0;
  }
  size_t take = std::min(n, series.size());
  double num = 0, den = 0;
  // Linear weights: the most recent value weighs `take`.
  for (size_t k = 0; k < take; ++k) {
    double w = static_cast<double>(take - k);
    num += w * series[series.size() - 1 - k];
    den += w;
  }
  return num / den;
}

double Ewma(const std::vector<double>& series, double alpha) {
  if (series.empty()) {
    return 0;
  }
  // S_0 = x_0 ; S_t = alpha * S_{t-1} + (1 - alpha) * x_t. With alpha = 0.9
  // the history dominates, matching the paper's EWMA(freq, 0.9) usage.
  double s = series[0];
  for (size_t i = 1; i < series.size(); ++i) {
    s = alpha * s + (1 - alpha) * series[i];
  }
  return s;
}

namespace {

// Per-group state series: alias -> value per completed window.
struct GroupState {
  std::vector<Value> key;
  std::unordered_map<std::string, std::vector<double>> series;
  bool seen_this_window = false;
};

std::string KeyString(const std::vector<Value>& key) {
  std::string out;
  for (const Value& v : key) {
    out += v.ToString();
    out.push_back('\x1f');
  }
  return out;
}

}  // namespace

Result<ResultTable> ExecuteAnomaly(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session) {
  if (ctx.patterns.size() != 1 || !ctx.window.has_value()) {
    return Result<ResultTable>::Error("not an anomaly query context");
  }
  const DurationMs window = *ctx.window;
  const DurationMs step = ctx.step.value_or(window);
  if (window <= 0 || step <= 0) {
    return Result<ResultTable>::Error("window and step must be positive");
  }

  ExecutionSession local;
  if (session == nullptr) {
    session = &local;
  }
  ExecStats* st = &session->stats;
  st->pattern_matches.assign(1, 0);
  const ScanContext scan_ctx{.cancel = &session->cancelled,
                             .deadline = Deadline::After(options.time_budget_ms),
                             .pins = &session->pins};
  std::vector<EventView> events =
      FetchDataQuery(db, ctx.patterns[0].query, options, pool, session, &scan_ctx);
  if (session->IsCancelled()) {
    return Result<ResultTable>::Error("execution cancelled");
  }
  if (scan_ctx.deadline.Expired()) {
    return Result<ResultTable>::Error("execution budget exceeded: time limit reached");
  }
  st->pattern_matches[0] = events.size();
  // Intra-pattern attribute relationships filter single events.
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (rel.IsIntraPattern()) {
      size_t w = 0;
      for (size_t i = 0; i < events.size(); ++i) {
        if (CheckAttrRel(rel, events[i], events[i], db.catalog())) {
          events[w++] = events[i];
        }
      }
      events.resize(w);
    }
  }

  // Windows are anchored at the query's declared time window (inference
  // guarantees it is bounded); anchoring at the data's first event would make
  // window alignment depend on unrelated events.
  TimeRange range = ctx.global_time;
  std::vector<size_t> pattern_order{0};
  std::vector<const Expr*> agg_calls = CollectAggregateCalls(ctx);

  std::vector<std::string> columns{"window"};
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);

  std::map<std::string, GroupState> groups;

  // Events are sorted by start_time; window membership via binary search.
  auto lower = [&](TimestampMs t) {
    return std::lower_bound(events.begin(), events.end(), t,
                            [](const EventView& e, TimestampMs x) { return e.start_time() < x; });
  };

  for (TimestampMs ws = range.begin; ws < range.end; ws += step) {
    if (session->IsCancelled()) {
      return Result<ResultTable>::Error("execution cancelled");
    }
    TimestampMs we = std::min<TimestampMs>(ws + window, range.end);
    auto first = lower(ws);
    auto last = lower(we);

    // Bucket this window's events by group key.
    std::map<std::string, std::vector<std::vector<EventView>>> window_rows;
    for (auto it = first; it != last; ++it) {
      std::vector<EventView> row{*it};
      RowAccessor acc(row, pattern_order, db.catalog());
      std::vector<Value> key;
      for (const OutputItem& g : ctx.group_by) {
        key.push_back(EvalScalarExpr(g.expr, &acc, nullptr).value_or(Value()));
      }
      std::string ks = KeyString(key);
      auto& state = groups[ks];
      if (state.key.empty() && !key.empty()) {
        state.key = key;
      }
      window_rows[ks].push_back(std::move(row));
    }

    // Update every known group (groups absent in this window record 0s so
    // that history offsets stay aligned across windows).
    for (auto& [ks, state] : groups) {
      auto rows_it = window_rows.find(ks);
      static const std::vector<std::vector<EventView>> kNoRows;
      const auto& rows = rows_it != window_rows.end() ? rows_it->second : kNoRows;

      std::unordered_map<std::string, Value> agg_values;
      for (const Expr* call : agg_calls) {
        agg_values[call->ToString()] =
            ComputeAggregate(*call, rows, pattern_order, db.catalog());
      }

      // Items evaluated against a representative row + aggregate env.
      std::vector<EventView> empty_row;
      const std::vector<EventView>& rep = rows.empty() ? empty_row : rows.front();
      RowAccessor acc(rep, pattern_order, db.catalog());
      std::unordered_map<std::string, Value> computed;
      if (rows.empty()) {
        // Absent groups still need their key columns (taken from the stored
        // key, since there is no representative row to read them from).
        for (size_t g = 0; g < ctx.group_by.size() && g < state.key.size(); ++g) {
          computed[ctx.group_by[g].name] = state.key[g];
        }
      }

      AliasEnv env;
      env.lookup = [&](const std::string& name) -> std::optional<Value> {
        auto it = agg_values.find(name);
        if (it != agg_values.end()) {
          return it->second;
        }
        auto it2 = computed.find(name);
        if (it2 != computed.end()) {
          return it2->second;
        }
        // Moving averages over the group's state series including the
        // current window's value.
        return std::nullopt;
      };
      env.history = [&](const std::string& alias, int back) -> std::optional<Value> {
        auto it = state.series.find(alias);
        if (it == state.series.end()) {
          return Value(0.0);
        }
        const std::vector<double>& s = it->second;
        // back = 0 is the current window (not yet appended): use computed.
        if (back == 0) {
          auto c = computed.find(alias);
          return c != computed.end() ? std::optional<Value>(c->second) : std::nullopt;
        }
        int idx = static_cast<int>(s.size()) - back;
        if (idx < 0) {
          return Value(0.0);
        }
        return Value(s[static_cast<size_t>(idx)]);
      };

      std::vector<Value> out_row{Value(FormatTimestamp(ws))};
      for (const OutputItem& item : ctx.items) {
        std::optional<Value> v =
            EvalScalarExpr(item.expr, rows.empty() ? nullptr : &acc, &env);
        out_row.push_back(v.value_or(Value()));
        computed[item.name] = out_row.back();
      }

      // Moving-average calls in having: compute over series + current value.
      std::unordered_map<std::string, Value> ma_values;
      if (ctx.having.has_value()) {
        ctx.having->Any([&](const Expr& e) {
          if (e.IsMovingAverageCall() && !e.children.empty()) {
            const std::string& alias = e.children[0].name;
            std::vector<double> series;
            auto it = state.series.find(alias);
            if (it != state.series.end()) {
              series = it->second;
            }
            auto c = computed.find(alias);
            if (c != computed.end()) {
              series.push_back(c->second.as_double());
            }
            double param = e.children.size() > 1 ? e.children[1].number : 0;
            double result = 0;
            if (e.func == "sma") {
              result = Sma(series, param > 0 ? static_cast<size_t>(param) : 3);
            } else if (e.func == "cma") {
              result = Cma(series);
            } else if (e.func == "wma") {
              result = Wma(series, param > 0 ? static_cast<size_t>(param) : 3);
            } else if (e.func == "ewma") {
              result = Ewma(series, param > 0 ? param : 0.9);
            }
            ma_values[e.ToString()] = Value(result);
          }
          return false;  // keep traversing
        });
      }

      bool emit = true;
      if (ctx.having.has_value()) {
        AliasEnv having_env = env;
        having_env.lookup = [&](const std::string& name) -> std::optional<Value> {
          auto it = ma_values.find(name);
          if (it != ma_values.end()) {
            return it->second;
          }
          return env.lookup(name);
        };
        std::optional<Value> ok =
            EvalScalarExpr(*ctx.having, rows.empty() ? nullptr : &acc, &having_env);
        emit = ok.has_value() && ValueTruthy(*ok);
      }
      // Suppress rows for groups with no activity in this window unless the
      // having clause explicitly passed on history.
      if (rows.empty() && !ctx.having.has_value()) {
        emit = false;
      }
      if (emit) {
        table.AddRow(std::move(out_row));
      }

      // Append numeric aliases to the state series.
      for (size_t i = 0; i < ctx.items.size(); ++i) {
        const Value& v = computed[ctx.items[i].name];
        if (!v.is_string()) {
          state.series[ctx.items[i].name].push_back(v.as_double());
        }
      }
    }
  }

  if (ctx.top.has_value() && table.num_rows() > static_cast<size_t>(*ctx.top)) {
    table.mutable_rows()->resize(static_cast<size_t>(*ctx.top));
  }
  return table;
}

}  // namespace aiql
