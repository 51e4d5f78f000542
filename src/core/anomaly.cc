#include "src/core/anomaly.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "src/core/aggregate.h"
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

// A moving-average call of the having clause, compiled once per query: it
// reads the series of `alias_slot` plus the current window's value.
struct MovingAverage {
  int alias_slot = -1;  // -1: an alias no return item defines
  int out_slot = -1;    // slot of the call's rendered text
  std::string func;
  double param = 0;

  double Compute(std::vector<std::vector<double>>* series, const AliasEnv& env) const {
    static const std::vector<double> kNone;
    std::vector<double>* s = alias_slot >= 0 ? &(*series)[alias_slot] : nullptr;
    const bool current = alias_slot >= 0 && env.Computed(alias_slot).has_value();
    if (current) {
      s->push_back(env.Computed(alias_slot)->as_double());
    }
    const std::vector<double>& xs = s != nullptr ? *s : kNone;
    // Lookbacks past any series length act alike; the clamp keeps the cast
    // defined.
    const size_t n = param > 0 ? static_cast<size_t>(std::min(param, 1e18)) : 3;
    double result = 0;
    if (func == "sma") {
      result = Sma(xs, n);
    } else if (func == "cma") {
      result = Cma(xs);
    } else if (func == "wma") {
      result = Wma(xs, n);
    } else if (func == "ewma") {
      result = Ewma(xs, param > 0 ? param : 0.9);
    }
    if (current) {
      s->pop_back();
    }
    return result;
  }
};

std::vector<MovingAverage> CompileMovingAverages(const QueryContext& ctx, const AliasEnv& env) {
  std::vector<MovingAverage> out;
  if (!ctx.having.has_value()) {
    return out;
  }
  ctx.having->Any([&](const Expr& e) {
    if (e.IsMovingAverageCall() && !e.children.empty()) {
      out.push_back({.alias_slot = env.SlotOf(e.children[0].name),
                     .out_slot = env.SlotOf(e.ToString()),
                     .func = e.func,
                     .param = e.children.size() > 1 ? e.children[1].number : 0});
    }
    return false;  // keep traversing
  });
  return out;
}

// How many windows run between two reads of the clock for the time budget.
constexpr size_t kWindowsPerDeadlineCheck = 64;

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
  const EntityCatalog& catalog = db.catalog();
  // Intra-pattern attribute relationships filter single events (an anomaly
  // query has one pattern).
  ApplyIntraRels(ctx, 0, &events, catalog);

  std::vector<std::string> columns{"window"};
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);

  // Everything the window loop reads by name is resolved here, once.
  const std::vector<int> pattern_cols = PatternColumns({0});
  AliasEnv env(ctx);
  GroupAggregates aggregates(ctx, env, pattern_cols, catalog);
  std::vector<int> item_slots;
  for (const OutputItem& item : ctx.items) {
    item_slots.push_back(env.SlotOf(item.name));
  }
  std::vector<int> key_slots;
  for (const OutputItem& g : ctx.group_by) {
    key_slots.push_back(env.SlotOf(g.name));
  }
  const std::vector<MovingAverage> moving_averages = CompileMovingAverages(ctx, env);

  // Group state. An event's group is evaluated the first time a window holds
  // it; a group becomes active in the first window that holds one of its
  // events and is then visited in every window (absent groups record their
  // aggregates over no events, so history offsets stay aligned), in
  // key-string order.
  constexpr uint32_t kNoGroup = UINT32_MAX;
  GroupIndex groups(ctx.group_by, pattern_cols, catalog);
  std::vector<uint32_t> group_of(events.size(), kNoGroup);
  std::vector<std::vector<std::vector<double>>> series;  // group -> slot -> past windows
  std::vector<std::vector<uint32_t>> bucket;             // group -> this window's events
  std::vector<uint32_t> touched;                         // groups with a non-empty bucket
  std::vector<uint32_t> active;                          // in key-string order
  std::vector<Value> values(ctx.items.size());
  auto key_less = [&](uint32_t a, uint32_t b) { return groups.KeyLess(a, b); };
  auto view_of = [&](uint32_t i) { return std::span<const EventView>(&events[i], 1); };

  // Events are sorted by start_time; window membership via binary search.
  auto lower = [&](TimestampMs t) {
    return static_cast<uint32_t>(
        std::lower_bound(events.begin(), events.end(), t,
                         [](const EventView& e, TimestampMs x) { return e.start_time() < x; }) -
        events.begin());
  };

  // Windows are anchored at the query's declared time window (inference
  // guarantees it is bounded); anchoring at the data's first event would make
  // window alignment depend on unrelated events.
  const TimeRange range = ctx.global_time;
  size_t windows = 0;
  for (TimestampMs ws = range.begin; ws < range.end; ws += step, ++windows) {
    if (session->IsCancelled()) {
      return Result<ResultTable>::Error("execution cancelled");
    }
    if (windows % kWindowsPerDeadlineCheck == 0 && scan_ctx.deadline.Expired()) {
      return Result<ResultTable>::Error("execution budget exceeded: time limit reached");
    }
    const TimestampMs we = std::min<TimestampMs>(ws + window, range.end);

    // Bucket this window's events by group; activate the groups seen first.
    const size_t num_active = active.size();
    for (uint32_t i = lower(ws), last = lower(we); i < last; ++i) {
      if (group_of[i] == kNoGroup) {
        group_of[i] = groups.GroupOf(view_of(i));
      }
      const uint32_t g = group_of[i];
      if (g == series.size()) {
        series.emplace_back(env.num_slots());
        bucket.emplace_back();
        active.push_back(g);
      }
      if (bucket[g].empty()) {
        touched.push_back(g);
      }
      bucket[g].push_back(i);
    }
    std::sort(active.begin() + num_active, active.end(), key_less);
    std::inplace_merge(active.begin(), active.begin() + num_active, active.end(), key_less);

    std::optional<Value> window_cell;  // formatted once, when a row is emitted
    for (uint32_t g : active) {
      const std::vector<uint32_t>& rows = bucket[g];
      aggregates.Reset();
      for (uint32_t i : rows) {
        aggregates.Add(RowAccessor(view_of(i), pattern_cols, catalog));
      }
      env.Clear();
      env.SetHistory(&series[g]);
      aggregates.Publish(&env);

      // Items read the window's first event of the group; an absent group
      // has none and reads its key columns from the stored key instead.
      std::optional<RowAccessor> rep;
      if (!rows.empty()) {
        rep.emplace(view_of(rows.front()), pattern_cols, catalog);
      } else {
        const std::vector<Value>& key = groups.key(g);
        for (size_t k = 0; k < key.size(); ++k) {
          env.SetComputed(key_slots[k], key[k]);
        }
      }
      const RowAccessor* acc = rep.has_value() ? &*rep : nullptr;
      for (size_t i = 0; i < ctx.items.size(); ++i) {
        values[i] = EvalScalarExpr(ctx.items[i].expr, acc, &env).value_or(Value());
        env.SetComputed(item_slots[i], values[i]);
      }

      // Without a having clause, only groups with events in this window
      // emit; with one, the clause decides (it may pass on history alone).
      bool emit = !rows.empty();
      if (ctx.having.has_value()) {
        for (const MovingAverage& ma : moving_averages) {
          env.SetFixed(ma.out_slot, Value(ma.Compute(&series[g], env)));
        }
        std::optional<Value> ok = EvalScalarExpr(*ctx.having, acc, &env);
        emit = ok.has_value() && ValueTruthy(*ok);
      }
      if (emit) {
        if (!window_cell.has_value()) {
          window_cell = Value(FormatTimestamp(ws));
        }
        std::vector<Value> out_row;
        out_row.reserve(values.size() + 1);
        out_row.push_back(*window_cell);
        out_row.insert(out_row.end(), values.begin(), values.end());
        table.AddRow(std::move(out_row));
      }

      // Append numeric aliases to the state series.
      for (int slot : item_slots) {
        const Value& v = *env.Computed(slot);
        if (!v.is_string()) {
          series[g][slot].push_back(v.as_double());
        }
      }
    }
    for (uint32_t g : touched) {
      bucket[g].clear();
    }
    touched.clear();
  }

  Status s = SortAndLimit(ctx, /*lexicographic_fallback=*/false, &table);
  if (!s.ok()) {
    return Result<ResultTable>(s);
  }
  return table;
}

}  // namespace aiql
