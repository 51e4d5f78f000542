#include "src/core/projector.h"

#include <algorithm>
#include <optional>
#include <span>

#include "src/core/aggregate.h"
#include "src/core/exec_session.h"

namespace aiql {
namespace {

bool ExprHasAggregate(const Expr& e) {
  return e.Any([](const Expr& x) { return x.IsAggregateCall(); });
}

bool Cancelled(const ExecutionSession* session) {
  return session != nullptr && session->IsCancelled();
}

// Row-wise having: the clause reads the row and, by alias, the row's return
// items. No clause passes every row.
bool RowPassesHaving(const QueryContext& ctx, const std::vector<int>& item_slots,
                     std::span<const Value> values, const RowAccessor& acc, AliasEnv* env) {
  if (!ctx.having.has_value()) {
    return true;
  }
  env->Clear();
  for (size_t i = 0; i < values.size(); ++i) {
    env->SetComputed(item_slots[i], values[i]);
  }
  std::optional<Value> ok = EvalScalarExpr(*ctx.having, &acc, env);
  return ok.has_value() && ValueTruthy(*ok);
}

}  // namespace

Status SortAndLimit(const QueryContext& ctx, bool lexicographic_fallback, ResultTable* table) {
  if (!ctx.sort_by.empty()) {
    struct Key {
      int col;
      bool asc;
    };
    std::vector<Key> keys;
    for (const ast::SortKey& k : ctx.sort_by) {
      std::string name = k.expr.kind == Expr::Kind::kVarRef && k.expr.attr.empty()
                             ? k.expr.name
                             : k.expr.ToString();
      int col = table->ColumnIndex(name);
      if (col < 0) {
        col = table->ColumnIndex(k.expr.ToString());
      }
      if (col < 0) {
        return Status::Error("sort key '" + name + "' is not a returned column");
      }
      keys.push_back({col, k.ascending});
    }
    std::stable_sort(table->mutable_rows()->begin(), table->mutable_rows()->end(),
                     [&](const std::vector<Value>& a, const std::vector<Value>& b) {
                       for (const Key& k : keys) {
                         const Value& va = a[k.col];
                         const Value& vb = b[k.col];
                         if (va < vb) {
                           return k.asc;
                         }
                         if (vb < va) {
                           return !k.asc;
                         }
                       }
                       return false;
                     });
  } else if (lexicographic_fallback) {
    table->SortRowsLexicographically();
  }
  if (ctx.top.has_value() && *ctx.top >= 0 &&
      table->num_rows() > static_cast<size_t>(*ctx.top)) {
    table->mutable_rows()->resize(static_cast<size_t>(*ctx.top));
  }
  return Status::Ok();
}

Result<ResultTable> ProjectResults(const QueryContext& ctx, const TupleSet& tuples,
                                   const EntityCatalog& catalog,
                                   const ExecutionSession* session) {
  const std::vector<int> pattern_cols = PatternColumns(tuples.patterns());

  bool aggregated = !ctx.group_by.empty();
  for (const OutputItem& item : ctx.items) {
    aggregated = aggregated || ExprHasAggregate(item.expr);
  }

  std::vector<std::string> columns;
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);

  AliasEnv env(ctx);
  std::vector<int> item_slots;
  for (const OutputItem& item : ctx.items) {
    item_slots.push_back(env.SlotOf(item.name));
  }
  auto cancelled = [] { return Result<ResultTable>::Error("execution cancelled"); };

  if (!aggregated && ctx.distinct) {
    // Dedupe on per-item value ids: only the first tuple of each distinct
    // tuple of return values becomes a row.
    std::vector<ValueIds> items;
    items.reserve(ctx.items.size());
    for (const OutputItem& item : ctx.items) {
      items.emplace_back(item.expr, pattern_cols, catalog);
    }
    TupleIds seen(items.size());
    std::vector<uint32_t> ids(items.size());
    auto values = [&] {
      std::vector<Value> out;
      out.reserve(items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        out.push_back(items[i].value(ids[i]));
      }
      return out;
    };
    for (size_t r = 0; r < tuples.num_rows(); ++r) {
      if (Cancelled(session)) {
        return cancelled();
      }
      const std::span<const EventView> row = tuples.row(r);
      for (size_t i = 0; i < items.size(); ++i) {
        ids[i] = items[i].IdOf(row);
      }
      if (ctx.having.has_value() &&
          !RowPassesHaving(ctx, item_slots, values(), RowAccessor(row, pattern_cols, catalog),
                           &env)) {
        continue;
      }
      bool added = false;
      seen.Intern(ids, &added);
      if (added) {
        table.AddRow(values());
      }
    }
  } else if (!aggregated) {
    for (size_t r = 0; r < tuples.num_rows(); ++r) {
      if (Cancelled(session)) {
        return cancelled();
      }
      RowAccessor acc(tuples.row(r), pattern_cols, catalog);
      std::vector<Value> out_row;
      out_row.reserve(ctx.items.size());
      for (const OutputItem& item : ctx.items) {
        out_row.push_back(EvalScalarExpr(item.expr, &acc, nullptr).value_or(Value()));
      }
      if (RowPassesHaving(ctx, item_slots, out_row, acc, &env)) {
        table.AddRow(std::move(out_row));
      }
    }
  } else {
    // Group rows (each group keeps its rows in tuple order), then compute
    // the aggregates of each group in key-string order.
    GroupIndex index(ctx.group_by, pattern_cols, catalog);
    std::vector<std::vector<uint32_t>> members;
    for (size_t r = 0; r < tuples.num_rows(); ++r) {
      uint32_t g = index.GroupOf(tuples.row(r));
      if (g == members.size()) {
        members.emplace_back();
      }
      members[g].push_back(static_cast<uint32_t>(r));
    }
    // A query with aggregates but no group-by forms one global group, even
    // when there are no input rows (SQL semantics for global aggregates).
    if (ctx.group_by.empty() && members.empty()) {
      members.emplace_back();
    }
    std::vector<uint32_t> order(members.size());
    for (uint32_t g = 0; g < order.size(); ++g) {
      order[g] = g;
    }
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return index.KeyLess(a, b); });

    GroupAggregates aggregates(ctx, env, pattern_cols, catalog);
    for (uint32_t g : order) {
      if (Cancelled(session)) {
        return cancelled();
      }
      aggregates.Reset();
      for (uint32_t r : members[g]) {
        aggregates.Add(RowAccessor(tuples.row(r), pattern_cols, catalog));
      }
      env.Clear();
      aggregates.Publish(&env);
      // The group's first row gives the values of group keys and plain refs.
      std::optional<RowAccessor> rep;
      if (!members[g].empty()) {
        rep.emplace(tuples.row(members[g].front()), pattern_cols, catalog);
      }
      const RowAccessor* acc = rep.has_value() ? &*rep : nullptr;
      std::vector<Value> out_row;
      out_row.reserve(ctx.items.size());
      for (size_t i = 0; i < ctx.items.size(); ++i) {
        out_row.push_back(EvalScalarExpr(ctx.items[i].expr, acc, &env).value_or(Value()));
        env.SetComputed(item_slots[i], out_row.back());
      }
      if (ctx.having.has_value()) {
        std::optional<Value> ok = EvalScalarExpr(*ctx.having, acc, &env);
        if (!ok.has_value() || !ValueTruthy(*ok)) {
          continue;
        }
      }
      table.AddRow(std::move(out_row));
    }
  }

  // DISTINCT before COUNT so `return count distinct x` counts distinct rows.
  // Rows whose values are equal across types (3 and 3.0) have distinct ids,
  // so equal neighbours are merged after the sort.
  if (ctx.distinct) {
    table.SortRowsLexicographically();
    auto* out = table.mutable_rows();
    out->erase(std::unique(out->begin(), out->end(),
                           [](const std::vector<Value>& a, const std::vector<Value>& b) {
                             return std::equal(a.begin(), a.end(), b.begin(), b.end());
                           }),
               out->end());
  }
  if (ctx.count_all) {
    ResultTable count_table({"count"});
    count_table.AddRow({Value(static_cast<int64_t>(table.num_rows()))});
    return count_table;
  }

  Status s = SortAndLimit(ctx, /*lexicographic_fallback=*/!ctx.distinct, &table);
  if (!s.ok()) {
    return Result<ResultTable>(s);
  }
  return table;
}

}  // namespace aiql
