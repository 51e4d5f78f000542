// Relationship checks and expression evaluation over matched events.
#ifndef AIQL_SRC_CORE_EVAL_H_
#define AIQL_SRC_CORE_EVAL_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lang/query_context.h"
#include "src/storage/event_store.h"

namespace aiql {

// Value of a pattern endpoint (subject/object entity attribute or event
// attribute) for a concrete matched event.
Value EndpointValue(const EventView& e, RefSide side, Attr attr, const EntityCatalog& catalog);

// True if the two concrete events satisfy the relationship. `le` matches the
// relationship's left pattern, `re` the right one.
bool CheckAttrRel(const AttrRelation& rel, const EventView& le, const EventView& re,
                  const EntityCatalog& catalog);
bool CheckTempRel(const TempRelation& rel, const EventView& le, const EventView& re);

// The start times [begin, end) that an event of one side of `rel` may have,
// given that the event of the other, known side started within
// [tmin, tmax]. `known_is_left`: the known event matches rel's left pattern.
// A superset of what CheckTempRel admits (it ignores a `within` lower bound),
// so callers narrow with it and then check each pair exactly.
TimeRange TempRelBounds(const TempRelation& rel, bool known_is_left, TimestampMs tmin,
                        TimestampMs tmax);

// Unified relationship handle used by the schedulers.
struct Relationship {
  enum class Kind : uint8_t { kAttr, kTemp };
  Kind kind = Kind::kAttr;
  AttrRelation attr;
  TempRelation temp;

  size_t left() const { return kind == Kind::kAttr ? attr.left_pattern : temp.left_pattern; }
  size_t right() const { return kind == Kind::kAttr ? attr.right_pattern : temp.right_pattern; }
  bool Check(const EventView& le, const EventView& re, const EntityCatalog& catalog) const {
    return kind == Kind::kAttr ? CheckAttrRel(attr, le, re, catalog) : CheckTempRel(temp, le, re);
  }
};

// Collects all inter-pattern relationships of a query context (intra-pattern
// attribute relationships are applied as per-pattern filters instead).
std::vector<Relationship> InterPatternRelationships(const QueryContext& ctx);

// Column of each pattern's event in a joined row: `cols[p]` is the column of
// pattern p, -1 when the row does not bind it. Built once per query from the
// tuple set's pattern order (`order[i]` is the pattern of column i).
std::vector<int> PatternColumns(const std::vector<size_t>& order);

// Row accessor: evaluates resolved refs against one joined row. Cheap to
// construct (three references), so callers make one per row.
class RowAccessor {
 public:
  RowAccessor(std::span<const EventView> row, const std::vector<int>& pattern_cols,
              const EntityCatalog& catalog)
      : row_(row), pattern_cols_(pattern_cols), catalog_(catalog) {}

  std::optional<Value> Get(const ResolvedRef& ref) const;
  std::span<const EventView> row() const { return row_; }

 private:
  std::span<const EventView> row_;
  const std::vector<int>& pattern_cols_;
  const EntityCatalog& catalog_;
};

// The alias environment of one query's return items and having clause.
// Every name those expressions read (item aliases, group-by names, aggregate
// and moving-average calls by their rendered text, history refs) is resolved
// once, at construction, to a dense slot; evaluation reads slots and never
// renders or hashes a string. A lookup sees the `fixed` value of a slot
// (aggregates, moving averages) before its `computed` one (return items
// evaluated so far, and the group keys of an anomaly group absent from a
// window). Built once per query and cleared per row or (window, group).
class AliasEnv {
 public:
  explicit AliasEnv(const QueryContext& ctx);

  // Slot of `name`; -1 when no expression of the query can read it.
  int SlotOf(const std::string& name) const;

  void Clear();
  void SetFixed(int slot, Value v) { fixed_[slot] = std::move(v); }
  void SetComputed(int slot, Value v) { computed_[slot] = std::move(v); }
  const std::optional<Value>& Computed(int slot) const { return computed_[slot]; }

  // Anomaly history of the current group: per slot, the values of the
  // completed windows (oldest first). Null outside anomaly execution, where
  // history refs evaluate to null.
  void SetHistory(const std::vector<std::vector<double>>* series) { history_ = series; }
  size_t num_slots() const { return fixed_.size(); }

  // Value of an alias-reading node: a kVarRef (its alias, or its surface
  // name when it cannot be read from a row) or a kCall (its rendered text).
  std::optional<Value> Lookup(const Expr& node) const;
  // Value of a kHistRef `alias[k]`: k = 0 is the current window's computed
  // value; a window before the group's history, or an alias with no history,
  // reads 0.
  std::optional<Value> History(const Expr& node) const;

 private:
  int Intern(const std::string& name);
  void Resolve(const Expr& e);

  std::unordered_map<std::string, int> names_;
  std::unordered_map<const Expr*, int> nodes_;
  std::vector<std::optional<Value>> fixed_;
  std::vector<std::optional<Value>> computed_;
  const std::vector<std::vector<double>>* history_ = nullptr;
};

// Evaluates a (resolved) expression. Aggregate/moving-average calls are NOT
// handled here — the projector computes those and exposes them via `env` as
// aliases. Returns nullopt on unresolved references.
std::optional<Value> EvalScalarExpr(const Expr& e, const RowAccessor* row, const AliasEnv* env);

// Boolean coercion: numbers != 0, non-empty strings are true.
bool ValueTruthy(const Value& v);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_EVAL_H_
