// Compile-once aggregation: the building blocks the projector and the anomaly
// executor share. Each is built once per query from the resolved
// QueryContext and then fed rows; none of them renders or hashes a name per
// row.
//
// - ValueIds interns the values one expression takes to dense ids, memoised
//   per source entity for plain subject/object references.
// - GroupAggregates folds a query's aggregate calls over a group's rows.
// - TupleIds interns fixed-width tuples of such ids (DISTINCT rows, group
//   keys).
// - GroupIndex maps rows to dense group ids by their group-by key.
#ifndef AIQL_SRC_CORE_AGGREGATE_H_
#define AIQL_SRC_CORE_AGGREGATE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/eval.h"

namespace aiql {

// Dense ids for the values one expression takes over a query's rows, in
// first-seen order. Equal ids mean identical values (same type and value);
// a null (an expression that cannot be evaluated on the row) has its own
// id, kNull, whose value() is the default Value a projection shows for it.
// A plain subject or object reference is memoised per source entity, so each
// entity's value is read and hashed once per query; any other expression is
// evaluated per row (without an alias environment, as group keys, aggregate
// arguments and row-wise return items are).
class ValueIds {
 public:
  static constexpr uint32_t kNull = UINT32_MAX - 1;

  ValueIds(const Expr& expr, const std::vector<int>& pattern_cols, const EntityCatalog& catalog);

  uint32_t IdOf(std::span<const EventView> row);
  const Value& value(uint32_t id) const { return id == kNull ? null_ : values_[id]; }

 private:
  static constexpr uint32_t kUnseen = UINT32_MAX;

  // Value equality that keeps types apart: 3 and 3.0 get different ids.
  struct SameValue {
    bool operator()(const Value& a, const Value& b) const {
      return a.is_int() == b.is_int() && a.is_double() == b.is_double() && a == b;
    }
  };

  uint32_t Evaluate(std::span<const EventView> row);

  const Expr* expr_;
  const std::vector<int>* pattern_cols_;
  const EntityCatalog* catalog_;
  int col_ = -1;  // row column of a memoised entity reference; -1 = evaluate
  std::array<std::vector<uint32_t>, 3> memo_;  // by EntityType: index -> id
  std::vector<Value> values_;
  std::unordered_map<Value, uint32_t, ValueHash, SameValue> ids_;
  Value null_;
};

// Collects the distinct aggregate calls appearing in the query's return
// items and having clause, keyed by their rendered names.
std::vector<const Expr*> CollectAggregateCalls(const QueryContext& ctx);

// The aggregate calls of one query, folded over the rows of a group and
// published into the query's AliasEnv under their rendered names. count()
// counts rows, count(x) the rows where x is non-null, count_distinct(x) the
// distinct renderings of non-null x; sum/avg/min/max read x as a double and
// are 0 over no values. Rows are added in the group's row order, so sums are
// reproducible. count_distinct renders each distinct value of x once per
// query, not once per row.
class GroupAggregates {
 public:
  GroupAggregates(const QueryContext& ctx, const AliasEnv& env,
                  const std::vector<int>& pattern_cols, const EntityCatalog& catalog);

  // Starts a new group.
  void Reset();
  void Add(const RowAccessor& row);
  // Sets each call's result as the fixed value of its slot.
  void Publish(AliasEnv* env) const;

 private:
  class Fold {
   public:
    Fold(const Expr& call, const std::vector<int>& pattern_cols, const EntityCatalog& catalog);

    void Reset();
    void Add(const RowAccessor& row);
    Value Result() const;

   private:
    enum class Func : uint8_t { kCountRows, kCount, kCountDistinct, kSum, kAvg, kMin, kMax, kNone };

    Func func_ = Func::kNone;
    const Expr* arg_ = nullptr;  // null when the call has no argument
    int64_t count_ = 0;          // rows (count()), non-null values, or distinct renderings
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;

    // count_distinct: value id -> rendering id, and the reset generation in
    // which each rendering was last counted.
    std::optional<ValueIds> values_;
    std::vector<uint32_t> rendering_of_;
    std::unordered_map<std::string, uint32_t> renderings_;
    std::vector<uint32_t> counted_in_;
    uint32_t generation_ = 1;
  };

  std::vector<Fold> folds_;
  std::vector<int> slots_;  // the AliasEnv slot of each call
};

// Dense ids for fixed-width tuples of uint32 values, in first-seen order.
// Tuples live in one flat arena; the hash set holds ids only.
class TupleIds {
 public:
  explicit TupleIds(size_t width);
  TupleIds(const TupleIds&) = delete;
  TupleIds& operator=(const TupleIds&) = delete;

  // Id of `tuple` (`width` values); `*added` tells whether it was new.
  uint32_t Intern(std::span<const uint32_t> tuple, bool* added);

 private:
  struct Hash {
    const TupleIds* self;
    size_t operator()(uint32_t id) const;
  };
  struct Eq {
    const TupleIds* self;
    bool operator()(uint32_t a, uint32_t b) const;
  };

  size_t width_;
  std::vector<uint32_t> arena_;
  std::unordered_set<uint32_t, Hash, Eq> set_;
};

// Dense group ids for rows by their group-by key, in first-seen order. Rows
// whose keys render equal share a group: the key string is each value's
// rendering followed by \x1f, and groups order by it. A group's key values
// are those of its first row. Key values are interned per source entity
// (ValueIds), so the key string is rendered once per distinct key tuple, not
// once per row. With no key expressions every row is in one group.
class GroupIndex {
 public:
  GroupIndex(const std::vector<OutputItem>& keys, const std::vector<int>& pattern_cols,
             const EntityCatalog& catalog);

  uint32_t GroupOf(std::span<const EventView> row);

  const std::vector<Value>& key(uint32_t group) const { return keys_[group]; }
  // The engine's group order: ascending key string.
  bool KeyLess(uint32_t a, uint32_t b) const { return key_strings_[a] < key_strings_[b]; }

 private:
  std::vector<ValueIds> exprs_;
  std::vector<uint32_t> tuple_;           // scratch: the current row's value ids
  TupleIds tuples_;
  std::vector<uint32_t> group_of_tuple_;  // tuple id -> group id
  std::unordered_map<std::string, uint32_t> group_of_string_;
  std::vector<std::string> key_strings_;
  std::vector<std::vector<Value>> keys_;
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_AGGREGATE_H_
