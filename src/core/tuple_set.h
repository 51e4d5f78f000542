// Tuple sets: the intermediate result representation of Algorithm 1.
//
// A TupleSet binds a subset of the query's event patterns to concrete matched
// events; each row is one joint assignment. The map M of Algorithm 1 maps
// pattern ids to shared tuple sets; joins/filters produce new sets which
// replace the old values (replaceVals in the paper's pseudocode).
#ifndef AIQL_SRC_CORE_TUPLE_SET_H_
#define AIQL_SRC_CORE_TUPLE_SET_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/eval.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

namespace aiql {

// Wall-clock, cardinality, and cancellation guard for query execution. The
// paper's baseline measurements cap queries at one hour; benches use much
// smaller budgets. `deadline` is the run's (shared with its scans);
// `cancelled` (optional, not owned) is the execution session's
// cooperative-cancel flag: joins abort at the next Charge after it is set.
class BudgetGuard {
 public:
  BudgetGuard() = default;
  BudgetGuard(Deadline deadline, size_t max_rows, const std::atomic<bool>* cancelled = nullptr)
      : deadline_(deadline), max_rows_(max_rows), cancelled_(cancelled) {}

  // Registers `produced` new intermediate rows; fails when over budget or
  // after cancellation.
  Status Charge(size_t produced);

  size_t rows_produced() const { return rows_; }

 private:
  Deadline deadline_;
  size_t max_rows_ = 0;  // 0 = unlimited
  size_t rows_ = 0;
  size_t since_time_check_ = 0;
  const std::atomic<bool>* cancelled_ = nullptr;
};

class TupleSet {
 public:
  TupleSet() = default;

  static TupleSet FromMatches(size_t pattern, std::vector<EventView> matches);

  const std::vector<size_t>& patterns() const { return patterns_; }
  const std::vector<std::vector<EventView>>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  // Column of `pattern` in each row; -1 if the pattern is not bound.
  int ColumnOf(size_t pattern) const;
  bool Binds(size_t pattern) const { return ColumnOf(pattern) >= 0; }

  // In-place filter by a relationship whose two patterns are both bound.
  void Filter(const Relationship& rel, const EntityCatalog& catalog);

  std::vector<std::vector<EventView>>* mutable_rows() { return &rows_; }

  friend class TupleJoiner;

 private:
  std::vector<size_t> patterns_;
  std::vector<std::vector<EventView>> rows_;
};

// Join strategy knobs. The AIQL engine uses hash joins for equality
// relationships and time-sorted binary-search joins for temporal ones; the
// big-join baseline (PostgreSQL-scheduling model) uses nested loops
// throughout, modeling the misplanned monolithic join the paper measures
// when a semantics-agnostic planner faces many mixed join constraints
// (paper §5.1: "indeterministic optimizations ... often causes the execution
// to last for minutes or even hours", §6.2.2).
struct JoinStrategy {
  bool hash_equality = true;
  bool temporal_index = true;
};

class TupleJoiner {
 public:
  TupleJoiner(const EntityCatalog& catalog, BudgetGuard* budget, JoinStrategy strategy)
      : catalog_(catalog), budget_(budget), strategy_(strategy) {}

  // Joins two disjoint tuple sets under `rels` (every rel must connect a
  // pattern of `left` with one of `right`). An empty `rels` is a cross join.
  Result<TupleSet> Join(const TupleSet& left, const TupleSet& right,
                        const std::vector<Relationship>& rels);

 private:
  Result<TupleSet> HashJoin(const TupleSet& left, const TupleSet& right,
                            const Relationship& eq_rel, const std::vector<Relationship>& rest);
  Result<TupleSet> TemporalJoin(const TupleSet& left, const TupleSet& right,
                                const Relationship& temp_rel,
                                const std::vector<Relationship>& rest);
  Result<TupleSet> NestedLoopJoin(const TupleSet& left, const TupleSet& right,
                                  const std::vector<Relationship>& rels);

  bool RowPairSatisfies(const std::vector<Relationship>& rels, const TupleSet& left,
                        const TupleSet& right, const std::vector<EventView>& lrow,
                        const std::vector<EventView>& rrow) const;

  const EntityCatalog& catalog_;
  BudgetGuard* budget_;
  JoinStrategy strategy_;
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_TUPLE_SET_H_
