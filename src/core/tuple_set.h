// Tuple sets: the intermediate result representation of Algorithm 1.
//
// A TupleSet binds a subset of the query's event patterns to concrete matched
// events; each row is one joint assignment, and the rows are stored flat,
// row after row, behind row(i) spans. The executor's map M of Algorithm 1
// points each pattern at the set that binds it; a join of two sets on every
// relationship between them replaces both (replaceVals in the paper's
// pseudocode).
#ifndef AIQL_SRC_CORE_TUPLE_SET_H_
#define AIQL_SRC_CORE_TUPLE_SET_H_

#include <atomic>
#include <span>
#include <string>
#include <utility>
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
  // A set binding `patterns` (column i holds pattern patterns[i]) whose rows
  // are the consecutive patterns.size()-wide runs of `cells`.
  TupleSet(std::vector<size_t> patterns, std::vector<EventView> cells)
      : patterns_(std::move(patterns)), cells_(std::move(cells)) {}

  // The one-column set of a fetched pattern's matches.
  static TupleSet FromMatches(size_t pattern, std::vector<EventView> matches) {
    return TupleSet({pattern}, std::move(matches));
  }

  const std::vector<size_t>& patterns() const { return patterns_; }
  size_t num_rows() const { return patterns_.empty() ? 0 : cells_.size() / patterns_.size(); }
  std::span<const EventView> row(size_t i) const {
    return {cells_.data() + i * patterns_.size(), patterns_.size()};
  }

  // Column of `pattern` in each row; -1 if the pattern is not bound.
  int ColumnOf(size_t pattern) const;
  bool Binds(size_t pattern) const { return ColumnOf(pattern) >= 0; }

 private:
  std::vector<size_t> patterns_;
  std::vector<EventView> cells_;
};

class TupleJoiner {
 public:
  // `nested_loop` joins by nested loop whatever the relationships, paying
  // for every comparison: the big-join baseline (PostgreSQL-scheduling
  // model), i.e. the misplanned monolithic join the paper measures when a
  // semantics-agnostic planner faces many mixed join constraints (paper
  // §5.1, §6.2.2).
  TupleJoiner(const EntityCatalog& catalog, BudgetGuard* budget, bool nested_loop)
      : catalog_(catalog), budget_(budget), nested_loop_(nested_loop) {}

  // Joins two disjoint tuple sets under `rels` (every rel must connect a
  // pattern of `left` with one of `right`). An empty `rels` is a cross join.
  // The join is driven by rels[0]: a hash join for an equi-join, a
  // binary search over the right rows' start times for a temporal
  // relationship, a nested loop otherwise; the remaining relationships are
  // checked on each row pair. Rows come out in left-row order, and per left
  // row in right-row order (start-time order for a temporal driver), so
  // joining on rels[0] and then dropping the rows that fail the rest gives
  // the same rows in the same order. Each emitted row costs one work unit
  // (a nested loop pays per comparison instead).
  Result<TupleSet> Join(const TupleSet& left, const TupleSet& right,
                        const std::vector<Relationship>& rels);

 private:
  const EntityCatalog& catalog_;
  BudgetGuard* budget_;
  bool nested_loop_;
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_TUPLE_SET_H_
