#include "src/core/tuple_set.h"

#include <algorithm>
#include <unordered_map>

namespace aiql {

Status BudgetGuard::Charge(size_t produced) {
  rows_ += produced;
  if (max_rows_ != 0 && rows_ > max_rows_) {
    return Status::Error("execution budget exceeded: intermediate results over " +
                         std::to_string(max_rows_) + " rows");
  }
  since_time_check_ += produced;
  if (since_time_check_ >= 4096) {
    since_time_check_ = 0;
    if (cancelled_ != nullptr && cancelled_->load(std::memory_order_relaxed)) {
      return Status::Error("execution cancelled");
    }
    if (deadline_.Expired()) {
      return Status::Error("execution budget exceeded: time limit reached");
    }
  }
  return Status::Ok();
}

int TupleSet::ColumnOf(size_t pattern) const {
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (patterns_[i] == pattern) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

namespace {

// One relationship of a join with its columns resolved once: `lcol` is the
// column of its endpoint bound by the left set, `rcol` that of the other
// endpoint in the right set; `flipped` when the left set binds the
// relationship's right pattern.
struct BoundRel {
  const Relationship* rel;
  int lcol;
  int rcol;
  bool flipped;

  bool Check(std::span<const EventView> lrow, std::span<const EventView> rrow,
             const EntityCatalog& catalog) const {
    return flipped ? rel->Check(rrow[rcol], lrow[lcol], catalog)
                   : rel->Check(lrow[lcol], rrow[rcol], catalog);
  }
};

}  // namespace

Result<TupleSet> TupleJoiner::Join(const TupleSet& left, const TupleSet& right,
                                   const std::vector<Relationship>& rels) {
  std::vector<BoundRel> bound;
  bound.reserve(rels.size());
  for (const Relationship& rel : rels) {
    const bool flipped = !left.Binds(rel.left());
    bound.push_back({&rel, left.ColumnOf(flipped ? rel.right() : rel.left()),
                     right.ColumnOf(flipped ? rel.left() : rel.right()), flipped});
  }
  std::vector<size_t> patterns = left.patterns();
  patterns.insert(patterns.end(), right.patterns().begin(), right.patterns().end());
  std::vector<EventView> cells;
  // Appends the pair (lrow, right row j) if it passes bound[first..].
  auto emit = [&](std::span<const EventView> lrow, size_t j, size_t first) {
    std::span<const EventView> rrow = right.row(j);
    for (size_t k = first; k < bound.size(); ++k) {
      if (!bound[k].Check(lrow, rrow, catalog_)) {
        return false;
      }
    }
    cells.insert(cells.end(), lrow.begin(), lrow.end());
    cells.insert(cells.end(), rrow.begin(), rrow.end());
    return true;
  };

  const Relationship* driver = rels.empty() ? nullptr : &rels[0];
  const bool hash = driver != nullptr && driver->kind == Relationship::Kind::kAttr &&
                    driver->attr.IsEquiJoin();
  const bool temporal = driver != nullptr && driver->kind == Relationship::Kind::kTemp;

  if (nested_loop_ || !(hash || temporal)) {
    for (size_t i = 0; i < left.num_rows(); ++i) {
      for (size_t j = 0; j < right.num_rows(); ++j) {
        if (Status s = budget_->Charge(1); !s.ok()) {
          return Result<TupleSet>(s);
        }
        emit(left.row(i), j, 0);
      }
    }
  } else if (hash) {
    const BoundRel& d = bound[0];
    const AttrRelation& rel = driver->attr;
    const RefSide lside = d.flipped ? rel.right_side : rel.left_side;
    const Attr lattr = d.flipped ? rel.right_attr : rel.left_attr;
    const RefSide rside = d.flipped ? rel.left_side : rel.right_side;
    const Attr rattr = d.flipped ? rel.left_attr : rel.right_attr;
    // Build on the right side, probe in left-row order.
    std::vector<Value> keys;
    keys.reserve(right.num_rows());
    std::unordered_map<size_t, std::vector<size_t>> buckets;
    buckets.reserve(right.num_rows() * 2);
    for (size_t j = 0; j < right.num_rows(); ++j) {
      keys.push_back(EndpointValue(right.row(j)[d.rcol], rside, rattr, catalog_));
      buckets[keys.back().Hash()].push_back(j);
    }
    for (size_t i = 0; i < left.num_rows(); ++i) {
      std::span<const EventView> lrow = left.row(i);
      const Value lv = EndpointValue(lrow[d.lcol], lside, lattr, catalog_);
      auto it = buckets.find(lv.Hash());
      if (it == buckets.end()) {
        continue;
      }
      for (size_t j : it->second) {
        if (lv == keys[j] && emit(lrow, j, 1)) {
          if (Status s = budget_->Charge(1); !s.ok()) {
            return Result<TupleSet>(s);
          }
        }
      }
    }
  } else {
    const BoundRel& d = bound[0];
    // Sort right rows by the joined pattern's start time; per left row,
    // binary search the admissible window, then check rels[0] exactly
    // (a `within` lower bound, for one).
    std::vector<size_t> order(right.num_rows());
    for (size_t j = 0; j < order.size(); ++j) {
      order[j] = j;
    }
    auto time_of = [&](size_t j) { return right.row(j)[d.rcol].start_time(); };
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return time_of(a) < time_of(b); });
    std::vector<TimestampMs> times(order.size());
    for (size_t k = 0; k < order.size(); ++k) {
      times[k] = time_of(order[k]);
    }
    for (size_t i = 0; i < left.num_rows(); ++i) {
      std::span<const EventView> lrow = left.row(i);
      const TimestampMs lt = lrow[d.lcol].start_time();
      const TimeRange window = TempRelBounds(driver->temp, !d.flipped, lt, lt);
      auto first = std::lower_bound(times.begin(), times.end(), window.begin);
      auto last = std::lower_bound(times.begin(), times.end(), window.end);
      for (auto it = first; it != last; ++it) {
        if (emit(lrow, order[static_cast<size_t>(it - times.begin())], 0)) {
          if (Status s = budget_->Charge(1); !s.ok()) {
            return Result<TupleSet>(s);
          }
        }
      }
    }
  }
  return TupleSet(std::move(patterns), std::move(cells));
}

}  // namespace aiql
