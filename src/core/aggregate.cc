#include "src/core/aggregate.h"

#include <algorithm>
#include <unordered_set>

namespace aiql {

ValueIds::ValueIds(const Expr& expr, const std::vector<int>& pattern_cols,
                   const EntityCatalog& catalog)
    : expr_(&expr), pattern_cols_(&pattern_cols), catalog_(&catalog) {
  if (expr.kind == Expr::Kind::kVarRef && expr.resolved.has_value() &&
      (expr.resolved->side == RefSide::kSubject || expr.resolved->side == RefSide::kObject) &&
      expr.resolved->pattern < pattern_cols.size()) {
    col_ = pattern_cols[expr.resolved->pattern];
  }
}

uint32_t ValueIds::Evaluate(std::span<const EventView> row) {
  RowAccessor acc(row, *pattern_cols_, *catalog_);
  std::optional<Value> v = EvalScalarExpr(*expr_, &acc, nullptr);
  if (!v.has_value()) {
    return kNull;
  }
  auto [it, added] = ids_.try_emplace(*v, static_cast<uint32_t>(values_.size()));
  if (added) {
    values_.push_back(std::move(*v));
  }
  return it->second;
}

uint32_t ValueIds::IdOf(std::span<const EventView> row) {
  if (col_ < 0 || static_cast<size_t>(col_) >= row.size() || !row[col_].valid()) {
    return Evaluate(row);
  }
  // An entity attribute is a function of the entity alone.
  const EventView& e = row[col_];
  const bool subject = expr_->resolved->side == RefSide::kSubject;
  const EntityType type = subject ? EntityType::kProcess : e.object_type();
  const uint32_t idx = subject ? e.subject_idx() : e.object_idx();
  std::vector<uint32_t>& memo = memo_[static_cast<size_t>(type)];
  if (memo.empty()) {
    memo.assign(catalog_->CountOf(type), kUnseen);
  }
  if (idx >= memo.size()) {
    return Evaluate(row);
  }
  if (memo[idx] == kUnseen) {
    memo[idx] = Evaluate(row);
  }
  return memo[idx];
}

GroupAggregates::Fold::Fold(const Expr& call, const std::vector<int>& pattern_cols,
                            const EntityCatalog& catalog)
    : arg_(call.children.empty() ? nullptr : &call.children[0]) {
  const std::string& f = call.func;
  if (f == "count") {
    func_ = arg_ == nullptr ? Func::kCountRows : Func::kCount;
  } else if (f == "count_distinct") {
    func_ = Func::kCountDistinct;
    if (arg_ != nullptr) {
      values_.emplace(*arg_, pattern_cols, catalog);
    }
  } else if (f == "sum") {
    func_ = Func::kSum;
  } else if (f == "avg") {
    func_ = Func::kAvg;
  } else if (f == "min") {
    func_ = Func::kMin;
  } else if (f == "max") {
    func_ = Func::kMax;
  }
}

void GroupAggregates::Fold::Reset() {
  count_ = 0;
  sum_ = min_ = max_ = 0;
  if (++generation_ == 0) {  // wrapped: forget every rendering's last count
    std::fill(counted_in_.begin(), counted_in_.end(), 0);
    generation_ = 1;
  }
}

void GroupAggregates::Fold::Add(const RowAccessor& row) {
  if (func_ == Func::kCountRows) {
    ++count_;
    return;
  }
  if (arg_ == nullptr) {
    return;
  }
  if (func_ == Func::kCountDistinct) {
    const uint32_t id = values_->IdOf(row.row());
    if (id == ValueIds::kNull) {
      return;
    }
    if (id >= rendering_of_.size()) {
      rendering_of_.resize(id + 1, UINT32_MAX);
    }
    if (rendering_of_[id] == UINT32_MAX) {
      auto [it, added] = renderings_.try_emplace(values_->value(id).ToString(),
                                                 static_cast<uint32_t>(renderings_.size()));
      rendering_of_[id] = it->second;
      counted_in_.resize(renderings_.size(), 0);
    }
    uint32_t& counted = counted_in_[rendering_of_[id]];
    if (counted != generation_) {
      counted = generation_;
      ++count_;
    }
    return;
  }
  std::optional<Value> v = EvalScalarExpr(*arg_, &row, nullptr);
  if (!v.has_value()) {
    return;
  }
  if (func_ == Func::kCount) {
    ++count_;
    return;
  }
  double x = v->as_double();
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

Value GroupAggregates::Fold::Result() const {
  switch (func_) {
    case Func::kCountRows:
    case Func::kCount:
    case Func::kCountDistinct:
      return Value(count_);
    case Func::kSum:
      return Value(sum_);
    case Func::kAvg:
      return Value(count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_));
    case Func::kMin:
      return Value(min_);
    case Func::kMax:
      return Value(max_);
    case Func::kNone:
      break;
  }
  return Value();
}

namespace {

void CollectAggsFromExpr(const Expr& e, std::vector<const Expr*>* out) {
  if (e.IsAggregateCall()) {
    // Aggregates do not nest; record and stop descending.
    out->push_back(&e);
    return;
  }
  for (const Expr& c : e.children) {
    CollectAggsFromExpr(c, out);
  }
}

}  // namespace

std::vector<const Expr*> CollectAggregateCalls(const QueryContext& ctx) {
  std::vector<const Expr*> calls;
  for (const OutputItem& item : ctx.items) {
    CollectAggsFromExpr(item.expr, &calls);
  }
  if (ctx.having.has_value()) {
    CollectAggsFromExpr(*ctx.having, &calls);
  }
  // Dedupe by rendered name.
  std::vector<const Expr*> out;
  std::unordered_set<std::string> seen;
  for (const Expr* c : calls) {
    if (seen.insert(c->ToString()).second) {
      out.push_back(c);
    }
  }
  return out;
}

GroupAggregates::GroupAggregates(const QueryContext& ctx, const AliasEnv& env,
                                 const std::vector<int>& pattern_cols,
                                 const EntityCatalog& catalog) {
  for (const Expr* call : CollectAggregateCalls(ctx)) {
    folds_.emplace_back(*call, pattern_cols, catalog);
    slots_.push_back(env.SlotOf(call->ToString()));
  }
}

void GroupAggregates::Reset() {
  for (Fold& f : folds_) {
    f.Reset();
  }
}

void GroupAggregates::Add(const RowAccessor& row) {
  for (Fold& f : folds_) {
    f.Add(row);
  }
}

void GroupAggregates::Publish(AliasEnv* env) const {
  for (size_t i = 0; i < folds_.size(); ++i) {
    env->SetFixed(slots_[i], folds_[i].Result());
  }
}

TupleIds::TupleIds(size_t width) : width_(width), set_(16, Hash{this}, Eq{this}) {}

size_t TupleIds::Hash::operator()(uint32_t id) const {
  const uint32_t* t = self->arena_.data() + id * self->width_;
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < self->width_; ++i) {
    h = (h ^ t[i]) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return static_cast<size_t>(h);
}

bool TupleIds::Eq::operator()(uint32_t a, uint32_t b) const {
  const uint32_t* base = self->arena_.data();
  return std::equal(base + a * self->width_, base + (a + 1) * self->width_,
                    base + b * self->width_);
}

uint32_t TupleIds::Intern(std::span<const uint32_t> tuple, bool* added) {
  // Stage the tuple as the next id; drop it again when it is already known.
  const auto id = static_cast<uint32_t>(set_.size());
  arena_.insert(arena_.end(), tuple.begin(), tuple.end());
  auto [it, inserted] = set_.insert(id);
  if (!inserted) {
    arena_.resize(id * width_);
  }
  *added = inserted;
  return *it;
}

GroupIndex::GroupIndex(const std::vector<OutputItem>& keys, const std::vector<int>& pattern_cols,
                       const EntityCatalog& catalog)
    : tuple_(keys.size()), tuples_(keys.size()) {
  exprs_.reserve(keys.size());
  for (const OutputItem& k : keys) {
    exprs_.emplace_back(k.expr, pattern_cols, catalog);
  }
}

uint32_t GroupIndex::GroupOf(std::span<const EventView> row) {
  for (size_t i = 0; i < exprs_.size(); ++i) {
    tuple_[i] = exprs_[i].IdOf(row);
  }
  bool added = false;
  uint32_t t = tuples_.Intern(tuple_, &added);
  if (!added) {
    return group_of_tuple_[t];
  }
  std::string ks;
  for (size_t i = 0; i < exprs_.size(); ++i) {
    ks += exprs_[i].value(tuple_[i]).ToString();
    ks.push_back('\x1f');
  }
  auto [it, new_group] = group_of_string_.try_emplace(ks, static_cast<uint32_t>(keys_.size()));
  if (new_group) {
    std::vector<Value> key;
    key.reserve(exprs_.size());
    for (size_t i = 0; i < exprs_.size(); ++i) {
      key.push_back(exprs_[i].value(tuple_[i]));
    }
    keys_.push_back(std::move(key));
    key_strings_.push_back(std::move(ks));
  }
  group_of_tuple_.push_back(it->second);
  return it->second;
}

}  // namespace aiql
