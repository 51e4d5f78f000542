#include "src/core/eval.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace aiql {

Value EndpointValue(const EventView& e, RefSide side, Attr attr, const EntityCatalog& catalog) {
  std::optional<Value> v;
  switch (side) {
    case RefSide::kSubject:
      v = catalog.AttrOf(EntityType::kProcess, e.subject_idx(), attr);
      break;
    case RefSide::kObject:
      v = catalog.AttrOf(e.object_type(), e.object_idx(), attr);
      break;
    case RefSide::kEvent:
      v = EventAttr(e, catalog, attr);
      break;
    case RefSide::kAlias:
      break;
  }
  return v.value_or(Value());
}

bool CheckAttrRel(const AttrRelation& rel, const EventView& le, const EventView& re,
                  const EntityCatalog& catalog) {
  Value lv = EndpointValue(le, rel.left_side, rel.left_attr, catalog);
  Value rv = EndpointValue(re, rel.right_side, rel.right_attr, catalog);
  switch (rel.op) {
    case CmpOp::kEq:
      return lv == rv;
    case CmpOp::kNe:
      return lv != rv;
    case CmpOp::kLt:
      return lv < rv;
    case CmpOp::kLe:
      return lv <= rv;
    case CmpOp::kGt:
      return lv > rv;
    case CmpOp::kGe:
      return lv >= rv;
    default:
      return false;  // LIKE / IN do not appear in relationships
  }
}

bool CheckTempRel(const TempRelation& rel, const EventView& le, const EventView& re) {
  TimestampMs lt = le.start_time();
  TimestampMs rt = re.start_time();
  switch (rel.order) {
    case ast::TempOrder::kBefore: {
      if (lt >= rt) {
        return false;
      }
      DurationMs delta = rt - lt;
      if (rel.lo.has_value() && delta < *rel.lo) {
        return false;
      }
      if (rel.hi.has_value() && delta > *rel.hi) {
        return false;
      }
      return true;
    }
    case ast::TempOrder::kAfter: {
      if (lt <= rt) {
        return false;
      }
      DurationMs delta = lt - rt;
      if (rel.lo.has_value() && delta < *rel.lo) {
        return false;
      }
      if (rel.hi.has_value() && delta > *rel.hi) {
        return false;
      }
      return true;
    }
    case ast::TempOrder::kWithin: {
      DurationMs delta = lt >= rt ? lt - rt : rt - lt;
      if (rel.lo.has_value() && delta < *rel.lo) {
        return false;
      }
      return !rel.hi.has_value() || delta <= *rel.hi;
    }
  }
  return false;
}

TimeRange TempRelBounds(const TempRelation& rel, bool known_is_left, TimestampMs tmin,
                        TimestampMs tmax) {
  const DurationMs gap = std::max<DurationMs>(rel.lo.value_or(0), 1);  // strict order
  const bool has_hi = rel.hi.has_value();
  const DurationMs hi = rel.hi.value_or(0);
  ast::TempOrder order = rel.order;
  if (!known_is_left) {
    // The relationship reads "left <order> right" and the known event is
    // the right one: flip the order to read the unknown side against it.
    if (order == ast::TempOrder::kBefore) {
      order = ast::TempOrder::kAfter;
    } else if (order == ast::TempOrder::kAfter) {
      order = ast::TempOrder::kBefore;
    }
  }
  switch (order) {
    case ast::TempOrder::kBefore:  // unknown strictly later than known
      return {tmin + gap, has_hi ? tmax + hi + 1 : INT64_MAX};
    case ast::TempOrder::kAfter:  // unknown strictly earlier than known
      return {has_hi ? tmin - hi : INT64_MIN, tmax - gap + 1};
    case ast::TempOrder::kWithin:
      return {has_hi ? tmin - hi : INT64_MIN, has_hi ? tmax + hi + 1 : INT64_MAX};
  }
  return {};
}

std::vector<Relationship> InterPatternRelationships(const QueryContext& ctx) {
  std::vector<Relationship> out;
  for (const AttrRelation& r : ctx.attr_rels) {
    if (r.IsIntraPattern()) {
      continue;
    }
    Relationship rel;
    rel.kind = Relationship::Kind::kAttr;
    rel.attr = r;
    out.push_back(std::move(rel));
  }
  for (const TempRelation& r : ctx.temp_rels) {
    if (r.left_pattern == r.right_pattern) {
      continue;
    }
    Relationship rel;
    rel.kind = Relationship::Kind::kTemp;
    rel.temp = r;
    out.push_back(std::move(rel));
  }
  return out;
}

std::vector<int> PatternColumns(const std::vector<size_t>& order) {
  size_t max_pattern = 0;
  for (size_t p : order) {
    max_pattern = std::max(max_pattern, p);
  }
  std::vector<int> cols(max_pattern + 1, -1);
  for (size_t i = 0; i < order.size(); ++i) {
    cols[order[i]] = static_cast<int>(i);
  }
  return cols;
}

std::optional<Value> RowAccessor::Get(const ResolvedRef& ref) const {
  if (ref.side == RefSide::kAlias) {
    return std::nullopt;
  }
  if (ref.pattern >= pattern_cols_.size()) {
    return std::nullopt;
  }
  int col = pattern_cols_[ref.pattern];
  if (col < 0 || static_cast<size_t>(col) >= row_.size() || !row_[col].valid()) {
    return std::nullopt;
  }
  return EndpointValue(row_[col], ref.side, ref.attr, catalog_);
}

AliasEnv::AliasEnv(const QueryContext& ctx) {
  for (const OutputItem& item : ctx.items) {
    Intern(item.name);
    Resolve(item.expr);
  }
  for (const OutputItem& g : ctx.group_by) {
    Intern(g.name);
  }
  if (ctx.having.has_value()) {
    Resolve(*ctx.having);
  }
  fixed_.resize(names_.size());
  computed_.resize(names_.size());
}

int AliasEnv::Intern(const std::string& name) {
  return names_.emplace(name, static_cast<int>(names_.size())).first->second;
}

void AliasEnv::Resolve(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kVarRef:
    case Expr::Kind::kHistRef:
      nodes_[&e] = Intern(e.name);
      break;
    case Expr::Kind::kCall:
      nodes_[&e] = Intern(e.ToString());
      break;
    default:
      break;
  }
  for (const Expr& c : e.children) {
    Resolve(c);
  }
}

int AliasEnv::SlotOf(const std::string& name) const {
  auto it = names_.find(name);
  return it != names_.end() ? it->second : -1;
}

void AliasEnv::Clear() {
  std::fill(fixed_.begin(), fixed_.end(), std::nullopt);
  std::fill(computed_.begin(), computed_.end(), std::nullopt);
}

std::optional<Value> AliasEnv::Lookup(const Expr& node) const {
  auto it = nodes_.find(&node);
  if (it == nodes_.end()) {
    return std::nullopt;
  }
  return fixed_[it->second].has_value() ? fixed_[it->second] : computed_[it->second];
}

std::optional<Value> AliasEnv::History(const Expr& node) const {
  auto it = nodes_.find(&node);
  if (history_ == nullptr || it == nodes_.end()) {
    return std::nullopt;
  }
  const std::vector<double>& s = (*history_)[it->second];
  if (s.empty()) {
    return Value(0.0);
  }
  if (node.hist_offset == 0) {
    return computed_[it->second];
  }
  int idx = static_cast<int>(s.size()) - node.hist_offset;
  if (idx < 0) {
    return Value(0.0);
  }
  return Value(s[static_cast<size_t>(idx)]);
}

bool ValueTruthy(const Value& v) {
  if (v.is_string()) {
    return !v.as_string().empty();
  }
  return v.as_double() != 0.0;
}

std::optional<Value> EvalScalarExpr(const Expr& e, const RowAccessor* row, const AliasEnv* env) {
  switch (e.kind) {
    case Expr::Kind::kNumber: {
      if (e.number == std::floor(e.number) && std::abs(e.number) < 1e15) {
        return Value(static_cast<int64_t>(e.number));
      }
      return Value(e.number);
    }
    case Expr::Kind::kString:
      return Value(e.str);
    case Expr::Kind::kParam:
      // Unbound parameter: inference rejects these before execution, so this
      // is unreachable in practice; evaluate to null defensively.
      return std::nullopt;
    case Expr::Kind::kVarRef: {
      // A row-bound ref reads the row; an alias ref, or any ref evaluated
      // without a row (an absent anomaly group, an empty global group), reads
      // the alias environment.
      if (e.resolved.has_value() && e.resolved->side != RefSide::kAlias && row != nullptr) {
        return row->Get(*e.resolved);
      }
      return env != nullptr ? env->Lookup(e) : std::nullopt;
    }
    case Expr::Kind::kHistRef:
      return env != nullptr ? env->History(e) : std::nullopt;
    case Expr::Kind::kCall:
      // Aggregates and moving averages are computed by the projector and the
      // anomaly executor and reach expressions through the environment.
      return env != nullptr ? env->Lookup(e) : std::nullopt;
    case Expr::Kind::kUnary: {
      std::optional<Value> v = EvalScalarExpr(e.children[0], row, env);
      if (!v.has_value()) {
        return std::nullopt;
      }
      if (e.uop == '!') {
        return Value(static_cast<int64_t>(!ValueTruthy(*v)));
      }
      if (v->is_int() && v->as_int() != std::numeric_limits<int64_t>::min()) {
        return Value(-v->as_int());
      }
      return Value(-v->as_double());
    }
    case Expr::Kind::kBinary: {
      std::optional<Value> lv = EvalScalarExpr(e.children[0], row, env);
      std::optional<Value> rv = EvalScalarExpr(e.children[1], row, env);
      if (!lv.has_value() || !rv.has_value()) {
        return std::nullopt;
      }
      // Integer operands give an integer unless the result leaves the int64
      // range, where it stays a double (casting it back is undefined).
      auto arith = [&](auto f) -> Value {
        if (lv->is_int() && rv->is_int()) {
          double r = f(static_cast<double>(lv->as_int()), static_cast<double>(rv->as_int()));
          if (r >= -0x1p63 && r < 0x1p63) {
            return Value(static_cast<int64_t>(r));
          }
          return Value(r);
        }
        return Value(f(lv->as_double(), rv->as_double()));
      };
      switch (e.bop) {
        case BinOp::kAdd:
          return arith([](double a, double b) { return a + b; });
        case BinOp::kSub:
          return arith([](double a, double b) { return a - b; });
        case BinOp::kMul:
          return arith([](double a, double b) { return a * b; });
        case BinOp::kDiv: {
          double d = rv->as_double();
          if (d == 0) {
            return Value(0.0);
          }
          return Value(lv->as_double() / d);
        }
        case BinOp::kEq:
          return Value(static_cast<int64_t>(*lv == *rv));
        case BinOp::kNe:
          return Value(static_cast<int64_t>(*lv != *rv));
        case BinOp::kLt:
          return Value(static_cast<int64_t>(*lv < *rv));
        case BinOp::kLe:
          return Value(static_cast<int64_t>(*lv <= *rv));
        case BinOp::kGt:
          return Value(static_cast<int64_t>(*lv > *rv));
        case BinOp::kGe:
          return Value(static_cast<int64_t>(*lv >= *rv));
        case BinOp::kAnd:
          return Value(static_cast<int64_t>(ValueTruthy(*lv) && ValueTruthy(*rv)));
        case BinOp::kOr:
          return Value(static_cast<int64_t>(ValueTruthy(*lv) || ValueTruthy(*rv)));
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace aiql
