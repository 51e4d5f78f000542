#include "src/storage/predicate.h"

#include "src/util/string_utils.h"

namespace aiql {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kLike:
      return "like";
    case CmpOp::kNotLike:
      return "not like";
    case CmpOp::kIn:
      return "in";
    case CmpOp::kNotIn:
      return "not in";
  }
  return "?";
}

AttrPredicate AttrPredicate::In(Attr attr, std::vector<Value> values) {
  AttrPredicate p;
  p.attr = attr;
  p.op = CmpOp::kIn;
  if (values.size() > 16) {
    p.value_set = std::make_shared<std::unordered_set<Value, ValueHash>>(values.begin(),
                                                                         values.end());
  }
  p.values = std::move(values);
  return p;
}

bool AttrPredicate::Eval(const Value& actual) const {
  switch (op) {
    case CmpOp::kEq:
      return !values.empty() && actual == values[0];
    case CmpOp::kNe:
      return !values.empty() && actual != values[0];
    case CmpOp::kLt:
      return !values.empty() && actual < values[0];
    case CmpOp::kLe:
      return !values.empty() && actual <= values[0];
    case CmpOp::kGt:
      return !values.empty() && actual > values[0];
    case CmpOp::kGe:
      return !values.empty() && actual >= values[0];
    case CmpOp::kLike:
      return !values.empty() && LikeMatch(actual.ToString(), values[0].ToString());
    case CmpOp::kNotLike:
      return !values.empty() && !LikeMatch(actual.ToString(), values[0].ToString());
    case CmpOp::kIn: {
      if (value_set != nullptr) {
        return value_set->count(actual) > 0;
      }
      for (const Value& v : values) {
        if (actual == v) {
          return true;
        }
      }
      return false;
    }
    case CmpOp::kNotIn: {
      if (value_set != nullptr) {
        return value_set->count(actual) == 0;
      }
      for (const Value& v : values) {
        if (actual == v) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

void AttrPredicate::PromoteWildcardEquality() {
  if ((op == CmpOp::kEq || op == CmpOp::kNe) && values.size() == 1 && values[0].is_string() &&
      HasLikeWildcards(values[0].as_string())) {
    op = op == CmpOp::kEq ? CmpOp::kLike : CmpOp::kNotLike;
  }
}

PredExpr PredExpr::Leaf(AttrPredicate pred) {
  PredExpr e;
  e.kind_ = Kind::kLeaf;
  e.leaf_ = std::move(pred);
  return e;
}

PredExpr PredExpr::And(PredExpr lhs, PredExpr rhs) {
  if (lhs.is_true()) {
    return rhs;
  }
  if (rhs.is_true()) {
    return lhs;
  }
  PredExpr e;
  e.kind_ = Kind::kAnd;
  // Flatten nested conjunctions for cheaper evaluation and counting.
  if (lhs.kind_ == Kind::kAnd) {
    e.children_ = std::move(lhs.children_);
  } else {
    e.children_.push_back(std::move(lhs));
  }
  if (rhs.kind_ == Kind::kAnd) {
    for (auto& c : rhs.children_) {
      e.children_.push_back(std::move(c));
    }
  } else {
    e.children_.push_back(std::move(rhs));
  }
  return e;
}

PredExpr PredExpr::Or(PredExpr lhs, PredExpr rhs) {
  PredExpr e;
  e.kind_ = Kind::kOr;
  if (lhs.kind_ == Kind::kOr) {
    e.children_ = std::move(lhs.children_);
  } else {
    e.children_.push_back(std::move(lhs));
  }
  if (rhs.kind_ == Kind::kOr) {
    for (auto& c : rhs.children_) {
      e.children_.push_back(std::move(c));
    }
  } else {
    e.children_.push_back(std::move(rhs));
  }
  return e;
}

PredExpr PredExpr::Not(PredExpr inner) {
  PredExpr e;
  e.kind_ = Kind::kNot;
  e.children_.push_back(std::move(inner));
  return e;
}

bool PredExpr::Eval(const AttrSource& source) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kLeaf: {
      std::optional<Value> v = source(leaf_.attr);
      return v.has_value() && leaf_.Eval(*v);
    }
    case Kind::kAnd: {
      for (const PredExpr& c : children_) {
        if (!c.Eval(source)) {
          return false;
        }
      }
      return true;
    }
    case Kind::kOr: {
      for (const PredExpr& c : children_) {
        if (c.Eval(source)) {
          return true;
        }
      }
      return false;
    }
    case Kind::kNot:
      return !children_[0].Eval(source);
  }
  return false;
}

size_t PredExpr::CountConstraints() const {
  size_t n = 0;
  ForEachLeaf([&](const AttrPredicate&) { ++n; });
  return n;
}

std::vector<Value> PredExpr::EqualityValuesFor(Attr attr) const {
  std::vector<Value> out;
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kNot:
      return out;
    case Kind::kLeaf: {
      if (leaf_.attr != attr) {
        return out;
      }
      if (leaf_.op == CmpOp::kEq || leaf_.op == CmpOp::kIn) {
        return leaf_.values;
      }
      if (leaf_.op == CmpOp::kLike && !leaf_.values.empty() &&
          !HasLikeWildcards(leaf_.values[0].ToString())) {
        return leaf_.values;
      }
      return out;
    }
    case Kind::kAnd: {
      // Any conjunct giving values constrains the whole conjunction.
      for (const PredExpr& c : children_) {
        std::vector<Value> vs = c.EqualityValuesFor(attr);
        if (!vs.empty()) {
          return vs;
        }
      }
      return out;
    }
    case Kind::kOr: {
      // Every branch must constrain attr; the union of values applies.
      for (const PredExpr& c : children_) {
        std::vector<Value> vs = c.EqualityValuesFor(attr);
        if (vs.empty()) {
          return {};
        }
        out.insert(out.end(), vs.begin(), vs.end());
      }
      return out;
    }
  }
  return out;
}

}  // namespace aiql
