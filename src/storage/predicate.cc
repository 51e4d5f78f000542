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

AttrPredicate AttrPredicate::In(std::string attr, std::vector<Value> values) {
  AttrPredicate p;
  p.attr = std::move(attr);
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

std::string AttrPredicate::ToString() const {
  std::string out = attr;
  out += ' ';
  out += CmpOpName(op);
  if (op == CmpOp::kIn || op == CmpOp::kNotIn) {
    out += " (";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += values[i].is_string() ? "\"" + values[i].ToString() + "\"" : values[i].ToString();
    }
    out += ")";
  } else if (!values.empty()) {
    out += ' ';
    out += values[0].is_string() ? "\"" + values[0].ToString() + "\"" : values[0].ToString();
  }
  return out;
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

std::vector<Value> PredExpr::EqualityValuesFor(std::string_view attr) const {
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

void PredExpr::CollectAttrs(std::vector<std::string>* out) const {
  ForEachLeaf([&](const AttrPredicate& leaf) { out->push_back(leaf.attr); });
}

std::string PredExpr::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kLeaf:
      return leaf_.ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " && " : " || ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) {
          out += sep;
        }
        out += children_[i].ToString();
      }
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "!(" + children_[0].ToString() + ")";
  }
  return "?";
}

}  // namespace aiql
