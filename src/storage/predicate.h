// Attribute predicates and boolean predicate expressions.
//
// AIQL attribute constraints (<attr_cstr> in Grammar 1) compile to a tree of
// atomic comparisons combined with &&, ||, and !. The same representation is
// used for entity constraints (evaluated over the entity catalog to produce
// candidate sets) and event-level constraints (evaluated per event).
#ifndef AIQL_SRC_STORAGE_PREDICATE_H_
#define AIQL_SRC_STORAGE_PREDICATE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/storage/attributes.h"
#include "src/util/value.h"

namespace aiql {

enum class CmpOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kLike,
  kNotLike,
  kIn,
  kNotIn,
};

const char* CmpOpName(CmpOp op);

// One atomic comparison: attr <op> value (or value list for IN).
struct AttrPredicate {
  // The attribute as written in the query; empty means the owner's default
  // attribute. Only the inference pass reads it, to resolve `attr`, the id
  // every evaluator reads.
  std::string name;
  Attr attr = Attr::kEventId;
  CmpOp op = CmpOp::kEq;
  std::vector<Value> values;  // 1 element except for kIn / kNotIn
  // Optional hash set mirroring `values`, for large IN lists (pushed-down
  // candidate sets from the relationship-based scheduler).
  std::shared_ptr<std::unordered_set<Value, ValueHash>> value_set;

  // Builds an IN predicate, materializing the hash set when beneficial.
  static AttrPredicate In(Attr attr, std::vector<Value> values);

  // AIQL's '=' / '!=' against one string holding LIKE wildcards means LIKE /
  // NOT LIKE (paper queries write p1["%cmd.exe"] and dstip = "XXX.129" with
  // the same '=' surface syntax). Applied to literals at parse time and to
  // $parameter values at bind time.
  void PromoteWildcardEquality();

  bool Eval(const Value& actual) const;
};

// Source of attribute values during evaluation.
using AttrSource = std::function<std::optional<Value>(Attr)>;

// Boolean combination tree over atomic predicates.
class PredExpr {
 public:
  enum class Kind : uint8_t { kTrue, kLeaf, kAnd, kOr, kNot };

  PredExpr() : kind_(Kind::kTrue) {}

  static PredExpr True() { return PredExpr(); }
  static PredExpr Leaf(AttrPredicate pred);
  static PredExpr And(PredExpr lhs, PredExpr rhs);
  static PredExpr Or(PredExpr lhs, PredExpr rhs);
  static PredExpr Not(PredExpr inner);

  Kind kind() const { return kind_; }
  bool is_true() const { return kind_ == Kind::kTrue; }
  const AttrPredicate& leaf() const { return leaf_; }
  const std::vector<PredExpr>& children() const { return children_; }

  // Calls fn(leaf) on every atomic predicate, left to right. The non-const
  // form lets the language layer rewrite leaves (default attributes, bound
  // parameter values).
  template <typename Fn>
  void ForEachLeaf(Fn&& fn) const {
    ForEachLeafOf(*this, fn);
  }
  template <typename Fn>
  void ForEachLeaf(Fn&& fn) {
    ForEachLeafOf(*this, fn);
  }

  bool Eval(const AttrSource& source) const;

  // Number of atomic predicates (the pruning-score input of Algorithm 1).
  size_t CountConstraints() const;

  // If the whole expression is a conjunction containing an equality (or
  // non-wildcard LIKE) on `attr`, returns those values — usable for index
  // lookup. Disjunctions at the top level return values only when every
  // branch constrains `attr` by equality.
  std::vector<Value> EqualityValuesFor(Attr attr) const;

 private:
  template <typename Self, typename Fn>
  static void ForEachLeafOf(Self& self, Fn& fn) {
    if (self.kind_ == Kind::kLeaf) {
      fn(self.leaf_);
      return;
    }
    for (auto& child : self.children_) {
      ForEachLeafOf(child, fn);
    }
  }

  Kind kind_ = Kind::kTrue;
  AttrPredicate leaf_;
  std::vector<PredExpr> children_;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_PREDICATE_H_
