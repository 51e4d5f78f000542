// Query parameters ($name) for the prepare/bind/execute lifecycle.
//
// The parser records $name occurrences as placeholders (ParamRef values in
// predicates, Expr::Kind::kParam in expressions, parameterized endpoints in
// time windows). CollectParams enumerates them with inferred types;
// BindParams substitutes a ParamSet into a parsed query, after which the
// inference pass resolves it exactly like a literal query. Binding never
// mutates the prepared AST — PreparedQuery::Bind works on a copy, so one
// prepared query serves many concurrent bindings.
#ifndef AIQL_SRC_LANG_PARAMS_H_
#define AIQL_SRC_LANG_PARAMS_H_

#include <map>
#include <string>
#include <vector>

#include "src/lang/ast.h"

namespace aiql {

// How a parameter is used; drives bind-time type checking.
enum class ParamType : uint8_t {
  kValue,      // attribute-constraint / expression value (string or number)
  kTimestamp,  // time-window endpoint: needs a parseable datetime string
};

// One declared parameter of a prepared query.
struct ParamInfo {
  std::string name;
  ParamType type = ParamType::kValue;
  int line = 0;  // first occurrence in the query source
};

// The values supplied for a Bind call. Typed Set overloads cover the value
// families AIQL constraints use; names are the $names without the '$'.
class ParamSet {
 public:
  ParamSet() = default;

  ParamSet& Set(std::string name, Value value) {
    values_[std::move(name)] = std::move(value);
    return *this;
  }
  ParamSet& Set(std::string name, int64_t v) { return Set(std::move(name), Value(v)); }
  ParamSet& Set(std::string name, int v) { return Set(std::move(name), Value(v)); }
  ParamSet& Set(std::string name, double v) { return Set(std::move(name), Value(v)); }
  ParamSet& Set(std::string name, std::string v) {
    return Set(std::move(name), Value(std::move(v)));
  }
  ParamSet& Set(std::string name, const char* v) { return Set(std::move(name), Value(v)); }

  // The bound value, or nullptr when the name is absent.
  const Value* Find(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, Value>& values() const { return values_; }
  bool empty() const { return values_.empty(); }

 private:
  std::map<std::string, Value> values_;
};

// Enumerates the distinct parameters of a parsed query in first-occurrence
// order. A name used both as a time-window endpoint and a constraint value is
// reported once with the stricter kTimestamp type.
std::vector<ParamInfo> CollectParams(const ast::Query& query);

// Substitutes `params` into `query` in place. Produces position-carrying
// diagnostics for the three failure modes: a declared parameter with no bound
// value, a bound name the query does not declare, and a timestamp parameter
// bound to a value that does not parse as a datetime string. On failure the
// query may be left partly bound, so callers bind a copy.
Status BindParams(ast::Query* query, const ParamSet& params);

// Resolves a (possibly parameterized) time window to a concrete range. An
// unbound parameter yields the "unbound parameter" diagnostic — what a caller
// sees when executing parameterized text without Prepare/Bind.
Result<TimeRange> ResolveTimeWindow(const ast::TimeWindowSpec& spec);

}  // namespace aiql

#endif  // AIQL_SRC_LANG_PARAMS_H_
