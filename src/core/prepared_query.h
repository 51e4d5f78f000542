// PreparedQuery / BoundQuery: the compile-once / execute-many query API.
//
// Attack investigation is iterative: an analyst re-runs the same query shape
// while tweaking the time window, agent id, or a filename pattern (paper §2).
// Prepare compiles the text once (lex + parse + parameter collection +
// inference validation); Bind substitutes typed $parameters and resolves an
// immutable QueryContext; Run executes it re-entrantly. All executions of one
// prepared query share a ScanPlanCache, so repeated Runs — and re-Binds whose
// values leave a pattern's constraint set unchanged — skip storage-level
// query planning (ExecStats::plan_cache_hits counts the reuses).
//
//   auto prepared = engine.Prepare(
//       "agentid = $agent (from $t0 to $t1) proc p write ip i return p");
//   auto bound = prepared.value().Bind(
//       ParamSet().Set("agent", 1).Set("t0", "01/01/2017").Set("t1", "01/02/2017"));
//   auto result = bound.value().Run();
//
// Lifetimes: a PreparedQuery / BoundQuery borrows the engine (and through it
// the database); both must outlive it. Cached scan plans describe one
// finalization of the database: after the database is re-finalized, the
// next Run plans afresh (see Database::ExecuteQueryCached).
#ifndef AIQL_SRC_CORE_PREPARED_QUERY_H_
#define AIQL_SRC_CORE_PREPARED_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/result_table.h"
#include "src/lang/params.h"
#include "src/lang/query_context.h"

namespace aiql {

class AiqlEngine;
class ScanPlanCache;

// An executable binding: an immutable resolved QueryContext plus the
// prepared query's shared plan cache. Cheap to copy (shared state); safe to
// Run from many threads at once.
class BoundQuery {
 public:
  // Executes with a private session; the returned table carries its stats.
  Result<ResultTable> Run() const;

  // Executes under a caller-owned session (cancellation via
  // session->RequestCancel(), per-run time budget, stats inspection even on
  // error). The session's plan_cache is pointed at the prepared query's
  // cache for the duration of the call.
  Result<ResultTable> Run(ExecutionSession* session) const;

  const QueryContext& context() const { return *ctx_; }

 private:
  friend class PreparedQuery;
  BoundQuery(const AiqlEngine* engine, std::shared_ptr<const QueryContext> ctx,
             std::shared_ptr<ScanPlanCache> cache)
      : engine_(engine), ctx_(std::move(ctx)), cache_(std::move(cache)) {}

  const AiqlEngine* engine_ = nullptr;
  std::shared_ptr<const QueryContext> ctx_;
  std::shared_ptr<ScanPlanCache> cache_;
};

// A compiled query: parsed AST, declared $parameters, the resolved context
// (for parameterless queries), and the shared scan-plan cache.
class PreparedQuery {
 public:
  // The query's $parameters in first-occurrence order.
  const std::vector<ParamInfo>& params() const { return params_; }

  // Substitutes parameter values and resolves an executable binding.
  // Diagnoses unknown names, unbound parameters, and type-mismatched values
  // (each with the source position of the parameter). A parameterless query
  // binds with the default-constructed ParamSet.
  Result<BoundQuery> Bind(const ParamSet& params = ParamSet()) const;

  // Convenience for parameterless queries: Bind() + Run().
  Result<ResultTable> Run() const;

 private:
  friend class AiqlEngine;
  PreparedQuery() = default;

  const AiqlEngine* engine_ = nullptr;
  ast::Query ast_;
  std::vector<ParamInfo> params_;
  std::shared_ptr<const QueryContext> resolved_;  // set iff params_ is empty
  std::shared_ptr<ScanPlanCache> cache_;
};

}  // namespace aiql

#endif  // AIQL_SRC_CORE_PREPARED_QUERY_H_
