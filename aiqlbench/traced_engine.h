// TracedEngine: AiqlEngine's execution path re-assembled from the public
// functions of each layer, with a span around every call.
//
//   lang    ParseQuery, CollectParams / BindParams, ResolveQuery
//   core    ExecuteMultievent, ExecuteAnomaly, ProjectResults
//   storage the TracedStore decorator (traced_store.h)
//
// Execute mirrors AiqlEngine::Execute (Prepare + Bind + Run of a
// parameterless query); Prepare / BindAndRun mirror AiqlEngine::Prepare and
// PreparedQuery::Bind + BoundQuery::Run, including the per-prepared-query
// scan-plan cache. Results must equal the untraced engine's; the benchmark
// checks every traced result against the same reference as untraced ones.
#ifndef AIQLBENCH_TRACED_ENGINE_H_
#define AIQLBENCH_TRACED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "aiqlbench/trace.h"
#include "aiqlbench/traced_store.h"
#include "src/core/engine.h"
#include "src/lang/params.h"
#include "src/storage/plan_cache.h"

namespace aiqlbench {

class TracedEngine {
 public:
  // `options.parallelism` must already be resolved (no 0).
  TracedEngine(const aiql::Database* db, const aiql::EngineOptions& options, Tracer* tracer);

  struct Prepared {
    aiql::ast::Query ast;
    std::vector<aiql::ParamInfo> params;
    std::shared_ptr<aiql::ScanPlanCache> cache;
  };

  aiql::Result<aiql::ResultTable> Execute(const std::string& text) const;
  aiql::Result<Prepared> Prepare(const std::string& text) const;
  aiql::Result<aiql::ResultTable> BindAndRun(const Prepared& prepared,
                                             const aiql::ParamSet& params) const;

  const TracedStore& store() const { return store_; }

 private:
  // AiqlEngine::ExecuteContext.
  aiql::Result<aiql::ResultTable> Run(const aiql::QueryContext& ctx,
                                      aiql::ScanPlanCache* cache) const;

  TracedStore store_;
  aiql::ExecOptions exec_;
  std::unique_ptr<aiql::ThreadPool> pool_;
  Tracer* tracer_;
};

}  // namespace aiqlbench

#endif  // AIQLBENCH_TRACED_ENGINE_H_
