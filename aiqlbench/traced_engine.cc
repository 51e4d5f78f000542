#include "aiqlbench/traced_engine.h"

#include "src/core/anomaly.h"
#include "src/core/executor.h"
#include "src/core/projector.h"
#include "src/lang/parser.h"

namespace aiqlbench {

using aiql::Result;
using aiql::ResultTable;

TracedEngine::TracedEngine(const aiql::Database* db, const aiql::EngineOptions& options,
                           Tracer* tracer)
    : store_(db, tracer), tracer_(tracer) {
  exec_.scheduler = options.scheduler;
  exec_.pushdown = options.pushdown;
  exec_.ordering = options.ordering;
  exec_.parallelism = options.parallelism;
  exec_.storage_parallel = options.storage_parallel;
  exec_.time_budget_ms = options.time_budget_ms;
  exec_.max_join_work = options.max_join_work;
  if (options.parallelism > 1) {
    pool_ = std::make_unique<aiql::ThreadPool>(options.parallelism - 1);
  }
}

Result<ResultTable> TracedEngine::Execute(const std::string& text) const {
  tracer_->BeginQuery();
  ScopedSpan query(tracer_, SpanKind::kQuery);
  Result<aiql::ast::Query> parsed = [&] {
    ScopedSpan span(tracer_, SpanKind::kParse);
    return aiql::ParseQuery(text);
  }();
  if (!parsed.ok()) {
    return Result<ResultTable>(parsed.status());
  }
  std::shared_ptr<aiql::ScanPlanCache> cache;
  {
    ScopedSpan span(tracer_, SpanKind::kBind);
    if (!aiql::CollectParams(parsed.value()).empty()) {
      return Result<ResultTable>::Error("unbound parameter in one-shot query");
    }
    cache = std::make_shared<aiql::ScanPlanCache>(store_.PlanCacheCapacity());
  }
  Result<aiql::QueryContext> ctx = [&] {
    ScopedSpan span(tracer_, SpanKind::kResolve);
    return aiql::ResolveQuery(parsed.value());
  }();
  if (!ctx.ok()) {
    return Result<ResultTable>(ctx.status());
  }
  return Run(ctx.value(), cache.get());
}

Result<TracedEngine::Prepared> TracedEngine::Prepare(const std::string& text) const {
  tracer_->BeginQuery();
  ScopedSpan query(tracer_, SpanKind::kQuery);
  Result<aiql::ast::Query> parsed = [&] {
    ScopedSpan span(tracer_, SpanKind::kParse);
    return aiql::ParseQuery(text);
  }();
  if (!parsed.ok()) {
    return Result<Prepared>(parsed.status());
  }
  Prepared prepared;
  prepared.ast = parsed.take();
  // AiqlEngine::Prepare validates a parameterized query by resolving it
  // against type-appropriate placeholder values.
  aiql::ast::Query probe;
  {
    ScopedSpan span(tracer_, SpanKind::kBind);
    prepared.params = aiql::CollectParams(prepared.ast);
    prepared.cache = std::make_shared<aiql::ScanPlanCache>(store_.PlanCacheCapacity());
    aiql::ParamSet placeholders;
    for (const aiql::ParamInfo& p : prepared.params) {
      if (p.type == aiql::ParamType::kTimestamp) {
        placeholders.Set(p.name, "2000-01-01 00:00:00");
      } else {
        placeholders.Set(p.name, int64_t{1});
      }
    }
    probe = prepared.ast;
    aiql::Status s = aiql::BindParams(&probe, placeholders);
    if (!s.ok()) {
      return Result<Prepared>(s);
    }
  }
  ScopedSpan span(tracer_, SpanKind::kResolve);
  Result<aiql::QueryContext> ctx = aiql::ResolveQuery(probe);
  if (!ctx.ok()) {
    return Result<Prepared>(ctx.status());
  }
  return prepared;
}

Result<ResultTable> TracedEngine::BindAndRun(const Prepared& prepared,
                                             const aiql::ParamSet& params) const {
  tracer_->BeginQuery();
  ScopedSpan query(tracer_, SpanKind::kQuery);
  aiql::ast::Query bound;
  {
    ScopedSpan span(tracer_, SpanKind::kBind);
    bound = prepared.ast;
    aiql::Status s = aiql::BindParams(&bound, params);
    if (!s.ok()) {
      return Result<ResultTable>(s);
    }
  }
  Result<aiql::QueryContext> ctx = [&] {
    ScopedSpan span(tracer_, SpanKind::kResolve);
    return aiql::ResolveQuery(bound);
  }();
  if (!ctx.ok()) {
    return Result<ResultTable>(ctx.status());
  }
  return Run(ctx.value(), prepared.cache.get());
}

Result<ResultTable> TracedEngine::Run(const aiql::QueryContext& ctx,
                                      aiql::ScanPlanCache* cache) const {
  aiql::ExecutionSession session;
  session.plan_cache = cache;
  Result<ResultTable> out = [&]() -> Result<ResultTable> {
    if (ctx.kind == aiql::ast::QueryKind::kAnomaly) {
      ScopedSpan span(tracer_, SpanKind::kAnomaly);
      return aiql::ExecuteAnomaly(store_, ctx, exec_, pool_.get(), &session);
    }
    Result<aiql::TupleSet> tuples = [&] {
      ScopedSpan span(tracer_, SpanKind::kMultievent);
      return aiql::ExecuteMultievent(store_, ctx, exec_, pool_.get(), &session);
    }();
    if (!tuples.ok()) {
      return Result<ResultTable>(tuples.status());
    }
    ScopedSpan span(tracer_, SpanKind::kProject);
    return aiql::ProjectResults(ctx, tuples.value(), store_.catalog(), &session);
  }();
  session.pins.Clear();
  if (cache != nullptr) {
    session.stats.plan_cache_evictions = cache->evictions();
  }
  if (out.ok()) {
    out.value().set_exec_stats(session.stats);
  }
  return out;
}

}  // namespace aiqlbench
