// Multievent query executors (paper §5).
//
// One Algorithm 1 loop serves the three scheduling strategies of the paper's
// evaluation, over the same storage and join machinery:
//
//   kRelationship  — Algorithm 1: pruning-score prioritization, sorted
//                    relationships, constrained ("pushed down") execution of
//                    dependent data queries, tuple-set map M. (AIQL)
//   kFetchFilter   — execute every data query independently up front, then
//                    apply the relationships in written order. (AIQL FF
//                    baseline, §5.2)
//   kBigJoin       — the "PostgreSQL scheduling" model: every data query up
//                    front, then one left-deep join in written pattern order
//                    with no cross-pattern constraint propagation, by nested
//                    loop throughout. (§6.2.2/§6.3.2 baseline)
//
// Each join merges two tuple sets on every relationship between them that
// no earlier join applied, so a relationship is checked once, inside the
// join that first brings its two patterns together.
#ifndef AIQL_SRC_CORE_EXECUTOR_H_
#define AIQL_SRC_CORE_EXECUTOR_H_

#include <optional>
#include <vector>

#include "src/core/exec_session.h"
#include "src/core/tuple_set.h"
#include "src/lang/query_context.h"
#include "src/storage/event_store.h"
#include "src/util/thread_pool.h"

namespace aiql {

enum class SchedulerKind : uint8_t {
  kRelationship = 0,
  kFetchFilter = 1,
  kBigJoin = 2,
};

const char* SchedulerKindName(SchedulerKind k);

// Engine and executor options (one struct; AiqlEngine resolves parallelism
// 0 before the executors see it).
struct EngineOptions {
  SchedulerKind scheduler = SchedulerKind::kRelationship;
  // Total threads participating in parallel data-query execution. Stores
  // that scan in parallel internally (Database, MppCluster) receive the pool
  // directly and fan out per partition (morsel-driven); for other stores the
  // executor falls back to splitting multi-day queries per day (paper §5.2
  // "Time Window Partition"). 0 = auto-size from
  // std::thread::hardware_concurrency() at engine construction; 1 = strictly
  // sequential. The resolved value is readable via AiqlEngine::options().
  size_t parallelism = 0;
  // Ablation knobs (relationship scheduler only).
  bool pushdown = true;  // constrained execution of dependent data queries
  bool ordering = true;  // pruning-score relationship ordering
  // Ablation knob: force the coarse day-split fallback even for stores with
  // internal parallelism.
  bool storage_parallel = true;
  // Execution budget; 0 = unlimited. Work units are intermediate join rows
  // (hash/temporal joins) or comparisons (nested loops).
  int64_t time_budget_ms = 0;
  size_t max_join_work = 0;
};
using ExecOptions = EngineOptions;

// Executes the multievent part of a query context, producing the final tuple
// set over all patterns. Fails on budget exhaustion, cancellation (via the
// session's flag), or internal errors. `session` carries the execution's
// stats and optional plan cache; it must outlive the call.
Result<TupleSet> ExecuteMultievent(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session);

// Fetches the events matching one data query. With a pool and parallelism
// > 1, prefers the store's internal morsel-driven partition scan
// (ExecuteQueryParallel); stores without one get the day-split fallback:
// multi-day time windows split into per-day sub-queries run on the pool.
// Consults the session's plan cache (stores that support it skip replanning
// repeated constraint sets). `ctx` (optional) is threaded into the storage
// scan loops: cancellation/deadline stop the scan between morsels (the
// partial result surfaces as the run's cancellation/budget error), and
// decoded archive columns are pinned for the session.
std::vector<EventView> FetchDataQuery(const EventStore& db, const DataQuery& query,
                                      const ExecOptions& options, ThreadPool* pool,
                                      ExecutionSession* session,
                                      const ScanContext* ctx = nullptr);

// Applies the intra-pattern attribute relationships of `pattern` (e.g.
// p1.user = f1.owner within one pattern) as a row filter on its matches.
void ApplyIntraRels(const QueryContext& ctx, size_t pattern, std::vector<EventView>* events,
                    const EntityCatalog& catalog);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_EXECUTOR_H_
