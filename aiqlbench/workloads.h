// The benchmark's three workloads: their inputs, query lists and stores.
// BENCHMARK.json runs investigate and retention; hunt runs by hand (see
// README.md for why it is left out of that list).
//
// Every workload is a closed loop with one client: the next query is sent
// only after the previous result has arrived. The engine runs with the
// relationship scheduler at parallelism = nproc (morsel-parallel scans on
// nproc threads, the calling thread included). Inputs derive from the seed
// given on the command line (TraceConfig::seed); the library sees only the
// generated events and query texts.
//
// investigate: the paper's headline workload (Table 3 / Fig 5). The 26
//   case-study queries plus anomaly Query 5, in the analyst's order, as
//   one-shot AiqlEngine::Execute calls over the default hot store
//   (8 hosts x 3 days x 20k events). Queries are single-day, mostly
//   single-host and heavily pruned, so lang, planning, pruning, the joins of
//   c2-7 / c4-7 and projection do the work while scans stay small. It is the
//   side that bypasses scan, merge and archive changes.
// hunt: the 19 behavior queries (a1-a5, d1-d3, v1-v5, s1-s6), rewritten to
//   enterprise-wide retrospective scope (global agentid dropped, window
//   widened to the whole history). Every partition survives pruning and
//   matches are many: scan kernels, morsel scheduling, the serial merge, the
//   a4 join and the sliding-window anomaly executor (s5/s6) dominate, while
//   lang and planning are noise. Its history is one day (8 hosts x 20k
//   events, attack on day 0) to keep a pass near 1.2 s; s5/s6, then the a4
//   join, still dominate it.
// retention: a long, thin history (8 hosts x 14 days x 4k events,
//   42 partitions) serialized as audit-log text in set-up. The timed run
//   first ingests the text through AuditLogParser and finalizes it with
//   archive_after_days = 1 (39 of 42 partitions archived), then runs an
//   iterative investigation through Prepare once per pass plus Bind/Run
//   many: $t0/$t1 (and $agent) windows slide back through the history,
//   1-day and 3-day, and each binding runs twice. It is the only
//   workload with writes, the only one whose working set (~40 archived
//   partitions) exceeds the decode cache (decode_cache_partitions = 8), and
//   the only one on the prepared path (Bind plus plan-cache hits and misses).
#ifndef AIQLBENCH_WORKLOADS_H_
#define AIQLBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/ingest/audit_log.h"
#include "src/lang/params.h"
#include "src/storage/database.h"
#include "src/workload/workload.h"

namespace aiqlbench {

enum class WorkloadKind { kInvestigate, kHunt, kRetention };

struct NamedQuery {
  std::string id;
  std::string text;
  bool anomaly = false;  // sliding-window query (no join, no final tuples)
};

// One retention investigation step: a template bound to a window (and agent).
struct RetentionStep {
  size_t tmpl = 0;  // index into RetentionTemplates()
  aiql::ParamSet params;
  std::string label;
};

aiql::ScenarioConfig ScenarioFor(WorkloadKind kind, uint64_t seed);

// investigate: case-study queries with anomaly Query 5 opening step c5.
std::vector<NamedQuery> InvestigateQueries(const aiql::ScenarioConfig& config);
// hunt: behavior queries rewritten to all agents over the whole history.
std::vector<NamedQuery> HuntQueries(const aiql::ScenarioConfig& config);
// retention: parameterized templates and the windows they are bound to,
// newest first, each 1-day window followed by the multi-day ones it ends.
std::vector<NamedQuery> RetentionTemplates();
std::vector<RetentionStep> RetentionSteps(const aiql::ScenarioConfig& config);

// Store options: the measured hot store, the retention archive policy, and
// the unpartitioned store the investigate/hunt reference runs on.
aiql::DatabaseOptions ArchivedStoreOptions();
aiql::DatabaseOptions ReferenceStoreOptions();

// The engine configuration every workload is measured with.
aiql::EngineOptions MeasuredEngineOptions();

// When a store load began, when its records were in (Finalize began), and
// when Finalize returned.
struct LoadTimes {
  int64_t start_ns = 0;
  int64_t finalize_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

// Generates the scenario straight into a store: the generator drives
// Database::RecordEvent, then Finalize.
std::unique_ptr<aiql::Database> BuildGeneratedStore(const aiql::ScenarioConfig& config,
                                                    const aiql::DatabaseOptions& options,
                                                    LoadTimes* times);

// Generates the scenario and serializes it as audit-log text.
struct AuditLog {
  std::string text;
  size_t events = 0;
  // Comment and blank lines (the serializer's header and the empty tail
  // after the final newline), which IngestText counts as lines_skipped.
  size_t non_record_lines = 0;
};
AuditLog GenerateAuditLog(const aiql::ScenarioConfig& config);

// Ingests audit-log text through AuditLogParser::IngestText, then Finalize.
std::unique_ptr<aiql::Database> IngestAuditLog(const std::string& text,
                                               const aiql::DatabaseOptions& options,
                                               aiql::IngestReport* report, LoadTimes* times);

}  // namespace aiqlbench

#endif  // AIQLBENCH_WORKLOADS_H_
