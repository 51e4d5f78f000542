// Decorator fidelity test for the benchmark's traced harness.
//
// The traced run must measure the real scan path, not a copy that drifted
// from it. For every data query the measured engine issues on each of the
// three workloads, TracedStore must return the same events in the same order
// and identical ScanStats as the Database it wraps, at parallelism 1 and at
// nproc, through both the plain and the plan-cached entry points (a miss,
// then a hit). Then every query of every workload must return the same
// result through TracedEngine as through AiqlEngine.
//
//   python3 aiqlbench/run.py --test
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "aiqlbench/traced_engine.h"
#include "aiqlbench/traced_store.h"
#include "aiqlbench/workloads.h"

namespace aiqlbench {
namespace {

constexpr uint64_t kSeed = 7;
int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    if (failures <= 20) {
      std::printf("FAIL %s\n", what.c_str());
    }
  }
}

// Records every data query the engine sends to the store.
class CapturingStore : public TracedStore {
 public:
  CapturingStore(const aiql::Database* db, Tracer* tracer,
                 std::vector<aiql::DataQuery>* captured)
      : TracedStore(db, tracer), captured_(captured) {}

  std::vector<aiql::EventView> ExecuteQueryParallel(const aiql::DataQuery& query,
                                                    aiql::ScanStats* stats, aiql::ThreadPool* pool,
                                                    const aiql::ScanContext* ctx) const override {
    captured_->push_back(query);
    return TracedStore::ExecuteQueryParallel(query, stats, pool, ctx);
  }
  std::vector<aiql::EventView> ExecuteQueryCached(const aiql::DataQuery& query,
                                                  aiql::ScanStats* stats, aiql::ThreadPool* pool,
                                                  aiql::ScanPlanCache* cache, uint64_t* cache_hits,
                                                  const aiql::ScanContext* ctx) const override {
    captured_->push_back(query);
    return TracedStore::ExecuteQueryCached(query, stats, pool, cache, cache_hits, ctx);
  }

 private:
  std::vector<aiql::DataQuery>* captured_;
};

auto StatsTuple(const aiql::ScanStats& s) {
  return std::make_tuple(s.events_scanned, s.events_matched, s.partitions_pruned,
                         s.partitions_scanned, s.events_skipped, s.index_lookups,
                         s.parallel_morsels, s.partitions_pruned_entity, s.bitmap_probes,
                         s.partitions_decoded, s.archived_bytes, s.decoded_bytes);
}

// Event identity that survives re-decoding an archived partition.
std::vector<std::pair<int64_t, int64_t>> Ids(const std::vector<aiql::EventView>& views) {
  std::vector<std::pair<int64_t, int64_t>> out;
  out.reserve(views.size());
  for (const aiql::EventView& v : views) {
    out.emplace_back(v.start_time(), v.id());
  }
  return out;
}

struct Observed {
  std::vector<std::pair<int64_t, int64_t>> ids;
  decltype(StatsTuple(aiql::ScanStats{})) stats;
  uint64_t hits = 0;
};

// Runs one query through `store` from a cold decode cache: the plain entry
// point, then the cached one twice (miss, hit) on a fresh plan cache.
std::vector<Observed> Observe(const aiql::Database& db, const aiql::EventStore& store,
                              const aiql::DataQuery& q, aiql::ThreadPool* pool) {
  db.decode_cache().Clear();
  aiql::ColumnPins pins;  // keeps decoded columns alive until the ids are read
  aiql::ScanContext ctx;
  ctx.pins = &pins;
  std::vector<Observed> out;
  aiql::ScanStats stats;
  out.push_back({Ids(store.ExecuteQueryParallel(q, &stats, pool, &ctx)), StatsTuple(stats), 0});
  aiql::ScanPlanCache cache(store.PlanCacheCapacity());
  for (int run = 0; run < 2; ++run) {
    aiql::ScanStats s;
    uint64_t hits = 0;
    auto views = store.ExecuteQueryCached(q, &s, pool, &cache, &hits, &ctx);
    out.push_back({Ids(views), StatsTuple(s), hits});
  }
  return out;
}

void CheckDataQueries(const std::string& workload, const aiql::Database& db,
                      const std::vector<aiql::DataQuery>& queries) {
  Tracer tracer;
  TracedStore traced(&db, &tracer);
  const size_t nproc = MeasuredEngineOptions().parallelism;
  aiql::ThreadPool pool(nproc > 1 ? nproc - 1 : 1);
  for (aiql::ThreadPool* p : {static_cast<aiql::ThreadPool*>(nullptr), &pool}) {
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<Observed> want = Observe(db, db, queries[i], p);
      std::vector<Observed> got = Observe(db, traced, queries[i], p);
      for (size_t k = 0; k < want.size(); ++k) {
        std::string what = workload + " data query " + std::to_string(i) + " call " +
                           std::to_string(k) + (p == nullptr ? " serial" : " parallel");
        Expect(got[k].ids == want[k].ids, what + ": events differ");
        Expect(got[k].stats == want[k].stats, what + ": ScanStats differ");
        Expect(got[k].hits == want[k].hits, what + ": plan-cache hits differ");
      }
    }
  }
  std::printf("%s: %zu data queries compared at parallelism 1 and %zu\n", workload.c_str(),
              queries.size(), nproc);
}

void ExpectSameResult(const std::string& what, const aiql::Result<aiql::ResultTable>& want,
                      const aiql::Result<aiql::ResultTable>& got) {
  Expect(want.ok() && got.ok(), what + ": execution failed");
  if (want.ok() && got.ok()) {
    Expect(want.value().columns() == got.value().columns() &&
               want.value().rows() == got.value().rows(),
           what + ": traced result differs from untraced");
  }
}

void QueryListWorkload(WorkloadKind kind, const std::string& name) {
  const aiql::ScenarioConfig config = ScenarioFor(kind, kSeed);
  const std::vector<NamedQuery> queries =
      kind == WorkloadKind::kInvestigate ? InvestigateQueries(config) : HuntQueries(config);
  LoadTimes load;
  auto db = BuildGeneratedStore(config, aiql::DatabaseOptions{}, &load);

  std::vector<aiql::DataQuery> captured;
  Tracer tracer;
  CapturingStore capturing(db.get(), &tracer, &captured);
  aiql::AiqlEngine capture_engine(&capturing, MeasuredEngineOptions());
  aiql::AiqlEngine engine(db.get(), MeasuredEngineOptions());
  TracedEngine traced(db.get(), engine.options(), &tracer);
  for (const NamedQuery& q : queries) {
    aiql::Result<aiql::ResultTable> want = engine.Execute(q.text);
    ExpectSameResult(name + " " + q.id + " (capturing store)", want, capture_engine.Execute(q.text));
    ExpectSameResult(name + " " + q.id, want, traced.Execute(q.text));
  }
  CheckDataQueries(name, *db, captured);
}

void RetentionWorkload() {
  const aiql::ScenarioConfig config = ScenarioFor(WorkloadKind::kRetention, kSeed);
  const std::vector<NamedQuery> templates = RetentionTemplates();
  const std::vector<RetentionStep> steps = RetentionSteps(config);
  AuditLog log = GenerateAuditLog(config);
  aiql::IngestReport report;
  LoadTimes load;
  auto db = IngestAuditLog(log.text, ArchivedStoreOptions(), &report, &load);
  Expect(db->num_archived_partitions() > db->options().decode_cache_partitions,
         "retention store archives more partitions than the decode cache holds");

  std::vector<aiql::DataQuery> captured;
  Tracer tracer;
  CapturingStore capturing(db.get(), &tracer, &captured);
  aiql::AiqlEngine capture_engine(&capturing, MeasuredEngineOptions());
  aiql::AiqlEngine engine(db.get(), MeasuredEngineOptions());
  TracedEngine traced(db.get(), engine.options(), &tracer);
  std::vector<aiql::PreparedQuery> plain, capture;
  std::vector<TracedEngine::Prepared> tprep;
  for (const NamedQuery& t : templates) {
    auto p = engine.Prepare(t.text);
    auto c = capture_engine.Prepare(t.text);
    auto tp = traced.Prepare(t.text);
    if (!p.ok() || !c.ok() || !tp.ok()) {
      Expect(false, "retention template " + t.id + " does not prepare");
      return;
    }
    plain.push_back(p.take());
    capture.push_back(c.take());
    tprep.push_back(tp.take());
  }
  auto bind_and_run = [](const aiql::PreparedQuery& p, const aiql::ParamSet& params) {
    aiql::Result<aiql::BoundQuery> bound = p.Bind(params);
    return bound.ok() ? bound.value().Run() : aiql::Result<aiql::ResultTable>(bound.status());
  };
  for (const RetentionStep& step : steps) {
    for (int run = 0; run < 2; ++run) {
      aiql::Result<aiql::ResultTable> want = bind_and_run(plain[step.tmpl], step.params);
      ExpectSameResult("retention " + step.label + " (capturing store)", want,
                       bind_and_run(capture[step.tmpl], step.params));
      ExpectSameResult("retention " + step.label, want,
                       traced.BindAndRun(tprep[step.tmpl], step.params));
    }
  }
  CheckDataQueries("retention", *db, captured);
}

}  // namespace
}  // namespace aiqlbench

int main() {
  using namespace aiqlbench;
  QueryListWorkload(WorkloadKind::kInvestigate, "investigate");
  QueryListWorkload(WorkloadKind::kHunt, "hunt");
  RetentionWorkload();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
