// Micro-benchmarks (google-benchmark): ingest rate (generator and audit-log
// parser), LIKE matching, entity
// index lookup, partition time-slice scans, full-scan throughput per scan
// parallelism level, hash vs nested-loop joins.
// These quantify the primitive costs behind the macro benches.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <unordered_map>

#include "src/core/engine.h"
#include "src/core/tuple_set.h"
#include "src/ingest/audit_log.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "src/util/string_utils.h"
#include "src/util/thread_pool.h"
#include "src/workload/workload.h"

namespace aiql {
namespace {

void BM_IngestEvents(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    uint32_t p = db.catalog().InternProcess(1, 1, "/usr/bin/x");
    uint32_t f = db.catalog().InternFile(1, "/data/file");
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, i * 100);
    }
    db.Finalize();
    benchmark::DoNotOptimize(db.num_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IngestEvents)->Arg(10000)->Arg(100000);

// Audit-log ingest (parse, intern, append; no Finalize): a generated store
// is serialized once, and every iteration ingests the text into a new store.
void BM_AuditLogIngest(benchmark::State& state) {
  static const std::string* log = [] {
    ScenarioConfig config;
    config.trace.num_hosts = 8;
    config.trace.events_per_host_per_day = 2000;
    config.trace.num_days = 2;
    Database staging;
    Workload(config, &staging).Build();
    staging.Finalize();
    return new std::string(SerializeAuditLog(staging));
  }();
  size_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto db = std::make_unique<Database>();
    state.ResumeTiming();
    IngestReport report = AuditLogParser(db.get()).IngestText(*log);
    records = report.records_ingested;
    benchmark::DoNotOptimize(records);
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * log->size()));
}
BENCHMARK(BM_AuditLogIngest)->Unit(benchmark::kMillisecond);

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "C:\\Program Files\\Common Files\\System\\wab32res.dll";
  std::string pattern = "%common%wab32%.dll";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, pattern));
  }
}
BENCHMARK(BM_LikeMatch);

Database* BuildSharedDb() {
  auto* d = new Database();
  Rng rng(11);
  // Entities spread over 8 hosts so the 3-day stream lands in ~9
  // (day, agent-group) partitions — enough morsels for the parallel-scan
  // benchmarks to fan out over.
  std::vector<uint32_t> procs, files;
  for (int i = 0; i < 64; ++i) {
    procs.push_back(
        d->catalog().InternProcess(1 + i % 8, 1000 + i, "/bin/p" + std::to_string(i)));
  }
  for (int i = 0; i < 512; ++i) {
    files.push_back(d->catalog().InternFile(1 + i % 8, "/data/f" + std::to_string(i)));
  }
  for (int i = 0; i < 200000; ++i) {
    uint32_t subj = procs[rng.Below(procs.size())];
    AgentId agent = d->catalog().AgentOf(EntityType::kProcess, subj);
    d->RecordEvent(agent, subj, Operation::kRead, EntityType::kFile,
                   files[rng.Below(files.size())], rng.Below(3 * kDayMs), rng.Below(10000));
  }
  d->Finalize();
  return d;
}

Database* SharedDb() {
  static Database* db = BuildSharedDb();
  return db;
}

void BM_EntityIndexLookup(benchmark::State& state) {
  Database* db = SharedDb();
  AttrPredicate pred;
  pred.attr = Attr::kProcExeName;
  pred.op = CmpOp::kEq;
  pred.values = {Value("/bin/p7")};
  PredExpr expr = PredExpr::Leaf(pred);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->FindEntities(EntityType::kProcess, expr, std::nullopt));
  }
}
BENCHMARK(BM_EntityIndexLookup);

void BM_TimeSliceScan(benchmark::State& state) {
  Database* db = SharedDb();
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.time = TimeRange{kDayMs, kDayMs + state.range(0) * kMinuteMs};
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s;
    benchmark::DoNotOptimize(db->ExecuteQuery(q, &s));
    stats = s;
  }
  // Time-bounded queries must skip the out-of-range day partitions.
  state.counters["partitions_pruned"] = static_cast<double>(stats.partitions_pruned);
  state.counters["events_skipped"] = static_cast<double>(stats.events_skipped);
}
BENCHMARK(BM_TimeSliceScan)->Arg(10)->Arg(60)->Arg(600);

// Full-scan event throughput by scan parallelism (arg: 1 = serial
// ExecuteQuery, >1 = morsel-driven ExecuteQueryParallel) over a 200k-event
// stream, with a half-selective amount filter as the only event predicate.
// Every parallelism level must report the same `matched` count.
void BM_FullScan(benchmark::State& state) {
  Database* db = SharedDb();
  size_t parallelism = static_cast<size_t>(state.range(0));
  // One pool per parallelism level, shared across iterations.
  static std::unordered_map<size_t, ThreadPool*> pools;
  ThreadPool* pool = nullptr;
  if (parallelism > 1) {
    auto [it, inserted] = pools.try_emplace(parallelism, nullptr);
    if (inserted) {
      it->second = new ThreadPool(parallelism - 1);
    }
    pool = it->second;
  }
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kEventAmount;
  pred.op = CmpOp::kGe;
  pred.values = {Value(int64_t{5000})};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s;
    if (pool != nullptr) {
      benchmark::DoNotOptimize(db->ExecuteQueryParallel(q, &s, pool));
    } else {
      benchmark::DoNotOptimize(db->ExecuteQuery(q, &s));
    }
    stats = s;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.events_scanned + stats.events_skipped));
  state.counters["matched"] = static_cast<double>(stats.events_matched);
  state.SetLabel("p" + std::to_string(parallelism));
}
BENCHMARK(BM_FullScan)->Arg(1)->Arg(2)->Arg(4);

// A selective pushed-down entity candidate set over a large entity pool: the
// dominant query shape of iterative attack investigation (Algorithm 1 hands
// each pattern an `id IN` list from already-executed patterns). The set is
// far above the posting-candidate limit, so the scan takes the vectorized
// bitmap-probe path over every row in the time slice. Each iteration plans
// too, so the time includes resolving the list against the catalog
// (Database::FindEntities).
Database* BuildCandidateProbeDb() {
  auto* d = new Database();
  Rng rng(23);
  std::vector<uint32_t> procs, files;
  for (int i = 0; i < 64; ++i) {
    procs.push_back(
        d->catalog().InternProcess(1 + i % 8, 2000 + i, "/bin/q" + std::to_string(i)));
  }
  for (int i = 0; i < 20000; ++i) {
    files.push_back(d->catalog().InternFile(1 + i % 8, "/big/f" + std::to_string(i)));
  }
  for (int i = 0; i < 200000; ++i) {
    uint32_t subj = procs[rng.Below(procs.size())];
    AgentId agent = d->catalog().AgentOf(EntityType::kProcess, subj);
    uint32_t obj;
    do {
      obj = files[rng.Below(files.size())];
    } while (d->catalog().AgentOf(EntityType::kFile, obj) != agent);
    d->RecordEvent(agent, subj, Operation::kRead, EntityType::kFile, obj,
                   rng.Below(3 * kDayMs), rng.Below(10000));
  }
  d->Finalize();
  return d;
}

void BM_EntityCandidateScan(benchmark::State& state) {
  static Database* db = BuildCandidateProbeDb();
  // Every 4th file is a candidate: 5000 candidates, ~25% row selectivity —
  // too many for posting-list union, so every scanned row probes the set.
  DataQuery q;
  q.object_type = EntityType::kFile;
  std::vector<Value> candidates;
  for (uint32_t i = 0; i < 20000; i += 4) {
    candidates.push_back(*db->catalog().AttrOf(EntityType::kFile, i, Attr::kFileId));
  }
  q.object_pred = PredExpr::Leaf(AttrPredicate::In(Attr::kFileId, std::move(candidates)));
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s;
    benchmark::DoNotOptimize(db->ExecuteQuery(q, &s));
    stats = s;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stats.events_scanned + stats.events_skipped));
  state.counters["matched"] = static_cast<double>(stats.events_matched);
  state.counters["bitmap_probes"] = static_cast<double>(stats.bitmap_probes);
}
BENCHMARK(BM_EntityCandidateScan);

// Skewed partition sizes under the parallel scan: one (day, agent-group)
// partition holds ~85% of the events, so whole-partition work units (arg 1 ==
// 0: morsel_rows disabled) serialize on the giant partition no matter how
// many workers participate, while row-range morsels (arg 1 > 0) split it and
// load-balance. `largest_morsel` is the critical-path lower bound in rows —
// the hardware-independent evidence of the balance win.
void BM_SkewedParallelScan(benchmark::State& state) {
  auto build = [](uint32_t morsel_rows) {
    auto* d = new Database(DatabaseOptions{.morsel_rows = morsel_rows});
    Rng rng(31);
    std::vector<uint32_t> procs, files;
    for (int i = 0; i < 16; ++i) {
      procs.push_back(
          d->catalog().InternProcess(1 + i % 8, 3000 + i, "/bin/s" + std::to_string(i)));
    }
    for (int i = 0; i < 256; ++i) {
      files.push_back(d->catalog().InternFile(1 + i % 8, "/skew/f" + std::to_string(i)));
    }
    for (int i = 0; i < 200000; ++i) {
      // 85% of events land on agent 1 inside day 0: one giant partition.
      bool hot = rng.Chance(0.85);
      uint32_t subj;
      do {
        subj = procs[rng.Below(procs.size())];
      } while ((d->catalog().AgentOf(EntityType::kProcess, subj) == 1) != hot);
      AgentId agent = d->catalog().AgentOf(EntityType::kProcess, subj);
      uint32_t obj;
      do {
        obj = files[rng.Below(files.size())];
      } while (d->catalog().AgentOf(EntityType::kFile, obj) != agent);
      TimestampMs t = hot ? rng.Below(kDayMs) : rng.Below(3 * kDayMs);
      d->RecordEvent(agent, subj, Operation::kRead, EntityType::kFile, obj, t, rng.Below(10000));
    }
    d->Finalize();
    return d;
  };
  static Database* whole = build(0);
  static Database* morsel = build(16384);
  Database* db = state.range(1) == 0 ? whole : morsel;
  size_t parallelism = static_cast<size_t>(state.range(0));
  static std::unordered_map<size_t, ThreadPool*> pools;
  auto [it, inserted] = pools.try_emplace(parallelism, nullptr);
  if (inserted) {
    it->second = new ThreadPool(parallelism - 1);
  }
  ThreadPool* pool = it->second;
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kEventAmount;
  pred.op = CmpOp::kGe;
  pred.values = {Value(int64_t{5000})};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  for (auto _ : state) {
    ScanStats s;
    benchmark::DoNotOptimize(db->ExecuteQueryParallel(q, &s, pool));
    stats = s;
  }
  // Critical path in rows: the largest single work-queue entry.
  ScanStats plan_stats;
  auto plan = db->PlanQuery(q, &plan_stats);
  uint64_t largest = 0;
  for (const ScanMorsel& m : BuildScanMorsels(*plan, db->options().morsel_rows)) {
    const Partition* p = plan->survivors[m.survivor];
    auto [lo, hi] = p->SliceRows(q.EffectiveTime());
    uint64_t rows = std::min<uint64_t>(m.end_row, hi) - std::max<uint64_t>(m.begin_row, lo);
    largest = std::max(largest, rows);
  }
  state.counters["largest_morsel"] = static_cast<double>(largest);
  state.counters["morsels"] = static_cast<double>(stats.parallel_morsels);
  state.counters["matched"] = static_cast<double>(stats.events_matched);
  state.SetLabel(std::string(state.range(1) == 0 ? "whole-partition" : "row-morsels") + "/p" +
                 std::to_string(parallelism));
}
BENCHMARK(BM_SkewedParallelScan)->Args({4, 0})->Args({4, 1});

void BM_PostingListFetch(benchmark::State& state) {
  Database* db = SharedDb();
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kProcExeName;
  pred.op = CmpOp::kEq;
  pred.values = {Value("/bin/p3")};
  q.subject_pred = PredExpr::Leaf(pred);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->ExecuteQuery(q));
  }
}
BENCHMARK(BM_PostingListFetch);

void BM_Join(benchmark::State& state) {
  Database* db = SharedDb();
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.time = TimeRange{0, kDayMs / 4};
  std::vector<EventView> events = db->ExecuteQuery(q);
  size_t half = events.size() / 2;
  std::vector<EventView> left(events.begin(), events.begin() + half);
  std::vector<EventView> right(events.begin() + half, events.end());
  TupleSet lt = TupleSet::FromMatches(0, left);
  TupleSet rt = TupleSet::FromMatches(1, right);
  Relationship rel;
  if (state.range(0) == 0) {  // equality hash join on subject id
    rel.kind = Relationship::Kind::kAttr;
    rel.attr = AttrRelation{0, RefSide::kSubject, Attr::kProcId, CmpOp::kEq,
                            1, RefSide::kSubject, Attr::kProcId, false};
  } else {  // temporal join
    rel.kind = Relationship::Kind::kTemp;
    rel.temp = TempRelation{0, 1, ast::TempOrder::kBefore, std::nullopt, DurationMs{kMinuteMs}};
  }
  for (auto _ : state) {
    BudgetGuard guard;
    TupleJoiner joiner(db->catalog(), &guard, /*nested_loop=*/false);
    auto out = joiner.Join(lt, rt, {rel});
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_Join)->Arg(0)->Arg(1);

// Prepare/bind/execute vs one-shot Execute on a two-pattern query: the
// one-shot arm re-lexes, re-parses, re-infers, and replans per iteration;
// the prepared arm amortizes compilation across Runs and serves scan plans
// from the PreparedQuery's cache. The plan_cache_hit_rate counter reports
// cached fetches per data query.
void BM_PreparedVsOneShot(benchmark::State& state) {
  Database* db = SharedDb();
  static AiqlEngine* engine = new AiqlEngine(db, EngineOptions{.parallelism = 1});
  const std::string text = R"(
      agentid = 3 (from "1970-01-01" to "1970-01-03")
      proc p1["/bin/p7"] read file f1 as evt1
      proc p2["/bin/p9"] read file f1 as evt2
      with evt1 before evt2
      return count p1)";
  const bool prepared_arm = state.range(0) == 1;

  uint64_t hits = 0, queries = 0, rows = 0;
  if (prepared_arm) {
    auto prepared = engine->Prepare(text);
    if (!prepared.ok()) {
      state.SkipWithError(prepared.error().c_str());
      return;
    }
    auto bound = prepared.value().Bind();
    if (!bound.ok()) {
      state.SkipWithError(bound.error().c_str());
      return;
    }
    for (auto _ : state) {
      auto r = bound.value().Run();
      if (!r.ok()) {
        state.SkipWithError(r.error().c_str());
        return;
      }
      hits += r.value().exec_stats().plan_cache_hits;
      queries += r.value().exec_stats().data_queries;
      rows += r.value().num_rows();
    }
  } else {
    for (auto _ : state) {
      auto r = engine->Execute(text);
      if (!r.ok()) {
        state.SkipWithError(r.error().c_str());
        return;
      }
      hits += r.value().exec_stats().plan_cache_hits;
      queries += r.value().exec_stats().data_queries;
      rows += r.value().num_rows();
    }
  }
  state.counters["plan_cache_hit_rate"] =
      queries == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(queries);
  state.SetLabel(prepared_arm ? "prepared" : "one-shot");
  benchmark::DoNotOptimize(rows);
}
BENCHMARK(BM_PreparedVsOneShot)->Arg(0)->Arg(1);

}  // namespace
}  // namespace aiql

BENCHMARK_MAIN();
