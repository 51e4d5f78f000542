// Cross-engine equivalence: every query of the evaluation corpus must return
// identical result rows on
//   - the relationship scheduler (AIQL),
//   - fetch-and-filter (AIQL FF),
//   - the big-join baseline (PostgreSQL scheduling model),
//   - the property-graph engine (Neo4j model),
//   - the MPP cluster under both distribution policies (Greenplum model),
//   - the brute-force reference store (tests/reference_store.h),
// and must be NON-EMPTY: the injected attack behaviors are found.
//
// This is the core correctness property of the reproduction: the performance
// comparisons of Figs 5-7 are only meaningful because all engines compute
// the same answers.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/engine.h"
#include "src/graph/graph_engine.h"
#include "src/mpp/mpp_cluster.h"
#include "src/workload/workload.h"
#include "tests/reference_store.h"

namespace aiql {
namespace {

struct SharedWorld {
  ScenarioConfig config;
  std::unique_ptr<Database> db;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<PropertyGraph> graph;
  std::unique_ptr<MppCluster> mpp_rr;
  std::unique_ptr<MppCluster> mpp_sem;
  std::unique_ptr<ReferenceStore> reference;
  std::vector<QuerySpec> all_queries;
};

const SharedWorld& World() {
  static SharedWorld* world = [] {
    auto* w = new SharedWorld();
    w->config.trace.num_hosts = 6;
    w->config.trace.events_per_host_per_day = 700;
    w->config.trace.num_days = 2;
    w->db = std::make_unique<Database>();
    w->workload = std::make_unique<Workload>(w->config, w->db.get());
    w->workload->Build();
    w->db->Finalize();
    w->graph = std::make_unique<PropertyGraph>();
    w->graph->BuildFrom(*w->db);
    w->mpp_rr =
        std::make_unique<MppCluster>(5, DistributionPolicy::kArrivalRoundRobin);
    w->mpp_rr->BuildFrom(*w->db);
    w->mpp_sem = std::make_unique<MppCluster>(5, DistributionPolicy::kSemanticsAware);
    w->mpp_sem->BuildFrom(*w->db);
    w->reference = std::make_unique<ReferenceStore>(*w->db);
    for (const auto& q : w->workload->CaseStudyQueries()) {
      w->all_queries.push_back(q);
    }
    for (const auto& q : w->workload->BehaviorQueries()) {
      w->all_queries.push_back(q);
    }
    return w;
  }();
  return *world;
}

class CorpusEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CorpusEquivalenceTest, AllEnginesAgreeAndFindAttack) {
  const SharedWorld& world = World();
  const QuerySpec& spec = world.all_queries[GetParam()];
  SCOPED_TRACE("query " + spec.id);

  Result<QueryContext> ctx = CompileQuery(spec.text);
  ASSERT_TRUE(ctx.ok()) << spec.id << ": " << ctx.error();

  AiqlEngine aiql_engine(world.db.get(), EngineOptions{.time_budget_ms = 60000});
  Result<ResultTable> reference = aiql_engine.ExecuteContext(ctx.value());
  ASSERT_TRUE(reference.ok()) << spec.id << ": " << reference.error();
  EXPECT_GT(reference.value().num_rows(), 0u)
      << spec.id << ": the injected behavior must be found";

  AiqlEngine brute_force(world.reference.get(), EngineOptions{.time_budget_ms = 120000});
  Result<ResultTable> brute_force_result = brute_force.ExecuteContext(ctx.value());
  ASSERT_TRUE(brute_force_result.ok()) << spec.id << "/reference: " << brute_force_result.error();
  EXPECT_TRUE(reference.value().SameRowsAs(brute_force_result.value()))
      << spec.id << ": reference store diverges\ndatabase:\n"
      << reference.value().ToString() << "\nreference store:\n"
      << brute_force_result.value().ToString();

  if (spec.anomaly) {
    return;  // baselines cannot express anomaly queries (paper §6.1)
  }

  for (SchedulerKind scheduler :
       {SchedulerKind::kFetchFilter, SchedulerKind::kBigJoin}) {
    AiqlEngine other(world.db.get(),
                     EngineOptions{.scheduler = scheduler, .time_budget_ms = 120000});
    Result<ResultTable> r = other.ExecuteContext(ctx.value());
    ASSERT_TRUE(r.ok()) << spec.id << "/" << SchedulerKindName(scheduler) << ": " << r.error();
    EXPECT_TRUE(reference.value().SameRowsAs(r.value()))
        << spec.id << ": " << SchedulerKindName(scheduler) << " diverges\nreference:\n"
        << reference.value().ToString() << "\nother:\n"
        << r.value().ToString();
  }

  GraphEngine graph_engine(world.graph.get(), /*time_budget_ms=*/120000);
  Result<ResultTable> graph_result = graph_engine.Execute(ctx.value());
  ASSERT_TRUE(graph_result.ok()) << spec.id << "/graph: " << graph_result.error();
  EXPECT_TRUE(reference.value().SameRowsAs(graph_result.value()))
      << spec.id << ": graph engine diverges\nreference:\n"
      << reference.value().ToString() << "\ngraph:\n"
      << graph_result.value().ToString();

  for (const MppCluster* cluster : {world.mpp_rr.get(), world.mpp_sem.get()}) {
    AiqlEngine mpp_engine(cluster, EngineOptions{.time_budget_ms = 120000});
    Result<ResultTable> r = mpp_engine.ExecuteContext(ctx.value());
    ASSERT_TRUE(r.ok()) << spec.id << "/mpp-" << DistributionPolicyName(cluster->policy())
                        << ": " << r.error();
    EXPECT_TRUE(reference.value().SameRowsAs(r.value()))
        << spec.id << ": mpp-" << DistributionPolicyName(cluster->policy()) << " diverges";
  }
}

std::string QueryName(const ::testing::TestParamInfo<size_t>& info) {
  std::string id = World().all_queries[info.param].id;
  for (char& c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return id;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusEquivalenceTest,
                         ::testing::Range<size_t>(0, 45),  // 26 case-study + 19 behavior
                         QueryName);

TEST(CorpusTest, ExpectedQueryCounts) {
  const SharedWorld& world = World();
  EXPECT_EQ(world.workload->CaseStudyQueries().size(), 26u);
  EXPECT_EQ(world.workload->BehaviorQueries().size(), 19u);
  EXPECT_EQ(world.all_queries.size(), 45u);
}

TEST(CorpusTest, PatternCountsMatchTable3) {
  // Table 3: c1:1q/3p, c2:8q/27p, c3:2q/4p, c4:8q/35p, c5:7q/18p.
  const SharedWorld& world = World();
  std::map<std::string, std::pair<size_t, size_t>> per_step;  // step -> (queries, patterns)
  for (const auto& spec : world.workload->CaseStudyQueries()) {
    auto ctx = CompileQuery(spec.text);
    ASSERT_TRUE(ctx.ok()) << spec.id << ": " << ctx.error();
    std::string step = spec.id.substr(0, 2);
    per_step[step].first += 1;
    per_step[step].second += ctx.value().patterns.size();
  }
  EXPECT_EQ(per_step["c1"], (std::pair<size_t, size_t>{1, 3}));
  EXPECT_EQ(per_step["c2"], (std::pair<size_t, size_t>{8, 27}));
  EXPECT_EQ(per_step["c3"], (std::pair<size_t, size_t>{2, 4}));
  EXPECT_EQ(per_step["c4"], (std::pair<size_t, size_t>{8, 35}));
  EXPECT_EQ(per_step["c5"], (std::pair<size_t, size_t>{7, 18}));
}

TEST(CorpusTest, AnomalyQueryDetectsExfiltration) {
  const SharedWorld& world = World();
  AiqlEngine engine(world.db.get());
  auto spec = world.workload->CaseStudyAnomalyQuery();
  auto r = engine.Execute(spec.text);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_GT(r.value().num_rows(), 0u);
  // The alerting process is the injected implant.
  EXPECT_NE(r.value().rows()[0][1].ToString().find("sbblv"), std::string::npos);
}

TEST(CorpusTest, WorkloadIsDeterministic) {
  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.events_per_host_per_day = 300;
  config.trace.num_days = 2;
  Database a, b;
  Workload wa(config, &a), wb(config, &b);
  wa.Build();
  wb.Build();
  a.Finalize();
  b.Finalize();
  ASSERT_EQ(a.num_events(), b.num_events());
  std::vector<std::tuple<int64_t, uint32_t, int, TimestampMs>> ea, eb;
  a.ForEachEvent([&](const Event& e) {
    ea.emplace_back(e.id, e.subject_idx, static_cast<int>(e.op), e.start_time);
  });
  b.ForEachEvent([&](const Event& e) {
    eb.emplace_back(e.id, e.subject_idx, static_cast<int>(e.op), e.start_time);
  });
  EXPECT_EQ(ea, eb);
}

TEST(CorpusTest, ParallelismDoesNotChangeResults) {
  const SharedWorld& world = World();
  for (const auto& spec : {world.all_queries[0], world.all_queries[20]}) {
    AiqlEngine seq(world.db.get(), EngineOptions{.parallelism = 1});
    AiqlEngine par(world.db.get(), EngineOptions{.parallelism = 4});
    auto a = seq.Execute(spec.text);
    auto b = par.Execute(spec.text);
    ASSERT_TRUE(a.ok()) << a.error();
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_TRUE(a.value().SameRowsAs(b.value())) << spec.id;
  }
}

TEST(CorpusTest, MatchesReferenceStoreAcrossSchedulers) {
  // The database (partition pruning, plans, posting lists, vectorized
  // scans) must return the same result sets as the brute-force reference
  // store under every scheduling strategy — each scheduler hands the store
  // differently pushed-down data queries. Every corpus query is also
  // compared under the default scheduler in AllEnginesAgreeAndFindAttack.
  const SharedWorld& world = World();
  for (const auto& spec : world.workload->CaseStudyQueries()) {
    for (SchedulerKind scheduler : {SchedulerKind::kRelationship, SchedulerKind::kFetchFilter,
                                    SchedulerKind::kBigJoin}) {
      AiqlEngine a(world.db.get(), EngineOptions{.scheduler = scheduler, .time_budget_ms = 120000});
      AiqlEngine b(world.reference.get(),
                   EngineOptions{.scheduler = scheduler, .time_budget_ms = 120000});
      auto ra = a.Execute(spec.text);
      auto rb = b.Execute(spec.text);
      ASSERT_TRUE(ra.ok()) << spec.id << ": " << ra.error();
      ASSERT_TRUE(rb.ok()) << spec.id << ": " << rb.error();
      EXPECT_GT(rb.value().num_rows(), 0u) << spec.id << " under " << SchedulerKindName(scheduler);
      EXPECT_TRUE(ra.value().SameRowsAs(rb.value()))
          << spec.id << " under " << SchedulerKindName(scheduler) << "\ndatabase:\n"
          << ra.value().ToString() << "\nreference:\n"
          << rb.value().ToString();
    }
  }
}

TEST(CorpusTest, RelationshipSchedulerJoinWorkStaysNearResultSize) {
  // Each join applies every relationship between its two tuple sets, so
  // c4-7's six patterns (a temporal chain, shared processes and f2 = f3)
  // never build intermediate rows that a later relationship discards.
  const SharedWorld& world = World();
  bool found = false;
  for (const auto& spec : world.workload->CaseStudyQueries()) {
    if (spec.id != "c4-7") {
      continue;
    }
    found = true;
    AiqlEngine engine(world.db.get());
    auto r = engine.Execute(spec.text);
    ASSERT_TRUE(r.ok()) << r.error();
    const ExecStats& stats = r.value().exec_stats();
    EXPECT_GT(stats.final_tuples, 0u);
    EXPECT_LE(stats.join_work, 3 * stats.final_tuples);
  }
  EXPECT_TRUE(found);
}

TEST(CorpusTest, StorageSchemesAgree) {
  // Partitioned + indexed vs monolithic + unindexed storage: same answers.
  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.events_per_host_per_day = 300;
  config.trace.num_days = 2;
  Database optimized;
  Workload w1(config, &optimized);
  w1.Build();
  optimized.Finalize();
  Database plain{DatabaseOptions{.scheme = PartitionScheme::kNone, .build_indexes = false}};
  Workload w2(config, &plain);
  w2.Build();
  plain.Finalize();
  for (const auto& spec : w1.CaseStudyQueries()) {
    AiqlEngine a(&optimized), b(&plain);
    auto ra = a.Execute(spec.text);
    auto rb = b.Execute(spec.text);
    ASSERT_TRUE(ra.ok()) << spec.id << ": " << ra.error();
    ASSERT_TRUE(rb.ok()) << spec.id << ": " << rb.error();
    EXPECT_TRUE(ra.value().SameRowsAs(rb.value())) << spec.id;
  }
}

}  // namespace
}  // namespace aiql
