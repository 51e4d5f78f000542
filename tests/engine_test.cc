// Core engine tests: executors, projector, temporal semantics, anomaly
// execution, budgets — on a small hand-crafted database.
#include <gtest/gtest.h>

#include <chrono>

#include "src/core/engine.h"
#include "src/storage/database.h"

namespace aiql {
namespace {

// Fixture: one host, a six-event attack-like chain plus noise.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t0_ = MakeTimestamp(2017, 1, 1, 12, 0, 0);
    cmd_ = db_.catalog().InternProcess(1, 10, "C:\\Windows\\cmd.exe", "alice");
    osql_ = db_.catalog().InternProcess(1, 11, "C:\\SQL\\osql.exe", "alice");
    sqlservr_ = db_.catalog().InternProcess(1, 12, "C:\\SQL\\sqlservr.exe", "system");
    mal_ = db_.catalog().InternProcess(1, 13, "C:\\Temp\\sbblv.exe", "alice");
    dump_ = db_.catalog().InternFile(1, "C:\\DB\\BACKUP1.DMP");
    doc_ = db_.catalog().InternFile(1, "C:\\Users\\doc.txt");
    atk_ = db_.catalog().InternNetwork(1, "10.0.0.1", "XXX.129", 1111, 443);

    db_.RecordEvent(1, cmd_, Operation::kStart, EntityType::kProcess, osql_, t0_);
    db_.RecordEvent(1, sqlservr_, Operation::kWrite, EntityType::kFile, dump_,
                    t0_ + 2 * kMinuteMs, 1000000);
    db_.RecordEvent(1, mal_, Operation::kRead, EntityType::kFile, dump_, t0_ + 4 * kMinuteMs);
    db_.RecordEvent(1, mal_, Operation::kWrite, EntityType::kNetwork, atk_,
                    t0_ + 6 * kMinuteMs, 500000);
    // Noise.
    db_.RecordEvent(1, cmd_, Operation::kRead, EntityType::kFile, doc_, t0_ + kMinuteMs);
    db_.RecordEvent(1, sqlservr_, Operation::kWrite, EntityType::kFile, doc_,
                    t0_ + 10 * kMinuteMs);
    db_.Finalize();
  }

  Result<ResultTable> Run(const std::string& text, SchedulerKind scheduler) {
    AiqlEngine engine(&db_, EngineOptions{.scheduler = scheduler});
    return engine.Execute(text);
  }

  Database db_;
  uint32_t cmd_, osql_, sqlservr_, mal_, dump_, doc_, atk_;
  TimestampMs t0_;
};

constexpr const char* kChainQuery = R"(
    agentid = 1 (at "01/01/2017")
    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    proc p4["%sbblv.exe"] read file f1 as evt3
    proc p4 write ip i1[dstip = "XXX.129"] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1)";

TEST_F(EngineTest, ChainQueryFindsAttack) {
  auto r = Run(kChainQuery, SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  const auto& row = r.value().rows()[0];
  EXPECT_EQ(row[0].ToString(), "C:\\Windows\\cmd.exe");
  EXPECT_EQ(row[3].ToString(), "C:\\DB\\BACKUP1.DMP");
  EXPECT_EQ(row[5].ToString(), "XXX.129");
}

TEST_F(EngineTest, AllSchedulersAgree) {
  auto relationship = Run(kChainQuery, SchedulerKind::kRelationship);
  auto ff = Run(kChainQuery, SchedulerKind::kFetchFilter);
  auto bigjoin = Run(kChainQuery, SchedulerKind::kBigJoin);
  ASSERT_TRUE(relationship.ok()) << relationship.error();
  ASSERT_TRUE(ff.ok()) << ff.error();
  ASSERT_TRUE(bigjoin.ok()) << bigjoin.error();
  EXPECT_TRUE(relationship.value().SameRowsAs(ff.value()));
  EXPECT_TRUE(relationship.value().SameRowsAs(bigjoin.value()));
}

TEST_F(EngineTest, TemporalBeforeIsStrict) {
  // evt2 before evt1 is unsatisfiable for the injected chain.
  auto r = Run(R"(
      agentid = 1
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      with evt2 before evt1
      return p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 0u);
}

TEST_F(EngineTest, TemporalRangeBounds) {
  // The dump write happens exactly 2 minutes after the osql start.
  auto within = Run(R"(
      agentid = 1
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      with evt1 before[1-3 minutes] evt2
      return p1)",
                    SchedulerKind::kRelationship);
  ASSERT_TRUE(within.ok()) << within.error();
  EXPECT_EQ(within.value().num_rows(), 1u);
  auto outside = Run(R"(
      agentid = 1
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      with evt1 before[3-10 minutes] evt2
      return p1)",
                     SchedulerKind::kRelationship);
  ASSERT_TRUE(outside.ok()) << outside.error();
  EXPECT_EQ(outside.value().num_rows(), 0u);
}

TEST_F(EngineTest, WithinIsSymmetric) {
  auto r = Run(R"(
      agentid = 1
      proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      with evt1 within [0-5 minutes] evt2
      return p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST_F(EngineTest, EventAttributeConstraint) {
  auto r = Run(R"(
      agentid = 1
      proc p1 write ip i1 as evt1[amount > 100000]
      return p1, evt1.amount)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][1].as_int(), 500000);
}

TEST_F(EngineTest, IntraPatternRelationship) {
  // Subject/object attribute comparison within a single pattern.
  auto r = Run(R"(
      agentid = 1
      proc p1 start proc p2 as evt1
      with p1.user = p2.user
      return p1, p2)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);  // cmd(alice) starts osql(alice)
}

TEST_F(EngineTest, CountAll) {
  auto r = Run(R"(
      agentid = 1
      proc p1 write file f1
      return count p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].as_int(), 2);  // dump + doc writes
}

TEST_F(EngineTest, GroupByAggregation) {
  auto r = Run(R"(
      agentid = 1
      proc p1 write file f1
      return p1, count(f1) as n
      group by p1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].ToString(), "C:\\SQL\\sqlservr.exe");
  EXPECT_EQ(r.value().rows()[0][1].as_int(), 2);
}

TEST_F(EngineTest, HavingFiltersGroups) {
  auto r = Run(R"(
      agentid = 1
      proc p1 read || write file f1
      return p1, count(f1) as n
      group by p1
      having n > 1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);  // only sqlservr touches 2 files
}

TEST_F(EngineTest, SortAndTop) {
  auto r = Run(R"(
      agentid = 1
      proc p1 read || write file f1 as evt1
      return p1, f1, evt1.start_time
      sort by evt1.start_time desc
      top 2)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_GE(r.value().rows()[0][2].as_int(), r.value().rows()[1][2].as_int());
}

TEST_F(EngineTest, DistinctCollapsesDuplicates) {
  db_.RecordEvent(1, mal_, Operation::kRead, EntityType::kFile, dump_, t0_ + 5 * kMinuteMs);
  db_.Finalize();
  auto r = Run(R"(
      agentid = 1
      proc p1["%sbblv.exe"] read file f1
      return distinct p1, f1)",
               SchedulerKind::kRelationship);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST_F(EngineTest, BudgetAborts) {
  AiqlEngine engine(&db_, EngineOptions{.scheduler = SchedulerKind::kBigJoin,
                                        .max_join_work = 2});
  auto r = engine.Execute(R"(
      agentid = 1
      proc p1 read || write file f1 as evt1
      proc p2 read || write file f2 as evt2
      with evt1 before evt2
      return p1, p2)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("budget"), std::string::npos);
}

TEST_F(EngineTest, ParseErrorSurfaces) {
  auto r = Run("proc p1 banana file f1 return p1", SchedulerKind::kRelationship);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("banana"), std::string::npos);
}

TEST_F(EngineTest, StatsPopulated) {
  AiqlEngine engine(&db_, EngineOptions{});
  auto r = engine.Execute(kChainQuery);
  ASSERT_TRUE(r.ok()) << r.error();
  const ExecStats& stats = r.value().exec_stats();
  EXPECT_EQ(stats.pattern_matches.size(), 4u);
  EXPECT_GT(stats.data_queries, 0u);
  EXPECT_GT(stats.pushdown_applications, 0u);
  EXPECT_EQ(stats.final_tuples, 1u);
}

TEST_F(EngineTest, PushdownDisabledStillCorrect) {
  AiqlEngine engine(&db_, EngineOptions{.pushdown = false, .ordering = false});
  auto r = engine.Execute(kChainQuery);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().exec_stats().pushdown_applications, 0u);
}

// A join applies every relationship between its two tuple sets: the shared
// file drives a hash join and `before` is checked on each pair inside it, so
// join work counts result rows, not the file-sharing pairs that run in the
// wrong order.
TEST(JoinTest, OneJoinAppliesEveryRelationshipBetweenTwoSets) {
  Database db;
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1, 12, 0, 0);
  const uint32_t writer = db.catalog().InternProcess(1, 10, "/bin/writer", "root");
  const uint32_t reader = db.catalog().InternProcess(1, 11, "/bin/reader", "root");
  const uint32_t file = db.catalog().InternFile(1, "/d/f");
  // Writes (amounts 100, 200, 300) and reads (1, 2, 3) of one file alternate
  // a minute apart: 9 write/read pairs share the file, 6 run in order.
  for (int i = 0; i < 3; ++i) {
    db.RecordEvent(1, writer, Operation::kWrite, EntityType::kFile, file,
                   t0 + 2 * i * kMinuteMs, 100 * (i + 1));
    db.RecordEvent(1, reader, Operation::kRead, EntityType::kFile, file,
                   t0 + (2 * i + 1) * kMinuteMs, i + 1);
  }
  db.Finalize();
  const std::vector<std::vector<int64_t>> want = {{100, 1}, {100, 2}, {100, 3},
                                                  {200, 2}, {200, 3}, {300, 3}};
  for (SchedulerKind scheduler : {SchedulerKind::kRelationship, SchedulerKind::kFetchFilter}) {
    AiqlEngine engine(&db, EngineOptions{.scheduler = scheduler});
    auto r = engine.Execute(R"(
        agentid = 1 (at "01/01/2017")
        proc p1 write file f1 as evt1
        proc p2 read file f1 as evt2
        with evt1 before evt2
        return evt1.amount as w, evt2.amount as r)");
    ASSERT_TRUE(r.ok()) << r.error();
    std::vector<std::vector<int64_t>> got;
    for (const auto& row : r.value().rows()) {
      got.push_back({row[0].as_int(), row[1].as_int()});
    }
    EXPECT_EQ(got, want) << SchedulerKindName(scheduler);
    const ExecStats& stats = r.value().exec_stats();
    EXPECT_EQ(stats.final_tuples, want.size()) << SchedulerKindName(scheduler);
    EXPECT_EQ(stats.join_work, stats.final_tuples) << SchedulerKindName(scheduler);
  }
}

// --- anomaly execution ---

class AnomalyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t0_ = MakeTimestamp(2017, 1, 1, 0, 0, 0);
    uploader_ = db_.catalog().InternProcess(1, 20, "/usr/bin/uploader", "bob");
    dst_ = db_.catalog().InternNetwork(1, "10.0.0.1", "9.9.9.9", 1, 443);
    // Baseline: 10 KB per minute for 30 minutes, then a 1-minute burst.
    for (int i = 0; i < 30; ++i) {
      db_.RecordEvent(1, uploader_, Operation::kWrite, EntityType::kNetwork, dst_,
                      t0_ + i * kMinuteMs, 10240);
    }
    for (int i = 0; i < 6; ++i) {
      db_.RecordEvent(1, uploader_, Operation::kWrite, EntityType::kNetwork, dst_,
                      t0_ + 30 * kMinuteMs + i * 10 * kSecondMs, 10 << 20);
    }
    db_.Finalize();
  }

  Database db_;
  uint32_t uploader_, dst_;
  TimestampMs t0_;
};

TEST_F(AnomalyTest, MovingAverageDetectsSpike) {
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p
      having amt > 2 * (amt + amt[1] + amt[2]) / 3 && amt > 1000000)");
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].ToString(), FormatTimestamp(t0_ + 30 * kMinuteMs));
}

TEST_F(AnomalyTest, HistoryStatesPerGroup) {
  // A second process with constant traffic must never alert.
  uint32_t calm = db_.catalog().InternProcess(1, 21, "/usr/bin/calm", "bob");
  for (int i = 0; i < 36; ++i) {
    db_.RecordEvent(1, calm, Operation::kWrite, EntityType::kNetwork, dst_, t0_ + i * kMinuteMs,
                    4 << 20);
  }
  db_.Finalize();
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p
      having amt > 2 * (amt + amt[1] + amt[2]) / 3 && amt > 1000000)");
  ASSERT_TRUE(r.ok()) << r.error();
  // The SMA3 formula alerts on any cold start (empty history); skip the
  // first three windows and require calm silence afterwards.
  TimestampMs warmup = t0_ + 3 * kMinuteMs;
  for (const auto& row : r.value().rows()) {
    if (row[1].ToString() == "/usr/bin/calm") {
      auto parsed = ParseDateTime(row[0].ToString().substr(0, 19));
      ASSERT_TRUE(parsed.ok());
      EXPECT_LT(parsed.value(), warmup) << row[0].ToString();
    }
  }
}

TEST_F(AnomalyTest, EwmaBuiltinDetectsSpike) {
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p
      having (amt - EWMA(amt, 0.9)) / (EWMA(amt, 0.9) + 1) > 0.2 && amt > 1000000)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST_F(AnomalyTest, CountDistinctAggregate) {
  AiqlEngine engine(&db_);
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 5 min, step = 5 min
      proc p write ip i as evt
      return p, count(distinct i) as nips
      group by p
      having nips > 0)");
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_GT(r.value().num_rows(), 0u);
  for (const auto& row : r.value().rows()) {
    EXPECT_EQ(row[2].as_int(), 1);  // single destination throughout
  }
}

TEST_F(AnomalyTest, TumblingWindowDefaultStep) {
  AiqlEngine engine(&db_);
  // step omitted -> step = window (tumbling).
  auto r = engine.Execute(R"(
      (at "01/01/2017")
      agentid = 1
      window = 10 min
      proc p write ip i as evt
      return p, count(i) as n
      group by p
      having n > 0)");
  ASSERT_TRUE(r.ok()) << r.error();
  // 4 active 10-minute tumbling windows (0-10, 10-20, 20-30, 30-40).
  EXPECT_EQ(r.value().num_rows(), 4u);
}

TEST_F(AnomalyTest, SortByOrdersRowsBeforeTop) {
  AiqlEngine engine(&db_);
  const std::string query = R"(
      (at "01/01/2017")
      agentid = 1
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p)";
  auto sorted = engine.Execute(query + "\nsort by amt desc top 2");
  ASSERT_TRUE(sorted.ok()) << sorted.error();
  ASSERT_EQ(sorted.value().num_rows(), 2u);
  // The burst window first; then, among the equal quiet windows, the
  // earliest (the sort is stable over window order).
  EXPECT_EQ(sorted.value().rows()[0][2].as_double(), 6.0 * (10 << 20));
  EXPECT_EQ(sorted.value().rows()[0][0].ToString(), FormatTimestamp(t0_ + 30 * kMinuteMs));
  EXPECT_EQ(sorted.value().rows()[1][2].as_double(), 10240.0);
  EXPECT_EQ(sorted.value().rows()[1][0].ToString(), FormatTimestamp(t0_));

  // Without sort by, top keeps the first rows in window order.
  auto unsorted = engine.Execute(query + "\ntop 2");
  ASSERT_TRUE(unsorted.ok()) << unsorted.error();
  ASSERT_EQ(unsorted.value().num_rows(), 2u);
  EXPECT_EQ(unsorted.value().rows()[0][0].ToString(), FormatTimestamp(t0_));
  EXPECT_EQ(unsorted.value().rows()[1][0].ToString(), FormatTimestamp(t0_ + kMinuteMs));
}

// The window loop honours the run's time budget: a year of 1-second steps
// over one active group is ~31.5M (window, group) steps.
TEST(AnomalyBudgetTest, WindowLoopStopsAtDeadline) {
  Database db;
  const uint32_t p = db.catalog().InternProcess(1, 20, "/usr/bin/uploader", "bob");
  const uint32_t ip = db.catalog().InternNetwork(1, "10.0.0.1", "9.9.9.9", 1, 443);
  db.RecordEvent(1, p, Operation::kWrite, EntityType::kNetwork, ip,
                 MakeTimestamp(2017, 1, 1, 0, 0, 30), 100);
  db.Finalize();
  AiqlEngine engine(&db, EngineOptions{.time_budget_ms = 200});
  const auto start = std::chrono::steady_clock::now();
  auto r = engine.Execute(R"(
      (from "01/01/2017" to "01/01/2018")
      window = 1 min, step = 1 sec
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p)");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "execution budget exceeded: time limit reached");
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

// Temporal ranges, windows and steps share one bounded duration conversion.
// A range wide enough to overflow the timestamp arithmetic of the pushdown
// bounds and the temporal join used to return no rows; now it is a
// positioned error, and the widest accepted range still finds the row.
TEST(TemporalRangeTest, WideRangeIsAnErrorNotAWrongAnswer) {
  Database db;
  const uint32_t p = db.catalog().InternProcess(1, 10, "/bin/p", "root");
  const uint32_t f = db.catalog().InternFile(1, "/d/f");
  db.RecordEvent(1, p, Operation::kWrite, EntityType::kFile, f, MakeTimestamp(2017, 1, 1));
  db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, MakeTimestamp(2017, 1, 2));
  db.Finalize();
  const AiqlEngine engine(&db);
  auto run = [&](const std::string& rel) {
    return engine.Execute("proc p1 write file f1 as evt1\nproc p1 read file f1 as evt2\nwith " +
                          rel + "\nreturn p1, f1");
  };
  for (const char* rel : {"evt1 before[0-2 days] evt2", "evt1 before[0-36500 days] evt2",
                          "evt1 within[0-36500 days] evt2", "evt2 after[1-36500 days] evt1"}) {
    auto r = run(rel);
    ASSERT_TRUE(r.ok()) << rel << ": " << r.error();
    EXPECT_EQ(r.value().num_rows(), 1u) << rel;
  }
  for (const char* rel :
       {"evt1 before[0-106751991167 days] evt2", "evt1 within[0-106751991167 days] evt2",
        "evt1 before[99999999999999999999-1 days] evt2"}) {
    auto r = run(rel);
    ASSERT_FALSE(r.ok()) << rel;
    EXPECT_NE(r.error().find("line 3: duration out of range"), std::string::npos) << r.error();
  }
  auto window = engine.Execute(
      "(at \"01/01/2017\") window = 99999999999999999999 days\n"
      "proc p1 write file f1 as evt1 return p1, count(evt1.id) as n group by p1");
  ASSERT_FALSE(window.ok());
  EXPECT_NE(window.error().find("line 1: duration out of range"), std::string::npos)
      << window.error();
  // An empty window or step used to pass Prepare and fail at Run without a
  // position.
  for (const char* empty : {"window = 0 min", "window = 1 min, step = 0.1 ms"}) {
    auto r = engine.Prepare(std::string("(at \"01/01/2017\") ") + empty +
                            "\nproc p1 write file f1 as evt1 return p1, count(evt1.id) as n "
                            "group by p1");
    ASSERT_FALSE(r.ok()) << empty;
    EXPECT_NE(r.error().find("line 1: a sliding window and its step must be at least 1 ms"),
              std::string::npos)
        << r.error();
  }
}

// --- moving-average math ---

TEST(MovingAverageTest, Sma) {
  std::vector<double> s{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Sma(s, 2), 3.5);
  EXPECT_DOUBLE_EQ(Sma(s, 10), 2.5);  // clamps to available history
  EXPECT_DOUBLE_EQ(Sma({}, 3), 0);
}

TEST(MovingAverageTest, Cma) {
  EXPECT_DOUBLE_EQ(Cma({2, 4, 6}), 4);
}

TEST(MovingAverageTest, Wma) {
  // Weights 2,1 over the last two values: (2*4 + 1*3) / 3.
  EXPECT_DOUBLE_EQ(Wma({3, 4}, 2), (2 * 4 + 1 * 3) / 3.0);
}

TEST(MovingAverageTest, EwmaConvergesToConstant) {
  std::vector<double> s(50, 7.0);
  EXPECT_NEAR(Ewma(s, 0.9), 7.0, 1e-9);
}

TEST(MovingAverageTest, EwmaWeightsHistory) {
  // alpha=0.9: one spike barely moves the average.
  std::vector<double> s(20, 1.0);
  s.push_back(100.0);
  EXPECT_LT(Ewma(s, 0.9), 15.0);
}

}  // namespace
}  // namespace aiql
