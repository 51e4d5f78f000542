// Seeded property test of the core aggregation layer: the engine's projector
// and anomaly executor against the brute-force reference in
// tests/reference_aggregate.h, on exact result tables (column names, cell
// types and values, row order), over random stores and random queries that
// cover group by, distinct, having, top with and without sort by, history
// refs x[k], sma/wma/ewma/cma, absent groups and duplicate aliases.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/executor.h"
#include "src/storage/database.h"
#include "tests/reference_aggregate.h"
#include "tests/reference_store.h"

namespace aiql {
namespace {

constexpr const char* kRange = R"((from "01/01/2017 00:00:00" to "01/01/2017 02:00:00"))";

// A store over two hours of one day. Entities repeat their display values
// across agents (same exe name, file name or destination IP on two hosts),
// so distinct entities render equal and must merge in groups and DISTINCT.
std::unique_ptr<Database> RandomStore(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  auto db = std::make_unique<Database>();
  EntityCatalog& cat = db->catalog();
  const char* exes[] = {"/bin/sh", "/usr/bin/curl", "/usr/sbin/agent", "/bin/tar"};
  const char* files[] = {"/etc/passwd", "/tmp/x.exe", "/var/log/syslog"};
  const char* ips[] = {"10.0.0.9", "8.8.8.8", "1.2.3.4"};
  std::vector<std::pair<AgentId, uint32_t>> procs, objs_file, objs_ip;
  for (AgentId agent = 1; agent <= 2; ++agent) {
    for (int i = 0; i < 4; ++i) {
      procs.emplace_back(agent, cat.InternProcess(agent, 100 + i, exes[pick(4)]));
    }
    for (const char* f : files) {
      objs_file.emplace_back(agent, cat.InternFile(agent, f));
    }
    for (int i = 0; i < 3; ++i) {
      objs_ip.emplace_back(agent, cat.InternNetwork(agent, "10.0.0.1", ips[i], 1000 + i, 443));
    }
  }
  const TimestampMs t0 = MakeTimestamp(2017, 1, 1);
  const size_t events = 40 + pick(120);
  for (size_t i = 0; i < events; ++i) {
    const auto [agent, subject] = procs[pick(procs.size())];
    const TimestampMs t = t0 + static_cast<TimestampMs>(pick(2 * 60)) * kMinuteMs +
                          static_cast<TimestampMs>(pick(60)) * kSecondMs;
    const int64_t amount = pick(4) == 0 ? static_cast<int64_t>(pick(100000))
                                        : static_cast<int64_t>(pick(1000));
    switch (pick(4)) {
      case 0:
      case 1: {
        db->RecordEvent(agent, subject, pick(2) ? Operation::kWrite : Operation::kRead,
                        EntityType::kFile, objs_file[pick(objs_file.size())].second, t, amount);
        break;
      }
      case 2: {
        db->RecordEvent(agent, subject, pick(2) ? Operation::kWrite : Operation::kRead,
                        EntityType::kNetwork, objs_ip[pick(objs_ip.size())].second, t, amount);
        break;
      }
      default: {
        db->RecordEvent(agent, subject, Operation::kStart, EntityType::kProcess,
                        procs[pick(procs.size())].second, t, amount);
        break;
      }
    }
  }
  db->Finalize();
  return db;
}

// Random multievent queries over the store.
std::string RandomMultievent(std::mt19937_64& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::string head = std::string(kRange) + "\n";
  const char* obj = pick(2) ? "file o" : "ip o";
  const char* op = pick(2) ? "write" : "read || write";
  const std::string pattern = std::string("proc p ") + op + " " + obj + " as evt\n";
  const std::string top = pick(2) ? " top " + std::to_string(1 + pick(5)) : "";
  switch (pick(8)) {
    case 0:  // row-wise, optionally distinct, optionally sorted
      return head + pattern + (pick(2) ? "return distinct p, o" : "return p, o, evt.amount as a") +
             (pick(2) ? "\nsort by p desc" : "") + top;
    case 1:  // row-wise having over a return alias and an event attribute
      return head + pattern + (pick(2) ? "return distinct p, o" : "return p, evt.amount as a") +
             "\nhaving evt.amount > " + std::to_string(pick(900)) + top;
    case 2: {  // group by with several aggregates, having, sort by, top
      const std::string keys = pick(2) ? "p" : "p, o";
      std::string q = head + pattern + "return " + keys +
                      ", sum(evt.amount) as s, count(o) as n, count(distinct o) as d, "
                      "avg(evt.amount) as a, min(evt.amount) as lo, max(evt.amount) as hi\n"
                      "group by " + keys;
      if (pick(2)) {
        q += "\nhaving s > " + std::to_string(pick(3000)) + (pick(2) ? " || d > 1" : "");
      }
      const char* sorts[] = {"", "\nsort by s desc", "\nsort by n, a desc", "\nsort by d"};
      return q + sorts[pick(4)] + top;
    }
    case 3:  // global aggregates, possibly over no rows
      return head + "proc p write " + obj + " as evt[amount > " +
             std::to_string(pick(2) ? 50 : 200000) +
             "]\nreturn count(o) as n, sum(evt.amount) as s, avg(evt.amount) as a";
    case 4:  // aliases and aggregate calls read by having arithmetic
      return head + pattern +
             "return p, sum(evt.amount) as s, count(o) as n\ngroup by p\n"
             "having s * 2 + 1 > " + std::to_string(pick(4000)) +
             (pick(2) ? " && count(o) > 1" : "") + (pick(2) ? "\nsort by n desc" : "") + top;
    case 5:  // duplicate aliases: the later item wins for readers
      return head + pattern +
             "return p, sum(evt.amount) as x, count(o) as x\ngroup by p\nhaving x > " +
             std::to_string(pick(4)) + top;
    case 6:  // two patterns joined: multi-column tuples
      return head + "proc p1 start proc p2 as e1\nproc p2 " + op + " " + obj +
             " as e2\nwith e1 before e2\n" +
             (pick(2) ? "return distinct p1, p2, o"
                      : "return p1, count(distinct o) as d, sum(e2.amount) as s\ngroup by p1\n"
                        "sort by s desc") +
             top;
    default:  // count of distinct rows
      return head + pattern + (pick(2) ? "return count distinct p" : "return count distinct p, o");
  }
}

// Random anomaly queries over the store.
std::string RandomAnomaly(std::mt19937_64& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const int windows[] = {10, 15, 30};
  const int steps[] = {5, 10, 15, 30, 45};  // 45 > every window: events in gaps
  const int w = windows[pick(3)];
  const int s = steps[pick(5)];
  const std::string keys = pick(3) == 0 ? "p, o" : "p";
  std::string q = std::string(kRange) + "\nwindow = " + std::to_string(w) +
                  " min, step = " + std::to_string(s) + " min\n" + "proc p " +
                  (pick(2) ? "write" : "read || write") + " " + (pick(2) ? "file o" : "ip o") +
                  " as evt\n";
  const bool duplicate = pick(6) == 0;
  q += duplicate ? "return " + keys + ", sum(evt.amount) as amt, count(o) as amt\n"
                 : "return " + keys + ", sum(evt.amount) as amt, count(o) as n\n";
  q += "group by " + keys;
  const char* havings[] = {
      "",
      "\nhaving amt > 2 * (amt + amt[1] + amt[2]) / 3",
      "\nhaving amt[1] > amt",  // passes on history alone: absent groups emit
      "\nhaving amt >= 0",      // every visited group emits
      "\nhaving amt[0] > 100 || amt[3] > 0",
      "\nhaving sma(amt, 3) > 100",
      "\nhaving cma(amt) < amt",
      "\nhaving wma(amt, 2) > 50 && amt > 0",
      "\nhaving ewma(amt, 0.5) > amt",
      "\nhaving sma(amt, 0.5) = 0 && amt[2] >= 0",
  };
  q += havings[pick(10)];
  if (pick(2)) {
    q += pick(2) ? "\nsort by amt desc" : "\nsort by p, amt";
  }
  if (pick(2)) {
    q += "\ntop " + std::to_string(1 + pick(6));
  }
  return q;
}

// Exact comparison: column names, row order, and each cell's type and value.
void ExpectSameTable(const ResultTable& got, const ResultTable& want, const std::string& query) {
  ASSERT_EQ(got.columns(), want.columns()) << query;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << query << "\n" << got.ToString() << want.ToString();
  for (size_t r = 0; r < got.num_rows(); ++r) {
    ASSERT_EQ(got.rows()[r].size(), want.rows()[r].size()) << query;
    for (size_t c = 0; c < got.rows()[r].size(); ++c) {
      const Value& a = got.rows()[r][c];
      const Value& b = want.rows()[r][c];
      const bool same = a.is_int() == b.is_int() && a.is_double() == b.is_double() &&
                        a.is_string() == b.is_string() &&
                        (a.is_double() ? a.as_double() == b.as_double() : a == b);
      ASSERT_TRUE(same) << query << "\nrow " << r << " column " << got.columns()[c] << ": "
                        << a.ToString() << " vs " << b.ToString() << "\n"
                        << got.ToString() << want.ToString();
    }
  }
}

TEST(AggregatePropertyTest, MultieventProjectionMatchesReference) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    std::unique_ptr<Database> db = RandomStore(seed);
    EngineOptions options;
    options.parallelism = 1;
    const AiqlEngine engine(db.get(), options);
    std::mt19937_64 rng(seed * 7919);
    for (int i = 0; i < 12; ++i) {
      const std::string text = RandomMultievent(rng);
      Result<QueryContext> ctx = CompileQuery(text);
      ASSERT_TRUE(ctx.ok()) << text << "\n" << ctx.error();
      ExecutionSession session;
      Result<TupleSet> tuples =
          ExecuteMultievent(*db, ctx.value(), ExecOptions{}, nullptr, &session);
      ASSERT_TRUE(tuples.ok()) << text << "\n" << tuples.error();
      const reference::Input in{tuples.value().patterns(), db->catalog()};
      std::vector<reference::Row> rows;
      for (size_t r = 0; r < tuples.value().num_rows(); ++r) {
        const std::span<const EventView> row = tuples.value().row(r);
        rows.emplace_back(row.begin(), row.end());
      }
      const ResultTable want = reference::Project(ctx.value(), rows, in);

      Result<ResultTable> got = engine.Execute(text);
      ASSERT_TRUE(got.ok()) << text << "\n" << got.error();
      ExpectSameTable(got.value(), want, text);
    }
  }
}

TEST(AggregatePropertyTest, AnomalyWindowsMatchReference) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    std::unique_ptr<Database> db = RandomStore(seed);
    const ReferenceStore store(*db);
    EngineOptions options;
    options.parallelism = 1;
    const AiqlEngine engine(db.get(), options);
    std::mt19937_64 rng(seed * 104729);
    for (int i = 0; i < 12; ++i) {
      const std::string text = RandomAnomaly(rng);
      Result<QueryContext> ctx = CompileQuery(text);
      ASSERT_TRUE(ctx.ok()) << text << "\n" << ctx.error();
      ScanStats stats;
      const std::vector<EventView> events =
          store.ExecuteQuery(ctx.value().patterns[0].query, &stats);
      const std::vector<size_t> patterns{0};
      const reference::Input in{patterns, db->catalog()};
      const ResultTable want = reference::Anomaly(ctx.value(), events, in);

      Result<ResultTable> got = engine.Execute(text);
      ASSERT_TRUE(got.ok()) << text << "\n" << got.error();
      ExpectSameTable(got.value(), want, text);
    }
  }
}

// The generated cases reach the states the property above is about.
TEST(AggregatePropertyTest, GeneratedCasesCoverAbsentGroupsAndMerges) {
  std::unique_ptr<Database> db = RandomStore(3);
  EngineOptions options;
  options.parallelism = 1;
  const AiqlEngine engine(db.get(), options);
  // Absent groups emit through a having that passes on history alone.
  Result<ResultTable> absent = engine.Execute(std::string(kRange) + R"(
      window = 10 min, step = 10 min
      proc p read || write file o as evt
      return p, sum(evt.amount) as amt
      group by p
      having amt >= 0)");
  ASSERT_TRUE(absent.ok()) << absent.error();
  size_t zero_rows = 0;
  for (const auto& row : absent.value().rows()) {
    zero_rows += row[2].as_double() == 0 ? 1 : 0;
  }
  EXPECT_GT(zero_rows, 0u);
  // Two hosts' processes share exe names: distinct entities merge by value.
  Result<ResultTable> distinct = engine.Execute(std::string(kRange) +
                                                "\nproc p read || write file o as evt"
                                                "\nreturn distinct p");
  ASSERT_TRUE(distinct.ok()) << distinct.error();
  EXPECT_LT(distinct.value().num_rows(), 8u);
}

}  // namespace
}  // namespace aiql
