// Tests for the graph (Neo4j-model) and MPP (Greenplum-model) substrates.
#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/graph/graph_engine.h"
#include "src/mpp/mpp_cluster.h"
#include "src/storage/attributes.h"
#include "tests/reference_store.h"

namespace aiql {
namespace {

class GraphMppTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t0_ = MakeTimestamp(2017, 1, 1, 9, 0, 0);
    for (AgentId agent = 1; agent <= 3; ++agent) {
      uint32_t bash = db_.catalog().InternProcess(agent, 100, "/usr/bin/bash", "root");
      uint32_t curl = db_.catalog().InternProcess(agent, 101, "/usr/bin/curl", "root");
      uint32_t f = db_.catalog().InternFile(agent, "/tmp/payload.bin");
      uint32_t ip = db_.catalog().InternNetwork(agent, "10.0.0.9", "8.8.4.4", 5, 443);
      for (int day = 0; day < 2; ++day) {
        TimestampMs base = t0_ + day * kDayMs + agent * kMinuteMs;
        db_.RecordEvent(agent, bash, Operation::kStart, EntityType::kProcess, curl, base);
        db_.RecordEvent(agent, curl, Operation::kWrite, EntityType::kFile, f,
                        base + kMinuteMs, 1024);
        db_.RecordEvent(agent, curl, Operation::kConnect, EntityType::kNetwork, ip,
                        base + 2 * kMinuteMs);
      }
    }
    db_.Finalize();
    graph_.BuildFrom(db_);
  }

  Database db_;
  PropertyGraph graph_;
  TimestampMs t0_;
};

TEST_F(GraphMppTest, GraphImportCounts) {
  EXPECT_EQ(graph_.num_rels(), db_.num_events());
  EXPECT_EQ(graph_.num_nodes(), db_.catalog().total_entities());
}

TEST_F(GraphMppTest, PropertyIndexLookup) {
  auto nodes = graph_.NodesByProperty(EntityType::kProcess, "/usr/bin/curl");
  EXPECT_EQ(nodes.size(), 3u);  // one per agent
  EXPECT_TRUE(graph_.NodesByProperty(EntityType::kProcess, "/usr/bin/nope").empty());
}

TEST_F(GraphMppTest, AdjacencyIsConsistent) {
  auto nodes = graph_.NodesByProperty(EntityType::kProcess, "/usr/bin/curl");
  for (uint32_t n : nodes) {
    // curl: 2 days x (write + connect) out, 2 starts in.
    EXPECT_EQ(graph_.node(n).out_rels.size(), 4u);
    EXPECT_EQ(graph_.node(n).in_rels.size(), 2u);
  }
}

TEST_F(GraphMppTest, GraphEngineSimplePattern) {
  GraphEngine engine(&graph_);
  auto ctx = CompileQuery(R"(
      agentid = 2
      proc p1["%bash"] start proc p2 as evt1
      proc p2 connect ip i1 as evt2
      with evt1 before evt2
      return distinct p1, p2, i1)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  auto r = engine.Execute(ctx.value());
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows()[0][1].ToString(), "/usr/bin/curl");
  EXPECT_GT(engine.last_stats().rels_visited, 0u);
}

TEST_F(GraphMppTest, GraphEngineRejectsAnomaly) {
  GraphEngine engine(&graph_);
  auto ctx = CompileQuery(R"(
      (at "01/01/2017")
      window = 1 min, step = 1 min
      proc p write ip i as evt
      return p, sum(evt.amount) as amt
      group by p)");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  EXPECT_FALSE(engine.Execute(ctx.value()).ok());
}

TEST_F(GraphMppTest, GraphBudgetAborts) {
  GraphEngine engine(&graph_, /*time_budget_ms=*/0, /*max_work=*/1);
  auto ctx = CompileQuery("proc p1 read || write file f1 return p1");
  ASSERT_TRUE(ctx.ok()) << ctx.error();
  auto r = engine.Execute(ctx.value());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("budget"), std::string::npos);
}

TEST_F(GraphMppTest, MppShardsAllEvents) {
  for (DistributionPolicy policy :
       {DistributionPolicy::kArrivalRoundRobin, DistributionPolicy::kSemanticsAware}) {
    MppCluster cluster(5, policy);
    cluster.BuildFrom(db_);
    EXPECT_EQ(cluster.num_events(), db_.num_events());
    EXPECT_EQ(cluster.num_segments(), 5u);
  }
}

TEST_F(GraphMppTest, RoundRobinSpreadsEvenly) {
  MppCluster cluster(3, DistributionPolicy::kArrivalRoundRobin);
  cluster.BuildFrom(db_);
  size_t lo = SIZE_MAX, hi = 0;
  for (size_t i = 0; i < cluster.num_segments(); ++i) {
    lo = std::min(lo, cluster.segment(i).num_events());
    hi = std::max(hi, cluster.segment(i).num_events());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST_F(GraphMppTest, SemanticsAwareColocatesAgentDays) {
  MppCluster cluster(4, DistributionPolicy::kSemanticsAware);
  cluster.BuildFrom(db_);
  // Every (agent, day) must live entirely on one segment.
  std::map<std::pair<AgentId, int64_t>, std::set<size_t>> placement;
  for (size_t i = 0; i < cluster.num_segments(); ++i) {
    cluster.segment(i).ForEachEvent([&](const Event& e) {
      placement[{e.agent_id, DayIndex(e.start_time)}].insert(i);
    });
  }
  for (const auto& [key, segments] : placement) {
    EXPECT_EQ(segments.size(), 1u);
  }
}

TEST_F(GraphMppTest, MppQueryMatchesSingleNode) {
  MppCluster cluster(5, DistributionPolicy::kSemanticsAware);
  cluster.BuildFrom(db_);
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  q.op_mask = OpBit(Operation::kConnect);
  auto single = db_.ExecuteQuery(q);
  auto sharded = cluster.ExecuteQuery(q, nullptr);
  ASSERT_EQ(single.size(), sharded.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].id(), sharded[i].id());  // identical ids, same order
  }
}

TEST_F(GraphMppTest, MppEngineEndToEnd) {
  MppCluster cluster(5, DistributionPolicy::kSemanticsAware);
  cluster.BuildFrom(db_);
  AiqlEngine engine(&cluster);
  auto r = engine.Execute(R"(
      agentid = 1
      proc p1["%bash"] start proc p2 as evt1
      proc p2 write file f1 as evt2
      with evt1 before evt2
      return distinct p1, p2, f1)");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_rows(), 1u);
}

// Every accepted attribute spelling, grouped by attribute (canonical name
// first), for each owner of the data model.
struct OwnerSpellings {
  const char* owner;  // "file", "proc", "ip" or "event"
  std::vector<std::vector<std::string>> attrs;
};

const std::vector<OwnerSpellings>& AcceptedSpellings() {
  static const std::vector<OwnerSpellings> kAll = {
      {"event",
       {{"id"},
        {"seq", "sequence"},
        {"agentid", "agent_id"},
        {"optype", "op", "operation"},
        {"start_time", "starttime"},
        {"end_time", "endtime"},
        {"amount"},
        {"failure_code", "failurecode", "access"},
        {"subject_id", "subjectid"},
        {"object_id", "objectid"}}},
      {"file",
       {{"name"},
        {"id"},
        {"agentid", "agent_id"},
        {"owner"},
        {"group"},
        {"vol_id", "volid"},
        {"data_id", "dataid"}}},
      {"proc",
       {{"exe_name", "exename", "name"},
        {"id"},
        {"agentid", "agent_id"},
        {"pid"},
        {"user"},
        {"cmd"},
        {"signature", "sig"}}},
      {"ip",
       {{"dst_ip", "dstip"},
        {"id"},
        {"agentid", "agent_id"},
        {"src_ip", "srcip"},
        {"src_port", "srcport"},
        {"dst_port", "dstport"},
        {"protocol"}}},
  };
  return kAll;
}

std::string Literal(const Value& v) {
  return v.is_string() ? "\"" + v.as_string() + "\"" : v.ToString();
}

// Each spelling of each owner runs as a return item, as a pattern constraint
// and (event attributes) as a global constraint. AIQL over the database, the
// MPP cluster and the brute-force reference store, and the graph baseline,
// must return the same table. The constraint compares with a value the
// return item read, so every query has rows.
TEST_F(GraphMppTest, EveryAttributeSpellingAgreesAcrossEngines) {
  MppCluster cluster(3, DistributionPolicy::kSemanticsAware);
  cluster.BuildFrom(db_);
  const ReferenceStore reference(db_);
  const AiqlEngine on_db(&db_);
  const AiqlEngine on_mpp(&cluster);
  const AiqlEngine on_reference(&reference);
  GraphEngine on_graph(&graph_);

  // The AIQL-over-database table of `text`, after checking that the other
  // three engines return the same one.
  auto run = [&](const std::string& text) {
    SCOPED_TRACE(text);
    Result<QueryContext> ctx = CompileQuery(text);
    EXPECT_TRUE(ctx.ok()) << ctx.error();
    if (!ctx.ok()) {
      return ResultTable();
    }
    Result<ResultTable> want = on_db.ExecuteContext(ctx.value());
    EXPECT_TRUE(want.ok()) << want.error();
    if (!want.ok()) {
      return ResultTable();
    }
    EXPECT_GT(want.value().num_rows(), 0u);
    for (auto [name, got] : {std::pair{"mpp", on_mpp.ExecuteContext(ctx.value())},
                             std::pair{"reference", on_reference.ExecuteContext(ctx.value())},
                             std::pair{"graph", on_graph.Execute(ctx.value())}}) {
      EXPECT_TRUE(got.ok()) << name << ": " << got.error();
      if (!got.ok()) {
        continue;
      }
      EXPECT_EQ(got.value().columns(), want.value().columns()) << name;
      EXPECT_TRUE(got.value().SameRowsAs(want.value()))
          << name << " diverges\nexpected:\n"
          << want.value().ToString() << "\n" << name << ":\n" << got.value().ToString();
    }
    return want.take();
  };

  size_t queries = 0;
  for (const OwnerSpellings& owner : AcceptedSpellings()) {
    const std::string kind = owner.owner;
    const std::string var = kind == "event" ? "evt1"
                            : kind == "file" ? "f1"
                            : kind == "proc" ? "p1"
                                             : "i1";
    for (const std::vector<std::string>& attr : owner.attrs) {
      for (const std::string& spelling : attr) {
        // `cstr` constrains the owner's pattern slot, `global` is the
        // query's first line, `ret` the return list.
        auto query = [&](const std::string& cstr, const std::string& global,
                         const std::string& ret) {
          const std::string bracket = cstr.empty() ? "" : "[" + cstr + "]";
          const std::string object = kind == "ip" ? "connect ip i1" : "write file f1";
          return global + "\nproc p1" + (kind == "proc" ? bracket : "") + " " + object +
                 (kind == "file" || kind == "ip" ? bracket : "") + " as evt1" +
                 (kind == "event" ? bracket : "") + "\nreturn " + ret;
        };
        ResultTable values = run(query("", "", "distinct " + var + "." + spelling));
        if (values.empty()) {
          continue;
        }
        const std::string cstr = spelling + " = " + Literal(values.rows()[0][0]);
        run(query(cstr, "", "evt1"));
        queries += 2;
        if (kind == "event") {
          run(query("", cstr, "evt1"));
          ++queries;
        }
      }
    }
  }
  EXPECT_EQ(queries, 126u);  // 20 event spellings x 3 + 33 entity spellings x 2
}

// ResolveAttr accepts exactly the spellings above, each naming the attribute
// of its group's canonical name, and nothing else.
TEST(AttributeSchemaTest, ResolveAttrAcceptsExactlyTheListedSpellings) {
  auto owner_of = [](const std::string& kind) {
    return kind == "event" ? AttrOwner::kEvent
           : kind == "file" ? AttrOwner::kFile
           : kind == "proc" ? AttrOwner::kProcess
                            : AttrOwner::kNetwork;
  };
  size_t listed = 0;
  for (const OwnerSpellings& spec : AcceptedSpellings()) {
    const AttrOwner owner = owner_of(spec.owner);
    std::set<std::string> accepted;
    for (const std::vector<std::string>& attr : spec.attrs) {
      std::optional<Attr> canonical = ResolveAttr(owner, attr[0]);
      ASSERT_TRUE(canonical.has_value()) << spec.owner << "." << attr[0];
      EXPECT_EQ(AttrName(*canonical), attr[0]);
      EXPECT_EQ(InfoOf(*canonical).owner, owner);
      for (const std::string& spelling : attr) {
        EXPECT_EQ(ResolveAttr(owner, spelling), canonical) << spec.owner << "." << spelling;
        accepted.insert(spelling);
      }
    }
    // The table holds no spelling beyond the list.
    std::set<std::string> in_table;
    for (const AttrInfo& info : AttrsOf(owner)) {
      for (std::string_view s : info.spellings) {
        if (!s.empty()) {
          in_table.insert(std::string(s));
        }
      }
    }
    EXPECT_EQ(in_table, accepted) << spec.owner;
    EXPECT_EQ(AttrsOf(owner).size(), spec.attrs.size()) << spec.owner;
    listed += spec.attrs.size();
  }
  EXPECT_EQ(listed, static_cast<size_t>(kNumAttrs));
  EXPECT_FALSE(ResolveAttr(AttrOwner::kNetwork, "name").has_value());
  EXPECT_FALSE(ResolveAttr(AttrOwner::kFile, "pid").has_value());
  EXPECT_FALSE(ResolveAttr(AttrOwner::kFile, "exe_name").has_value());
  EXPECT_FALSE(ResolveAttr(AttrOwner::kEvent, "name").has_value());
  EXPECT_FALSE(ResolveAttr(AttrOwner::kProcess, "Exe_Name").has_value());  // lower case only
  EXPECT_FALSE(ResolveAttr(AttrOwner::kProcess, "").has_value());
  EXPECT_EQ(DefaultAttr(EntityType::kFile), Attr::kFileName);
  EXPECT_EQ(DefaultAttr(EntityType::kProcess), Attr::kProcExeName);
  EXPECT_EQ(DefaultAttr(EntityType::kNetwork), Attr::kIpDstIp);
}

// Every attribute id reads its own field, of the kind the table states, and
// nothing for another owner.
TEST(AttributeSchemaTest, ReadersReturnTheNamedField) {
  Database db;
  EntityCatalog& c = db.catalog();
  const uint32_t p = c.InternProcess(7, 42, "/bin/sh", "alice", "sh -c x", "verified");
  const uint32_t f = c.InternFile(7, "/etc/hosts", "root", "wheel");
  const uint32_t n = c.InternNetwork(7, "10.0.0.1", "10.0.0.2", 1234, 80, "udp");
  db.RecordEvent(7, p, Operation::kWrite, EntityType::kFile, f, 5000, 55, 3, 6000);
  db.RecordEvent(7, p, Operation::kConnect, EntityType::kNetwork, n, 7000);
  db.Finalize();
  const std::vector<EventView> events =
      db.ExecuteQuery(DataQuery{.object_type = EntityType::kFile});
  ASSERT_EQ(events.size(), 1u);
  auto read = [&](Attr a) {
    std::optional<Value> v;
    switch (InfoOf(a).owner) {
      case AttrOwner::kFile:
        v = c.AttrOf(EntityType::kFile, f, a);
        break;
      case AttrOwner::kProcess:
        v = c.AttrOf(EntityType::kProcess, p, a);
        break;
      case AttrOwner::kNetwork:
        v = c.AttrOf(EntityType::kNetwork, n, a);
        break;
      case AttrOwner::kEvent:
        v = EventAttr(events[0], c, a);
        break;
    }
    if (v.has_value()) {  // the value kind the table states
      EXPECT_EQ(v->is_int(), InfoOf(a).kind == AttrKind::kInt) << AttrName(a);
    }
    return v.has_value() ? v->ToString() : "<none>";
  };
  const std::vector<std::pair<Attr, std::string>> want = {
      {Attr::kEventId, "1"},           {Attr::kEventSeq, "1"},
      {Attr::kEventAgentId, "7"},      {Attr::kEventOptype, "write"},
      {Attr::kEventStartTime, "5000"}, {Attr::kEventEndTime, "6000"},
      {Attr::kEventAmount, "55"},      {Attr::kEventFailureCode, "3"},
      {Attr::kEventSubjectId, "1"},    {Attr::kEventObjectId, "2"},
      {Attr::kFileName, "/etc/hosts"}, {Attr::kFileId, "2"},
      {Attr::kFileAgentId, "7"},       {Attr::kFileOwner, "root"},
      {Attr::kFileGroup, "wheel"},     {Attr::kFileVolId, "3"},
      {Attr::kFileDataId, "2"},        {Attr::kProcExeName, "/bin/sh"},
      {Attr::kProcId, "1"},            {Attr::kProcAgentId, "7"},
      {Attr::kProcPid, "42"},          {Attr::kProcUser, "alice"},
      {Attr::kProcCmd, "sh -c x"},     {Attr::kProcSignature, "verified"},
      {Attr::kIpDstIp, "10.0.0.2"},    {Attr::kIpId, "3"},
      {Attr::kIpAgentId, "7"},         {Attr::kIpSrcIp, "10.0.0.1"},
      {Attr::kIpSrcPort, "1234"},      {Attr::kIpDstPort, "80"},
      {Attr::kIpProtocol, "udp"},
  };
  ASSERT_EQ(want.size(), static_cast<size_t>(kNumAttrs));
  for (const auto& [attr, value] : want) {
    EXPECT_EQ(read(attr), value) << AttrName(attr);
  }
  EXPECT_FALSE(c.AttrOf(EntityType::kFile, f, Attr::kProcPid).has_value());
  EXPECT_FALSE(c.AttrOf(EntityType::kNetwork, n, Attr::kEventAmount).has_value());
  EXPECT_FALSE(EventAttr(events[0], c, Attr::kFileName).has_value());
}

}  // namespace
}  // namespace aiql
