// Tests for the SQL/Cypher/SPL translators, conciseness metrics, and the
// audit-log ingest path (parser + clock-skew correction).
#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/ingest/audit_log.h"
#include "src/lang/query_context.h"
#include "src/translate/translators.h"
#include "src/workload/workload.h"

namespace aiql {
namespace {

QueryContext Compile(const std::string& text) {
  auto ctx = CompileQuery(text);
  EXPECT_TRUE(ctx.ok()) << ctx.error();
  return ctx.take();
}

constexpr const char* kTwoPattern = R"(
    agentid = 2 (at "01/01/2017")
    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    with evt1 before evt2
    return distinct p1, p2, f1)";

TEST(SqlTranslatorTest, StructureAndJoins) {
  TranslatedQuery sql = ToSql(Compile(kTwoPattern));
  ASSERT_TRUE(sql.supported);
  EXPECT_NE(sql.text.find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(sql.text.find("JOIN processes s0"), std::string::npos);
  EXPECT_NE(sql.text.find("JOIN files o1"), std::string::npos);
  EXPECT_NE(sql.text.find("LIKE '%cmd.exe'"), std::string::npos);
  EXPECT_NE(sql.text.find("e0.start_time < e1.start_time"), std::string::npos);
  // 2 patterns x (2 join ON + op + object_type + agent + 2 time) + 4 entity
  // preds + 1 temporal = 19.
  EXPECT_EQ(sql.constraints, 19u);
}

TEST(SqlTranslatorTest, GroupByHavingOrderLimit) {
  TranslatedQuery sql = ToSql(Compile(R"(
      proc p read ip i
      return p, count(distinct i) as freq
      group by p
      having freq > 50
      sort by freq desc
      top 5)"));
  EXPECT_NE(sql.text.find("GROUP BY"), std::string::npos);
  EXPECT_NE(sql.text.find("HAVING"), std::string::npos);
  EXPECT_NE(sql.text.find("COUNT(DISTINCT"), std::string::npos);
  EXPECT_NE(sql.text.find("ORDER BY"), std::string::npos);
  EXPECT_NE(sql.text.find("LIMIT 5"), std::string::npos);
}

TEST(CypherTranslatorTest, StructureAndNodeReuse) {
  TranslatedQuery cypher = ToCypher(Compile(R"(
      proc p1 start proc p2 as evt1
      proc p2 write file f1 as evt2
      with evt1 before evt2
      return p1, f1)"));
  ASSERT_TRUE(cypher.supported);
  EXPECT_NE(cypher.text.find("MATCH"), std::string::npos);
  // Shared entity p2 appears as the same node variable in both patterns.
  EXPECT_NE(cypher.text.find("(p2:Process)"), std::string::npos);
  EXPECT_NE(cypher.text.find("[e0:START]"), std::string::npos);
  EXPECT_NE(cypher.text.find("RETURN"), std::string::npos);
}

TEST(SplTranslatorTest, JoinsViaSubsearches) {
  TranslatedQuery spl = ToSpl(Compile(kTwoPattern));
  ASSERT_TRUE(spl.supported);
  EXPECT_NE(spl.text.find("search index=sysevents"), std::string::npos);
  EXPECT_NE(spl.text.find("| join"), std::string::npos);
  EXPECT_NE(spl.text.find("| table"), std::string::npos);
}

TEST(TranslatorTest, AnomalyUnsupportedEverywhere) {
  QueryContext ctx = Compile(R"(
      (at "01/01/2017")
      window = 1 min, step = 10 sec
      proc p write ip i as evt
      return p, avg(evt.amount) as amt
      group by p
      having amt > 2 * (amt + amt[1] + amt[2]) / 3)");
  EXPECT_FALSE(ToSql(ctx).supported);
  EXPECT_FALSE(ToCypher(ctx).supported);
  EXPECT_FALSE(ToSpl(ctx).supported);
}

TEST(ConcisenessTest, AiqlBeatsAllOnEveryMetric) {
  QueryContext ctx = Compile(kTwoPattern);
  ConcisenessMetrics aiql = MeasureAiql(ctx);
  for (const TranslatedQuery& other : {ToSql(ctx), ToCypher(ctx), ToSpl(ctx)}) {
    ConcisenessMetrics m = Measure(other);
    EXPECT_GT(m.constraints, aiql.constraints);
    EXPECT_GT(m.words, aiql.words);
    EXPECT_GT(m.characters, aiql.characters);
  }
}

TEST(ConcisenessTest, CorpusAverageRatiosMatchPaperShape) {
  // Paper Table 5: SQL/Cypher/SPL carry at least 2.4x more constraints and
  // 3.1x more words than AIQL on the 19 behavior queries.
  ScenarioConfig config;
  Database db;
  Workload workload(config, &db);
  double sql_ratio = 0, cypher_ratio = 0;
  size_t counted = 0;
  for (const auto& spec : workload.BehaviorQueries()) {
    auto ctx = CompileQuery(spec.text);
    ASSERT_TRUE(ctx.ok()) << spec.id << ": " << ctx.error();
    TranslatedQuery sql = ToSql(ctx.value());
    if (!sql.supported) {
      continue;
    }
    ConcisenessMetrics aiql = MeasureAiql(ctx.value());
    ASSERT_GT(aiql.constraints, 0u) << spec.id;
    sql_ratio += static_cast<double>(Measure(sql).constraints) / aiql.constraints;
    cypher_ratio +=
        static_cast<double>(Measure(ToCypher(ctx.value())).constraints) / aiql.constraints;
    ++counted;
  }
  ASSERT_EQ(counted, 17u);  // s5/s6 unsupported
  EXPECT_GT(sql_ratio / counted, 2.0);
  EXPECT_GT(cypher_ratio / counted, 1.5);
}

// --- ingest ---

TEST(ClockSkewTest, MedianOffsetRobustToJitter) {
  std::vector<std::pair<TimestampMs, TimestampMs>> samples;
  for (int i = 0; i < 9; ++i) {
    samples.push_back({1000 + i, 1000 + i + 500});  // agent 500 ms behind
  }
  samples.push_back({2000, 99999});  // one outlier
  EXPECT_EQ(ClockSkewCorrector::EstimateOffset(samples), 500);
}

TEST(ClockSkewTest, CorrectionApplied) {
  ClockSkewCorrector skew;
  skew.SetOffset(3, -250);
  EXPECT_EQ(skew.Correct(3, 1000), 750);
  EXPECT_EQ(skew.Correct(4, 1000), 1000);  // unknown agents unchanged
}

TEST(AuditLogTest, ParsesAllObjectKinds) {
  Database db;
  AuditLogParser parser(&db);
  IngestReport report = parser.IngestText(R"(# header comment
EVENT ts=1000 agent=1 pid=42 exe="/usr/bin/bash" op=read obj=file path="/etc/passwd"
EVENT ts=2000 agent=1 pid=42 exe="/usr/bin/bash" op=start obj=proc tpid=43 texe="/usr/bin/vim"
EVENT ts=3000 agent=1 pid=43 exe="/usr/bin/vim" op=connect obj=ip dst=8.8.8.8 dport=53 amount=64
)");
  EXPECT_EQ(report.records_ingested, 3u);
  EXPECT_TRUE(report.errors.empty());
  db.Finalize();
  EXPECT_EQ(db.num_events(), 3u);
  EXPECT_EQ(db.catalog().processes().size(), 2u);
}

TEST(AuditLogTest, MalformedLinesCollectedNotFatal) {
  Database db;
  AuditLogParser parser(&db);
  IngestReport report = parser.IngestText(
      "EVENT ts=1 agent=1 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n"
      "GARBAGE LINE\n"
      "EVENT ts=notanumber agent=1 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n"
      "EVENT ts=2 agent=1 pid=1 exe=\"/x\" op=chew obj=file path=\"/a\"\n"
      "EVENT ts=3 agent=1 pid=1 exe=\"/x\" op=read obj=widget path=\"/a\"\n");
  EXPECT_EQ(report.records_ingested, 1u);
  ASSERT_EQ(report.errors.size(), 4u);
  EXPECT_EQ(report.errors[0].line_number, 2u);
  EXPECT_NE(report.errors[2].message.find("chew"), std::string::npos);
}

TEST(AuditLogTest, SkewCorrectionAtIngest) {
  Database db;
  ClockSkewCorrector skew;
  skew.SetOffset(1, 10000);
  AuditLogParser parser(&db, &skew);
  parser.IngestText(
      "EVENT ts=5000 agent=1 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n");
  db.Finalize();
  db.ForEachEvent([](const Event& e) { EXPECT_EQ(e.start_time, 15000); });
}

TEST(AuditLogTest, RoundTripPreservesQueryResults) {
  // Serialize a database, re-ingest it, and check a query agrees.
  ScenarioConfig config;
  config.trace.num_hosts = 6;
  config.trace.events_per_host_per_day = 200;
  config.trace.num_days = 2;
  Database original;
  Workload workload(config, &original);
  workload.Build();
  original.Finalize();

  std::string log = SerializeAuditLog(original);
  Database restored;
  AuditLogParser parser(&restored);
  IngestReport report = parser.IngestText(log);
  EXPECT_TRUE(report.errors.empty());
  restored.Finalize();
  EXPECT_EQ(restored.num_events(), original.num_events());

  std::string query = workload.CaseStudyQueries()[0].text;
  AiqlEngine a(&original), b(&restored);
  auto ra = a.Execute(query);
  auto rb = b.Execute(query);
  ASSERT_TRUE(ra.ok()) << ra.error();
  ASSERT_TRUE(rb.ok()) << rb.error();
  EXPECT_TRUE(ra.value().SameRowsAs(rb.value()));
}

TEST(AuditLogTest, CrossHostProcessObject) {
  Database db;
  AuditLogParser parser(&db);
  parser.IngestText(
      "EVENT ts=1 agent=4 pid=9 exe=\"/usr/sbin/apache2\" op=connect obj=proc tpid=11 "
      "texe=\"/usr/bin/wget\" tagent=5\n");
  db.Finalize();
  ASSERT_EQ(db.num_events(), 1u);
  db.ForEachEvent([&](const Event& e) {
    EXPECT_EQ(e.agent_id, 4u);
    EXPECT_EQ(db.catalog().AgentOf(EntityType::kProcess, e.object_idx), 5u);
  });
}

// Numeric fields must fit the column they land in; each violation is an
// error with its line instead of a wrapped or truncated value.
TEST(AuditLogTest, NumericFieldsAreRangeChecked) {
  const std::string file = " pid=1 exe=\"/x\" op=read obj=file path=\"/a\"";
  const std::string ip = " pid=1 exe=\"/x\" op=connect obj=ip dst=1.1.1.1";
  const std::string proc = " pid=1 exe=\"/x\" op=start obj=proc tpid=2 texe=\"/y\"";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"EVENT ts=1000 agent=-3" + file, "'agent'"},
      {"EVENT ts=1000 agent=4294967296" + file, "'agent'"},
      {"EVENT ts=1000 agent=1 fail=99999999999" + file, "'fail'"},
      {"EVENT ts=1000 agent=1 fail=-2147483649" + file, "'fail'"},
      {"EVENT ts=1000 agent=1 dport=99999999999" + ip, "'dport'"},
      {"EVENT ts=1000 agent=1 dport=70000" + ip, "'dport'"},
      {"EVENT ts=1000 agent=1 dport=-1" + ip, "'dport'"},
      {"EVENT ts=1000 agent=1 sport=zz" + ip, "'sport'"},
      {"EVENT ts=1000 agent=1 sport=65536" + ip, "'sport'"},
      {"EVENT ts=1000 agent=1 tagent=-1" + proc, "'tagent'"},
      {"EVENT ts=9223372036854775807 agent=1" + file, "'ts'"},
      {"EVENT ts=-9223372036854775808 agent=1" + file, "'ts'"},
      {"EVENT ts=253402300800000 agent=1" + file, "'ts'"},
      {"EVENT ts=12abc agent=1" + file, "'ts'"},
      {"EVENT ts=99999999999999999999 agent=1" + file, "'ts'"},
  };
  std::string text;
  for (const auto& [line, field] : bad) {
    text += line + "\n";
  }
  text += "EVENT ts=253402300799999 agent=4294967295 fail=-2147483648 dport=65535 sport=0" + ip +
          "\n";
  Database db;
  IngestReport report = AuditLogParser(&db).IngestText(text);
  EXPECT_EQ(report.records_ingested, 1u);
  ASSERT_EQ(report.errors.size(), bad.size());
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(report.errors[i].line_number, i + 1);
    EXPECT_NE(report.errors[i].message.find(bad[i].second), std::string::npos)
        << report.errors[i].message;
  }
}

// A record rejected for its object fields must not intern its subject: each
// line below names a new process and fails only after the common fields
// parse.
TEST(AuditLogTest, RejectedRecordLeavesCatalogUntouched) {
  Database db;
  IngestReport report = AuditLogParser(&db).IngestText(
      "EVENT ts=1000 agent=1 pid=7 exe=\"/bin/a\" op=read obj=file\n"
      "EVENT ts=1000 agent=1 pid=8 exe=\"/bin/b\" op=start obj=proc tpid=9\n"
      "EVENT ts=1000 agent=1 pid=9 exe=\"/bin/c\" op=connect obj=ip dport=53\n");
  EXPECT_EQ(report.records_ingested, 0u);
  EXPECT_EQ(report.errors.size(), 3u);
  EXPECT_EQ(db.num_events(), 0u);
  EXPECT_EQ(db.catalog().processes().size(), 0u);
}

// The clock-skew correction is overflow-checked and must land in range.
TEST(AuditLogTest, SkewCorrectionIsRangeChecked) {
  ClockSkewCorrector skew;
  skew.SetOffset(1, INT64_MAX);
  skew.SetOffset(2, -kMaxTimestampMs);
  EXPECT_FALSE(skew.Correct(1, 1).has_value());
  EXPECT_EQ(skew.Correct(2, kMaxTimestampMs), 0);
  Database db;
  IngestReport report = AuditLogParser(&db, &skew).IngestText(
      "EVENT ts=1000 agent=1 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n"
      "EVENT ts=-1000 agent=2 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n"
      "EVENT ts=1000 agent=2 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n");
  EXPECT_EQ(report.records_ingested, 1u);
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_EQ(report.errors[0].line_number, 1u);
  EXPECT_EQ(report.errors[1].line_number, 2u);
  EXPECT_NE(report.errors[1].message.find("clock-skew"), std::string::npos);
}

// Space and tab both end an unquoted value and separate fields.
TEST(AuditLogTest, TabSeparatesFields) {
  Database db;
  IngestReport report = AuditLogParser(&db).IngestText(
      "EVENT\tts=1483228800000\tagent=1\tpid=7\texe=\"/bin/sh\"\top=read obj=file\t"
      "path=\"/etc/passwd\"\tamount=5\n");
  EXPECT_EQ(report.records_ingested, 1u);
  ASSERT_TRUE(report.errors.empty()) << report.errors[0].message;
  db.Finalize();
  db.ForEachEvent([&](const Event& e) {
    EXPECT_EQ(e.start_time, 1483228800000);
    EXPECT_EQ(e.agent_id, 1u);
    EXPECT_EQ(e.amount, 5);
  });
  ASSERT_EQ(db.catalog().files().size(), 1u);
  EXPECT_EQ(db.catalog().files()[0].name, "/etc/passwd");
}

// The EVENT keyword is a word of its own: a separator or the end of the line
// must follow it.
TEST(AuditLogTest, KeywordMustEndAtSeparator) {
  Database db;
  IngestReport report = AuditLogParser(&db).IngestText(
      "EVENTts=1000 agent=1 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n"
      "EVENTS ts=1000 agent=1 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n"
      "EVENT\n"
      "EVENT\tts=1000 agent=1 pid=1 exe=\"/x\" op=read obj=file path=\"/a\"\n");
  EXPECT_EQ(report.records_ingested, 1u);
  ASSERT_EQ(report.errors.size(), 3u);
  EXPECT_EQ(report.errors[0].line_number, 1u);
  EXPECT_EQ(report.errors[0].message, "record does not start with EVENT");
  EXPECT_EQ(report.errors[1].message, "record does not start with EVENT");
  EXPECT_EQ(report.errors[2].message, "missing field 'ts'");
  EXPECT_EQ(db.num_events(), 1u);
}

// A known key given twice, in any case, rejects the record and interns
// nothing; an unknown key may repeat.
TEST(AuditLogTest, DuplicateKnownKeyIsAnError) {
  Database db;
  IngestReport report = AuditLogParser(&db).IngestText(
      "EVENT ts=1000 agent=1 pid=7 exe=\"/bin/a\" op=read obj=file path=\"/a\" AGENT=2\n"
      "EVENT ts=1000 agent=1 pid=8 exe=\"/bin/b\" op=read obj=file path=\"/a\" path=\"/b\"\n"
      "EVENT ts=1000 agent=1 pid=9 exe=\"/bin/c\" op=read obj=file path=\"/c\" note=x NOTE=y\n");
  EXPECT_EQ(report.records_ingested, 1u);
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_EQ(report.errors[0].line_number, 1u);
  EXPECT_EQ(report.errors[0].message, "duplicate field 'agent'");
  EXPECT_EQ(report.errors[1].line_number, 2u);
  EXPECT_EQ(report.errors[1].message, "duplicate field 'path'");
  ASSERT_EQ(db.catalog().processes().size(), 1u);
  EXPECT_EQ(db.catalog().processes()[0].exe_name, "/bin/c");
  ASSERT_EQ(db.catalog().files().size(), 1u);
  EXPECT_EQ(db.catalog().files()[0].name, "/c");
}

}  // namespace
}  // namespace aiql
