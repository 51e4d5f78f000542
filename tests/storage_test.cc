// Unit tests for src/storage: catalog interning, predicates, partitioning,
// indexes, data-query execution, pushdown candidates.
#include <gtest/gtest.h>

#include "src/storage/database.h"
#include "src/storage/plan_cache.h"
#include "tests/reference_store.h"

namespace aiql {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  // A tiny two-agent, two-day dataset.
  void SetUp() override {
    bash_ = db_.catalog().InternProcess(1, 100, "/usr/bin/bash", "root");
    vim_ = db_.catalog().InternProcess(1, 101, "/usr/bin/vim", "alice");
    sshd_ = db_.catalog().InternProcess(2, 200, "/usr/sbin/sshd", "root");
    etc_ = db_.catalog().InternFile(1, "/etc/passwd");
    log_ = db_.catalog().InternFile(1, "/var/log/syslog");
    ip_ = db_.catalog().InternNetwork(2, "10.0.0.2", "8.8.8.8", 1234, 443);

    t0_ = MakeTimestamp(2017, 1, 1, 10, 0, 0);
    db_.RecordEvent(1, bash_, Operation::kRead, EntityType::kFile, etc_, t0_);
    db_.RecordEvent(1, vim_, Operation::kWrite, EntityType::kFile, log_, t0_ + kMinuteMs, 512);
    db_.RecordEvent(1, bash_, Operation::kStart, EntityType::kProcess, vim_,
                    t0_ + 2 * kMinuteMs);
    db_.RecordEvent(2, sshd_, Operation::kConnect, EntityType::kNetwork, ip_,
                    t0_ + kDayMs, 2048);
    db_.Finalize();
  }

  Database db_;
  uint32_t bash_, vim_, sshd_, etc_, log_, ip_;
  TimestampMs t0_;
};

TEST_F(StorageTest, InterningDeduplicates) {
  EXPECT_EQ(db_.catalog().InternProcess(1, 100, "/usr/bin/bash"), bash_);
  EXPECT_EQ(db_.catalog().InternFile(1, "/etc/passwd"), etc_);
  // Same name on a different agent is a different entity.
  EXPECT_NE(db_.catalog().InternFile(2, "/etc/passwd"), etc_);
}

TEST_F(StorageTest, EntityIdsAreUnique) {
  std::set<int64_t> ids;
  for (const auto& p : db_.catalog().processes()) {
    ids.insert(p.id);
  }
  for (const auto& f : db_.catalog().files()) {
    ids.insert(f.id);
  }
  for (const auto& n : db_.catalog().networks()) {
    ids.insert(n.id);
  }
  EXPECT_EQ(ids.size(), db_.catalog().total_entities());
}

TEST_F(StorageTest, AttrAccess) {
  EXPECT_EQ(db_.catalog().AttrOf(EntityType::kProcess, bash_, Attr::kProcExeName)->ToString(),
            "/usr/bin/bash");
  EXPECT_EQ(db_.catalog().AttrOf(EntityType::kProcess, bash_, Attr::kProcUser)->ToString(), "root");
  EXPECT_EQ(db_.catalog().AttrOf(EntityType::kNetwork, ip_, Attr::kIpDstPort)->as_int(), 443);
  EXPECT_FALSE(db_.catalog().AttrOf(EntityType::kFile, etc_, Attr::kProcPid).has_value());
}

TEST_F(StorageTest, PartitioningByDayAndAgentGroup) {
  // Agents 1,2 with group size 4 share a group; two days -> 2 partitions.
  EXPECT_EQ(db_.num_partitions(), 2u);
  Database flat{DatabaseOptions{.scheme = PartitionScheme::kNone}};
  uint32_t p = flat.catalog().InternProcess(1, 1, "x");
  uint32_t f = flat.catalog().InternFile(1, "/a");
  flat.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, 0);
  flat.RecordEvent(2, p, Operation::kRead, EntityType::kFile, f, kDayMs * 3);
  EXPECT_EQ(flat.num_partitions(), 1u);
}

TEST_F(StorageTest, TimeRangeQuery) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.time = TimeRange{t0_, t0_ + 90 * kSecondMs};
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].op(), Operation::kRead);
  EXPECT_EQ(events[1].op(), Operation::kWrite);
}

TEST_F(StorageTest, OpMaskFilters) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.op_mask = OpBit(Operation::kWrite);
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].amount(), 512);
}

TEST_F(StorageTest, AgentConstraintPrunes) {
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  q.agent_ids = std::vector<AgentId>{2};
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].agent_id(), 2u);
  q.agent_ids = std::vector<AgentId>{1};
  EXPECT_TRUE(db_.ExecuteQuery(q).empty());
}

TEST_F(StorageTest, SubjectPredicateViaIndex) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kProcExeName;
  pred.op = CmpOp::kEq;
  pred.values = {Value("/usr/bin/bash")};
  q.subject_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subject_idx(), bash_);
  EXPECT_GT(stats.index_lookups, 0u);
}

TEST_F(StorageTest, LikePredicateFallsBackToScan) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kFileName;
  pred.op = CmpOp::kLike;
  pred.values = {Value("/var/log%")};
  q.object_pred = PredExpr::Leaf(pred);
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object_idx(), log_);
}

TEST_F(StorageTest, PushdownCandidatesNarrow) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.subject_pred = EntityIdsIn(db_.catalog(), EntityType::kProcess, {vim_});
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subject_idx(), vim_);
  // Candidate set intersected with a contradicting predicate is empty.
  AttrPredicate pred;
  pred.attr = Attr::kProcExeName;
  pred.op = CmpOp::kEq;
  pred.values = {Value("/usr/bin/bash")};
  q.subject_pred = PredExpr::And(std::move(q.subject_pred), PredExpr::Leaf(pred));
  EXPECT_TRUE(db_.ExecuteQuery(q).empty());
}

TEST_F(StorageTest, CachedPlanIsNotReusedAfterReFinalize) {
  // The cached plan's candidate bitmap covers the catalog of its time; files
  // interned and events ingested afterwards must be seen by a fresh plan.
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kFileName;
  pred.op = CmpOp::kLike;
  pred.values = {Value("/var/log%")};
  q.object_pred = PredExpr::Leaf(pred);
  ScanPlanCache cache;
  uint64_t hits = 0;
  EXPECT_EQ(db_.ExecuteQueryCached(q, nullptr, nullptr, &cache, &hits).size(), 1u);
  for (int i = 0; i < 100; ++i) {
    uint32_t f = db_.catalog().InternFile(1, "/var/log/app" + std::to_string(i));
    db_.RecordEvent(1, vim_, Operation::kWrite, EntityType::kFile, f, t0_ + i * kSecondMs);
  }
  db_.Finalize();
  EXPECT_EQ(db_.ExecuteQueryCached(q, nullptr, nullptr, &cache, &hits).size(), 101u);
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(db_.ExecuteQueryCached(q, nullptr, nullptr, &cache, &hits).size(), 101u);
  EXPECT_EQ(hits, 1u);
}

TEST_F(StorageTest, PushedTimeNarrows) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.pushed_time = TimeRange{t0_ + 30 * kSecondMs, t0_ + 2 * kMinuteMs};
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].op(), Operation::kWrite);
}

TEST_F(StorageTest, ResultsSortedByTimeThenId) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  auto events = db_.ExecuteQuery(q);
  for (size_t i = 1; i < events.size(); ++i) {
    bool ordered = events[i - 1].start_time() < events[i].start_time() ||
                   (events[i - 1].start_time() == events[i].start_time() &&
                    events[i - 1].id() < events[i].id());
    EXPECT_TRUE(ordered);
  }
}

TEST_F(StorageTest, PartitionPruningStats) {
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  q.time = TimeRange{t0_ + kDayMs - kHourMs, t0_ + kDayMs + kHourMs};
  ScanStats stats;
  db_.ExecuteQuery(q, &stats);
  EXPECT_EQ(stats.partitions_pruned, 1u);  // day-0 partition skipped
  EXPECT_EQ(stats.partitions_scanned, 1u);
  EXPECT_EQ(stats.events_skipped, 3u);  // the three day-0 events, never touched
}

TEST_F(StorageTest, ZoneMapPrunesByOpMask) {
  // No partition stores a delete: both are pruned before any scan.
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.op_mask = OpBit(Operation::kDelete);
  ScanStats stats;
  EXPECT_TRUE(db_.ExecuteQuery(q, &stats).empty());
  EXPECT_EQ(stats.partitions_pruned, 2u);
  EXPECT_EQ(stats.partitions_scanned, 0u);
  EXPECT_EQ(stats.events_skipped, db_.num_events());
  EXPECT_EQ(stats.events_scanned, 0u);
}

TEST_F(StorageTest, ZoneMapPrunesByObjectType) {
  // Day-0 holds file/process events only; a network query skips it.
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.partitions_pruned, 1u);
  EXPECT_EQ(stats.partitions_scanned, 1u);
}

TEST_F(StorageTest, ZoneMapPrunesByNumericRange) {
  // amount > 10000 exceeds every stored amount: zone maps prune everything.
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kEventAmount;
  pred.op = CmpOp::kGt;
  pred.values = {Value(int64_t{10000})};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  EXPECT_TRUE(db_.ExecuteQuery(q, &stats).empty());
  EXPECT_EQ(stats.partitions_scanned, 0u);
  EXPECT_EQ(stats.events_skipped, db_.num_events());
}

TEST_F(StorageTest, ZoneMapPrunesByAgentWithinGroup) {
  // Agents 1 and 2 share a partition group, so scheme keys cannot separate
  // them — the per-partition agent set can. Day-0 holds only agent 1.
  DataQuery q;
  q.object_type = EntityType::kNetwork;
  q.agent_ids = std::vector<AgentId>{2};
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(stats.partitions_pruned, 1u);
  EXPECT_EQ(stats.partitions_scanned, 1u);
}

TEST_F(StorageTest, OptypePredicateCompilesToOpMask) {
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kEventOptype;
  pred.op = CmpOp::kEq;
  pred.values = {Value("write")};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats stats;
  auto events = db_.ExecuteQuery(q, &stats);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].amount(), 512);
  // An impossible optype value matches nothing without touching storage.
  pred.values = {Value("no-such-op")};
  q.event_pred = PredExpr::Leaf(pred);
  ScanStats none;
  EXPECT_TRUE(db_.ExecuteQuery(q, &none).empty());
  EXPECT_EQ(none.partitions_scanned, 0u);
}

TEST_F(StorageTest, ColumnarIngestAfterFinalizeRehydrates) {
  // Appending to a finalized database reopens the partition's columns, and
  // re-finalization must restore query results over the full data.
  db_.RecordEvent(1, bash_, Operation::kDelete, EntityType::kFile, log_, t0_ + 5 * kMinuteMs);
  db_.Finalize();
  DataQuery q;
  q.object_type = EntityType::kFile;
  q.op_mask = OpBit(Operation::kDelete);
  auto events = db_.ExecuteQuery(q);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].object_idx(), log_);
  EXPECT_EQ(db_.num_events(), 5u);
}

TEST_F(StorageTest, NoIndexModeStillCorrect) {
  Database plain{DatabaseOptions{.build_indexes = false}};
  uint32_t p = plain.catalog().InternProcess(1, 1, "/bin/x");
  uint32_t f = plain.catalog().InternFile(1, "/data");
  plain.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, 1000);
  plain.Finalize();
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kProcExeName;
  pred.op = CmpOp::kEq;
  pred.values = {Value("/bin/x")};
  q.subject_pred = PredExpr::Leaf(pred);
  EXPECT_EQ(plain.ExecuteQuery(q).size(), 1u);
}

TEST_F(StorageTest, ForEachEventVisitsAll) {
  size_t n = 0;
  db_.ForEachEvent([&](const Event&) { ++n; });
  EXPECT_EQ(n, db_.num_events());
}

TEST_F(StorageTest, AppendRawPreservesIds) {
  Database copy;
  db_.ForEachEvent([&](const Event& e) { copy.AppendRaw(e); });
  EXPECT_EQ(copy.num_events(), db_.num_events());
  std::set<int64_t> original_ids, copied_ids;
  db_.ForEachEvent([&](const Event& e) { original_ids.insert(e.id); });
  copy.ForEachEvent([&](const Event& e) { copied_ids.insert(e.id); });
  EXPECT_EQ(original_ids, copied_ids);
}

TEST(StorageReplayTest, RecordEventAfterAppendRawContinuesSequence) {
  Database db;
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/x");
  uint32_t f = db.catalog().InternFile(1, "/data");
  for (int64_t i = 1; i <= 3; ++i) {
    Event e;
    e.id = i;
    e.seq = i;
    e.agent_id = 1;
    e.subject_idx = p;
    e.object_idx = f;
    e.start_time = e.end_time = 1000 * i;
    db.AppendRaw(e);
  }
  db.RecordEvent(1, p, Operation::kWrite, EntityType::kFile, f, 5000);
  std::vector<std::pair<int64_t, int64_t>> id_seq;
  db.ForEachEvent([&](const Event& e) { id_seq.emplace_back(e.id, e.seq); });
  std::vector<std::pair<int64_t, int64_t>> want = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  EXPECT_EQ(id_seq, want);
}

// A replayed event with id INT64_MAX leaves no id for the next event: it is
// refused, not stored, and the RecordEvent after it takes the next free id
// (the id bookkeeping once computed INT64_MAX + 1 here).
TEST(StorageReplayTest, LargestIdIsRefusedAndRecordEventDoesNotOverflow) {
  Database db;
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/x");
  uint32_t f = db.catalog().InternFile(1, "/data");
  Event last;
  last.id = INT64_MAX;
  last.seq = 1;
  last.agent_id = 1;
  last.subject_idx = p;
  last.object_idx = f;
  last.start_time = last.end_time = 1000;
  db.AppendRaw(last);
  db.RecordEvent(1, p, Operation::kWrite, EntityType::kFile, f, 2000);
  std::vector<std::pair<int64_t, int64_t>> id_seq;
  db.ForEachEvent([&](const Event& e) { id_seq.emplace_back(e.id, e.seq); });
  std::vector<std::pair<int64_t, int64_t>> want = {{1, 1}};
  EXPECT_EQ(id_seq, want);
  EXPECT_EQ(db.num_events(), 1u);
}

// Every bound the id, sequence and time-range bookkeeping needs is checked,
// and a refused event leaves the store as it was.
TEST(StorageReplayTest, EventsThatWouldOverflowAreRefused) {
  Database db;
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/x");
  uint32_t f = db.catalog().InternFile(1, "/data");
  Event e;
  e.agent_id = 1;
  e.subject_idx = p;
  e.object_idx = f;
  e.start_time = e.end_time = 1000;

  e.id = INT64_MAX;
  Status s = db.AppendRaw(e);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("event id 9223372036854775807"), std::string::npos) << s.message();
  e.id = 7;
  e.start_time = kMaxTimestampMs + 1;
  EXPECT_FALSE(db.AppendRaw(e).ok());
  e.start_time = kMinTimestampMs - 1;
  EXPECT_FALSE(db.AppendRaw(e).ok());
  EXPECT_FALSE(db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, INT64_MAX).ok());
  EXPECT_EQ(db.num_events(), 0u);
  EXPECT_EQ(db.data_time_range().begin, INT64_MAX);

  // The largest storable id is accepted; then no id is left for RecordEvent.
  e.id = INT64_MAX - 1;
  e.start_time = kMaxTimestampMs;
  EXPECT_TRUE(db.AppendRaw(e).ok());
  EXPECT_FALSE(db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, 2000).ok());

  // A replayed sequence number INT64_MAX leaves none for the agent's next
  // event; other agents are unaffected.
  Database seq_db;
  e.id = 1;
  e.seq = INT64_MAX;
  EXPECT_TRUE(seq_db.AppendRaw(e).ok());
  Status next = seq_db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, 2000);
  EXPECT_FALSE(next.ok());
  EXPECT_NE(next.message().find("sequence"), std::string::npos) << next.message();
  EXPECT_TRUE(seq_db.RecordEvent(2, p, Operation::kRead, EntityType::kFile, f, 2000).ok());
  EXPECT_EQ(seq_db.num_events(), 2u);
  EXPECT_EQ(db.num_events(), 1u);
  EXPECT_EQ(db.data_time_range().end, kMaxTimestampMs + 1);
}

// Every field of every event, compared by name (not through the column
// registry, whose pairing of columns and fields is what is under test).
void ExpectSameEvents(const std::vector<Event>& got, const std::vector<Event>& want,
                      const char* state) {
  ASSERT_EQ(got.size(), want.size()) << state;
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(testing::Message() << state << ", row " << i);
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].agent_id, want[i].agent_id);
    EXPECT_EQ(got[i].op, want[i].op);
    EXPECT_EQ(got[i].object_type, want[i].object_type);
    EXPECT_EQ(got[i].subject_idx, want[i].subject_idx);
    EXPECT_EQ(got[i].object_idx, want[i].object_idx);
    EXPECT_EQ(got[i].start_time, want[i].start_time);
    EXPECT_EQ(got[i].end_time, want[i].end_time);
    EXPECT_EQ(got[i].amount, want[i].amount);
    EXPECT_EQ(got[i].failure_code, want[i].failure_code);
  }
}

std::vector<Event> StoredEvents(const Database& db) {
  std::vector<Event> out;
  db.ForEachEvent([&](const Event& e) { out.push_back(e); });
  return out;
}

// A scanned event read back through EventView's accessors, which name the
// column vectors directly.
Event ViewedEvent(const EventView& v) {
  Event e;
  e.id = v.id();
  e.seq = v.seq();
  e.agent_id = v.agent_id();
  e.op = v.op();
  e.object_type = v.object_type();
  e.subject_idx = v.subject_idx();
  e.object_idx = v.object_idx();
  e.start_time = v.start_time();
  e.end_time = v.end_time();
  e.amount = v.amount();
  e.failure_code = v.failure_code();
  return e;
}

std::vector<Event> TimeIdOrder(std::vector<Event> events) {
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.start_time != b.start_time ? a.start_time < b.start_time : a.id < b.id;
  });
  return events;
}

// Events whose eleven fields all differ from one another and from row to row,
// so a dropped, swapped or unevenly permuted column shows; every operation
// and entity type appears, and ingest order is not time order.
std::vector<Event> DistinctFieldEvents() {
  std::vector<Event> events;
  for (int i = 0; i < kNumOperations; ++i) {
    Event e;
    // The largest id leaves room for the next RecordEvent id.
    e.id = i % 2 == 0 ? INT64_MAX - 1 - i : INT64_MIN + 100 + i;
    e.seq = 1000 + i;
    e.agent_id = i == 0 ? UINT32_MAX : static_cast<AgentId>(2000 + i);
    e.op = static_cast<Operation>(i);
    e.object_type = static_cast<EntityType>(i % 3);
    e.subject_idx = static_cast<uint32_t>(3000 + i);
    e.object_idx = static_cast<uint32_t>(4000 + i);
    e.start_time = i == 0   ? kMaxTimestampMs
                   : i == 1 ? kMinTimestampMs
                            : 5000 * (kNumOperations - i);
    e.end_time = i == 0 ? kMaxTimestampMs - 1 : e.start_time + 7 + i;
    e.amount = i == 0 ? INT64_MIN : i == 1 ? INT64_MAX : -6000 - i;
    e.failure_code = i == 0 ? INT32_MIN : i == 1 ? INT32_MAX : 7000 + i;
    events.push_back(e);
  }
  return events;
}

TEST(StorageReplayTest, EveryFieldSurvivesEveryPartitionState) {
  const std::vector<Event> input = DistinctFieldEvents();
  // One partition (no time/space scheme), kept hot or archived at Finalize.
  Database hot{DatabaseOptions{.scheme = PartitionScheme::kNone}};
  Database cold{DatabaseOptions{.scheme = PartitionScheme::kNone, .archive_after_days = 0}};
  for (const Event& e : input) {
    hot.AppendRaw(e);
    cold.AppendRaw(e);
  }
  ExpectSameEvents(StoredEvents(hot), input, "before Finalize");

  hot.Finalize();
  ASSERT_EQ(hot.num_archived_partitions(), 0u);
  ExpectSameEvents(StoredEvents(hot), TimeIdOrder(input), "finalized");
  // ForEachEvent reads and writes every column through the registry; the
  // scan's views read them by name, so a vector paired with another field
  // shows here.
  std::vector<Event> scanned;
  for (EntityType t : {EntityType::kFile, EntityType::kProcess, EntityType::kNetwork}) {
    DataQuery q;
    q.object_type = t;
    for (const EventView& v : hot.ExecuteQuery(q)) {
      scanned.push_back(ViewedEvent(v));
    }
  }
  ExpectSameEvents(TimeIdOrder(scanned), TimeIdOrder(input), "scanned");

  cold.Finalize();
  ASSERT_EQ(cold.num_archived_partitions(), 1u);
  ExpectSameEvents(StoredEvents(cold), TimeIdOrder(input), "archived");

  Event late = input[4];
  late.id = 42;
  late.seq = 9000;
  late.start_time = input[6].start_time;  // a tie broken by the smaller id
  late.amount = 123456789;
  cold.AppendRaw(late);
  EXPECT_EQ(cold.num_archived_partitions(), 0u);
  std::vector<Event> reopened = TimeIdOrder(input);
  reopened.push_back(late);
  ExpectSameEvents(StoredEvents(cold), reopened, "reopened by Append");

  cold.Finalize();
  EXPECT_EQ(cold.num_archived_partitions(), 1u);
  ExpectSameEvents(StoredEvents(cold), TimeIdOrder(reopened), "re-finalized");
}

// --- predicate expression tests ---

TEST(PredicateTest, CmpOps) {
  AttrPredicate p;
  p.attr = Attr::kEventAmount;
  p.op = CmpOp::kGe;
  p.values = {Value(int64_t{10})};
  EXPECT_TRUE(p.Eval(Value(int64_t{10})));
  EXPECT_TRUE(p.Eval(Value(int64_t{11})));
  EXPECT_FALSE(p.Eval(Value(int64_t{9})));
}

TEST(PredicateTest, InWithHashSet) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(Value(int64_t{i * 2}));
  }
  AttrPredicate p = AttrPredicate::In(Attr::kEventAmount, values);
  ASSERT_NE(p.value_set, nullptr);  // large lists materialize the set
  EXPECT_TRUE(p.Eval(Value(int64_t{50})));
  EXPECT_FALSE(p.Eval(Value(int64_t{51})));
}

TEST(PredicateTest, BooleanTree) {
  auto leaf = [](Attr attr, CmpOp op, Value v) {
    AttrPredicate p;
    p.attr = attr;
    p.op = op;
    p.values = {std::move(v)};
    return PredExpr::Leaf(std::move(p));
  };
  PredExpr expr = PredExpr::And(
      leaf(Attr::kFileVolId, CmpOp::kEq, Value(int64_t{1})),
      PredExpr::Or(leaf(Attr::kFileDataId, CmpOp::kEq, Value(int64_t{2})),
                   PredExpr::Not(leaf(Attr::kFileOwner, CmpOp::kEq, Value("x")))));
  auto source = [&](Attr attr) -> std::optional<Value> {
    if (attr == Attr::kFileVolId) {
      return Value(int64_t{1});
    }
    if (attr == Attr::kFileDataId) {
      return Value(int64_t{3});
    }
    if (attr == Attr::kFileOwner) {
      return Value("y");
    }
    return std::nullopt;
  };
  EXPECT_TRUE(expr.Eval(source));
  EXPECT_EQ(expr.CountConstraints(), 3u);
}

TEST(PredicateTest, EqualityValuesForConjunction) {
  AttrPredicate p;
  p.attr = Attr::kFileName;
  p.op = CmpOp::kEq;
  p.values = {Value("x")};
  PredExpr expr = PredExpr::Leaf(p);
  auto vals = expr.EqualityValuesFor(Attr::kFileName);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0].ToString(), "x");
  EXPECT_TRUE(expr.EqualityValuesFor(Attr::kFileOwner).empty());
}

TEST(PredicateTest, EqualityValuesForDisjunctionNeedsAllBranches) {
  auto eq = [](Attr attr, const char* v) {
    AttrPredicate p;
    p.attr = attr;
    p.op = CmpOp::kEq;
    p.values = {Value(v)};
    return PredExpr::Leaf(std::move(p));
  };
  PredExpr both = PredExpr::Or(eq(Attr::kFileName, "a"), eq(Attr::kFileName, "b"));
  EXPECT_EQ(both.EqualityValuesFor(Attr::kFileName).size(), 2u);
  PredExpr mixed = PredExpr::Or(eq(Attr::kFileName, "a"), eq(Attr::kFileOwner, "b"));
  EXPECT_TRUE(mixed.EqualityValuesFor(Attr::kFileName).empty());
}

TEST(PredicateTest, LikeWithoutWildcardsUsableForIndex) {
  AttrPredicate p;
  p.attr = Attr::kFileName;
  p.op = CmpOp::kLike;
  p.values = {Value("exact.txt")};
  EXPECT_EQ(PredExpr::Leaf(p).EqualityValuesFor(Attr::kFileName).size(), 1u);
  p.values = {Value("%wild%")};
  EXPECT_TRUE(PredExpr::Leaf(p).EqualityValuesFor(Attr::kFileName).empty());
}

}  // namespace
}  // namespace aiql
