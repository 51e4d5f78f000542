// The entity-aware scan path must be invisible in results: candidate-entity
// bitmap probes, posting-list access, zone-map entity (range + bloom)
// partition pruning, and sub-partition row morsels are pure performance
// features. These tests prove
//   - plain (time-slice) and indexed (posting-list) scans ≡ the brute-force
//     reference store, serial and pooled, with candidate sets on both sides
//     of kPostingCandidateLimit and pruning observable via
//     partitions_pruned_entity,
//   - morsel-split parallel scans ≡ whole-partition and serial scans,
// at parallelism 1/8 and against the brute-force reference store, plus unit
// coverage for the blocked bloom (false-positive-only), the dense bitmap, and
// the sorted-run merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "src/storage/bloom.h"
#include "src/storage/database.h"
#include "src/storage/scan_kernels.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/reference_store.h"

namespace aiql {
namespace {

// Processes and files every event draws from; the catalog holds more of each
// that no event references (indices after these).
constexpr uint32_t kActiveProcesses = 12;
constexpr uint32_t kActiveFiles = 120;

// A 3-day, 4-host stream with agent-affine files, so candidate sets drawn
// from one host's entities give the (day, agent-group) partitions disjoint
// entity ranges — the shape entity zone pruning exists for. The file catalog
// is larger than kPostingCandidateLimit, so candidate sets can be drawn on
// both sides of it.
void FillDatabase(Database* db, int events = 6000) {
  Rng rng(91);
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  std::vector<uint32_t> p, f;
  for (uint32_t i = 0; i < kActiveProcesses; ++i) {
    p.push_back(db->catalog().InternProcess(1 + i % 4, 500 + i, "/bin/k" + std::to_string(i),
                                            i % 2 == 0 ? "root" : "bob"));
  }
  for (uint32_t i = 0; i < kActiveFiles; ++i) {
    f.push_back(db->catalog().InternFile(1 + i % 4, "/k/f" + std::to_string(i)));
  }
  for (uint32_t i = 0; i < 16; ++i) {
    db->catalog().InternProcess(1 + i % 4, 900 + i, "/bin/idle" + std::to_string(i));
  }
  for (uint32_t i = 0; i < kPostingCandidateLimit + 1000; ++i) {
    db->catalog().InternFile(1 + i % 4, "/idle/f" + std::to_string(i));
  }
  for (int i = 0; i < events; ++i) {
    uint32_t subj = p[rng.Below(p.size())];
    AgentId agent = db->catalog().AgentOf(EntityType::kProcess, subj);
    uint32_t obj;
    do {
      obj = f[rng.Below(f.size())];
    } while (db->catalog().AgentOf(EntityType::kFile, obj) != agent);
    auto op = static_cast<Operation>(rng.Below(kNumOperations));
    db->RecordEvent(agent, subj, op, EntityType::kFile, obj,
                    base + static_cast<TimestampMs>(rng.Below(3 * kDayMs)), rng.Range(0, 5000),
                    static_cast<int32_t>(rng.Below(3)));
  }
  db->Finalize();
}

// `n` random indices below `universe` (with repeats).
std::vector<uint32_t> RandomIndices(Rng* rng, size_t n, uint32_t universe) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<uint32_t>(rng->Below(universe)));
  }
  return out;
}

// Random data query exercising the membership paths: pushed-down `id IN`
// candidate sets of varying sizes — a few (posting-list access when indexed)
// or more than kPostingCandidateLimit files (time-slice access) — agent sets,
// op masks, time ranges, and vectorizable event predicates.
DataQuery RandomQuery(Rng* rng, const EntityCatalog& catalog) {
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  DataQuery q;
  q.object_type = EntityType::kFile;
  if (rng->Chance(0.4)) {
    q.op_mask = static_cast<OpMask>(rng->Range(1, kAllOps));
  }
  if (rng->Chance(0.5)) {
    TimestampMs a = base + static_cast<TimestampMs>(rng->Below(3 * kDayMs));
    TimestampMs b = base + static_cast<TimestampMs>(rng->Below(3 * kDayMs));
    q.time = TimeRange{std::min(a, b), std::max(a, b) + 1};
  }
  if (rng->Chance(0.4)) {
    std::vector<AgentId> agents;
    size_t n = 1 + rng->Below(3);
    for (size_t i = 0; i < n; ++i) {
      agents.push_back(static_cast<AgentId>(rng->Range(1, 4)));
    }
    q.agent_ids = agents;
  }
  if (rng->Chance(0.7)) {
    size_t n = rng->Chance(0.5) ? 1 + rng->Below(4) : 6 + rng->Below(6);
    q.subject_pred = EntityIdsIn(catalog, EntityType::kProcess,
                                 RandomIndices(rng, n, kActiveProcesses));
  }
  if (rng->Chance(0.7)) {
    std::vector<uint32_t> cand;
    switch (rng->Below(3)) {
      case 0:
        cand = RandomIndices(rng, 1 + rng->Below(6), kActiveFiles);
        break;
      case 1:
        cand = RandomIndices(rng, 10 + rng->Below(40), kActiveFiles);
        break;
      default: {
        // A random subset of the whole file catalog, too large for postings.
        const auto files = static_cast<uint32_t>(catalog.CountOf(EntityType::kFile));
        cand.resize(files);
        std::iota(cand.begin(), cand.end(), 0u);
        for (uint32_t i = files - 1; i > 0; --i) {
          std::swap(cand[i], cand[rng->Below(i + 1)]);
        }
        cand.resize(kPostingCandidateLimit + 1 + rng->Below(files - kPostingCandidateLimit));
        break;
      }
    }
    q.object_pred = EntityIdsIn(catalog, EntityType::kFile, cand);
  }
  if (rng->Chance(0.4)) {
    AttrPredicate pred;
    pred.attr = Attr::kEventAmount;
    pred.op = CmpOp::kGe;
    pred.values = {Value(static_cast<int64_t>(rng->Below(4000)))};
    q.event_pred = PredExpr::Leaf(pred);
  }
  return q;
}

std::vector<int64_t> IdsOf(const std::vector<EventView>& events) {
  std::vector<int64_t> ids;
  ids.reserve(events.size());
  for (const EventView& e : events) {
    ids.push_back(e.id());
  }
  return ids;
}

TEST(BlockedBloomTest, FalsePositiveOnly) {
  Rng rng(7);
  for (size_t n : {1u, 10u, 100u, 5000u}) {
    BlockedBloom bloom;
    bloom.Build(n);
    std::unordered_set<uint64_t> keys;
    while (keys.size() < n) {
      keys.insert(rng.Next());
    }
    for (uint64_t k : keys) {
      bloom.Add(k);
    }
    // Never a false negative.
    for (uint64_t k : keys) {
      EXPECT_TRUE(bloom.MayContain(k)) << "n=" << n;
    }
    // False positives are rare (sized at ~4 bytes/key, ~1% expected; assert a
    // loose 5% so the test is not seed-sensitive).
    int fp = 0;
    const int probes = 10000;
    for (int i = 0; i < probes; ++i) {
      uint64_t k = rng.Next();
      if (keys.count(k) == 0 && bloom.MayContain(k)) {
        ++fp;
      }
    }
    EXPECT_LT(fp, probes / 20) << "n=" << n;
  }
}

TEST(BlockedBloomTest, EmptyFilterClaimsEverything) {
  BlockedBloom bloom;
  EXPECT_TRUE(bloom.empty());
  EXPECT_TRUE(bloom.MayContain(42));
}

TEST(DenseBitmapTest, SetAndTest) {
  DenseBitmap bm(170);
  EXPECT_EQ(bm.span(), 170u);
  bm.Set(0);
  bm.Set(63);
  bm.Set(169);
  EXPECT_EQ(bm.Test(0), 1u);
  EXPECT_EQ(bm.Test(63), 1u);
  EXPECT_EQ(bm.Test(169), 1u);
  EXPECT_EQ(bm.Test(1), 0u);
  EXPECT_EQ(bm.Test(64), 0u);
  EXPECT_EQ(bm.Test(168), 0u);
}

TEST(MergeSortedRunsTest, TiedTimestampsComeBackInIdOrder) {
  // AppendRaw replay with descending ids at one timestamp: the partition
  // must emit (start_time, id) order without relying on a final global sort.
  Database db;
  db.catalog().InternProcess(1, 1, "/bin/tie");
  db.catalog().InternFile(1, "/tie/f");
  for (int64_t id : {7, 3, 9, 1}) {
    Event e;
    e.id = id;
    e.agent_id = 1;
    e.op = Operation::kRead;
    e.object_type = EntityType::kFile;
    e.start_time = 1000;
    e.end_time = 1000;
    db.AppendRaw(e);
  }
  db.Finalize();
  DataQuery q;
  q.object_type = EntityType::kFile;
  EXPECT_EQ(IdsOf(db.ExecuteQuery(q)), (std::vector<int64_t>{1, 3, 7, 9}));
}

TEST(MergeSortedRunsTest, MergesOverlappingRuns) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    // 1-5 runs of sorted events with overlapping time ranges.
    EventColumns storage;
    std::vector<size_t> run_starts;
    std::vector<std::vector<TimestampMs>> runs(1 + rng.Below(5));
    int64_t id = 1;
    for (auto& r : runs) {
      size_t n = rng.Below(20);
      for (size_t i = 0; i < n; ++i) {
        r.push_back(static_cast<TimestampMs>(rng.Below(50)));
      }
      std::sort(r.begin(), r.end());
    }
    for (const auto& r : runs) {
      run_starts.push_back(storage.size());
      for (TimestampMs t : r) {
        Event e;
        e.id = id++;
        e.start_time = t;
        storage.Append(e);
      }
    }
    std::vector<EventView> views;
    for (uint32_t row = 0; row < storage.size(); ++row) {
      views.push_back(EventView(&storage, row));
    }
    std::vector<EventView> expected = views;
    std::sort(expected.begin(), expected.end(), EventViewTimeIdLess);
    MergeSortedRuns(&views, &run_starts);
    EXPECT_EQ(IdsOf(views), IdsOf(expected)) << "trial " << trial;
  }
}

TEST(ZoneMapTest, ContainsAnyAgentBothDirections) {
  EventColumns cols;
  Event e;
  for (AgentId a : {5u, 9u, 1000u}) {
    e.agent_id = a;
    cols.Append(e);
  }
  ZoneMap z(cols);
  // Small candidate sets (binary-search direction).
  EXPECT_TRUE(z.ContainsAnyAgent(std::unordered_set<AgentId>{1000}));
  EXPECT_TRUE(z.ContainsAnyAgent(std::unordered_set<AgentId>{5, 6}));
  EXPECT_FALSE(z.ContainsAnyAgent(std::unordered_set<AgentId>{6, 7}));
  // Candidates much larger than the agent list (swapped direction: the zone
  // agents probe the candidate hash set).
  std::unordered_set<AgentId> big;
  for (AgentId a = 100; a < 400; ++a) {
    big.insert(a);
  }
  EXPECT_FALSE(z.ContainsAnyAgent(big));
  big.insert(9);
  EXPECT_TRUE(z.ContainsAnyAgent(big));
}

// --- equivalence properties -------------------------------------------------

struct NamedDb {
  const char* name;
  Database db;
};

TEST(ScanEquivalenceTest, PlainAndIndexedScansMatchReference) {
  // Plain: no indexes, so every constrained side is probed row by row over
  // the time slice. Indexed: sides with few candidates take the posting-list
  // union instead.
  NamedDb plain{"plain", Database{DatabaseOptions{.agent_group_size = 2, .build_indexes = false}}};
  NamedDb indexed{"indexed", Database{DatabaseOptions{.agent_group_size = 2}}};
  FillDatabase(&plain.db);
  FillDatabase(&indexed.db);
  const ReferenceStore brute_force(plain.db);

  ThreadPool pool8(7);
  Rng rng(404);
  uint64_t bitmap_probes = 0, pruned_entity = 0;
  for (int trial = 0; trial < 100; ++trial) {
    DataQuery q = RandomQuery(&rng, brute_force.catalog());
    const std::vector<int64_t> want = IdsOf(brute_force.ExecuteQuery(q, nullptr));
    ScanStats plain_stats;
    for (NamedDb* v : {&plain, &indexed}) {
      ScanStats serial_stats;
      EXPECT_EQ(IdsOf(v->db.ExecuteQuery(q, &serial_stats)), want)
          << v->name << " trial " << trial;
      ScanStats par_stats;
      EXPECT_EQ(IdsOf(v->db.ExecuteQueryParallel(q, &par_stats, &pool8)), want)
          << v->name << " trial " << trial;
      EXPECT_EQ(par_stats.events_scanned, serial_stats.events_scanned)
          << v->name << " trial " << trial;
      EXPECT_EQ(par_stats.events_matched, serial_stats.events_matched)
          << v->name << " trial " << trial;
      EXPECT_EQ(par_stats.partitions_pruned_entity, serial_stats.partitions_pruned_entity)
          << v->name << " trial " << trial;
      EXPECT_EQ(par_stats.bitmap_probes, serial_stats.bitmap_probes)
          << v->name << " trial " << trial;
      if (v == &plain) {
        plain_stats = serial_stats;
      } else {
        // Posting lists only ever narrow the rows a scan touches.
        EXPECT_LE(serial_stats.events_scanned, plain_stats.events_scanned) << "trial " << trial;
      }
      bitmap_probes += serial_stats.bitmap_probes;
      pruned_entity += serial_stats.partitions_pruned_entity;
    }
  }
  // Both the bitmap probe and entity pruning fired somewhere in the sweep.
  EXPECT_GT(bitmap_probes, 0u);
  EXPECT_GT(pruned_entity, 0u);
}

TEST(ScanEquivalenceTest, LastCatalogEntityIsACandidate) {
  // 129 processes and 129 files: the last index of each catalog (128) is the
  // first bit of a new 64-bit bitmap word, so a candidate bitmap sized even
  // one entity short reads past its end.
  constexpr uint32_t kEntities = 129;
  for (bool indexes : {false, true}) {
    Database db{DatabaseOptions{.build_indexes = indexes}};
    std::vector<uint32_t> p, f;
    for (uint32_t i = 0; i < kEntities; ++i) {
      p.push_back(db.catalog().InternProcess(1, 1000 + i, "/bin/b" + std::to_string(i)));
      f.push_back(db.catalog().InternFile(1, "/b/f" + std::to_string(i)));
    }
    const TimestampMs base = MakeTimestamp(2017, 1, 1);
    for (uint32_t i = 0; i < 2 * kEntities; ++i) {
      db.RecordEvent(1, p[i % kEntities], Operation::kRead, EntityType::kFile,
                     f[(7 * i) % kEntities], base + i);
    }
    db.Finalize();
    const ReferenceStore reference(db);
    const uint32_t last = kEntities - 1;
    DataQuery by_subject;
    by_subject.object_type = EntityType::kFile;
    by_subject.subject_pred = EntityIdsIn(db.catalog(), EntityType::kProcess, {last});
    DataQuery by_object = by_subject;
    by_object.subject_pred = PredExpr::True();
    by_object.object_pred = EntityIdsIn(db.catalog(), EntityType::kFile, {last});
    DataQuery by_both = by_subject;
    by_both.object_pred = by_object.object_pred;
    for (const DataQuery* q : {&by_subject, &by_object, &by_both}) {
      ScanStats stats;
      const std::vector<int64_t> got = IdsOf(db.ExecuteQuery(*q, &stats));
      EXPECT_EQ(got, IdsOf(reference.ExecuteQuery(*q, nullptr))) << "indexes " << indexes;
      EXPECT_GT(stats.bitmap_probes, 0u) << "indexes " << indexes;
    }
    EXPECT_EQ(IdsOf(db.ExecuteQuery(by_subject)).size(), 2u) << "indexes " << indexes;
    EXPECT_EQ(IdsOf(db.ExecuteQuery(by_object)).size(), 2u) << "indexes " << indexes;
  }
}

TEST(MorselEquivalenceTest, TinyMorselsMatchWholePartitions) {
  // morsel_rows = 7 splits every partition into dozens of chunks, so matches
  // straddle morsel edges constantly; results and strategy-invariant stats
  // must equal the whole-partition (morsel_rows = 0) and serial scans.
  Database split{DatabaseOptions{.agent_group_size = 2, .morsel_rows = 7}};
  Database whole{DatabaseOptions{.agent_group_size = 2, .morsel_rows = 0}};
  FillDatabase(&split);
  FillDatabase(&whole);
  const ReferenceStore reference(split);
  ThreadPool pool8(7);
  Rng rng(505);
  uint64_t split_morsels = 0, whole_morsels = 0;
  for (int trial = 0; trial < 100; ++trial) {
    DataQuery q = RandomQuery(&rng, split.catalog());
    ScanStats serial_stats, split_stats, whole_stats;
    std::vector<int64_t> serial_ids = IdsOf(split.ExecuteQuery(q, &serial_stats));
    EXPECT_EQ(serial_ids, IdsOf(reference.ExecuteQuery(q, nullptr))) << "trial " << trial;
    EXPECT_EQ(IdsOf(split.ExecuteQueryParallel(q, &split_stats, &pool8)), serial_ids)
        << "trial " << trial;
    EXPECT_EQ(IdsOf(whole.ExecuteQueryParallel(q, &whole_stats, &pool8)), serial_ids)
        << "trial " << trial;
    for (const ScanStats* s : {&split_stats, &whole_stats}) {
      EXPECT_EQ(s->events_scanned, serial_stats.events_scanned) << "trial " << trial;
      EXPECT_EQ(s->events_matched, serial_stats.events_matched) << "trial " << trial;
      EXPECT_EQ(s->partitions_scanned, serial_stats.partitions_scanned) << "trial " << trial;
      EXPECT_EQ(s->partitions_pruned, serial_stats.partitions_pruned) << "trial " << trial;
      EXPECT_EQ(s->index_lookups, serial_stats.index_lookups) << "trial " << trial;
    }
    split_morsels += split_stats.parallel_morsels;
    whole_morsels += whole_stats.parallel_morsels;
  }
  // Splitting produced strictly more work-queue entries over the sweep.
  EXPECT_GT(split_morsels, whole_morsels);
}

// --- archive tier ------------------------------------------------------------

TEST(ArchiveEquivalenceTest, ArchivedPartitionsMatchHotAcrossParallelism) {
  // The same stream in three storages: hot columnar (reference), everything
  // archived, and archived with a decode cache smaller than the partition
  // count (evictions mid-sweep). Results must be identical at parallelism 1
  // and 8; archived scans may only ever decode partitions the hot scan would
  // have scanned.
  NamedDb reference{"hot", Database{DatabaseOptions{.agent_group_size = 2}}};
  std::vector<NamedDb> variants;
  variants.emplace_back(NamedDb{
      "archived", Database{DatabaseOptions{.agent_group_size = 2, .archive_after_days = 0}}});
  variants.emplace_back(NamedDb{
      "archived/tiny-cache",
      Database{DatabaseOptions{.agent_group_size = 2, .archive_after_days = 0,
                               .decode_cache_partitions = 1}}});
  variants.emplace_back(NamedDb{
      "archived/no-indexes",
      Database{DatabaseOptions{.agent_group_size = 2, .build_indexes = false,
                               .archive_after_days = 0}}});
  FillDatabase(&reference.db);
  for (NamedDb& v : variants) {
    FillDatabase(&v.db);
    EXPECT_GT(v.db.num_archived_partitions(), 0u) << v.name;
    // Archiving actually shrinks the resident column bytes.
    StorageFootprint f = v.db.Footprint();
    EXPECT_EQ(f.hot_column_bytes, 0u) << v.name;
    EXPECT_GT(f.archived_bytes, 0u) << v.name;
    EXPECT_GE(reference.db.Footprint().hot_column_bytes, 3 * f.archived_bytes) << v.name;
  }
  const ReferenceStore brute_force(reference.db);

  ThreadPool pool8(7);
  Rng rng(606);
  uint64_t decoded = 0;
  for (int trial = 0; trial < 100; ++trial) {
    DataQuery q = RandomQuery(&rng, reference.db.catalog());
    ScanStats ref_stats;
    std::vector<int64_t> ref_ids = IdsOf(reference.db.ExecuteQuery(q, &ref_stats));
    EXPECT_EQ(ref_ids, IdsOf(brute_force.ExecuteQuery(q, nullptr))) << "trial " << trial;
    for (NamedDb& v : variants) {
      // Views from archived partitions are valid while pinned (or cache-
      // resident); pin per execution exactly as the engine's session does.
      ColumnPins pins;
      ScanContext ctx;
      ctx.pins = &pins;
      ScanStats serial_stats;
      EXPECT_EQ(IdsOf(v.db.ExecuteQuery(q, &serial_stats, &ctx)), ref_ids)
          << v.name << " trial " << trial;
      ScanStats par_stats;
      EXPECT_EQ(IdsOf(v.db.ExecuteQueryParallel(q, &par_stats, &pool8, &ctx)), ref_ids)
          << v.name << " trial " << trial;
      // The scan work over decoded columns is identical to the hot scan.
      EXPECT_EQ(serial_stats.events_matched, ref_stats.events_matched)
          << v.name << " trial " << trial;
      EXPECT_EQ(par_stats.events_matched, serial_stats.events_matched)
          << v.name << " trial " << trial;
      // Decoding only ever happens on partitions the plan would scan.
      EXPECT_LE(serial_stats.partitions_decoded, serial_stats.partitions_scanned)
          << v.name << " trial " << trial;
      decoded += serial_stats.partitions_decoded + par_stats.partitions_decoded;
      EXPECT_LE(v.db.decode_cache().size(), v.db.options().decode_cache_partitions) << v.name;
    }
    EXPECT_EQ(ref_stats.partitions_decoded, 0u);  // hot reference never decodes
  }
  EXPECT_GT(decoded, 0u);  // the archive path actually ran somewhere
}

TEST(ArchiveEquivalenceTest, PrunedArchivedPartitionsAreNeverDecoded) {
  Database db{DatabaseOptions{.agent_group_size = 2, .archive_after_days = 0}};
  FillDatabase(&db);
  ASSERT_GT(db.num_archived_partitions(), 0u);
  db.decode_cache().Clear();

  // Out-of-window query: every partition dies on the scheme key / zone map,
  // so the archive tier must not touch a single encoded byte.
  DataQuery q;
  q.object_type = EntityType::kFile;
  TimestampMs base = MakeTimestamp(2019, 6, 1);
  q.time = TimeRange{base, base + kDayMs};
  ScanStats stats;
  EXPECT_TRUE(db.ExecuteQuery(q, &stats).empty());
  EXPECT_EQ(stats.partitions_decoded, 0u);
  EXPECT_EQ(stats.decoded_bytes, 0u);
  EXPECT_EQ(db.decode_cache().size(), 0u);

  // Entity pruning works the same without decode: candidate processes that
  // no event references lie outside every partition's subject range and
  // prune via the zone summaries.
  DataQuery q2;
  q2.object_type = EntityType::kFile;
  std::vector<uint32_t> idle(10);
  std::iota(idle.begin(), idle.end(), kActiveProcesses);
  q2.subject_pred = EntityIdsIn(db.catalog(), EntityType::kProcess, idle);
  ScanStats stats2;
  EXPECT_TRUE(db.ExecuteQuery(q2, &stats2).empty());
  EXPECT_GT(stats2.partitions_pruned_entity, 0u);
  EXPECT_EQ(stats2.partitions_pruned_entity, stats2.partitions_pruned);
  EXPECT_EQ(stats2.partitions_decoded, 0u);
  EXPECT_EQ(db.decode_cache().size(), 0u);
}

TEST(ArchiveEquivalenceTest, ReFinalizeAfterIngestRearchives) {
  // Ingest into an archived partition: Append decodes it back, Finalize
  // rebuilds and re-archives, and queries see the merged data.
  Database db{DatabaseOptions{.scheme = PartitionScheme::kNone, .archive_after_days = 0}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/a");
  uint32_t f = db.catalog().InternFile(1, "/f");
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  for (int i = 0; i < 100; ++i) {
    db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, base + i);
  }
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 1u);
  db.RecordEvent(1, p, Operation::kWrite, EntityType::kFile, f, base + 50);
  db.Finalize();
  EXPECT_EQ(db.num_archived_partitions(), 1u);
  DataQuery q;
  q.object_type = EntityType::kFile;
  ScanStats stats;
  EXPECT_EQ(db.ExecuteQuery(q, &stats).size(), 101u);
}

TEST(MorselEquivalenceTest, MatchStraddlingMorselEdgeDeterministic) {
  // One monolithic partition, morsel_rows = 8: every 8th row starts a new
  // morsel, and the matching band [20, 44) straddles three edges. The
  // parallel result must be the serial result, byte for byte.
  Database db{DatabaseOptions{.scheme = PartitionScheme::kNone, .morsel_rows = 8}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/edge");
  uint32_t f = db.catalog().InternFile(1, "/edge/file");
  for (int i = 0; i < 100; ++i) {
    db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, 1000 + i,
                   /*amount=*/(i >= 20 && i < 44) ? 9000 : 10);
  }
  db.Finalize();
  DataQuery q;
  q.object_type = EntityType::kFile;
  AttrPredicate pred;
  pred.attr = Attr::kEventAmount;
  pred.op = CmpOp::kGt;
  pred.values = {Value(int64_t{1000})};
  q.event_pred = PredExpr::Leaf(pred);
  ThreadPool pool(3);
  ScanStats serial_stats, par_stats;
  std::vector<int64_t> serial_ids = IdsOf(db.ExecuteQuery(q, &serial_stats));
  std::vector<int64_t> par_ids = IdsOf(db.ExecuteQueryParallel(q, &par_stats, &pool));
  EXPECT_EQ(serial_ids.size(), 24u);
  EXPECT_EQ(par_ids, serial_ids);
  EXPECT_EQ(serial_ids, IdsOf(ReferenceStore(db).ExecuteQuery(q, nullptr)));
  EXPECT_EQ(par_stats.events_scanned, serial_stats.events_scanned);
  EXPECT_EQ(par_stats.events_matched, serial_stats.events_matched);
  EXPECT_EQ(par_stats.partitions_scanned, serial_stats.partitions_scanned);
  // 100 rows / 8-row morsels = 13 work-queue entries for one partition.
  EXPECT_EQ(par_stats.parallel_morsels, 13u);
}

}  // namespace
}  // namespace aiql
