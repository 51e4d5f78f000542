// Archive-tier unit coverage: every codec round-trips exactly on random and
// adversarial inputs (empty, single row, all-equal, descending ids at equal
// timestamps, full-range int64), the adaptive pick never loses to either
// codec, realistic event columns compress well past the 3x target, and the
// two LRU caches (decoded archived partitions, compiled scan plans) hold at
// most their capacity while counting evictions.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/storage/database.h"
#include "src/storage/encoding.h"
#include "src/storage/partition.h"
#include "src/storage/plan_cache.h"
#include "src/util/rng.h"

namespace aiql {
namespace {

std::vector<int64_t> RoundTrip(const std::vector<int64_t>& v, IntCodec codec) {
  EncodedInts e = EncodeInts(v.data(), v.size(), codec);
  EXPECT_EQ(e.count, v.size());
  std::vector<int64_t> out(e.count);
  DecodeInts(e, out.data());
  return out;
}

TEST(IntCodecTest, AdversarialInputsRoundTrip) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::vector<int64_t>> cases = {
      {},                              // empty column
      {42},                            // single row
      {7, 7, 7, 7, 7, 7},              // all equal (width 0 everywhere)
      {9, 7, 3, 1},                    // descending ids at one timestamp
      {kMin, kMax, kMin, kMax},        // full-range alternation
      {kMin, kMin + 1, kMax - 1, kMax},
      {0, 1, 2, 3, 4, 5, 6, 7},        // sorted, unit deltas
      {-5, -4, -3, 0, 1000000000000},  // negatives crossing zero
  };
  // Block-boundary sizes: 1023/1024/1025 sorted values.
  for (size_t n : {kEncodingBlock - 1, kEncodingBlock, kEncodingBlock + 1}) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<int64_t>(i) * 3 - 1000;
    }
    cases.push_back(std::move(v));
  }
  for (const auto& v : cases) {
    for (IntCodec codec : {IntCodec::kFor, IntCodec::kDeltaFor}) {
      EXPECT_EQ(RoundTrip(v, codec), v)
          << IntCodecName(codec) << " n=" << v.size() << (v.empty() ? 0 : v[0]);
    }
    EncodedInts adaptive = EncodeIntsAdaptive(v.data(), v.size());
    std::vector<int64_t> out(adaptive.count);
    DecodeInts(adaptive, out.data());
    EXPECT_EQ(out, v) << "adaptive n=" << v.size();
  }
}

TEST(IntCodecTest, RandomInputsRoundTrip) {
  Rng rng(20180711);
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = rng.Below(3000);
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Below(4)) {
        case 0:  // full 64-bit entropy
          v[i] = static_cast<int64_t>(rng.Next());
          break;
        case 1:  // narrow domain
          v[i] = static_cast<int64_t>(rng.Below(9));
          break;
        case 2:  // near-monotonic (timestamps with jitter)
          v[i] = (i > 0 ? v[i - 1] : 0) + rng.Range(-3, 50);
          break;
        default:  // clustered around a large base
          v[i] = 1483228800000 + rng.Range(-100000, 100000);
          break;
      }
    }
    for (IntCodec codec : {IntCodec::kFor, IntCodec::kDeltaFor}) {
      EXPECT_EQ(RoundTrip(v, codec), v) << IntCodecName(codec) << " trial " << trial;
    }
  }
}

TEST(IntCodecTest, AdaptivePicksTheSmallerCodec) {
  Rng rng(5);
  // Sorted timestamps: delta wins. Random categorical values: FOR wins.
  std::vector<int64_t> sorted(4000), categorical(4000);
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = (i > 0 ? sorted[i - 1] : 1483228800000) + rng.Range(0, 2000);
    categorical[i] = static_cast<int64_t>(rng.Below(9));
  }
  for (const auto& v : {sorted, categorical}) {
    EncodedInts adaptive = EncodeIntsAdaptive(v.data(), v.size());
    EncodedInts plain = EncodeInts(v.data(), v.size(), IntCodec::kFor);
    EncodedInts delta = EncodeInts(v.data(), v.size(), IntCodec::kDeltaFor);
    EXPECT_LE(adaptive.EncodedBytes(), plain.EncodedBytes());
    EXPECT_LE(adaptive.EncodedBytes(), delta.EncodedBytes());
  }
  EXPECT_EQ(EncodeIntsAdaptive(sorted.data(), sorted.size()).codec, IntCodec::kDeltaFor);
}

TEST(ArchiveEncodingTest, RealisticEventColumnsCompressPast3x) {
  // The shape the archive tier exists for: sorted ms timestamps, sequential
  // ids, a handful of agents/ops, agent-affine entity indexes.
  Rng rng(31337);
  EventColumns cols;
  Event e;
  TimestampMs t = MakeTimestamp(2017, 1, 1);
  for (int i = 0; i < 50000; ++i) {
    t += rng.Range(0, 200);
    e.id = 1000 + i;
    e.seq = i / 4;
    e.agent_id = static_cast<AgentId>(1 + rng.Below(4));
    e.op = static_cast<Operation>(rng.Below(kNumOperations));
    e.object_type = rng.Chance(0.3) ? EntityType::kProcess : EntityType::kFile;
    e.subject_idx = static_cast<uint32_t>(rng.Below(300));
    e.object_idx = static_cast<uint32_t>(rng.Below(4000));
    e.start_time = t;
    e.end_time = t + rng.Range(0, 50);
    e.amount = rng.Chance(0.7) ? 0 : rng.Range(0, 1 << 20);
    e.failure_code = static_cast<int32_t>(rng.Below(3));
    cols.Append(e);
  }
  ArchivedColumns a = EncodeEventColumns(cols);
  ASSERT_EQ(a.count, cols.size());

  size_t hot_bytes = 0;
  hot_bytes += cols.size() * (5 * sizeof(int64_t) + 4 * sizeof(uint32_t) + 2);
  EXPECT_GE(hot_bytes, 3 * a.EncodedBytes())
      << "hot=" << hot_bytes << " archived=" << a.EncodedBytes();

  // Exact per-column round trip through the partition-level encoder.
  DecodedPartition dec(&a);
  const EventColumns* d = dec.EnsureAll(nullptr);
  EXPECT_EQ(d->id, cols.id);
  EXPECT_EQ(d->seq, cols.seq);
  EXPECT_EQ(d->agent_id, cols.agent_id);
  EXPECT_EQ(d->op, cols.op);
  EXPECT_EQ(d->object_type, cols.object_type);
  EXPECT_EQ(d->subject_idx, cols.subject_idx);
  EXPECT_EQ(d->object_idx, cols.object_idx);
  EXPECT_EQ(d->start_time, cols.start_time);
  EXPECT_EQ(d->end_time, cols.end_time);
  EXPECT_EQ(d->amount, cols.amount);
  EXPECT_EQ(d->failure_code, cols.failure_code);
}

TEST(DecodedPartitionTest, PerColumnDecodeAccountsBytesOnce) {
  EventColumns cols;
  Event e;
  for (int i = 0; i < 1000; ++i) {
    e.id = i;
    e.start_time = 1000 + i;
    cols.Append(e);
  }
  ArchivedColumns a = EncodeEventColumns(cols);
  DecodedPartition dec(&a);
  ScanStats stats;
  const EventColumns* d =
      dec.Ensure(ColumnBit(EventColumnId::kStartTime) | ColumnBit(EventColumnId::kOp), &stats);
  EXPECT_EQ(d->start_time.size(), 1000u);
  EXPECT_TRUE(d->id.empty());  // not requested, not decoded
  uint64_t partial = stats.decoded_bytes;
  EXPECT_GT(partial, 0u);
  // Re-ensuring the same columns decodes nothing new.
  dec.Ensure(ColumnBit(EventColumnId::kStartTime), &stats);
  EXPECT_EQ(stats.decoded_bytes, partial);
  dec.EnsureAll(&stats);
  EXPECT_EQ(d->id.size(), 1000u);
  EXPECT_GT(stats.decoded_bytes, partial);
}

// --- LRU caches --------------------------------------------------------------

TEST(DecodeCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  // Three archived partitions, capacity 2.
  Database db{DatabaseOptions{.agent_group_size = 1, .archive_after_days = 0,
                              .decode_cache_partitions = 2}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/a");
  uint32_t f = db.catalog().InternFile(1, "/f");
  TimestampMs base = MakeTimestamp(2017, 1, 1);
  for (int day = 0; day < 3; ++day) {
    for (int i = 0; i < 50; ++i) {
      db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f, base + day * kDayMs + i);
    }
  }
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 3u);

  DataQuery q;
  q.object_type = EntityType::kFile;
  ScanStats stats;
  // Full scan touches all 3 partitions: capacity 2 forces an eviction.
  auto events = db.ExecuteQuery(q, &stats);
  EXPECT_EQ(events.size(), 150u);
  EXPECT_EQ(stats.partitions_decoded, 3u);
  EXPECT_LE(db.decode_cache().size(), 2u);
  EXPECT_GE(db.decode_cache().evictions(), 1u);
  EXPECT_GT(stats.decoded_bytes, 0u);
  EXPECT_GT(stats.archived_bytes, 0u);

  // A re-scan of an evicted partition decodes again (counted again).
  ScanStats again;
  db.ExecuteQuery(q, &again);
  EXPECT_GE(again.partitions_decoded, 1u);
}

TEST(DecodeCacheTest, ResidentPartitionIsNotRedecoded) {
  Database db{DatabaseOptions{.scheme = PartitionScheme::kNone, .archive_after_days = 0}};
  uint32_t p = db.catalog().InternProcess(1, 1, "/bin/a");
  uint32_t f = db.catalog().InternFile(1, "/f");
  for (int i = 0; i < 100; ++i) {
    db.RecordEvent(1, p, Operation::kRead, EntityType::kFile, f,
                   MakeTimestamp(2017, 1, 1) + i);
  }
  db.Finalize();
  ASSERT_EQ(db.num_archived_partitions(), 1u);
  DataQuery q;
  q.object_type = EntityType::kFile;
  ScanStats first, second;
  db.ExecuteQuery(q, &first);
  EXPECT_EQ(first.partitions_decoded, 1u);
  db.ExecuteQuery(q, &second);
  EXPECT_EQ(second.partitions_decoded, 0u);  // warm cache
  EXPECT_EQ(second.decoded_bytes, 0u);
  // Dropping the cache makes the next scan cold again.
  db.decode_cache().Clear();
  ScanStats third;
  db.ExecuteQuery(q, &third);
  EXPECT_EQ(third.partitions_decoded, 1u);
}

TEST(ScanPlanCacheTest, LruCapAndEvictionCount) {
  ScanPlanCache cache(4);
  auto entry = [] { return std::make_shared<const ScanPlanCache::Entry>(); };
  for (int i = 0; i < 10; ++i) {
    cache.Insert("key" + std::to_string(i), entry());
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 6u);
  // The four newest keys survive; Find refreshes recency.
  EXPECT_NE(cache.Find("key9"), nullptr);
  EXPECT_NE(cache.Find("key6"), nullptr);
  EXPECT_EQ(cache.Find("key5"), nullptr);
  // key6 was just touched: inserting one more evicts key7 (the oldest
  // untouched), not key6.
  cache.Insert("fresh", entry());
  EXPECT_NE(cache.Find("key6"), nullptr);
  EXPECT_EQ(cache.Find("key7"), nullptr);
  // Inserting an existing key keeps the canonical entry and evicts nothing.
  uint64_t before = cache.evictions();
  auto canonical = cache.Find("key9");
  EXPECT_EQ(cache.Insert("key9", entry()), canonical);
  EXPECT_EQ(cache.evictions(), before);
}

}  // namespace
}  // namespace aiql
