#include "aiqlbench/traced_store.h"

#include <optional>

#include "src/storage/plan_cache.h"
#include "src/util/thread_pool.h"

namespace aiqlbench {

using aiql::EventView;
using aiql::ScanStats;

std::vector<EventView> TracedStore::ExecuteQuery(const aiql::DataQuery& query, ScanStats* stats,
                                                 const aiql::ScanContext* ctx) const {
  return ExecuteQueryParallel(query, stats, nullptr, ctx);
}

std::vector<EventView> TracedStore::ExecuteQueryParallel(const aiql::DataQuery& query,
                                                         ScanStats* stats, aiql::ThreadPool* pool,
                                                         const aiql::ScanContext* ctx) const {
  ScopedSpan fetch(tracer_, SpanKind::kFetch);
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  std::optional<aiql::ScanPlan> plan;
  {
    ScopedSpan span(tracer_, SpanKind::kPlan);
    plan = db_->PlanQuery(query, st);
  }
  if (!plan.has_value()) {
    return {};
  }
  return Scan(*plan, st, pool, ctx);
}

std::vector<EventView> TracedStore::ExecuteQueryCached(const aiql::DataQuery& query,
                                                       ScanStats* stats, aiql::ThreadPool* pool,
                                                       aiql::ScanPlanCache* cache,
                                                       uint64_t* cache_hits,
                                                       const aiql::ScanContext* ctx) const {
  if (cache == nullptr) {
    return ExecuteQueryParallel(query, stats, pool, ctx);
  }
  std::string key = aiql::DataQueryFingerprint(query);
  if (key.empty()) {
    return ExecuteQueryParallel(query, stats, pool, ctx);
  }
  ScopedSpan fetch(tracer_, SpanKind::kFetch);
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  std::shared_ptr<const aiql::ScanPlanCache::Entry> entry = cache->Find(key);
  if (entry == nullptr) {
    ScopedSpan span(tracer_, SpanKind::kPlan);
    auto fresh = std::make_shared<aiql::ScanPlanCache::Entry>();
    fresh->query = query;
    std::optional<aiql::ScanPlan> plan = db_->PlanQuery(fresh->query, &fresh->planning_stats);
    if (plan.has_value()) {
      fresh->plan = std::make_unique<const aiql::ScanPlan>(std::move(*plan));
    }
    entry = cache->Insert(std::move(key), std::move(fresh));
  } else if (cache_hits != nullptr) {
    ++*cache_hits;
  }
  *st += entry->planning_stats;
  if (entry->plan == nullptr) {
    return {};
  }
  return Scan(*entry->plan, st, pool, ctx);
}

std::vector<EventView> TracedStore::Scan(const aiql::ScanPlan& plan, ScanStats* st,
                                         aiql::ThreadPool* pool,
                                         const aiql::ScanContext* ctx) const {
  aiql::ScanPinScope pin_scope(ctx);
  ctx = pin_scope.ctx();
  const size_t n = plan.survivors.size();
  for (const aiql::Partition* p : plan.survivors) {
    archived_partitions_scanned_ += p->archived() ? 1 : 0;
  }
  struct Timed {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t worker = 0;
  };
  // Morsel times are written by whichever participant ran the morsel and
  // recorded as spans by this thread once the scan has joined.
  auto record_scan = [&](int64_t start_ns, int64_t end_ns, uint32_t participants,
                         const std::vector<Timed>& morsels) {
    uint64_t scan = tracer_->Record(SpanKind::kScan, tracer_->current(), start_ns, end_ns,
                                    participants);
    for (const Timed& m : morsels) {
      if (m.end_ns != 0) {
        tracer_->Record(SpanKind::kMorsel, scan, m.start_ns, m.end_ns, m.worker);
      }
    }
  };

  auto scan_serial = [&] {
    std::vector<EventView> out;
    std::vector<size_t> run_starts;
    run_starts.reserve(n);
    std::vector<Timed> times(n);
    const int64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) {
      if (ctx->ShouldStop()) {
        break;
      }
      run_starts.push_back(out.size());
      times[i].start_ns = NowNs();
      db_->ScanPlannedPartition(plan, i, &out, st, ctx);
      times[i].end_ns = NowNs();
    }
    record_scan(start, NowNs(), 1, times);
    ScopedSpan merge(tracer_, SpanKind::kMerge);
    aiql::MergeSortedRuns(&out, &run_starts);
    return out;
  };
  if (pool == nullptr || n == 0) {
    return scan_serial();
  }

  std::vector<aiql::ScanMorsel> morsels;
  {
    ScopedSpan span(tracer_, SpanKind::kMorsels);
    morsels = aiql::BuildScanMorsels(plan, db_->options().morsel_rows);
  }
  if (morsels.size() < 2) {
    return scan_serial();
  }
  std::vector<std::vector<EventView>> slots(morsels.size());
  std::vector<ScanStats> worker_stats(pool->max_participants());
  std::vector<Timed> times(morsels.size());
  const int64_t start = NowNs();
  pool->RunBulk(morsels.size(), [&](size_t worker, size_t m) {
    if (ctx->ShouldStop()) {
      return;
    }
    times[m].start_ns = NowNs();
    db_->ScanPlannedMorsel(plan, morsels[m], &slots[m], &worker_stats[worker], ctx);
    times[m].end_ns = NowNs();
    times[m].worker = static_cast<uint32_t>(worker);
  });
  record_scan(start, NowNs(), static_cast<uint32_t>(pool->max_participants()), times);
  st->parallel_morsels += morsels.size();
  ScopedSpan merge(tracer_, SpanKind::kMerge);
  return aiql::MergeMorselResults(&slots, worker_stats, st);
}

}  // namespace aiqlbench
