// TracedStore: a forwarding EventStore over a finalized Database that times
// each data query from outside the library.
//
// The engine only sees the EventStore interface, so handing it this
// decorator instead of the Database needs no library change. Every data
// query becomes one storage.fetch span, split through the Database's public
// two-phase scan functions exactly as Database::ExecuteQueryCached /
// ExecuteQueryParallel / ScanWithPlan call them:
//
//   plan-cache lookup -> PlanQuery (on a miss) -> BuildScanMorsels ->
//   ScanPlannedMorsel on ThreadPool::RunBulk -> MergeMorselResults
//
// The fidelity test (fidelity_test.cc) checks that the views and ScanStats
// returned here are identical to the wrapped Database's for every data query
// of every workload, so the traced path cannot drift from the real one.
//
// Single-client: spans and counters are recorded from the calling thread
// only (see Tracer), so one TracedStore serves one query at a time.
#ifndef AIQLBENCH_TRACED_STORE_H_
#define AIQLBENCH_TRACED_STORE_H_

#include <vector>

#include "aiqlbench/trace.h"
#include "src/storage/database.h"
#include "src/storage/event_store.h"

namespace aiqlbench {

class TracedStore : public aiql::EventStore {
 public:
  TracedStore(const aiql::Database* db, Tracer* tracer) : db_(db), tracer_(tracer) {}

  const aiql::EntityCatalog& catalog() const override { return db_->catalog(); }

  std::vector<aiql::EventView> ExecuteQuery(const aiql::DataQuery& query, aiql::ScanStats* stats,
                                            const aiql::ScanContext* ctx) const override;
  std::vector<aiql::EventView> ExecuteQueryParallel(const aiql::DataQuery& query,
                                                    aiql::ScanStats* stats, aiql::ThreadPool* pool,
                                                    const aiql::ScanContext* ctx) const override;
  std::vector<aiql::EventView> ExecuteQueryCached(const aiql::DataQuery& query,
                                                  aiql::ScanStats* stats, aiql::ThreadPool* pool,
                                                  aiql::ScanPlanCache* cache, uint64_t* cache_hits,
                                                  const aiql::ScanContext* ctx) const override;
  bool SupportsParallelScan() const override { return db_->SupportsParallelScan(); }
  size_t PlanCacheCapacity() const override { return db_->PlanCacheCapacity(); }
  aiql::TimeRange data_time_range() const override { return db_->data_time_range(); }
  bool SupportsDaySplit() const override { return db_->SupportsDaySplit(); }

  // Archived plan survivors scanned so far: the denominator of the decode
  // miss ratio, which ScanStats does not carry.
  uint64_t archived_partitions_scanned() const { return archived_partitions_scanned_; }

 private:
  // Database::ScanWithPlan, one span per phase.
  std::vector<aiql::EventView> Scan(const aiql::ScanPlan& plan, aiql::ScanStats* stats,
                                    aiql::ThreadPool* pool, const aiql::ScanContext* ctx) const;

  const aiql::Database* db_;
  Tracer* tracer_;
  mutable uint64_t archived_partitions_scanned_ = 0;
};

}  // namespace aiqlbench

#endif  // AIQLBENCH_TRACED_STORE_H_
