// Per-partition zone maps and compiled column filters.
//
// A zone map summarizes one partition: min/max per numeric event column, the
// union of operation bits, the set of object entity types, and the distinct
// agents present. Database::ExecuteQuery consults zone maps to skip whole
// partitions before touching any column (the sketch-based candidate check of
// Tenzir's partition design, specialized to AIQL's fixed event schema).
//
// CompileEventPred splits a data query's event predicate into
//   - an operation-mask refinement (optype = "write" and friends),
//   - vectorizable per-column comparisons against integer constants,
//   - a residual PredExpr evaluated row-at-a-time for whatever remains.
// The compiled filters drive both zone-map pruning (can ANY row in this
// partition match?) and the vectorized scan (evaluate one column at a time
// over a shrinking selection vector).
#ifndef AIQL_SRC_STORAGE_ZONE_MAP_H_
#define AIQL_SRC_STORAGE_ZONE_MAP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/storage/bloom.h"
#include "src/storage/event.h"
#include "src/storage/event_view.h"
#include "src/storage/predicate.h"
#include "src/storage/scan_kernels.h"

namespace aiql {

// Object entity references are type-scoped: postings, blooms, and probes key
// on the (type, index) pair packed into one word.
inline uint64_t PackObjectKey(EntityType t, uint32_t idx) {
  return (static_cast<uint64_t>(t) << 32) | idx;
}

// Above this many candidates, probing a partition's entity bloom filter
// candidate-by-candidate at plan time costs more than it can save.
inline constexpr size_t kEntityBloomProbeLimit = 256;

// One constrained side (subject or object) of a data query, resolved once per
// plan: the sorted, unique catalog indices of its candidate entities and a
// bitmap over the whole catalog of that entity type. The scan's membership
// probe is one bit test per row: every stored subject_idx is a process index
// and every object_idx that reaches the probe has passed the object-type
// stage, so no probe falls outside the bitmap. Zone pruning reads the sorted
// indices (their ends bound the range; small sets probe partition blooms one
// by one), and so does the posting-list access path. Planning stops at a side
// with no candidates, so every plan's `ids` are non-empty.
struct EntityCandidates {
  EntityCandidates(std::vector<uint32_t> sorted_ids, uint32_t catalog_size)
      : ids(std::move(sorted_ids)), bitmap(catalog_size) {
    for (uint32_t idx : ids) {
      bitmap.Set(idx);
    }
  }

  uint32_t min() const { return ids.front(); }
  uint32_t max() const { return ids.back(); }
  // Small enough to probe partition blooms candidate by candidate.
  bool bloom_probe() const { return ids.size() <= kEntityBloomProbeLimit; }

  std::vector<uint32_t> ids;
  DenseBitmap bitmap;
};

struct ZoneMap {
  // Indexed by EventColumnId; only the integer attribute columns (those an
  // AttrInfo::column names) are observed.
  int64_t min[kNumEventColumns];
  int64_t max[kNumEventColumns];
  OpMask op_mask = 0;
  uint8_t object_type_mask = 0;          // bit i = EntityType(i) present
  std::vector<AgentId> agents;           // sorted distinct agents

  // Entity summaries: index ranges plus blocked bloom filters over the
  // distinct entity references, so a plan's candidate entities can prune a
  // partition before any column is touched. object_min/max cover object
  // indexes of every type (a conservative range); the object bloom keys on
  // PackObjectKey(type, idx) and is therefore type-exact.
  uint32_t subject_min = UINT32_MAX;
  uint32_t subject_max = 0;
  uint32_t object_min = UINT32_MAX;
  uint32_t object_max = 0;
  BlockedBloom subject_bloom;
  BlockedBloom object_bloom;

  ZoneMap() {
    std::fill(std::begin(min), std::end(min), INT64_MAX);
    std::fill(std::begin(max), std::end(max), INT64_MIN);
  }
  // Summarizes one partition's columns (any row order).
  explicit ZoneMap(const EventColumns& cols);

  bool ContainsAgent(AgentId a) const {
    return std::binary_search(agents.begin(), agents.end(), a);
  }
  // Any candidate present in this partition? Takes the planner's resolved
  // agent set and iterates whichever side is smaller: a handful of candidates
  // binary-search the sorted agent list; a huge pushed-down candidate set is
  // instead probed once per (distinct, small) zone agent — the probe
  // direction swaps so cost is O(min(|agents|, |candidates|) · log/1).
  bool ContainsAnyAgent(const std::unordered_set<AgentId>& candidates) const {
    if (candidates.size() < agents.size()) {
      for (AgentId a : candidates) {
        if (ContainsAgent(a)) {
          return true;
        }
      }
      return false;
    }
    for (AgentId a : agents) {
      if (candidates.count(a) > 0) {
        return true;
      }
    }
    return false;
  }

  // Could any candidate subject / object reference exist in this partition?
  // Range check first, then (for small sets) the bloom; `object_type` scopes
  // the object probe. False proves absence; true only means "possible".
  bool MayContainSubject(const EntityCandidates& c) const;
  bool MayContainObject(const EntityCandidates& c, EntityType object_type) const;

  int64_t MinOf(EventColumnId c) const { return min[static_cast<int>(c)]; }
  int64_t MaxOf(EventColumnId c) const { return max[static_cast<int>(c)]; }
};

// One vectorizable comparison: column <op> value (or value set for IN).
struct ColumnFilter {
  EventColumnId col = EventColumnId::kId;
  CmpOp op = CmpOp::kEq;
  int64_t value = 0;
  std::shared_ptr<std::unordered_set<int64_t>> values;  // kIn / kNotIn only

  bool Matches(int64_t v) const;
  // Could any value in [zone_min, zone_max] satisfy this filter?
  bool CanMatchRange(int64_t zone_min, int64_t zone_max) const;
  // Does every value in [zone_min, zone_max] satisfy this filter? (When true
  // the scan can skip applying it entirely.)
  bool AlwaysTrueOnRange(int64_t zone_min, int64_t zone_max) const;
};

// The vectorizable decomposition of a DataQuery's event predicate.
struct CompiledEventPred {
  OpMask op_mask = kAllOps;            // refinement from optype constraints
  std::vector<ColumnFilter> filters;   // conjunctive column comparisons
  PredExpr residual;                   // whatever could not be vectorized
};

// Splits the top-level conjunction of `pred`. Semantics are preserved
// exactly: op_mask ∧ filters ∧ residual  ⇔  pred.
CompiledEventPred CompileEventPred(const PredExpr& pred);

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ZONE_MAP_H_
