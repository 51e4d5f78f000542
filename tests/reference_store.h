// ReferenceStore: the brute-force EventStore every storage equivalence test
// compares against. It copies the events out of a store (anything with
// catalog() and ForEachEvent(), i.e. a Database) and answers each DataQuery
// by testing every constraint on every event directly. It shares no sorting,
// pruning, planning, index or scan code with the system under test, so a bug
// in any of those shows up as a mismatch instead of agreeing with itself.
#ifndef AIQL_TESTS_REFERENCE_STORE_H_
#define AIQL_TESTS_REFERENCE_STORE_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "src/storage/event_store.h"

namespace aiql {

class ReferenceStore : public EventStore {
 public:
  template <typename Source>
  explicit ReferenceStore(const Source& source) : catalog_(source.catalog()) {
    source.ForEachEvent([&](const Event& e) { events_.push_back(e); });
    std::sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
      return a.start_time != b.start_time ? a.start_time < b.start_time : a.id < b.id;
    });
    for (const Event& e : events_) {
      range_.begin = std::min(range_.begin, e.start_time);
      range_.end = std::max(range_.end, e.start_time + 1);
    }
  }

  const EntityCatalog& catalog() const override { return catalog_; }
  TimeRange data_time_range() const override { return range_; }
  bool SupportsDaySplit() const override { return false; }

  std::vector<EventView> ExecuteQuery(const DataQuery& q, ScanStats* stats,
                                      const ScanContext* = nullptr) const override {
    const TimeRange range = q.EffectiveTime();
    // Entity predicates see only the query's agents, except for process
    // objects, which may live on a remote host (Database::FindEntities).
    const auto object_agents =
        q.object_type == EntityType::kProcess ? std::nullopt : q.agent_ids;
    std::vector<EventView> out;
    for (const Event& e : events_) {
      if ((OpBit(e.op) & q.op_mask) == 0 || e.object_type != q.object_type ||
          !range.Contains(e.start_time) || !Allows(q.agent_ids, e.agent_id) ||
          !EntityMatches(EntityType::kProcess, e.subject_idx, q.subject_pred,
                         q.subject_candidates, q.agent_ids) ||
          !EntityMatches(q.object_type, e.object_idx, q.object_pred, q.object_candidates,
                         object_agents) ||
          !q.event_pred.Eval([&](std::string_view a) { return GetEventAttr(e, catalog_, a); })) {
        continue;
      }
      out.push_back(EventView(&e));
    }
    if (stats != nullptr) {
      stats->events_scanned += events_.size();
      stats->events_matched += out.size();
    }
    return out;
  }

 private:
  template <typename T>
  static bool Allows(const std::optional<std::vector<T>>& allowed, T v) {
    return !allowed.has_value() || std::find(allowed->begin(), allowed->end(), v) != allowed->end();
  }

  bool EntityMatches(EntityType t, uint32_t idx, const PredExpr& pred,
                     const std::optional<std::vector<uint32_t>>& candidates,
                     const std::optional<std::vector<AgentId>>& agents) const {
    if (!Allows(candidates, idx)) {
      return false;
    }
    return pred.is_true() || (Allows(agents, catalog_.AgentOf(t, idx)) &&
                              pred.Eval([&](std::string_view a) {
                                return catalog_.AttrOf(t, idx, a);
                              }));
  }

  const EntityCatalog& catalog_;
  std::vector<Event> events_;  // (start_time, id) order: the result order
  TimeRange range_{INT64_MAX, INT64_MIN};
};

}  // namespace aiql

#endif  // AIQL_TESTS_REFERENCE_STORE_H_
