// ReferenceStore: the brute-force EventStore every storage equivalence test
// compares against. It copies the events out of a store (anything with
// catalog() and ForEachEvent(), i.e. a Database) into its own EventColumns,
// in (start_time, id) order, and answers each DataQuery by testing every
// constraint on every event directly. It shares no sorting,
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
    std::vector<Event> events;
    source.ForEachEvent([&](const Event& e) { events.push_back(e); });
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.start_time != b.start_time ? a.start_time < b.start_time : a.id < b.id;
    });
    events_.Reserve(events.size());
    for (const Event& e : events) {
      events_.Append(e);
      range_.begin = std::min(range_.begin, e.start_time);
      range_.end = std::max(range_.end, e.start_time + 1);
    }
  }
  // Views point into events_, so the store stays where it was built.
  ReferenceStore(const ReferenceStore&) = delete;
  ReferenceStore& operator=(const ReferenceStore&) = delete;

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
    for (uint32_t row = 0; row < events_.size(); ++row) {
      const EventView e(&events_, row);
      if ((OpBit(e.op()) & q.op_mask) == 0 || e.object_type() != q.object_type ||
          !range.Contains(e.start_time()) || !Allows(q.agent_ids, e.agent_id()) ||
          !EntityMatches(EntityType::kProcess, e.subject_idx(), q.subject_pred, q.agent_ids) ||
          !EntityMatches(q.object_type, e.object_idx(), q.object_pred, object_agents) ||
          !q.event_pred.Eval([&](Attr a) { return EventAttr(e, catalog_, a); })) {
        continue;
      }
      out.push_back(e);
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
                     const std::optional<std::vector<AgentId>>& agents) const {
    return pred.is_true() || (Allows(agents, catalog_.AgentOf(t, idx)) &&
                              pred.Eval([&](Attr a) { return catalog_.AttrOf(t, idx, a); }));
  }

  const EntityCatalog& catalog_;
  EventColumns events_;  // (start_time, id) order: the result order
  TimeRange range_{INT64_MAX, INT64_MIN};
};

// The entity predicate `id IN (...)` naming the type-`t` catalog entities at
// `indices`: a candidate set in the form the scheduler's pushdown hands a data
// query. An index past the catalog's end becomes an id no entity has.
inline PredExpr EntityIdsIn(const EntityCatalog& catalog, EntityType t,
                            const std::vector<uint32_t>& indices) {
  const Attr id = IdAttr(OwnerOf(t));
  std::vector<Value> ids;
  ids.reserve(indices.size());
  for (uint32_t idx : indices) {
    ids.push_back(idx < catalog.CountOf(t) ? *catalog.AttrOf(t, idx, id)
                                           : Value(-1 - static_cast<int64_t>(idx)));
  }
  return PredExpr::Leaf(AttrPredicate::In(id, std::move(ids)));
}

}  // namespace aiql

#endif  // AIQL_TESTS_REFERENCE_STORE_H_
