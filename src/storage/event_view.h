// Columnar event storage (structure-of-arrays) and the EventView handle.
//
// The AIQL hot path touches only 2-3 event attributes per query (op, time,
// one entity side); a row-oriented std::vector<Event> pays the full 64-byte
// row for every predicate evaluation. EventColumns stores each attribute in
// its own parallel vector so the vectorized scan (src/storage/partition.cc)
// streams exactly the columns a query constrains.
//
// EventView is the engine-wide currency for a matched event: a cheap handle
// to one row of an EventColumns (partition storage after Finalize, the
// property-graph baseline's imported events, the tests' reference store).
// Joins, tuple sets, and projection consume EventViews without ever
// materializing Event copies.
#ifndef AIQL_SRC_STORAGE_EVENT_VIEW_H_
#define AIQL_SRC_STORAGE_EVENT_VIEW_H_

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/storage/attributes.h"
#include "src/storage/event.h"

namespace aiql {

// Parallel per-attribute columns; row i across all vectors is one event.
// Each vector is listed once more, with its EventColumnId and Event field, in
// the column registry below.
struct EventColumns {
  std::vector<int64_t> id;
  std::vector<int64_t> seq;
  std::vector<AgentId> agent_id;
  std::vector<Operation> op;
  std::vector<EntityType> object_type;
  std::vector<uint32_t> subject_idx;
  std::vector<uint32_t> object_idx;
  std::vector<TimestampMs> start_time;
  std::vector<TimestampMs> end_time;
  std::vector<int64_t> amount;
  std::vector<int32_t> failure_code;

  size_t size() const { return start_time.size(); }
  bool empty() const { return start_time.empty(); }

  void Reserve(size_t n);
  void Append(const Event& e);
  Event Materialize(uint32_t row) const;
};

// --- the event-column registry ----------------------------------------------
//
// The one list of event columns: each entry ties an EventColumnId to its
// EventColumns vector and its Event field. Code that handles every column
// (append, materialize, archive encode/decode, byte counts) visits the list
// with ForEachEventColumn; code that handles one column by id (scan filters,
// zone maps, EventAttr) dispatches with VisitEventColumn. A new event column
// is a field in Event, a vector in EventColumns, an EventColumnId and one
// entry here.

template <typename M>
struct MemberType;
template <typename C, typename M>
struct MemberType<M C::*> {
  using type = M;
};

template <EventColumnId Id, auto Vec, auto Field>
struct EventColumn {
  using Type = typename MemberType<decltype(Field)>::type;
  static_assert(std::is_same_v<typename MemberType<decltype(Vec)>::type, std::vector<Type>>,
                "an EventColumns vector holds its Event field's type");
  static constexpr EventColumnId id = Id;
  static constexpr auto vec = Vec;

  static std::vector<Type>& Of(EventColumns& c) { return c.*Vec; }
  static const std::vector<Type>& Of(const EventColumns& c) { return c.*Vec; }
  static Type& Of(Event& e) { return e.*Field; }
  static const Type& Of(const Event& e) { return e.*Field; }
};

using EventColumnRegistry = std::tuple<
    EventColumn<EventColumnId::kId, &EventColumns::id, &Event::id>,
    EventColumn<EventColumnId::kSeq, &EventColumns::seq, &Event::seq>,
    EventColumn<EventColumnId::kAgentId, &EventColumns::agent_id, &Event::agent_id>,
    EventColumn<EventColumnId::kOp, &EventColumns::op, &Event::op>,
    EventColumn<EventColumnId::kObjectType, &EventColumns::object_type, &Event::object_type>,
    EventColumn<EventColumnId::kSubjectIdx, &EventColumns::subject_idx, &Event::subject_idx>,
    EventColumn<EventColumnId::kObjectIdx, &EventColumns::object_idx, &Event::object_idx>,
    EventColumn<EventColumnId::kStartTime, &EventColumns::start_time, &Event::start_time>,
    EventColumn<EventColumnId::kEndTime, &EventColumns::end_time, &Event::end_time>,
    EventColumn<EventColumnId::kAmount, &EventColumns::amount, &Event::amount>,
    EventColumn<EventColumnId::kFailureCode, &EventColumns::failure_code, &Event::failure_code>>;

// Calls fn(column) for every registry entry, in EventColumnId order; `column`
// is an empty EventColumn value (its id, Type and Of()).
template <typename Fn>
constexpr void ForEachEventColumn(Fn&& fn) {
  std::apply([&](auto... column) { (fn(column), ...); }, EventColumnRegistry{});
}

// Calls fn(column) for the registry entry of `id` only.
template <typename Fn>
constexpr void VisitEventColumn(EventColumnId id, Fn&& fn) {
  ForEachEventColumn([&](auto column) {
    if (column.id == id) {
      fn(column);
    }
  });
}

// The id of the column EventColumns stores in vector `Vec`.
template <auto Vec>
constexpr EventColumnId ColumnIdOf() {
  EventColumnId id = EventColumnId::kId;
  int matches = 0;
  ForEachEventColumn([&](auto column) {
    if constexpr (std::is_same_v<std::remove_const_t<decltype(column.vec)>, decltype(Vec)>) {
      if (column.vec == Vec) {
        id = column.id;
        ++matches;
      }
    }
  });
  return matches == 1 ? id : throw "not an EventColumns vector";
}

// Entry i is EventColumnId i, and every id has an entry.
constexpr bool RegistryInIdOrder() {
  int next = 0;
  bool in_order = true;
  ForEachEventColumn(
      [&](auto column) { in_order = in_order && static_cast<int>(column.id) == next++; });
  return in_order && next == kNumEventColumns;
}
static_assert(RegistryInIdOrder());

inline void EventColumns::Reserve(size_t n) {
  ForEachEventColumn([&](auto column) { column.Of(*this).reserve(n); });
}

inline void EventColumns::Append(const Event& e) {
  ForEachEventColumn([&](auto column) { column.Of(*this).push_back(column.Of(e)); });
}

inline Event EventColumns::Materialize(uint32_t row) const {
  Event e;
  ForEachEventColumn([&](auto column) { column.Of(e) = column.Of(*this)[row]; });
  return e;
}

// Cheap handle to one event: a row of an EventColumns. Identity
// (equality) is the storage slot, so two views of the same row compare equal.
class EventView {
 public:
  EventView() = default;
  EventView(const EventColumns* cols, uint32_t row) : cols_(cols), row_(row) {}

  bool valid() const { return cols_ != nullptr; }

  int64_t id() const { return cols_->id[row_]; }
  int64_t seq() const { return cols_->seq[row_]; }
  AgentId agent_id() const { return cols_->agent_id[row_]; }
  Operation op() const { return cols_->op[row_]; }
  EntityType object_type() const { return cols_->object_type[row_]; }
  uint32_t subject_idx() const { return cols_->subject_idx[row_]; }
  uint32_t object_idx() const { return cols_->object_idx[row_]; }
  TimestampMs start_time() const { return cols_->start_time[row_]; }
  TimestampMs end_time() const { return cols_->end_time[row_]; }
  int64_t amount() const { return cols_->amount[row_]; }
  int32_t failure_code() const { return cols_->failure_code[row_]; }

  // Column `c` of this row, widened to int64 (attribute reads by column id).
  int64_t ColumnValue(EventColumnId c) const {
    int64_t v = 0;
    VisitEventColumn(c, [&](auto column) { v = static_cast<int64_t>(column.Of(*cols_)[row_]); });
    return v;
  }

  bool operator==(const EventView& o) const { return cols_ == o.cols_ && row_ == o.row_; }
  bool operator!=(const EventView& o) const { return !(*this == o); }

 private:
  const EventColumns* cols_ = nullptr;
  uint32_t row_ = 0;
};

// Tuple sets hold millions of views; keep the handle at two words.
static_assert(sizeof(EventView) == 16);

// Value of event attribute `a` (event-level predicates such as
// evt[amount > 1000], return items like evt1.optype); nullopt when `a`
// belongs to an entity owner.
std::optional<Value> EventAttr(const EventView& v, const EntityCatalog& catalog, Attr a);

// The engine-wide result ordering contract: every EventStore returns matches
// sorted by (start_time, id).
inline bool EventViewTimeIdLess(const EventView& a, const EventView& b) {
  return a.start_time() != b.start_time() ? a.start_time() < b.start_time() : a.id() < b.id();
}

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_EVENT_VIEW_H_
