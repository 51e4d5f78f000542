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
#include <vector>

#include "src/storage/attributes.h"
#include "src/storage/event.h"

namespace aiql {

// Parallel per-attribute columns; row i across all vectors is one event.
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

  void Reserve(size_t n) {
    id.reserve(n);
    seq.reserve(n);
    agent_id.reserve(n);
    op.reserve(n);
    object_type.reserve(n);
    subject_idx.reserve(n);
    object_idx.reserve(n);
    start_time.reserve(n);
    end_time.reserve(n);
    amount.reserve(n);
    failure_code.reserve(n);
  }

  void Append(const Event& e) {
    id.push_back(e.id);
    seq.push_back(e.seq);
    agent_id.push_back(e.agent_id);
    op.push_back(e.op);
    object_type.push_back(e.object_type);
    subject_idx.push_back(e.subject_idx);
    object_idx.push_back(e.object_idx);
    start_time.push_back(e.start_time);
    end_time.push_back(e.end_time);
    amount.push_back(e.amount);
    failure_code.push_back(e.failure_code);
  }

  void Clear() {
    id.clear();
    seq.clear();
    agent_id.clear();
    op.clear();
    object_type.clear();
    subject_idx.clear();
    object_idx.clear();
    start_time.clear();
    end_time.clear();
    amount.clear();
    failure_code.clear();
  }

  Event Materialize(uint32_t row) const {
    Event e;
    e.id = id[row];
    e.seq = seq[row];
    e.agent_id = agent_id[row];
    e.op = op[row];
    e.object_type = object_type[row];
    e.subject_idx = subject_idx[row];
    e.object_idx = object_idx[row];
    e.start_time = start_time[row];
    e.end_time = end_time[row];
    e.amount = amount[row];
    e.failure_code = failure_code[row];
    return e;
  }
};

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

  Event Materialize() const { return cols_->Materialize(row_); }

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
