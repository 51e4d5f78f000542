#include "src/storage/event.h"

#include "src/storage/event_view.h"
#include "src/util/string_utils.h"

namespace aiql {

const char* OperationName(Operation op) {
  switch (op) {
    case Operation::kRead:
      return "read";
    case Operation::kWrite:
      return "write";
    case Operation::kExecute:
      return "execute";
    case Operation::kStart:
      return "start";
    case Operation::kEnd:
      return "end";
    case Operation::kRename:
      return "rename";
    case Operation::kDelete:
      return "delete";
    case Operation::kConnect:
      return "connect";
    case Operation::kAccept:
      return "accept";
  }
  return "?";
}

std::optional<Operation> ParseOperation(std::string_view name) {
  for (int i = 0; i < kNumOperations; ++i) {
    Operation op = static_cast<Operation>(i);
    if (EqualsIgnoreCase(name, OperationName(op))) {
      return op;
    }
  }
  return std::nullopt;
}

std::optional<Value> GetEventAttr(const EventView& v, const EntityCatalog& catalog,
                                  std::string_view attr) {
  if (attr == "id") {
    return Value(v.id());
  }
  if (attr == "seq" || attr == "sequence") {
    return Value(v.seq());
  }
  if (attr == "agentid" || attr == "agent_id") {
    return Value(static_cast<int64_t>(v.agent_id()));
  }
  if (attr == "optype" || attr == "op" || attr == "operation") {
    return Value(OperationName(v.op()));
  }
  if (attr == "start_time" || attr == "starttime") {
    return Value(v.start_time());
  }
  if (attr == "end_time" || attr == "endtime") {
    return Value(v.end_time());
  }
  if (attr == "amount") {
    return Value(v.amount());
  }
  if (attr == "failure_code" || attr == "failurecode" || attr == "access") {
    return Value(static_cast<int64_t>(v.failure_code()));
  }
  if (attr == "subject_id" || attr == "subjectid") {
    return Value(catalog.IdOf(EntityType::kProcess, v.subject_idx()));
  }
  if (attr == "object_id" || attr == "objectid") {
    return Value(catalog.IdOf(v.object_type(), v.object_idx()));
  }
  return std::nullopt;
}

bool IsEventAttr(std::string_view attr) {
  static constexpr std::string_view kNames[] = {
      "id",         "seq",          "sequence",   "agentid",    "agent_id",
      "optype",     "op",           "operation",  "start_time", "starttime",
      "end_time",   "endtime",      "amount",     "failure_code",
      "failurecode", "access",      "subject_id", "subjectid",  "object_id",
      "objectid"};
  for (std::string_view name : kNames) {
    if (attr == name) {
      return true;
    }
  }
  return false;
}

}  // namespace aiql
