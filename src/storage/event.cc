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

std::optional<Value> EventAttr(const EventView& v, const EntityCatalog& catalog, Attr a) {
  switch (a) {
    case Attr::kEventId:
      return Value(v.id());
    case Attr::kEventSeq:
      return Value(v.seq());
    case Attr::kEventAgentId:
      return Value(static_cast<int64_t>(v.agent_id()));
    case Attr::kEventOptype:
      return Value(OperationName(v.op()));
    case Attr::kEventStartTime:
      return Value(v.start_time());
    case Attr::kEventEndTime:
      return Value(v.end_time());
    case Attr::kEventAmount:
      return Value(v.amount());
    case Attr::kEventFailureCode:
      return Value(static_cast<int64_t>(v.failure_code()));
    case Attr::kEventSubjectId:
      return Value(catalog.IdOf(EntityType::kProcess, v.subject_idx()));
    case Attr::kEventObjectId:
      return Value(catalog.IdOf(v.object_type(), v.object_idx()));
    default:
      return std::nullopt;
  }
}

}  // namespace aiql
