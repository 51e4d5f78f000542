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
  if (std::optional<EventColumnId> column = InfoOf(a).column) {
    return Value(v.ColumnValue(*column));
  }
  switch (a) {
    case Attr::kEventOptype:
      return Value(OperationName(v.op()));
    case Attr::kEventSubjectId:
      return Value(catalog.IdOf(EntityType::kProcess, v.subject_idx()));
    case Attr::kEventObjectId:
      return Value(catalog.IdOf(v.object_type(), v.object_idx()));
    default:
      return std::nullopt;
  }
}

}  // namespace aiql
