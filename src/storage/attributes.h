// The attribute schema of the AIQL data model (paper §3.1, Table 1, and the
// §4.1 shortcuts): one table row per attribute of each owner (file, process
// and network entities, and events) holding its id, canonical name, every
// accepted spelling, value kind, event column and whether it is the owner's
// default attribute.
//
// ResolveAttr is the only lookup by spelling; the inference pass calls it
// once per constraint leaf and per reference, and everything after inference
// (entity and event readers, zone maps, the executor, the graph baseline's
// import, the translators) works on Attr ids.
#ifndef AIQL_SRC_STORAGE_ATTRIBUTES_H_
#define AIQL_SRC_STORAGE_ATTRIBUTES_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "src/storage/entity.h"

namespace aiql {

// Owners of attributes; the three entity owners share EntityType's values.
enum class AttrOwner : uint8_t { kFile = 0, kProcess = 1, kNetwork = 2, kEvent = 3 };

constexpr AttrOwner OwnerOf(EntityType t) { return static_cast<AttrOwner>(t); }

// One id per (owner, attribute), grouped by owner in table order.
enum class Attr : uint8_t {
  kEventId, kEventSeq, kEventAgentId, kEventOptype, kEventStartTime, kEventEndTime,
  kEventAmount, kEventFailureCode, kEventSubjectId, kEventObjectId,
  kFileName, kFileId, kFileAgentId, kFileOwner, kFileGroup, kFileVolId, kFileDataId,
  kProcExeName, kProcId, kProcAgentId, kProcPid, kProcUser, kProcCmd, kProcSignature,
  kIpDstIp, kIpId, kIpAgentId, kIpSrcIp, kIpSrcPort, kIpDstPort, kIpProtocol
};

inline constexpr int kNumAttrs = static_cast<int>(Attr::kIpProtocol) + 1;

// The event columns, one per Event field (EventColumns); archived partitions
// decode each on its own (partition.h).
enum class EventColumnId : uint8_t {
  kId = 0,
  kSeq = 1,
  kAgentId = 2,
  kOp = 3,
  kObjectType = 4,
  kSubjectIdx = 5,
  kObjectIdx = 6,
  kStartTime = 7,
  kEndTime = 8,
  kAmount = 9,
  kFailureCode = 10,
};

inline constexpr int kNumEventColumns = 11;

enum class AttrKind : uint8_t { kInt, kString };

struct AttrInfo {
  Attr attr;
  AttrOwner owner;
  std::array<std::string_view, 3> spellings;  // canonical name first
  AttrKind kind;
  // The integer event column holding the attribute, which zone maps and
  // column filters compare against; none for optype (the op mask) and for
  // the subject/object ids (read through the catalog).
  std::optional<EventColumnId> column;
  bool is_default = false;  // the value-only shortcut: file["x"] means name
};

const AttrInfo& InfoOf(Attr a);
// The owner's rows, in table order.
std::span<const AttrInfo> AttrsOf(AttrOwner owner);

// The attribute `spelling` (lower case, any accepted alias) names on `owner`.
std::optional<Attr> ResolveAttr(AttrOwner owner, std::string_view spelling);

inline std::string_view AttrName(Attr a) { return InfoOf(a).spellings[0]; }
Attr DefaultAttr(EntityType t);
// The id and agentid attributes every owner has.
Attr IdAttr(AttrOwner owner);
Attr AgentIdAttr(AttrOwner owner);

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ATTRIBUTES_H_
