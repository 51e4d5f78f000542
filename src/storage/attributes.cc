#include "src/storage/attributes.h"

namespace aiql {
namespace {

using enum AttrKind;
using Col = EventColumnId;
constexpr AttrOwner kEvt = AttrOwner::kEvent;
constexpr AttrOwner kFil = AttrOwner::kFile;
constexpr AttrOwner kPrc = AttrOwner::kProcess;
constexpr AttrOwner kNet = AttrOwner::kNetwork;

constexpr AttrInfo kAttrs[] = {
    {Attr::kEventId, kEvt, {"id"}, kInt, Col::kId},
    {Attr::kEventSeq, kEvt, {"seq", "sequence"}, kInt, Col::kSeq},
    {Attr::kEventAgentId, kEvt, {"agentid", "agent_id"}, kInt, Col::kAgentId},
    {Attr::kEventOptype, kEvt, {"optype", "op", "operation"}, kString, std::nullopt},
    {Attr::kEventStartTime, kEvt, {"start_time", "starttime"}, kInt, Col::kStartTime},
    {Attr::kEventEndTime, kEvt, {"end_time", "endtime"}, kInt, Col::kEndTime},
    {Attr::kEventAmount, kEvt, {"amount"}, kInt, Col::kAmount},
    {Attr::kEventFailureCode, kEvt, {"failure_code", "failurecode", "access"}, kInt,
     Col::kFailureCode},
    {Attr::kEventSubjectId, kEvt, {"subject_id", "subjectid"}, kInt, std::nullopt},
    {Attr::kEventObjectId, kEvt, {"object_id", "objectid"}, kInt, std::nullopt},

    {Attr::kFileName, kFil, {"name"}, kString, std::nullopt, true},
    {Attr::kFileId, kFil, {"id"}, kInt, std::nullopt},
    {Attr::kFileAgentId, kFil, {"agentid", "agent_id"}, kInt, std::nullopt},
    {Attr::kFileOwner, kFil, {"owner"}, kString, std::nullopt},
    {Attr::kFileGroup, kFil, {"group"}, kString, std::nullopt},
    {Attr::kFileVolId, kFil, {"vol_id", "volid"}, kInt, std::nullopt},
    {Attr::kFileDataId, kFil, {"data_id", "dataid"}, kInt, std::nullopt},

    {Attr::kProcExeName, kPrc, {"exe_name", "exename", "name"}, kString, std::nullopt, true},
    {Attr::kProcId, kPrc, {"id"}, kInt, std::nullopt},
    {Attr::kProcAgentId, kPrc, {"agentid", "agent_id"}, kInt, std::nullopt},
    {Attr::kProcPid, kPrc, {"pid"}, kInt, std::nullopt},
    {Attr::kProcUser, kPrc, {"user"}, kString, std::nullopt},
    {Attr::kProcCmd, kPrc, {"cmd"}, kString, std::nullopt},
    {Attr::kProcSignature, kPrc, {"signature", "sig"}, kString, std::nullopt},

    {Attr::kIpDstIp, kNet, {"dst_ip", "dstip"}, kString, std::nullopt, true},
    {Attr::kIpId, kNet, {"id"}, kInt, std::nullopt},
    {Attr::kIpAgentId, kNet, {"agentid", "agent_id"}, kInt, std::nullopt},
    {Attr::kIpSrcIp, kNet, {"src_ip", "srcip"}, kString, std::nullopt},
    {Attr::kIpSrcPort, kNet, {"src_port", "srcport"}, kInt, std::nullopt},
    {Attr::kIpDstPort, kNet, {"dst_port", "dstport"}, kInt, std::nullopt},
    {Attr::kIpProtocol, kNet, {"protocol"}, kString, std::nullopt},
};

// Row i describes Attr i, and each owner's rows are contiguous.
constexpr bool TableInEnumOrder() {
  int runs = 1;
  for (int i = 0; i < kNumAttrs; ++i) {
    if (static_cast<int>(kAttrs[i].attr) != i) {
      return false;
    }
    if (i > 0 && kAttrs[i].owner != kAttrs[i - 1].owner) {
      ++runs;
    }
  }
  return std::size(kAttrs) == kNumAttrs && runs == 4;
}
static_assert(TableInEnumOrder());

}  // namespace

const AttrInfo& InfoOf(Attr a) { return kAttrs[static_cast<int>(a)]; }

std::span<const AttrInfo> AttrsOf(AttrOwner owner) {
  size_t begin = 0;
  while (begin < std::size(kAttrs) && kAttrs[begin].owner != owner) {
    ++begin;
  }
  size_t end = begin;
  while (end < std::size(kAttrs) && kAttrs[end].owner == owner) {
    ++end;
  }
  return std::span<const AttrInfo>(kAttrs).subspan(begin, end - begin);
}

std::optional<Attr> ResolveAttr(AttrOwner owner, std::string_view spelling) {
  for (const AttrInfo& info : AttrsOf(owner)) {
    for (std::string_view s : info.spellings) {
      if (!s.empty() && s == spelling) {
        return info.attr;
      }
    }
  }
  return std::nullopt;
}

Attr DefaultAttr(EntityType t) {
  for (const AttrInfo& info : AttrsOf(OwnerOf(t))) {
    if (info.is_default) {
      return info.attr;
    }
  }
  return IdAttr(OwnerOf(t));
}

Attr IdAttr(AttrOwner owner) { return *ResolveAttr(owner, "id"); }

Attr AgentIdAttr(AttrOwner owner) { return *ResolveAttr(owner, "agentid"); }

}  // namespace aiql
