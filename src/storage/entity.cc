#include "src/storage/entity.h"

#include "src/storage/attributes.h"

namespace aiql {

uint32_t EntityCatalog::InternFile(AgentId agent, std::string_view name, std::string_view owner,
                                   std::string_view group) {
  auto it = file_key_.find(std::tuple(agent, name));
  if (it != file_key_.end()) {
    return it->second;
  }
  FileEntity e;
  e.id = next_id_++;
  e.agent_id = agent;
  e.name = name;
  e.owner = owner;
  e.group = group;
  e.vol_id = static_cast<int64_t>(agent % 4);
  e.data_id = e.id;
  uint32_t idx = static_cast<uint32_t>(files_.size());
  files_.push_back(std::move(e));
  file_key_.emplace(std::tuple(agent, std::string(name)), idx);
  return idx;
}

uint32_t EntityCatalog::InternProcess(AgentId agent, int64_t pid, std::string_view exe_name,
                                      std::string_view user, std::string_view cmd,
                                      std::string_view signature) {
  auto it = proc_key_.find(std::tuple(agent, pid, exe_name));
  if (it != proc_key_.end()) {
    return it->second;
  }
  ProcessEntity e;
  e.id = next_id_++;
  e.agent_id = agent;
  e.pid = pid;
  e.exe_name = exe_name;
  e.user = user;
  e.cmd = cmd.empty() ? exe_name : cmd;
  e.signature = signature;
  uint32_t idx = static_cast<uint32_t>(processes_.size());
  processes_.push_back(std::move(e));
  proc_key_.emplace(std::tuple(agent, pid, std::string(exe_name)), idx);
  return idx;
}

uint32_t EntityCatalog::InternNetwork(AgentId agent, std::string_view src_ip,
                                      std::string_view dst_ip, int32_t src_port, int32_t dst_port,
                                      std::string_view protocol) {
  auto it = net_key_.find(std::tuple(agent, src_ip, dst_ip, src_port, dst_port, protocol));
  if (it != net_key_.end()) {
    return it->second;
  }
  NetworkEntity e;
  e.id = next_id_++;
  e.agent_id = agent;
  e.src_ip = src_ip;
  e.dst_ip = dst_ip;
  e.src_port = src_port;
  e.dst_port = dst_port;
  e.protocol = protocol;
  uint32_t idx = static_cast<uint32_t>(networks_.size());
  networks_.push_back(std::move(e));
  net_key_.emplace(std::tuple(agent, std::string(src_ip), std::string(dst_ip), src_port,
                              dst_port, std::string(protocol)),
                   idx);
  return idx;
}

size_t EntityCatalog::CountOf(EntityType t) const {
  switch (t) {
    case EntityType::kFile:
      return files_.size();
    case EntityType::kProcess:
      return processes_.size();
    case EntityType::kNetwork:
      return networks_.size();
  }
  return 0;
}

int64_t EntityCatalog::IdOf(EntityType t, uint32_t idx) const {
  switch (t) {
    case EntityType::kFile:
      return files_[idx].id;
    case EntityType::kProcess:
      return processes_[idx].id;
    case EntityType::kNetwork:
      return networks_[idx].id;
  }
  return 0;
}

AgentId EntityCatalog::AgentOf(EntityType t, uint32_t idx) const {
  switch (t) {
    case EntityType::kFile:
      return files_[idx].agent_id;
    case EntityType::kProcess:
      return processes_[idx].agent_id;
    case EntityType::kNetwork:
      return networks_[idx].agent_id;
  }
  return 0;
}

std::optional<Value> EntityCatalog::AttrOf(EntityType t, uint32_t idx, Attr a) const {
  if (InfoOf(a).owner != OwnerOf(t)) {
    return std::nullopt;
  }
  switch (a) {
    case Attr::kFileName:
      return Value(files_[idx].name);
    case Attr::kFileId:
      return Value(files_[idx].id);
    case Attr::kFileAgentId:
      return Value(static_cast<int64_t>(files_[idx].agent_id));
    case Attr::kFileOwner:
      return Value(files_[idx].owner);
    case Attr::kFileGroup:
      return Value(files_[idx].group);
    case Attr::kFileVolId:
      return Value(files_[idx].vol_id);
    case Attr::kFileDataId:
      return Value(files_[idx].data_id);
    case Attr::kProcExeName:
      return Value(processes_[idx].exe_name);
    case Attr::kProcId:
      return Value(processes_[idx].id);
    case Attr::kProcAgentId:
      return Value(static_cast<int64_t>(processes_[idx].agent_id));
    case Attr::kProcPid:
      return Value(processes_[idx].pid);
    case Attr::kProcUser:
      return Value(processes_[idx].user);
    case Attr::kProcCmd:
      return Value(processes_[idx].cmd);
    case Attr::kProcSignature:
      return Value(processes_[idx].signature);
    case Attr::kIpDstIp:
      return Value(networks_[idx].dst_ip);
    case Attr::kIpId:
      return Value(networks_[idx].id);
    case Attr::kIpAgentId:
      return Value(static_cast<int64_t>(networks_[idx].agent_id));
    case Attr::kIpSrcIp:
      return Value(networks_[idx].src_ip);
    case Attr::kIpSrcPort:
      return Value(static_cast<int64_t>(networks_[idx].src_port));
    case Attr::kIpDstPort:
      return Value(static_cast<int64_t>(networks_[idx].dst_port));
    case Attr::kIpProtocol:
      return Value(networks_[idx].protocol);
    default:
      return std::nullopt;  // event attributes
  }
}

}  // namespace aiql
