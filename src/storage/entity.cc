#include "src/storage/entity.h"

namespace aiql {
namespace {

std::string FileKey(AgentId agent, const std::string& name) {
  return std::to_string(agent) + "|" + name;
}

std::string ProcKey(AgentId agent, int64_t pid, const std::string& exe) {
  return std::to_string(agent) + "|" + std::to_string(pid) + "|" + exe;
}

std::string NetKey(AgentId agent, const std::string& src_ip, const std::string& dst_ip,
                   int32_t src_port, int32_t dst_port, const std::string& protocol) {
  return std::to_string(agent) + "|" + src_ip + ":" + std::to_string(src_port) + ">" + dst_ip +
         ":" + std::to_string(dst_port) + "/" + protocol;
}

}  // namespace

std::string CanonicalAttrName(std::string_view attr) {
  struct Alias {
    std::string_view from;
    std::string_view to;
  };
  static constexpr Alias kAliases[] = {
      {"dstip", "dst_ip"},         {"srcip", "src_ip"},
      {"dstport", "dst_port"},     {"srcport", "src_port"},
      {"exename", "exe_name"},     {"agent_id", "agentid"},
      {"volid", "vol_id"},         {"dataid", "data_id"},
      {"starttime", "start_time"}, {"endtime", "end_time"},
      {"sequence", "seq"},         {"failurecode", "failure_code"},
      {"access", "failure_code"},  {"op", "optype"},
      {"operation", "optype"},     {"subjectid", "subject_id"},
      {"objectid", "object_id"},   {"sig", "signature"},
  };
  for (const Alias& a : kAliases) {
    if (attr == a.from) {
      return std::string(a.to);
    }
  }
  return std::string(attr);
}

std::optional<Value> GetAttr(const FileEntity& e, std::string_view attr) {
  if (attr == "name") {
    return Value(e.name);
  }
  if (attr == "id") {
    return Value(e.id);
  }
  if (attr == "agentid" || attr == "agent_id") {
    return Value(static_cast<int64_t>(e.agent_id));
  }
  if (attr == "owner") {
    return Value(e.owner);
  }
  if (attr == "group") {
    return Value(e.group);
  }
  if (attr == "vol_id" || attr == "volid") {
    return Value(e.vol_id);
  }
  if (attr == "data_id" || attr == "dataid") {
    return Value(e.data_id);
  }
  return std::nullopt;
}

std::optional<Value> GetAttr(const ProcessEntity& e, std::string_view attr) {
  if (attr == "exe_name" || attr == "exename" || attr == "name") {
    return Value(e.exe_name);
  }
  if (attr == "id") {
    return Value(e.id);
  }
  if (attr == "agentid" || attr == "agent_id") {
    return Value(static_cast<int64_t>(e.agent_id));
  }
  if (attr == "pid") {
    return Value(e.pid);
  }
  if (attr == "user") {
    return Value(e.user);
  }
  if (attr == "cmd") {
    return Value(e.cmd);
  }
  if (attr == "signature" || attr == "sig") {
    return Value(e.signature);
  }
  return std::nullopt;
}

std::optional<Value> GetAttr(const NetworkEntity& e, std::string_view attr) {
  if (attr == "dst_ip" || attr == "dstip") {
    return Value(e.dst_ip);
  }
  if (attr == "id") {
    return Value(e.id);
  }
  if (attr == "agentid" || attr == "agent_id") {
    return Value(static_cast<int64_t>(e.agent_id));
  }
  if (attr == "src_ip" || attr == "srcip") {
    return Value(e.src_ip);
  }
  if (attr == "src_port" || attr == "srcport") {
    return Value(static_cast<int64_t>(e.src_port));
  }
  if (attr == "dst_port" || attr == "dstport") {
    return Value(static_cast<int64_t>(e.dst_port));
  }
  if (attr == "protocol") {
    return Value(e.protocol);
  }
  return std::nullopt;
}

bool IsEntityAttr(EntityType t, std::string_view attr) {
  switch (t) {
    case EntityType::kFile: {
      static const FileEntity probe{};
      return GetAttr(probe, attr).has_value();
    }
    case EntityType::kProcess: {
      static const ProcessEntity probe{};
      return GetAttr(probe, attr).has_value();
    }
    case EntityType::kNetwork: {
      static const NetworkEntity probe{};
      return GetAttr(probe, attr).has_value();
    }
  }
  return false;
}

uint32_t EntityCatalog::InternFile(AgentId agent, const std::string& name,
                                   const std::string& owner, const std::string& group) {
  std::string key = FileKey(agent, name);
  auto it = file_key_.find(key);
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
  file_key_.emplace(std::move(key), idx);
  return idx;
}

uint32_t EntityCatalog::InternProcess(AgentId agent, int64_t pid, const std::string& exe_name,
                                      const std::string& user, const std::string& cmd,
                                      const std::string& signature) {
  std::string key = ProcKey(agent, pid, exe_name);
  auto it = proc_key_.find(key);
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
  proc_key_.emplace(std::move(key), idx);
  return idx;
}

uint32_t EntityCatalog::InternNetwork(AgentId agent, const std::string& src_ip,
                                      const std::string& dst_ip, int32_t src_port,
                                      int32_t dst_port, const std::string& protocol) {
  std::string key = NetKey(agent, src_ip, dst_ip, src_port, dst_port, protocol);
  auto it = net_key_.find(key);
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
  net_key_.emplace(std::move(key), idx);
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

std::optional<Value> EntityCatalog::AttrOf(EntityType t, uint32_t idx,
                                           std::string_view attr) const {
  switch (t) {
    case EntityType::kFile:
      return GetAttr(files_[idx], attr);
    case EntityType::kProcess:
      return GetAttr(processes_[idx], attr);
    case EntityType::kNetwork:
      return GetAttr(networks_[idx], attr);
  }
  return std::nullopt;
}

}  // namespace aiql
