// System entities of the AIQL data model (paper §3.1, Table 1).
//
// Entities are files, processes, and network connections. Every entity has a
// globally unique int64 id plus type-specific security attributes. Entities
// are interned once in an EntityCatalog and referenced from events by dense
// per-type indices, which keeps the 10^6..10^9 event rows narrow while the
// 10^4..10^5 entity rows carry the strings.
#ifndef AIQL_SRC_STORAGE_ENTITY_H_
#define AIQL_SRC_STORAGE_ENTITY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/util/value.h"

namespace aiql {

using AgentId = uint32_t;

enum class EntityType : uint8_t {
  kFile = 0,
  kProcess = 1,
  kNetwork = 2,
};

constexpr const char* EntityTypeName(EntityType t) {
  switch (t) {
    case EntityType::kFile:
      return "file";
    case EntityType::kProcess:
      return "proc";
    case EntityType::kNetwork:
      return "ip";
  }
  return "?";
}

// The attribute schema (attributes.h); declared here for EntityCatalog::AttrOf.
enum class Attr : uint8_t;

struct FileEntity {
  int64_t id = 0;
  AgentId agent_id = 0;
  std::string name;   // full path
  std::string owner;
  std::string group;
  int64_t vol_id = 0;
  int64_t data_id = 0;
};

struct ProcessEntity {
  int64_t id = 0;
  AgentId agent_id = 0;
  int64_t pid = 0;
  std::string exe_name;  // full executable path
  std::string user;
  std::string cmd;       // command line
  std::string signature; // binary signature ("verified", "unsigned", ...)
};

struct NetworkEntity {
  int64_t id = 0;
  AgentId agent_id = 0;
  std::string src_ip;
  std::string dst_ip;
  int32_t src_port = 0;
  int32_t dst_port = 0;
  std::string protocol;  // "tcp" / "udp"
};

// Interning catalog. Indices returned by the Intern* calls are dense per-type
// and stable for the lifetime of the catalog.
class EntityCatalog {
 public:
  // Interns by identity key (agent + name/pid/5-tuple); returns the dense
  // index of the (possibly pre-existing) entity. A known entity is found
  // without allocating; the strings are copied only into a new entity.
  uint32_t InternFile(AgentId agent, std::string_view name, std::string_view owner = "root",
                      std::string_view group = "root");
  uint32_t InternProcess(AgentId agent, int64_t pid, std::string_view exe_name,
                         std::string_view user = "system", std::string_view cmd = "",
                         std::string_view signature = "unsigned");
  uint32_t InternNetwork(AgentId agent, std::string_view src_ip, std::string_view dst_ip,
                         int32_t src_port, int32_t dst_port, std::string_view protocol = "tcp");

  const std::vector<FileEntity>& files() const { return files_; }
  const std::vector<ProcessEntity>& processes() const { return processes_; }
  const std::vector<NetworkEntity>& networks() const { return networks_; }

  size_t CountOf(EntityType t) const;
  int64_t IdOf(EntityType t, uint32_t idx) const;
  AgentId AgentOf(EntityType t, uint32_t idx) const;
  // Value of attribute `a` of entity (t, idx); nullopt when `a` belongs to
  // another owner.
  std::optional<Value> AttrOf(EntityType t, uint32_t idx, Attr a) const;

  size_t total_entities() const { return files_.size() + processes_.size() + networks_.size(); }

 private:
  // Hashes an identity tuple part by part; a std::string part hashes as its
  // std::string_view, so a tuple of views finds the owning key.
  struct IdentityHash {
    using is_transparent = void;
    static size_t Part(std::string_view s) { return std::hash<std::string_view>{}(s); }
    static size_t Part(int64_t v) { return std::hash<int64_t>{}(v); }
    template <typename... Parts>
    size_t operator()(const std::tuple<Parts...>& key) const {
      size_t h = 0;
      std::apply(
          [&h](const auto&... part) {
            ((h ^= Part(part) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)), ...);
          },
          key);
      return h;
    }
  };
  // Identity key -> dense index. Keys own their strings; lookups pass the
  // same tuple with std::string_view parts.
  template <typename... Parts>
  using IdentityMap =
      std::unordered_map<std::tuple<Parts...>, uint32_t, IdentityHash, std::equal_to<>>;

  int64_t next_id_ = 1;
  std::vector<FileEntity> files_;
  std::vector<ProcessEntity> processes_;
  std::vector<NetworkEntity> networks_;
  IdentityMap<AgentId, std::string> file_key_;
  IdentityMap<AgentId, int64_t, std::string> proc_key_;
  IdentityMap<AgentId, std::string, std::string, int32_t, int32_t, std::string> net_key_;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ENTITY_H_
