#include "src/graph/property_graph.h"

#include "src/util/string_utils.h"

namespace aiql {
namespace {

uint64_t EntityKey(EntityType t, uint32_t idx) {
  return (static_cast<uint64_t>(t) << 32) | idx;
}

std::unordered_map<std::string, Value> EntityProps(const EntityCatalog& catalog, EntityType t,
                                                   uint32_t idx) {
  static const char* kFileAttrs[] = {"name", "id", "agentid", "owner", "group"};
  static const char* kProcAttrs[] = {"exe_name", "id", "agentid", "pid", "user", "cmd",
                                     "signature"};
  static const char* kNetAttrs[] = {"dst_ip", "id", "agentid", "src_ip", "src_port", "dst_port",
                                    "protocol"};
  std::unordered_map<std::string, Value> props;
  const char** attrs;
  size_t n;
  switch (t) {
    case EntityType::kFile:
      attrs = kFileAttrs;
      n = std::size(kFileAttrs);
      break;
    case EntityType::kProcess:
      attrs = kProcAttrs;
      n = std::size(kProcAttrs);
      break;
    case EntityType::kNetwork:
      attrs = kNetAttrs;
      n = std::size(kNetAttrs);
      break;
    default:
      return props;
  }
  for (size_t i = 0; i < n; ++i) {
    auto v = catalog.AttrOf(t, idx, attrs[i]);
    if (v.has_value()) {
      props.emplace(attrs[i], std::move(*v));
    }
  }
  return props;
}

}  // namespace

void PropertyGraph::BuildFrom(const Database& db) {
  catalog_ = db.shared_catalog();
  const EntityCatalog& catalog = *catalog_;

  auto import_entities = [&](EntityType t) {
    size_t n = catalog.CountOf(t);
    for (uint32_t i = 0; i < n; ++i) {
      Node node;
      node.label = t;
      node.catalog_idx = i;
      node.props = EntityProps(catalog, t, i);
      uint32_t id = static_cast<uint32_t>(nodes_.size());
      node_of_entity_[EntityKey(t, i)] = id;
      auto dv = node.props.find(DefaultAttribute(t));
      if (dv != node.props.end()) {
        property_index_[static_cast<int>(t)][ToLower(dv->second.ToString())].push_back(id);
      }
      nodes_.push_back(std::move(node));
    }
  };
  import_entities(EntityType::kFile);
  import_entities(EntityType::kProcess);
  import_entities(EntityType::kNetwork);

  db.ForEachEvent([&](const Event& e) {
    Rel rel;
    rel.op = e.op;
    rel.src = node_of_entity_.at(EntityKey(EntityType::kProcess, e.subject_idx));
    rel.dst = node_of_entity_.at(EntityKey(e.object_type, e.object_idx));
    rel.origin = static_cast<uint32_t>(events_.size());
    events_.Append(e);
    rel.props.emplace("id", Value(e.id));
    rel.props.emplace("agentid", Value(static_cast<int64_t>(e.agent_id)));
    rel.props.emplace("start_time", Value(e.start_time));
    rel.props.emplace("end_time", Value(e.end_time));
    rel.props.emplace("amount", Value(e.amount));
    rel.props.emplace("optype", Value(OperationName(e.op)));
    rel.props.emplace("failure_code", Value(static_cast<int64_t>(e.failure_code)));
    uint32_t rid = static_cast<uint32_t>(rels_.size());
    nodes_[rel.src].out_rels.push_back(rid);
    nodes_[rel.dst].in_rels.push_back(rid);
    rels_by_op_[static_cast<int>(e.op)].push_back(rid);
    rels_.push_back(std::move(rel));
  });
}

std::vector<uint32_t> PropertyGraph::NodesByProperty(EntityType label,
                                                     const std::string& value) const {
  auto it = property_index_[static_cast<int>(label)].find(ToLower(value));
  if (it == property_index_[static_cast<int>(label)].end()) {
    return {};
  }
  return it->second;
}

const std::vector<uint32_t>& PropertyGraph::RelsByOp(Operation op) const {
  return rels_by_op_[static_cast<int>(op)];
}

uint32_t PropertyGraph::NodeOf(EntityType type, uint32_t catalog_idx) const {
  auto it = node_of_entity_.find(EntityKey(type, catalog_idx));
  return it == node_of_entity_.end() ? UINT32_MAX : it->second;
}

}  // namespace aiql
