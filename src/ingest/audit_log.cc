#include "src/ingest/audit_log.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <limits>

#include "src/util/string_utils.h"

namespace aiql {
namespace {

// Splits a record line into key=value fields; values may be double-quoted.
Result<std::unordered_map<std::string, std::string>> ParseFields(const std::string& line) {
  std::unordered_map<std::string, std::string> fields;
  size_t i = 0;
  const size_t n = line.size();
  auto skip_ws = [&] {
    while (i < n && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
  };
  skip_ws();
  while (i < n) {
    size_t eq = line.find('=', i);
    if (eq == std::string::npos) {
      return Result<std::unordered_map<std::string, std::string>>::Error(
          "expected key=value near '" + line.substr(i, 20) + "'");
    }
    std::string key = line.substr(i, eq - i);
    i = eq + 1;
    std::string value;
    if (i < n && line[i] == '"') {
      ++i;
      size_t close = line.find('"', i);
      if (close == std::string::npos) {
        return Result<std::unordered_map<std::string, std::string>>::Error(
            "unterminated quoted value for '" + key + "'");
      }
      value = line.substr(i, close - i);
      i = close + 1;
    } else {
      size_t end = line.find(' ', i);
      if (end == std::string::npos) {
        end = n;
      }
      value = line.substr(i, end - i);
      i = end;
    }
    fields[ToLower(key)] = value;
    skip_ws();
  }
  return fields;
}

// Each numeric field must fit the column it is stored in: agent ids an
// AgentId, failure codes an int32, ports 0..65535, and timestamps
// [kMinTimestampMs, kMaxTimestampMs], where day arithmetic cannot overflow.
constexpr int64_t kMaxAgent = std::numeric_limits<AgentId>::max();
constexpr int64_t kMaxPort = 65535;
constexpr int64_t kMinFailureCode = std::numeric_limits<int32_t>::min();
constexpr int64_t kMaxFailureCode = std::numeric_limits<int32_t>::max();

Status OutOfRange(const std::string& key, int64_t lo, int64_t hi, const std::string& found) {
  return Status::Error("field '" + key + "' must be an integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "], found '" + found + "'");
}

// The integer field `key` in [lo, hi]; `fallback` when the field is absent,
// an error when it is required (no fallback) and absent.
Result<int64_t> FieldInt(const std::unordered_map<std::string, std::string>& fields,
                         const std::string& key, int64_t lo = INT64_MIN, int64_t hi = INT64_MAX,
                         std::optional<int64_t> fallback = std::nullopt) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    if (fallback.has_value()) {
      return *fallback;
    }
    return Result<int64_t>::Error("missing field '" + key + "'");
  }
  const std::string& text = it->second;
  int64_t out = 0;
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc() || p != text.data() + text.size() || out < lo || out > hi) {
    return Result<int64_t>(OutOfRange(key, lo, hi, text));
  }
  return out;
}

Status FirstError(std::initializer_list<Status> statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Result<std::string> FieldStr(const std::unordered_map<std::string, std::string>& fields,
                             const std::string& key) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    return Result<std::string>::Error("missing field '" + key + "'");
  }
  return it->second;
}

}  // namespace

DurationMs ClockSkewCorrector::EstimateOffset(
    const std::vector<std::pair<TimestampMs, TimestampMs>>& samples) {
  if (samples.empty()) {
    return 0;
  }
  std::vector<DurationMs> offsets;
  offsets.reserve(samples.size());
  for (const auto& [agent_ts, server_ts] : samples) {
    offsets.push_back(server_ts - agent_ts);
  }
  size_t mid = offsets.size() / 2;
  std::nth_element(offsets.begin(), offsets.begin() + mid, offsets.end());
  return offsets[mid];
}

Status AuditLogParser::IngestLine(const std::string& line) {
  std::string trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') {
    return Status::Ok();  // comments/blank lines are no-ops
  }
  if (trimmed.rfind("EVENT", 0) != 0) {
    return Status::Error("record does not start with EVENT");
  }
  Result<std::unordered_map<std::string, std::string>> fields =
      ParseFields(trimmed.substr(5));
  if (!fields.ok()) {
    return fields.status();
  }
  const auto& f = fields.value();

  Result<int64_t> ts = FieldInt(f, "ts", kMinTimestampMs, kMaxTimestampMs);
  Result<int64_t> agent = FieldInt(f, "agent", 0, kMaxAgent);
  Result<int64_t> pid = FieldInt(f, "pid");
  Result<std::string> exe = FieldStr(f, "exe");
  Result<std::string> op_name = FieldStr(f, "op");
  Result<std::string> obj = FieldStr(f, "obj");
  Result<int64_t> amount = FieldInt(f, "amount", INT64_MIN, INT64_MAX, 0);
  Result<int64_t> fail = FieldInt(f, "fail", kMinFailureCode, kMaxFailureCode, 0);
  if (Status s = FirstError({ts.status(), agent.status(), pid.status(), exe.status(),
                              op_name.status(), obj.status(), amount.status(), fail.status()});
      !s.ok()) {
    return s;
  }
  std::optional<Operation> op = ParseOperation(op_name.value());
  if (!op.has_value()) {
    return Status::Error("unknown operation '" + op_name.value() + "'");
  }
  AgentId agent_id = static_cast<AgentId>(agent.value());
  TimestampMs t = ts.value();
  if (skew_ != nullptr) {
    std::optional<TimestampMs> corrected = skew_->Correct(agent_id, t);
    if (!corrected.has_value() || *corrected < kMinTimestampMs || *corrected > kMaxTimestampMs) {
      return OutOfRange("ts", kMinTimestampMs, kMaxTimestampMs,
                        std::to_string(t) + " after clock-skew correction");
    }
    t = *corrected;
  }

  // Each object kind validates its fields before the first Intern*, so a
  // rejected record leaves nothing in the catalog. The subject is interned
  // before the object either way.
  auto intern_subject = [&] {
    return db_->catalog().InternProcess(agent_id, pid.value(), exe.value(),
                                        f.count("user") > 0 ? f.at("user") : "system");
  };
  const std::string& kind = obj.value();
  if (kind == "file") {
    Result<std::string> path = FieldStr(f, "path");
    if (!path.ok()) {
      return path.status();
    }
    uint32_t subject = intern_subject();
    uint32_t file = db_->catalog().InternFile(agent_id, path.value());
    db_->RecordEvent(agent_id, subject, *op, EntityType::kFile, file, t, amount.value(),
                     static_cast<int32_t>(fail.value()));
    return Status::Ok();
  }
  if (kind == "proc" || kind == "process") {
    Result<int64_t> tpid = FieldInt(f, "tpid");
    Result<std::string> texe = FieldStr(f, "texe");
    // Cross-host process objects carry an explicit tagent.
    Result<int64_t> tagent = FieldInt(f, "tagent", 0, kMaxAgent, agent_id);
    if (Status s = FirstError({tpid.status(), texe.status(), tagent.status()}); !s.ok()) {
      return s;
    }
    uint32_t subject = intern_subject();
    uint32_t target = db_->catalog().InternProcess(static_cast<AgentId>(tagent.value()),
                                                   tpid.value(), texe.value());
    db_->RecordEvent(agent_id, subject, *op, EntityType::kProcess, target, t, amount.value(),
                     static_cast<int32_t>(fail.value()));
    return Status::Ok();
  }
  if (kind == "ip" || kind == "net") {
    Result<std::string> dst = FieldStr(f, "dst");
    Result<int64_t> dport = FieldInt(f, "dport", 0, kMaxPort, 0);
    Result<int64_t> sport = FieldInt(f, "sport", 0, kMaxPort, 0);
    if (Status s = FirstError({dst.status(), dport.status(), sport.status()}); !s.ok()) {
      return s;
    }
    std::string src = f.count("src") > 0 ? f.at("src") : "0.0.0.0";
    std::string proto = f.count("proto") > 0 ? f.at("proto") : "tcp";
    uint32_t subject = intern_subject();
    uint32_t conn = db_->catalog().InternNetwork(agent_id, src, dst.value(),
                                                 static_cast<int32_t>(sport.value()),
                                                 static_cast<int32_t>(dport.value()), proto);
    db_->RecordEvent(agent_id, subject, *op, EntityType::kNetwork, conn, t, amount.value(),
                     static_cast<int32_t>(fail.value()));
    return Status::Ok();
  }
  return Status::Error("unknown object kind '" + kind + "'");
}

IngestReport AuditLogParser::IngestText(const std::string& text) {
  IngestReport report;
  size_t line_number = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_number;
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      ++report.lines_skipped;
      continue;
    }
    Status s = IngestLine(line);
    if (s.ok()) {
      ++report.records_ingested;
    } else {
      report.errors.push_back(IngestError{line_number, s.message()});
    }
  }
  return report;
}

std::string SerializeAuditLog(const Database& db) {
  std::string out = "# aiql audit log v1\n";
  const EntityCatalog& catalog = db.catalog();
  db.ForEachEvent([&](const Event& e) {
    const ProcessEntity& subject = catalog.processes()[e.subject_idx];
    out += "EVENT ts=" + std::to_string(e.start_time) +
           " agent=" + std::to_string(e.agent_id) + " pid=" + std::to_string(subject.pid) +
           " exe=\"" + subject.exe_name + "\" op=" + OperationName(e.op);
    switch (e.object_type) {
      case EntityType::kFile: {
        const FileEntity& file = catalog.files()[e.object_idx];
        out += " obj=file path=\"" + file.name + "\"";
        break;
      }
      case EntityType::kProcess: {
        const ProcessEntity& target = catalog.processes()[e.object_idx];
        out += " obj=proc tpid=" + std::to_string(target.pid) + " texe=\"" + target.exe_name +
               "\"";
        if (target.agent_id != e.agent_id) {
          out += " tagent=" + std::to_string(target.agent_id);
        }
        break;
      }
      case EntityType::kNetwork: {
        const NetworkEntity& net = catalog.networks()[e.object_idx];
        out += " obj=ip src=" + net.src_ip + " sport=" + std::to_string(net.src_port) +
               " dst=" + net.dst_ip + " dport=" + std::to_string(net.dst_port) +
               " proto=" + net.protocol;
        break;
      }
    }
    if (e.amount != 0) {
      out += " amount=" + std::to_string(e.amount);
    }
    if (e.failure_code != 0) {
      out += " fail=" + std::to_string(e.failure_code);
    }
    out += "\n";
  });
  return out;
}

}  // namespace aiql
