#include "src/ingest/audit_log.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <initializer_list>
#include <limits>

#include "src/util/string_utils.h"

namespace aiql {
namespace {

// The fields a record is read from: one slot each in a Record, named by
// kFieldNames (lower case). Ordered by how often a record carries them.
enum Field : uint8_t {
  kTs,
  kAgent,
  kPid,
  kExe,
  kOp,
  kObj,
  kPath,
  kAmount,
  kFail,
  kUser,
  kTpid,
  kTexe,
  kTagent,
  kSrc,
  kSport,
  kDst,
  kDport,
  kProto,
  kNumFields,
};
constexpr std::string_view kFieldNames[kNumFields] = {
    "ts",   "agent", "pid",  "exe",    "op",  "obj",   "path", "amount", "fail",
    "user", "tpid",  "texe", "tagent", "src", "sport", "dst",  "dport",  "proto",
};

// One record's fields as views into its line; absent fields are nullopt.
using Record = std::array<std::optional<std::string_view>, kNumFields>;

bool IsSeparator(char c) { return c == ' ' || c == '\t'; }

// `key` equals the lower-case `name` up to ASCII case.
bool KeyIs(std::string_view key, std::string_view name) {
  if (key.size() != name.size()) {
    return false;
  }
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] != name[i] && key[i] != name[i] - ('a' - 'A')) {
      return false;
    }
  }
  return true;
}

std::optional<Field> FieldOf(std::string_view key) {
  for (uint8_t f = 0; f < kNumFields; ++f) {
    if (KeyIs(key, kFieldNames[f])) {
      return static_cast<Field>(f);
    }
  }
  return std::nullopt;
}

// Reads the key=value fields of `line` (a record after its keyword) into
// `record`; values may be double-quoted. Unknown keys are ignored.
Status ReadFields(std::string_view line, Record* record) {
  size_t i = 0;
  const size_t n = line.size();
  auto skip_separators = [&] {
    while (i < n && IsSeparator(line[i])) {
      ++i;
    }
  };
  skip_separators();
  while (i < n) {
    const size_t eq = line.find('=', i);
    if (eq == std::string_view::npos) {
      return Status::Error("expected key=value near '" + std::string(line.substr(i, 20)) + "'");
    }
    const std::string_view key = line.substr(i, eq - i);
    i = eq + 1;
    std::string_view value;
    if (i < n && line[i] == '"') {
      ++i;
      const size_t close = line.find('"', i);
      if (close == std::string_view::npos) {
        return Status::Error("unterminated quoted value for '" + std::string(key) + "'");
      }
      value = line.substr(i, close - i);
      i = close + 1;
    } else {
      const size_t begin = i;
      while (i < n && !IsSeparator(line[i])) {
        ++i;
      }
      value = line.substr(begin, i - begin);
    }
    if (std::optional<Field> f = FieldOf(key)) {
      std::optional<std::string_view>& slot = (*record)[*f];
      if (slot.has_value()) {
        return Status::Error("duplicate field '" + std::string(kFieldNames[*f]) + "'");
      }
      slot = value;
    }
    skip_separators();
  }
  return Status::Ok();
}

// Each numeric field must fit the column it is stored in: agent ids an
// AgentId, failure codes an int32, ports 0..65535, and timestamps
// [kMinTimestampMs, kMaxTimestampMs], where day arithmetic cannot overflow.
constexpr int64_t kMaxAgent = std::numeric_limits<AgentId>::max();
constexpr int64_t kMaxPort = 65535;
constexpr int64_t kMinFailureCode = std::numeric_limits<int32_t>::min();
constexpr int64_t kMaxFailureCode = std::numeric_limits<int32_t>::max();

Status OutOfRange(Field f, int64_t lo, int64_t hi, std::string_view found) {
  return Status::Error("field '" + std::string(kFieldNames[f]) + "' must be an integer in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "], found '" +
                       std::string(found) + "'");
}

// The integer field `f` in [lo, hi]; `fallback` when the field is absent,
// an error when it is required (no fallback) and absent.
Result<int64_t> FieldInt(const Record& record, Field f, int64_t lo = INT64_MIN,
                         int64_t hi = INT64_MAX, std::optional<int64_t> fallback = std::nullopt) {
  if (!record[f].has_value()) {
    if (fallback.has_value()) {
      return *fallback;
    }
    return Result<int64_t>::Error("missing field '" + std::string(kFieldNames[f]) + "'");
  }
  const std::string_view text = *record[f];
  int64_t out = 0;
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc() || p != text.data() + text.size() || out < lo || out > hi) {
    return Result<int64_t>(OutOfRange(f, lo, hi, text));
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

Result<std::string_view> FieldStr(const Record& record, Field f) {
  if (!record[f].has_value()) {
    return Result<std::string_view>::Error("missing field '" + std::string(kFieldNames[f]) + "'");
  }
  return *record[f];
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

Status AuditLogParser::IngestLine(std::string_view line) {
  line = TrimView(line);
  if (line.empty() || line[0] == '#') {
    return Status::Ok();  // comments/blank lines are no-ops
  }
  return IngestRecord(line);
}

Status AuditLogParser::IngestRecord(std::string_view record) {
  constexpr std::string_view kKeyword = "EVENT";
  if (!record.starts_with(kKeyword) ||
      (record.size() > kKeyword.size() && !IsSeparator(record[kKeyword.size()]))) {
    return Status::Error("record does not start with EVENT");
  }
  Record f;
  if (Status s = ReadFields(record.substr(kKeyword.size()), &f); !s.ok()) {
    return s;
  }

  Result<int64_t> ts = FieldInt(f, kTs, kMinTimestampMs, kMaxTimestampMs);
  Result<int64_t> agent = FieldInt(f, kAgent, 0, kMaxAgent);
  Result<int64_t> pid = FieldInt(f, kPid);
  Result<std::string_view> exe = FieldStr(f, kExe);
  Result<std::string_view> op_name = FieldStr(f, kOp);
  Result<std::string_view> obj = FieldStr(f, kObj);
  Result<int64_t> amount = FieldInt(f, kAmount, INT64_MIN, INT64_MAX, 0);
  Result<int64_t> fail = FieldInt(f, kFail, kMinFailureCode, kMaxFailureCode, 0);
  if (Status s = FirstError({ts.status(), agent.status(), pid.status(), exe.status(),
                              op_name.status(), obj.status(), amount.status(), fail.status()});
      !s.ok()) {
    return s;
  }
  std::optional<Operation> op = ParseOperation(op_name.value());
  if (!op.has_value()) {
    return Status::Error("unknown operation '" + std::string(op_name.value()) + "'");
  }
  AgentId agent_id = static_cast<AgentId>(agent.value());
  TimestampMs t = ts.value();
  if (skew_ != nullptr) {
    std::optional<TimestampMs> corrected = skew_->Correct(agent_id, t);
    if (!corrected.has_value() || *corrected < kMinTimestampMs || *corrected > kMaxTimestampMs) {
      return OutOfRange(kTs, kMinTimestampMs, kMaxTimestampMs,
                        std::to_string(t) + " after clock-skew correction");
    }
    t = *corrected;
  }

  // Each object kind validates its fields before the first Intern*, so a
  // rejected record leaves nothing in the catalog. The subject is interned
  // before the object either way. (RecordEvent refuses an event only once
  // the store's ids or the agent's sequence numbers have run out, which
  // replayed events, not records, can bring about.)
  EntityCatalog& catalog = db_->catalog();
  auto intern_subject = [&] {
    return catalog.InternProcess(agent_id, pid.value(), exe.value(), f[kUser].value_or("system"));
  };
  const std::string_view kind = obj.value();
  if (kind == "file") {
    Result<std::string_view> path = FieldStr(f, kPath);
    if (!path.ok()) {
      return path.status();
    }
    uint32_t subject = intern_subject();
    uint32_t file = catalog.InternFile(agent_id, path.value());
    return db_->RecordEvent(agent_id, subject, *op, EntityType::kFile, file, t, amount.value(),
                            static_cast<int32_t>(fail.value()));
  }
  if (kind == "proc" || kind == "process") {
    Result<int64_t> tpid = FieldInt(f, kTpid);
    Result<std::string_view> texe = FieldStr(f, kTexe);
    // Cross-host process objects carry an explicit tagent.
    Result<int64_t> tagent = FieldInt(f, kTagent, 0, kMaxAgent, agent_id);
    if (Status s = FirstError({tpid.status(), texe.status(), tagent.status()}); !s.ok()) {
      return s;
    }
    uint32_t subject = intern_subject();
    uint32_t target = catalog.InternProcess(static_cast<AgentId>(tagent.value()), tpid.value(),
                                            texe.value());
    return db_->RecordEvent(agent_id, subject, *op, EntityType::kProcess, target, t,
                            amount.value(), static_cast<int32_t>(fail.value()));
  }
  if (kind == "ip" || kind == "net") {
    Result<std::string_view> dst = FieldStr(f, kDst);
    Result<int64_t> dport = FieldInt(f, kDport, 0, kMaxPort, 0);
    Result<int64_t> sport = FieldInt(f, kSport, 0, kMaxPort, 0);
    if (Status s = FirstError({dst.status(), dport.status(), sport.status()}); !s.ok()) {
      return s;
    }
    uint32_t subject = intern_subject();
    uint32_t conn = catalog.InternNetwork(
        agent_id, f[kSrc].value_or("0.0.0.0"), dst.value(), static_cast<int32_t>(sport.value()),
        static_cast<int32_t>(dport.value()), f[kProto].value_or("tcp"));
    return db_->RecordEvent(agent_id, subject, *op, EntityType::kNetwork, conn, t,
                            amount.value(), static_cast<int32_t>(fail.value()));
  }
  return Status::Error("unknown object kind '" + std::string(kind) + "'");
}

IngestReport AuditLogParser::IngestText(std::string_view text) {
  IngestReport report;
  size_t line_number = 0;
  for (size_t start = 0; start <= text.size();) {
    const size_t end = std::min(text.find('\n', start), text.size());
    const std::string_view line = TrimView(text.substr(start, end - start));
    start = end + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') {
      ++report.lines_skipped;
      continue;
    }
    if (Status s = IngestRecord(line); s.ok()) {
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
