// Audit-log ingestion: the data-collection front end (paper §3.1).
//
// The paper's agents collect kernel events via Linux Audit / ETW; this module
// accepts the equivalent information as a line-oriented text format (one
// record per line, key=value fields) so the system can ingest externally
// produced traces:
//
//   EVENT ts=<ms> agent=<id> pid=<pid> exe=<path> op=<op> obj=file
//         path=<file path> [amount=<bytes>] [fail=<code>]        (one line)
//   EVENT ts=... op=start obj=proc tpid=<pid> texe=<path>
//   EVENT ts=... op=connect obj=ip dst=<ip> dport=<port> [proto=tcp] [amount=<bytes>]
//
// Values containing spaces are double-quoted. '#' starts a comment line.
// Malformed lines are collected (line number + reason) without aborting the
// whole ingest, mirroring a production collector. A numeric field outside
// the range of the column it lands in (agent ids, failure codes, ports,
// timestamps; see audit_log.cc) makes its line malformed.
//
// ClockSkewCorrector implements the paper's §3.2 "Time Synchronization":
// per-agent clock offsets are estimated from (agent timestamp, server
// receipt timestamp) pairs — the median offset, robust to network jitter —
// and applied to event times at ingest.
#ifndef AIQL_SRC_INGEST_AUDIT_LOG_H_
#define AIQL_SRC_INGEST_AUDIT_LOG_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/database.h"
#include "src/util/result.h"

namespace aiql {

class ClockSkewCorrector {
 public:
  // offset = server_time - agent_time; added to agent timestamps.
  void SetOffset(AgentId agent, DurationMs offset_ms) { offsets_[agent] = offset_ms; }
  DurationMs OffsetOf(AgentId agent) const {
    auto it = offsets_.find(agent);
    return it == offsets_.end() ? 0 : it->second;
  }
  // `t` plus the agent's offset; nullopt when the sum overflows.
  std::optional<TimestampMs> Correct(AgentId agent, TimestampMs t) const {
    TimestampMs out = 0;
    return __builtin_add_overflow(t, OffsetOf(agent), &out) ? std::nullopt
                                                             : std::optional<TimestampMs>(out);
  }

  // Median offset from (agent_ts, server_ts) sample pairs.
  static DurationMs EstimateOffset(
      const std::vector<std::pair<TimestampMs, TimestampMs>>& samples);

 private:
  std::unordered_map<AgentId, DurationMs> offsets_;
};

struct IngestError {
  size_t line_number = 0;
  std::string message;
};

struct IngestReport {
  size_t records_ingested = 0;
  size_t lines_skipped = 0;
  std::vector<IngestError> errors;
};

class AuditLogParser {
 public:
  explicit AuditLogParser(Database* db, const ClockSkewCorrector* skew = nullptr)
      : db_(db), skew_(skew) {}

  // Parses and ingests every record in `text`.
  IngestReport IngestText(const std::string& text);

  // Parses one record line; returns an error for malformed records.
  Status IngestLine(const std::string& line);

 private:
  Database* db_;
  const ClockSkewCorrector* skew_;
};

// Serializes every event of a finalized database into the log format above
// (round-trip ingestion for tests and the examples).
std::string SerializeAuditLog(const Database& db);

}  // namespace aiql

#endif  // AIQL_SRC_INGEST_AUDIT_LOG_H_
