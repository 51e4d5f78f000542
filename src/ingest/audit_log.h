// Audit-log ingestion: the data-collection front end (paper §3.1).
//
// The paper's agents collect kernel events via Linux Audit / ETW; this module
// accepts the equivalent information as a line-oriented text format (one
// record per line, key=value fields) so the system can ingest externally
// produced traces:
//
//   EVENT ts=<ms> agent=<id> pid=<pid> exe=<path> op=<op> obj=file
//         path=<file path> [amount=<bytes>] [fail=<code>] [user=<name>]  (one line)
//   EVENT ts=... op=start obj=proc tpid=<pid> texe=<path> [tagent=<id>]
//   EVENT ts=... op=connect obj=ip dst=<ip> [dport=<port>] [src=<ip>]
//         [sport=<port>] [proto=tcp] [amount=<bytes>]
//
// Grammar of a line, after leading and trailing whitespace is trimmed:
//   - blank, or starting with '#': skipped (a comment);
//   - otherwise a record: the keyword EVENT (case-sensitive), then the end of
//     the line or a separator, then fields. A separator is a run of spaces
//     and tabs; "EVENTts=1" is not a record.
//   - a field is key=value. The key is everything up to the next '='. A value
//     is either double-quoted (it runs to the next '"' and may hold spaces) or
//     unquoted (it ends at the next space or tab).
//   - keys match case-insensitively (TS= is ts=). Unknown keys are ignored;
//     a known key given twice (in any case) rejects the record.
//
// Malformed lines are collected (line number + reason) without aborting the
// whole ingest, mirroring a production collector. A numeric field outside
// the range of the column it lands in (agent ids, failure codes, ports,
// timestamps; see audit_log.cc) makes its line malformed. A rejected record
// interns no entity.
//
// ClockSkewCorrector implements the paper's §3.2 "Time Synchronization":
// per-agent clock offsets are estimated from (agent timestamp, server
// receipt timestamp) pairs — the median offset, robust to network jitter —
// and applied to event times at ingest.
#ifndef AIQL_SRC_INGEST_AUDIT_LOG_H_
#define AIQL_SRC_INGEST_AUDIT_LOG_H_

#include <optional>
#include <string>
#include <string_view>
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

  // Parses and ingests every record in `text`, in one pass over it. Lines
  // are the pieces between '\n's, the (empty) piece after a final newline
  // included; each is ingested, reported as an error, or counted as skipped.
  IngestReport IngestText(std::string_view text);

  // Parses one record line; returns an error for malformed records.
  Status IngestLine(std::string_view line);

 private:
  // Ingests one trimmed line that is neither blank nor a comment.
  Status IngestRecord(std::string_view record);

  Database* db_;
  const ClockSkewCorrector* skew_;
};

// Serializes every event of a finalized database into the log format above
// (round-trip ingestion for tests and the examples).
std::string SerializeAuditLog(const Database& db);

}  // namespace aiql

#endif  // AIQL_SRC_INGEST_AUDIT_LOG_H_
