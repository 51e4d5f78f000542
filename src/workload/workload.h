// Synthetic enterprise workload: the substitute for the paper's 150-host
// deployment (§6.1).
//
// The trace generator produces background system activity (file I/O, process
// trees, network flows) per host per day with deterministic seeds; the attack
// injectors overlay the event sequences of the paper's evaluation scenarios:
//   - the APT case study c1..c5 (§6.2),
//   - a second APT a1..a5, dependency chains d1..d3, real-world malware
//     v1..v5, and abnormal behaviors s1..s6 (§6.3.1).
// The query corpus mirrors the paper's 26 case-study queries + 1 anomaly
// query and the 19 behavior queries used in Figs 6-8.
#ifndef AIQL_SRC_WORKLOAD_WORKLOAD_H_
#define AIQL_SRC_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "src/storage/database.h"
#include "src/util/rng.h"

namespace aiql {

struct TraceConfig {
  uint64_t seed = 42;
  uint32_t num_hosts = 8;
  int start_year = 2017, start_month = 1, start_day = 1;
  int num_days = 3;
  size_t events_per_host_per_day = 20000;
  size_t procs_per_host = 48;
  size_t files_per_host = 320;
  size_t external_ips = 40;
};

struct ScenarioConfig {
  TraceConfig trace;
  // Hosts playing the roles of the paper's environment (Fig 4).
  AgentId win_client = 1;
  AgentId db_server = 2;
  AgentId mail_server = 3;
  AgentId linux_host_a = 4;  // info_stealer origin (agentid 2 in paper Query 3)
  AgentId linux_host_b = 5;  // info_stealer ramification target
  std::string attacker_ip = "XXX.129";
  int attack_day = 1;  // day offset of the APT attack (0-based)

  TimestampMs DayStartTs(int day_offset) const {
    return MakeTimestamp(trace.start_year, trace.start_month, trace.start_day) +
           day_offset * kDayMs;
  }
  std::string DateString(int day_offset) const;  // "mm/dd/yyyy"
};

// One query of the evaluation corpus.
struct QuerySpec {
  std::string id;      // e.g. "c4-8", "a2", "s5"
  std::string family;  // "apt-case-study", "multi-step", "dependency",
                       // "malware", "abnormal"
  std::string text;    // AIQL source
  bool anomaly = false;
};

class Workload {
 public:
  Workload(ScenarioConfig config, Database* db) : config_(config), db_(db) {}

  // Generates background noise and injects every attack scenario. Call once,
  // before Database::Finalize().
  void Build();

  const ScenarioConfig& config() const { return config_; }

  // The 26 multievent case-study queries (§6.2, Table 3), grouped c1..c5.
  std::vector<QuerySpec> CaseStudyQueries() const;
  // The anomaly query that opens the c5 investigation (paper Query 5).
  QuerySpec CaseStudyAnomalyQuery() const;
  // The 19 behavior queries (§6.3.1): a1-a5, d1-d3, v1-v5, s1-s6.
  std::vector<QuerySpec> BehaviorQueries() const;

 private:
  void GenerateBackground();
  void InjectAptCaseStudy();   // c1..c5
  void InjectSecondApt();      // a1..a5
  void InjectDependencies();   // d1..d3
  void InjectMalware();        // v1..v5
  void InjectAbnormal();       // s1..s6

  // Interning helpers.
  uint32_t Proc(AgentId agent, const std::string& exe, int64_t pid = 0,
                const std::string& user = "system", const std::string& signature = "unsigned");
  uint32_t File(AgentId agent, const std::string& name);
  uint32_t Ip(AgentId agent, const std::string& dst_ip, int32_t dst_port = 443);

  ScenarioConfig config_;
  Database* db_;
};

}  // namespace aiql

#endif  // AIQL_SRC_WORKLOAD_WORKLOAD_H_
