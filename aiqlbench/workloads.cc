#include "aiqlbench/workloads.h"

#include <algorithm>
#include <regex>
#include <stdexcept>
#include <thread>

#include "aiqlbench/trace.h"
#include "src/util/string_utils.h"

namespace aiqlbench {

namespace {

// hunt's history is one day at investigate's density, with the attack
// injected on day 0 so every behavior is in it. The sliding-window queries
// cost about (windows x groups): s5 steps every 10 s and s6 every minute
// across the whole history. One day keeps a pass near 1.2 s on a 4-CPU host,
// so a run holds enough passes for a steady median and p95, while s5/s6,
// then the a4 join, still dominate it.
constexpr int kHuntDays = 1;

constexpr int kRetentionDays = 14;
constexpr size_t kRetentionEventsPerHostDay = 4000;

}  // namespace

aiql::ScenarioConfig ScenarioFor(WorkloadKind kind, uint64_t seed) {
  aiql::ScenarioConfig config;
  config.trace.seed = seed;
  config.trace.num_hosts = 8;
  switch (kind) {
    case WorkloadKind::kInvestigate:
      config.trace.num_days = 3;
      config.trace.events_per_host_per_day = 20000;
      break;
    case WorkloadKind::kHunt:
      config.trace.num_days = kHuntDays;
      config.trace.events_per_host_per_day = 20000;
      config.attack_day = 0;
      break;
    case WorkloadKind::kRetention:
      config.trace.num_days = kRetentionDays;
      config.trace.events_per_host_per_day = kRetentionEventsPerHostDay;
      break;
  }
  return config;
}

std::vector<NamedQuery> InvestigateQueries(const aiql::ScenarioConfig& config) {
  aiql::Workload workload(config, nullptr);  // query texts only; no store needed
  std::vector<NamedQuery> out;
  aiql::QuerySpec anomaly = workload.CaseStudyAnomalyQuery();
  for (const aiql::QuerySpec& q : workload.CaseStudyQueries()) {
    if (q.id.rfind("c5", 0) == 0 && anomaly.id.size() > 0) {
      out.push_back({anomaly.id, anomaly.text, true});  // Query 5 opens step c5
      anomaly.id.clear();
    }
    out.push_back({q.id, q.text, q.anomaly});
  }
  if (!anomaly.id.empty()) {
    throw std::logic_error("case-study corpus has no c5 step");
  }
  return out;
}

std::vector<NamedQuery> HuntQueries(const aiql::ScenarioConfig& config) {
  aiql::Workload workload(config, nullptr);
  const std::string window = "(from \"" + config.DateString(0) + "\" to \"" +
                             config.DateString(config.trace.num_days) + "\")";
  // The global constraints sit in the query header: `(at "<day>")` and an
  // `agentid = N` that ends its line. Agent ids inside an entity's
  // attribute brackets (d3) are pattern constraints and stay.
  const std::regex at_day("\\(at \"[^\"]*\"\\)");
  const std::regex global_agent(" ?agentid = [0-9]+\n");
  std::vector<NamedQuery> out;
  for (const aiql::QuerySpec& q : workload.BehaviorQueries()) {
    std::string text = std::regex_replace(q.text, at_day, window);
    text = std::regex_replace(text, global_agent, "\n");
    if (text.find(window) == std::string::npos) {
      throw std::logic_error("behavior query " + q.id + " has no (at ...) window");
    }
    out.push_back({q.id, text, q.anomaly});
  }
  return out;
}

std::vector<NamedQuery> RetentionTemplates() {
  // An odd number of templates, each run equally often, puts the median
  // latency inside one template's distribution instead of on the gap
  // between two.
  return {
      // Which processes on this host sent the most data in the window.
      {"r1-exfil", R"(agentid = $agent (from $t0 to $t1)
proc p write ip i as evt
return p, i, sum(evt.amount) as total
group by p, i
sort by total desc
top 10)"},
      // Process chains ending in a network connection on this host.
      {"r2-chain", R"(agentid = $agent (from $t0 to $t1)
proc p1 start proc p2 as evt1
proc p2 connect ip i1 as evt2
with evt1 before evt2
return distinct p1, p2, i1)"},
      // Bursts of outbound volume on this host (sliding windows).
      {"r3-burst", R"(agentid = $agent (from $t0 to $t1)
window = 10 min, step = 5 min
proc p read ip i as evt
return p, sum(evt.amount) as amt
group by p
having amt > 2 * (amt + amt[1] + amt[2]) / 3)",
       true},
      // Which processes on this host spawned the most children.
      {"r5-fanout", R"(agentid = $agent (from $t0 to $t1)
proc p1 start proc p2 as evt
return p1, count(distinct p2) as children
group by p1
sort by children desc
top 10)"},
      // Enterprise-wide: Office spawning a process that drops executables.
      {"r4-dropper", R"((from $t0 to $t1)
proc p1["%excel.exe"] start proc p2 as evt1
proc p2 write file f1["%.exe"] as evt2
with evt1 before evt2
return distinct p1, p2, f1)"},
  };
}

std::vector<RetentionStep> RetentionSteps(const aiql::ScenarioConfig& config) {
  const int days = config.trace.num_days;
  const std::vector<NamedQuery> templates = RetentionTemplates();
  const size_t num_templates = templates.size();
  std::vector<RetentionStep> steps;
  auto add_window = [&](int first_day, int end_day) {
    // Rotate the investigated host with the window so every host is
    // visited. The rotation is the same for every seed: hosts differ in
    // activity, and the work of a pass must not depend on the seed.
    const int64_t agent = 1 + first_day % static_cast<int>(config.trace.num_hosts);
    for (size_t t = 0; t < num_templates; ++t) {
      RetentionStep step;
      step.tmpl = t;
      step.params.Set("t0", config.DateString(first_day)).Set("t1", config.DateString(end_day));
      if (templates[t].text.find("$agent") != std::string::npos) {
        step.params.Set("agent", agent);
      }
      step.label = "t" + std::to_string(t + 1) + "[" + std::to_string(first_day) + "," +
                   std::to_string(end_day) + ")";
      steps.push_back(std::move(step));
    }
  };
  // Slide back from the newest day; every third day the analyst widens to
  // the 3 days ending there. One enterprise-wide 3-day window touches 9
  // archived partitions, more than the decode cache holds.
  for (int day = days - 1; day >= 0; --day) {
    add_window(day, day + 1);
    if ((days - 1 - day) % 3 == 0 && day >= 2) {
      add_window(day - 2, day + 1);
    }
  }
  return steps;
}

aiql::DatabaseOptions ArchivedStoreOptions() {
  aiql::DatabaseOptions options;
  options.archive_after_days = 1;
  return options;
}

aiql::DatabaseOptions ReferenceStoreOptions() {
  aiql::DatabaseOptions options;
  options.scheme = aiql::PartitionScheme::kNone;
  return options;
}

aiql::EngineOptions MeasuredEngineOptions() {
  aiql::EngineOptions options;
  options.scheduler = aiql::SchedulerKind::kRelationship;
  options.parallelism = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

std::unique_ptr<aiql::Database> BuildGeneratedStore(const aiql::ScenarioConfig& config,
                                                    const aiql::DatabaseOptions& options,
                                                    LoadTimes* times) {
  auto db = std::make_unique<aiql::Database>(options);
  times->start_ns = NowNs();
  aiql::Workload(config, db.get()).Build();
  times->finalize_ns = NowNs();
  db->Finalize();
  times->end_ns = NowNs();
  return db;
}

AuditLog GenerateAuditLog(const aiql::ScenarioConfig& config) {
  aiql::Database staging;
  aiql::Workload(config, &staging).Build();
  staging.Finalize();
  AuditLog log{aiql::SerializeAuditLog(staging), staging.num_events(), 0};
  for (const std::string& line : aiql::Split(log.text, '\n')) {
    std::string trimmed = aiql::Trim(line);
    log.non_record_lines += trimmed.empty() || trimmed[0] == '#' ? 1 : 0;
  }
  return log;
}

std::unique_ptr<aiql::Database> IngestAuditLog(const std::string& text,
                                               const aiql::DatabaseOptions& options,
                                               aiql::IngestReport* report, LoadTimes* times) {
  auto db = std::make_unique<aiql::Database>(options);
  times->start_ns = NowNs();
  *report = aiql::AuditLogParser(db.get()).IngestText(text);
  times->finalize_ns = NowNs();
  db->Finalize();
  times->end_ns = NowNs();
  return db;
}

}  // namespace aiqlbench
