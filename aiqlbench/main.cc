// aiqlbench: the AIQL benchmark.
//
//   aiqlbench --workload <investigate|hunt|retention> --seed <n> --seconds <s>
//             --trace <0|1> [--commit <id>] [--spans-out <path>]
//
// Untraced (--trace 0) it measures the end-to-end metrics of one workload
// against the public engine API. Traced (--trace 1) it spends half the time
// untraced and half on TracedEngine, splits every query's time across the
// lang -> core -> storage (and ingest) layers from the spans, and reports the
// per-layer metrics plus the tracing overhead. Every result of every timed
// execution is compared with a reference computed outside all timed
// intervals. Human-readable lines go first; the last line of stdout is one
// JSON object {correct, attempted, failed, metrics}. The exit code is 0 only
// when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "aiqlbench/trace.h"
#include "aiqlbench/traced_engine.h"
#include "aiqlbench/workloads.h"

#ifndef AIQLBENCH_BUILD_TYPE
#define AIQLBENCH_BUILD_TYPE "unknown"
#endif

namespace aiqlbench {
namespace {

using aiql::Result;
using aiql::ResultTable;

// A run is split into kSlices equal slices. Each slice first repeats the
// workload's load (set-up, and retention's write phase) for kLoadShare of the
// slice, at least once, and then runs query passes for the rest of it, at
// least one. setup_s and ingest_events_per_s are medians over the loads and
// the query metrics medians over the passes, so every metric samples the
// whole run: a slow phase of a shared host moves each of them by its share
// of the run, instead of deciding a metric that was measured only inside it.
constexpr int kSlices = 10;
constexpr double kLoadShare = 0.2;

template <typename Load, typename Pass>
void RunSlices(double seconds, Load&& load, Pass&& pass) {
  const int64_t start = NowNs();
  const double slice_ns = seconds * 1e9 / kSlices;
  for (int s = 1; s <= kSlices; ++s) {
    const int64_t slice_end = start + static_cast<int64_t>(slice_ns * s);
    const int64_t left = std::max<int64_t>(0, slice_end - NowNs());
    const int64_t load_end = NowNs() + static_cast<int64_t>(static_cast<double>(left) * kLoadShare);
    do {
      load();
    } while (NowNs() < load_end);
    do {
      pass();
    } while (NowNs() < slice_end);
  }
}

// latency_tail_ms is the highest percentile with at least
// kMinSamplesBeyondTail samples beyond it. Each workload's run is sized so
// that its percentile below has that support; the percentile is fixed per
// workload rather than climbing with the sample count, so that a faster
// program is not measured at a higher percentile. A run with too few samples
// falls back down kTailPercentiles and says so.
constexpr double kTailPercentiles[] = {99.0, 95.0, 90.0, 50.0};
constexpr size_t kMinSamplesBeyondTail = 10;

double TailPercentileFor(const std::string& workload) {
  // A hunt run holds a few hundred executions (19 per pass, 2 of them the
  // slow s5/s6); p99 would need a thousand, and p90 would sit on the gap
  // between the fast queries and the slowest s5/s6 run. investigate and
  // retention runs hold thousands.
  return workload == "hunt" ? 95.0 : 99.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && a->seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      a->trace = value == "1";
    } else if (key == "--commit") {
      a->commit = value;
    } else if (key == "--spans-out") {
      a->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         (a->workload == "investigate" || a->workload == "hunt" || a->workload == "retention");
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest of kTailPercentiles with at least kMinSamplesBeyondTail
// samples above it (nearest-rank).
struct Tail {
  double value_ms = 0;
  double percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

Tail TailLatency(std::vector<double> v, double highest) {
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (double p : kTailPercentiles) {
    if (p > highest) {
      continue;
    }
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (rank == 0 || rank > v.size() || v.size() - rank < kMinSamplesBeyondTail) {
      continue;
    }
    t.value_ms = v[rank - 1];
    t.percentile = p;
    t.beyond = v.size() - rank;
    return t;
  }
  t.value_ms = v.empty() ? 0 : v.back();
  t.percentile = 100;
  return t;
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Correctness accounting: every timed execution is one attempt.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  bool setup_ok = true;  // ingest / archive / reference checks
  std::vector<std::string> messages;

  void Fail(const std::string& msg) {
    ++failed;
    Note(msg);
  }
  void FailSetup(const std::string& msg) {
    setup_ok = false;
    Note(msg);
  }
  void Note(const std::string& msg) {
    if (messages.size() < 20) {
      messages.push_back(msg);
    }
  }
  bool correct() const { return setup_ok && failed == 0 && attempted > 0; }
};

// Compares one execution's full result with its reference.
void Check(const std::string& id, const Result<ResultTable>& got,
           const std::optional<ResultTable>& want, bool need_rows, Outcome* out) {
  ++out->attempted;
  if (!got.ok()) {
    out->Fail(id + ": " + got.error());
  } else if (!want.has_value()) {
    out->Fail(id + ": no reference result");
  } else if (got.value().columns() != want->columns() || got.value().rows() != want->rows()) {
    out->Fail(id + ": result differs from the reference (" +
              std::to_string(got.value().num_rows()) + " rows vs " +
              std::to_string(want->num_rows()) + ")");
  } else if (need_rows && got.value().empty()) {
    out->Fail(id + ": returned no rows (injected attack not found)");
  }
}

// Executor-side counters summed over a phase's executions.
struct ExecTotals {
  uint64_t data_queries = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t join_work = 0;
  uint64_t pushdown_applications = 0;
  uint64_t pattern_matches = 0;  // multievent queries only
  uint64_t final_tuples = 0;     // multievent queries only
  aiql::ScanStats scan;

  void Add(const Result<ResultTable>& r, bool anomaly) {
    if (!r.ok()) {
      return;
    }
    const aiql::ExecStats& s = r.value().exec_stats();
    data_queries += s.data_queries;
    plan_cache_hits += s.plan_cache_hits;
    join_work += s.join_work;
    pushdown_applications += s.pushdown_applications;
    scan += s.scan;
    if (!anomaly) {
      for (size_t m : s.pattern_matches) {
        pattern_matches += m;
      }
      final_tuples += s.final_tuples;
    }
  }
};

// The executions of one measured phase (untraced or traced).
struct Samples {
  std::vector<double> latency_ms;
  std::vector<double> pass_ms;
  // Latencies per query id (retention: per template), printed as the
  // per-query table.
  std::map<std::string, std::vector<double>> by_query_ms;
  ExecTotals exec;

  void Add(const std::string& id, double ms, const Result<ResultTable>& r, bool anomaly) {
    latency_ms.push_back(ms);
    by_query_ms[id].push_back(ms);
    exec.Add(r, anomaly);
  }
};

double MsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

// PreparedQuery::Bind + BoundQuery::Run: one step of an investigation.
Result<ResultTable> BindAndRun(const aiql::PreparedQuery& prepared, const aiql::ParamSet& params) {
  Result<aiql::BoundQuery> bound = prepared.Bind(params);
  return bound.ok() ? bound.value().Run() : Result<ResultTable>(bound.status());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Everything one run gathers.
struct RunData {
  Outcome outcome;
  std::vector<double> setup_s;
  std::vector<double> ingest_events_per_s;
  double resident_bytes_per_event = 0;
  Samples untraced;
  Samples traced;
  uint64_t archived_partitions_scanned = 0;
  uint64_t ingest_errors = 0;
  Tracer tracer;
};

void RecordLoad(Tracer* tracer, const LoadTimes& t) {
  tracer->BeginQuery();
  tracer->Record(SpanKind::kIngest, 0, t.start_ns, t.finalize_ns);
  tracer->Record(SpanKind::kFinalize, 0, t.finalize_ns, t.end_ns);
}

double ResidentBytesPerEvent(const aiql::Database& db) {
  aiql::StorageFootprint f = db.Footprint();
  return Ratio(static_cast<double>(f.hot_column_bytes + f.archived_bytes),
               static_cast<double>(db.num_events()));
}

// investigate and hunt: a fixed query list, one-shot Execute per query.
void RunQueryList(WorkloadKind kind, const Args& args, RunData* run) {
  const aiql::ScenarioConfig config = ScenarioFor(kind, args.seed);
  const std::vector<NamedQuery> queries =
      kind == WorkloadKind::kInvestigate ? InvestigateQueries(config) : HuntQueries(config);
  const bool need_rows = kind == WorkloadKind::kInvestigate;
  const aiql::EngineOptions options = MeasuredEngineOptions();

  // Reference: the fetch-and-filter scheduler on an unpartitioned store.
  std::vector<std::optional<ResultTable>> reference(queries.size());
  {
    LoadTimes ignored;
    auto ref_db = BuildGeneratedStore(config, ReferenceStoreOptions(), &ignored);
    aiql::EngineOptions ref_options = options;
    ref_options.scheduler = aiql::SchedulerKind::kFetchFilter;
    aiql::AiqlEngine ref(ref_db.get(), ref_options);
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<ResultTable> r = ref.Execute(queries[i].text);
      if (r.ok()) {
        reference[i] = r.take();
      } else {
        run->outcome.FailSetup("reference " + queries[i].id + ": " + r.error());
      }
    }
  }

  // The measured store and engine. Building them is not timed; it warms the
  // process up for the loads below.
  LoadTimes first;
  std::unique_ptr<aiql::Database> db = BuildGeneratedStore(config, aiql::DatabaseOptions{}, &first);
  auto engine = std::make_unique<aiql::AiqlEngine>(db.get(), options);
  run->resident_bytes_per_event = ResidentBytesPerEvent(*db);

  // One timed set-up: a fresh store and engine, dropped once timed.
  auto load = [&] {
    LoadTimes times;
    const int64_t start = NowNs();
    std::unique_ptr<aiql::Database> fresh =
        BuildGeneratedStore(config, aiql::DatabaseOptions{}, &times);
    aiql::AiqlEngine fresh_engine(fresh.get(), options);
    run->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    run->ingest_events_per_s.push_back(
        Ratio(static_cast<double>(fresh->num_events()), times.seconds()));
    if (args.trace) {
      RecordLoad(&run->tracer, times);
    }
  };

  // Loads and passes over the query list through `execute` for `seconds`.
  auto measure = [&](double seconds, const std::string& tag, Samples* samples, auto&& execute) {
    RunSlices(seconds, load, [&] {
      double pass = 0;
      for (size_t i = 0; i < queries.size(); ++i) {
        const int64_t start = NowNs();
        Result<ResultTable> r = execute(queries[i].text);
        const double ms = MsSince(start);
        pass += ms;
        samples->Add(queries[i].id, ms, r, queries[i].anomaly);
        Check(queries[i].id + tag, r, reference[i], need_rows, &run->outcome);
      }
      samples->pass_ms.push_back(pass);
    });
  };
  measure(args.trace ? args.seconds / 2 : args.seconds, "", &run->untraced,
          [&](const std::string& text) { return engine->Execute(text); });
  if (!args.trace) {
    return;
  }
  TracedEngine traced(db.get(), engine->options(), &run->tracer);
  measure(args.seconds / 2, " (traced)", &run->traced,
          [&](const std::string& text) { return traced.Execute(text); });
  run->archived_partitions_scanned = traced.store().archived_partitions_scanned();
}

// retention: audit-log ingest + archive, then a prepared re-bind loop.
void RunRetention(const Args& args, RunData* run) {
  const aiql::ScenarioConfig config = ScenarioFor(WorkloadKind::kRetention, args.seed);
  const std::vector<NamedQuery> templates = RetentionTemplates();
  const std::vector<RetentionStep> steps = RetentionSteps(config);
  const aiql::EngineOptions options = MeasuredEngineOptions();
  constexpr int kRunsPerBinding = 2;

  // The log the reference and the measured store are built from. Making it
  // is not timed; it warms the process up for the loads below.
  AuditLog log = GenerateAuditLog(config);

  auto check_ingest = [&](const aiql::IngestReport& report, const char* what) {
    // Only comment and blank lines may be skipped: no record is lost.
    const size_t records_skipped = report.lines_skipped > log.non_record_lines
                                       ? report.lines_skipped - log.non_record_lines
                                       : 0;
    if (!report.errors.empty() || report.lines_skipped != log.non_record_lines ||
        report.records_ingested != log.events) {
      run->outcome.FailSetup(std::string(what) + " ingest: " +
                             std::to_string(report.errors.size()) + " errors, " +
                             std::to_string(report.lines_skipped) + " lines skipped (" +
                             std::to_string(log.non_record_lines) + " non-record), " +
                             std::to_string(report.records_ingested) + " of " +
                             std::to_string(log.events) + " records");
    }
    run->ingest_errors += report.errors.size() + records_skipped;
  };

  // Reference: the same bindings on a hot, unarchived store of the same log.
  std::vector<std::optional<ResultTable>> reference(steps.size());
  {
    aiql::IngestReport report;
    LoadTimes ignored;
    auto hot = IngestAuditLog(log.text, aiql::DatabaseOptions{}, &report, &ignored);
    check_ingest(report, "reference");
    aiql::AiqlEngine ref(hot.get(), options);
    std::vector<std::optional<aiql::PreparedQuery>> prepared;
    for (const NamedQuery& t : templates) {
      Result<aiql::PreparedQuery> p = ref.Prepare(t.text);
      if (!p.ok()) {
        run->outcome.FailSetup("reference prepare " + t.id + ": " + p.error());
        return;
      }
      prepared.push_back(p.take());
    }
    for (size_t i = 0; i < steps.size(); ++i) {
      Result<ResultTable> r = BindAndRun(*prepared[steps[i].tmpl], steps[i].params);
      if (r.ok()) {
        reference[i] = r.take();
      } else {
        run->outcome.FailSetup("reference " + steps[i].label + ": " + r.error());
      }
    }
  }

  // The measured store: ingest + Finalize with the archive policy.
  aiql::IngestReport first_report;
  LoadTimes first;
  std::unique_ptr<aiql::Database> db =
      IngestAuditLog(log.text, ArchivedStoreOptions(), &first_report, &first);
  check_ingest(first_report, "measured");
  if (db->num_archived_partitions() <= db->options().decode_cache_partitions) {
    run->outcome.FailSetup("archive policy archived " +
                           std::to_string(db->num_archived_partitions()) +
                           " partitions, not more than the decode cache holds");
  }
  run->resident_bytes_per_event = ResidentBytesPerEvent(*db);
  aiql::AiqlEngine engine(db.get(), options);

  // One timed set-up (generate and serialize the log) and one timed write
  // phase (ingest it into a fresh archiving store, which is then dropped).
  auto load = [&] {
    log = AuditLog{};  // free the previous log before generating the next
    const int64_t start = NowNs();
    log = GenerateAuditLog(config);
    run->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    aiql::IngestReport report;
    LoadTimes times;
    std::unique_ptr<aiql::Database> fresh =
        IngestAuditLog(log.text, ArchivedStoreOptions(), &report, &times);
    check_ingest(report, "timed");
    run->ingest_events_per_s.push_back(
        Ratio(static_cast<double>(fresh->num_events()), times.seconds()));
    if (args.trace) {
      RecordLoad(&run->tracer, times);
    }
  };

  // Loads and read passes. Each pass is one investigation session: prepare
  // every template, then walk the windows, running each binding twice.
  auto measure = [&](double seconds, const std::string& tag, Samples* samples, auto&& prepare,
                     auto&& bind_and_run) {
    using Prepared = std::decay_t<decltype(prepare(std::string()).value())>;
    RunSlices(seconds, load, [&] {
      double pass = 0;
      std::vector<std::optional<Prepared>> prepared;
      for (const NamedQuery& t : templates) {
        const int64_t start = NowNs();
        Result<Prepared> p = prepare(t.text);
        pass += MsSince(start);
        if (p.ok()) {
          prepared.push_back(p.take());
        } else {
          prepared.emplace_back();
          run->outcome.Fail("prepare " + t.id + tag + ": " + p.error());
        }
      }
      for (size_t i = 0; i < steps.size(); ++i) {
        const NamedQuery& t = templates[steps[i].tmpl];
        if (!prepared[steps[i].tmpl].has_value()) {
          continue;
        }
        for (int k = 0; k < kRunsPerBinding; ++k) {
          const int64_t start = NowNs();
          Result<ResultTable> r = bind_and_run(*prepared[steps[i].tmpl], steps[i].params);
          const double ms = MsSince(start);
          pass += ms;
          samples->Add(t.id, ms, r, t.anomaly);
          Check(steps[i].label + tag, r, reference[i], false, &run->outcome);
        }
      }
      samples->pass_ms.push_back(pass);
    });
  };
  measure(args.trace ? args.seconds / 2 : args.seconds, "", &run->untraced,
          [&](const std::string& text) { return engine.Prepare(text); }, BindAndRun);
  if (!args.trace) {
    return;
  }
  TracedEngine traced(db.get(), engine.options(), &run->tracer);
  measure(args.seconds / 2, " (traced)", &run->traced,
          [&](const std::string& text) { return traced.Prepare(text); },
          [&](const TracedEngine::Prepared& p, const aiql::ParamSet& params) {
            return traced.BindAndRun(p, params);
          });
  run->archived_partitions_scanned = traced.store().archived_partitions_scanned();
}

std::vector<Metric> EndToEndMetrics(const RunData& run, double tail_percentile, Tail* tail) {
  *tail = TailLatency(run.untraced.latency_ms, tail_percentile);
  return {
      {"latency_p50_ms", Median(run.untraced.latency_ms), "ms"},
      {"latency_tail_ms", tail->value_ms, "ms"},
      {"pass_ms", Median(run.untraced.pass_ms), "ms"},
      {"setup_s", Median(run.setup_s), "s"},
      {"ingest_events_per_s", Median(run.ingest_events_per_s), "events/s"},
      {"resident_bytes_per_event", run.resident_bytes_per_event, "B"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunData& run) {
  const SpanTotals t = Summarize(run.tracer.spans());
  const double passes = static_cast<double>(std::max<size_t>(1, run.traced.pass_ms.size()));
  const ExecTotals& e = run.traced.exec;
  auto per_pass = [&](double v) { return v / passes; };
  auto per_load = [&](SpanKind k) { return Ratio(t.Total(k), static_cast<double>(t.Count(k))); };
  return {
      {"lang.parse_ms", per_pass(t.Total(SpanKind::kParse)), "ms"},
      {"lang.resolve_ms", per_pass(t.Total(SpanKind::kResolve)), "ms"},
      {"lang.bind_ms", per_pass(t.Total(SpanKind::kBind)), "ms"},
      {"core.multievent_self_ms", per_pass(t.Self(SpanKind::kMultievent)), "ms"},
      {"core.anomaly_self_ms", per_pass(t.Self(SpanKind::kAnomaly)), "ms"},
      {"core.project_ms", per_pass(t.Total(SpanKind::kProject)), "ms"},
      {"core.join_work", per_pass(static_cast<double>(e.join_work)), "count"},
      {"core.pushdown_applications", per_pass(static_cast<double>(e.pushdown_applications)),
       "count"},
      {"core.intermediate_rows_per_result",
       Ratio(static_cast<double>(e.pattern_matches), static_cast<double>(e.final_tuples)),
       "ratio"},
      {"storage.fetch_ms", per_pass(t.Total(SpanKind::kFetch)), "ms"},
      {"storage.fetches", per_pass(static_cast<double>(t.Count(SpanKind::kFetch))), "count"},
      {"storage.plan_ms", per_pass(t.Total(SpanKind::kPlan)), "ms"},
      {"storage.scan_ms", per_pass(t.Total(SpanKind::kScan)), "ms"},
      {"storage.scan_busy_ratio", Ratio(t.Total(SpanKind::kMorsel), t.scan_capacity_ms), "ratio"},
      {"storage.morsel_wait_ms", per_pass(t.morsel_wait_ms), "ms"},
      {"storage.merge_ms", per_pass(t.Total(SpanKind::kMerge)), "ms"},
      {"storage.partition_prune_ratio",
       Ratio(static_cast<double>(e.scan.partitions_pruned),
             static_cast<double>(e.scan.partitions_pruned + e.scan.partitions_scanned)),
       "ratio"},
      {"storage.events_scanned_per_match",
       Ratio(static_cast<double>(e.scan.events_scanned),
             static_cast<double>(e.scan.events_matched)),
       "ratio"},
      {"storage.plan_cache_hit_ratio",
       Ratio(static_cast<double>(e.plan_cache_hits), static_cast<double>(e.data_queries)),
       "ratio"},
      {"storage.decode_miss_ratio",
       Ratio(static_cast<double>(e.scan.partitions_decoded),
             static_cast<double>(run.archived_partitions_scanned)),
       "ratio"},
      {"storage.decoded_bytes", per_pass(static_cast<double>(e.scan.decoded_bytes)), "B"},
      {"storage.finalize_ms", per_load(SpanKind::kFinalize), "ms"},
      {"ingest.ingest_ms", per_load(SpanKind::kIngest), "ms"},
      {"ingest.errors", static_cast<double>(run.ingest_errors), "count"},
      {"trace.pass_ms", Median(run.traced.pass_ms), "ms"},
      {"trace.overhead_ratio", Ratio(Median(run.traced.pass_ms), Median(run.untraced.pass_ms)),
       "ratio"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aiqlbench --workload <investigate|hunt|retention> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>] [--spans-out <path>]\n");
    return 2;
  }
  const std::string build_type = AIQLBENCH_BUILD_TYPE;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("aiqlbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("host nproc=%u engine_parallelism=%zu build_type=%s commit=%s\n", nproc,
              MeasuredEngineOptions().parallelism, build_type.c_str(), args.commit.c_str());
  if (build_type == "Debug") {
    const char* warn = "WARNING: DEBUG BUILD - timings are not representative\n";
    std::printf("%s", warn);
    std::fprintf(stderr, "%s", warn);
  }
  std::fflush(stdout);

  RunData run;
  if (args.workload == "retention") {
    RunRetention(args, &run);
  } else {
    RunQueryList(args.workload == "investigate" ? WorkloadKind::kInvestigate : WorkloadKind::kHunt,
                 args, &run);
  }
  const Outcome& out = run.outcome;

  for (const auto& [id, ms] : run.untraced.by_query_ms) {
    std::printf("query %-12s median %10.3f ms  max %10.3f ms  (%zu runs)\n", id.c_str(),
                Median(ms), *std::max_element(ms.begin(), ms.end()), ms.size());
  }
  Tail tail;
  const double tail_percentile = TailPercentileFor(args.workload);
  std::vector<Metric> e2e = EndToEndMetrics(run, tail_percentile, &tail);
  for (const Metric& m : e2e) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  latency_tail_ms is p%g over %zu samples (%zu beyond it)%s\n", tail.percentile,
              tail.samples, tail.beyond,
              tail.percentile < tail_percentile ? " - TOO FEW SAMPLES for this workload's p" : "");
  std::printf("%-26s %16.6f ratio (%zu failed / %zu attempted)\n", "error_ratio",
              Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
              out.failed, out.attempted);
  std::vector<Metric> reported = e2e;
  if (args.trace) {
    reported = PerLayerMetrics(run);
    std::printf("-- traced run: %zu spans, %zu passes\n", run.tracer.spans().size(),
                run.traced.pass_ms.size());
    for (const Metric& m : reported) {
      std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.spans_out.empty() && !run.tracer.WriteJsonl(args.spans_out)) {
      std::fprintf(stderr, "could not write spans to %s\n", args.spans_out.c_str());
    }
  }
  for (const std::string& msg : out.messages) {
    std::printf("FAILURE %s\n", msg.c_str());
  }

  // A run stopped by a set-up failure before any execution counts as one
  // failed attempt.
  const size_t attempted = std::max<size_t>(out.attempted, 1);
  const size_t failed = out.attempted == 0 ? 1 : out.failed;
  std::string json = "{\"correct\": " + std::string(out.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", reported[i].value);
    json += (i > 0 ? ", \"" : "\"") + reported[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace aiqlbench

int main(int argc, char** argv) { return aiqlbench::Main(argc, argv); }
