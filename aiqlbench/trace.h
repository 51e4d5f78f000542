// Span recording for the benchmark's traced run.
//
// A span is one timed call into a layer of the system (lang, core, storage,
// ingest), recorded from the benchmark's side of the call. Spans carry a
// parent and the id of the query execution they belong to; they are kept in
// memory and written out once the run ends.
//
// The tracer is single-threaded by contract: only the benchmark's client
// thread opens and records spans. Work that runs on pool workers (morsel
// scans) is timed into per-morsel slots by the workers and recorded by the
// client thread after the parallel section has joined.
#ifndef AIQLBENCH_TRACE_H_
#define AIQLBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace aiqlbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kQuery,       // one query execution, the root of its spans
  kParse,       // lang: ParseQuery
  kBind,        // lang: parameter collection + BindParams + context publication
  kResolve,     // lang: ResolveQuery
  kMultievent,  // core: ExecuteMultievent
  kAnomaly,     // core: ExecuteAnomaly
  kProject,     // core: ProjectResults
  kFetch,       // storage: one EventStore data-query call
  kPlan,        // storage: Database::PlanQuery (plan-cache misses and uncached)
  kMorsels,     // storage: BuildScanMorsels
  kScan,        // storage: the morsel loop (RunBulk) or the serial partition loop
  kMorsel,      // storage: one ScanPlannedMorsel / ScanPlannedPartition call
  kMerge,       // storage: MergeMorselResults / MergeSortedRuns
  kIngest,      // ingest: loading records into the store before Finalize
  kFinalize,    // storage: Database::Finalize
};
inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kFinalize) + 1;

const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kQuery;
  // kMorsel: the participant that ran it; kScan: how many participants the
  // scan could use (1 for the serial loop); 0 otherwise.
  uint32_t worker = 0;
  uint64_t id = 0;      // 1-based; 0 means "no parent"
  uint64_t parent = 0;
  uint64_t query = 0;   // shared by all spans of one query execution
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  // Starts a new query execution: spans opened from now on share its id.
  void BeginQuery() { ++query_; }

  // Opens a span whose parent is the innermost open span.
  uint64_t Open(SpanKind kind);
  void Close(uint64_t id);

  // Records an already-timed span under `parent`; returns its id.
  uint64_t Record(SpanKind kind, uint64_t parent, int64_t start_ns, int64_t end_ns,
              uint32_t worker = 0);

  // Innermost open span (0 when none).
  uint64_t current() const { return open_.empty() ? 0 : spans_[open_.back()].id; }

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: name, id, parent, query, start/end (ns).
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
  uint64_t query_ = 0;
};

// Opens a span for the enclosing scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Open(kind) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// Per-kind totals derived from a span list. Self time is a span's duration
// minus the part of its interval covered by its children.
struct SpanTotals {
  double total_ms[kNumSpanKinds] = {};
  double self_ms[kNumSpanKinds] = {};
  uint64_t count[kNumSpanKinds] = {};
  // Σ over morsels of (morsel start - start of its scan): time work waited
  // for a participant.
  double morsel_wait_ms = 0;
  // Σ over scans of scan wall time x participants that could have worked it.
  double scan_capacity_ms = 0;

  double Total(SpanKind k) const { return total_ms[static_cast<int>(k)]; }
  double Self(SpanKind k) const { return self_ms[static_cast<int>(k)]; }
  uint64_t Count(SpanKind k) const { return count[static_cast<int>(k)]; }
};

SpanTotals Summarize(const std::vector<Span>& spans);

}  // namespace aiqlbench

#endif  // AIQLBENCH_TRACE_H_
