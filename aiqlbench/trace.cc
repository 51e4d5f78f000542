#include "aiqlbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace aiqlbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery: return "query";
    case SpanKind::kParse: return "lang.parse";
    case SpanKind::kBind: return "lang.bind";
    case SpanKind::kResolve: return "lang.resolve";
    case SpanKind::kMultievent: return "core.multievent";
    case SpanKind::kAnomaly: return "core.anomaly";
    case SpanKind::kProject: return "core.project";
    case SpanKind::kFetch: return "storage.fetch";
    case SpanKind::kPlan: return "storage.plan";
    case SpanKind::kMorsels: return "storage.morsels";
    case SpanKind::kScan: return "storage.scan";
    case SpanKind::kMorsel: return "storage.morsel";
    case SpanKind::kMerge: return "storage.merge";
    case SpanKind::kIngest: return "ingest.ingest";
    case SpanKind::kFinalize: return "storage.finalize";
  }
  return "?";
}

uint64_t Tracer::Open(SpanKind kind) {
  Span s;
  s.kind = kind;
  s.id = spans_.size() + 1;
  s.parent = current();
  s.query = query_;
  s.start_ns = NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void Tracer::Close(uint64_t id) {
  // Spans close in LIFO order (ScopedSpan), so `id` is the innermost one.
  spans_[id - 1].end_ns = NowNs();
  open_.pop_back();
}

uint64_t Tracer::Record(SpanKind kind, uint64_t parent, int64_t start_ns, int64_t end_ns,
                        uint32_t worker) {
  Span s;
  s.kind = kind;
  s.worker = worker;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.query = query_;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"query\":%llu,\"worker\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 SpanName(s.kind), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.worker,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

SpanTotals Summarize(const std::vector<Span>& spans) {
  SpanTotals t;
  // Children grouped by parent, so each parent's covered time is the union
  // of its children's intervals (morsel spans under one scan overlap).
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (const Span& s : spans) {
    const int k = static_cast<int>(s.kind);
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.total_ms[k] += dur_ms;
    t.count[k] += 1;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t lo = s.start_ns, hi = s.start_ns;  // current merged interval
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) {
          continue;
        }
        if (b > hi) {
          covered += hi - lo;
          lo = b;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      covered += hi - lo;
    }
    t.self_ms[k] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    if (s.kind == SpanKind::kScan) {
      t.scan_capacity_ms += dur_ms * s.worker;
    }
    if (s.kind == SpanKind::kMorsel) {
      t.morsel_wait_ms += static_cast<double>(s.start_ns - spans[s.parent - 1].start_ns) / 1e6;
    }
  }
  return t;
}

}  // namespace aiqlbench
