#include "src/storage/partition.h"

#include <algorithm>
#include <numeric>

namespace aiql {
namespace {

// Applies one compiled column filter with the kernel matching its operator:
// branch-free compare loops for the ordered ops, the flat small-set probe or
// the hash fallback for IN / NOT IN.
template <typename T>
size_t ApplyColumnFilter(uint32_t* rows, size_t n, const T* col, const ColumnFilter& f) {
  switch (f.op) {
    case CmpOp::kIn:
    case CmpOp::kNotIn: {
      const bool negate = f.op == CmpOp::kNotIn;
      if (f.values == nullptr) {
        // Mirrors ColumnFilter::Matches: IN with no set never matches,
        // NOT IN with no set always does.
        return negate ? n : 0;
      }
      if (f.values->size() <= kSmallSetProbe) {
        int64_t flat[kSmallSetProbe];
        size_t k = 0;
        for (int64_t v : *f.values) {
          flat[k++] = v;
        }
        return kernels::SelectSmallSet(rows, n, col, flat, k, negate);
      }
      return kernels::SelectHashSet(rows, n, col, *f.values, negate);
    }
    default:
      return kernels::SelectCompare(rows, n, col, f.op, f.value);
  }
}

// Agent membership: flat array for small sets (the probe is an
// order-independent OR of equality tests), hash probe otherwise.
template <typename T>
size_t ApplyMembership(uint32_t* rows, size_t n, const T* col,
                       const std::unordered_set<AgentId>& set) {
  if (set.size() <= kSmallSetProbe) {
    AgentId flat[kSmallSetProbe];
    size_t k = 0;
    for (AgentId v : set) {
      flat[k++] = v;
    }
    return kernels::SelectSmallSet(rows, n, col, flat, k, /*negate=*/false);
  }
  return kernels::SelectHashSet(rows, n, col, set, /*negate=*/false);
}

template <typename T>
size_t ElementBytes(const std::vector<T>& column) {
  return column.size() * sizeof(T);
}

// Decodes the archived columns in `mask` into `out`, accruing their decoded
// and encoded bytes into `stats` when given.
void DecodeEventColumns(const ArchivedColumns& a, EventColumnMask mask, EventColumns* out,
                        ScanStats* stats) {
  ForEachEventColumn([&](auto column) {
    if ((mask & ColumnBit(column.id)) == 0) {
      return;
    }
    const EncodedInts& encoded = a.cols[static_cast<int>(column.id)];
    DecodeColumn(encoded, &column.Of(*out));
    if (stats != nullptr) {
      stats->decoded_bytes += ElementBytes(column.Of(*out));
      stats->archived_bytes += encoded.EncodedBytes();
    }
  });
}

}  // namespace

ArchivedColumns EncodeEventColumns(const EventColumns& cols) {
  ArchivedColumns a;
  a.count = static_cast<uint32_t>(cols.size());
  ForEachEventColumn([&](auto column) {
    a.cols[static_cast<int>(column.id)] = EncodeColumn(column.Of(cols));
  });
  return a;
}

const EventColumns* DecodedPartition::Ensure(EventColumnMask mask, ScanStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  const EventColumnMask missing = static_cast<EventColumnMask>(mask & ~decoded_);
  if (missing != 0) {
    DecodeEventColumns(*src_, missing, &cols_, stats);
    decoded_ = static_cast<EventColumnMask>(decoded_ | missing);
  }
  return &cols_;
}

std::shared_ptr<DecodedPartition> DecodeCache::Acquire(const Partition* p, ScanStats* stats) {
  if (std::shared_ptr<DecodedPartition> hit = cache_.Find(p)) {
    return hit;
  }
  auto fresh = std::make_shared<DecodedPartition>(p->archived_columns());
  std::shared_ptr<DecodedPartition> canonical = cache_.Insert(p, fresh);
  // Count the decode only on the thread whose entry won the publish race.
  if (canonical == fresh && stats != nullptr) {
    ++stats->partitions_decoded;
  }
  return canonical;
}

void Partition::Append(const Event& e) {
  if (archived_ != nullptr) {
    DecodeEventColumns(*archived_, kAllEventColumns, &cols_, nullptr);
    archived_.reset();
  }
  finalized_ = false;
  cols_.Append(e);
}

void Partition::Archive() {
  if (archived_ != nullptr || !finalized_ || cols_.size() == 0) {
    return;
  }
  archived_ = std::make_unique<ArchivedColumns>(EncodeEventColumns(cols_));
  cols_ = EventColumns();  // release the decoded buffers, not just clear them
}

size_t Partition::ColumnBytes() const {
  size_t total = 0;
  ForEachEventColumn([&](auto column) { total += ElementBytes(column.Of(cols_)); });
  return total;
}

void Partition::Finalize(bool build_indexes) {
  if (finalized_) {
    return;
  }
  // (start_time, id) — not just start_time: scan emission order IS the
  // engine-wide result order (MergeSortedRuns merges per-partition runs
  // without re-sorting), and AppendRaw replay can ingest equal-timestamp
  // events with descending ids. Ingest position breaks the remaining ties.
  const size_t n = cols_.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const std::vector<TimestampMs>& ts = cols_.start_time;
  const std::vector<int64_t>& ids = cols_.id;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (ts[a] != ts[b]) {
      return ts[a] < ts[b];
    }
    return ids[a] != ids[b] ? ids[a] < ids[b] : a < b;
  });
  ForEachEventColumn([&](auto column) {
    auto& values = column.Of(cols_);
    std::vector<typename decltype(column)::Type> sorted(n);
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = values[order[i]];
    }
    values = std::move(sorted);
  });

  zone_ = ZoneMap(cols_);

  subject_postings_.clear();
  object_postings_.clear();
  if (build_indexes) {
    for (uint32_t i = 0; i < n; ++i) {
      subject_postings_[cols_.subject_idx[i]].push_back(i);
      object_postings_[PackObjectKey(cols_.object_type[i], cols_.object_idx[i])].push_back(i);
    }
  }
  has_indexes_ = build_indexes;
  finalized_ = true;
}

void Partition::ForEachEvent(const std::function<void(const Event&)>& fn) const {
  const EventColumns* cols = &cols_;
  EventColumns decoded;
  if (archived_ != nullptr) {
    // Bulk export (graph/MPP builds): a transient full decode, not routed
    // through the decode cache — nothing here outlives the call.
    DecodeEventColumns(*archived_, kAllEventColumns, &decoded, nullptr);
    cols = &decoded;
  }
  for (uint32_t i = 0; i < cols->size(); ++i) {
    fn(cols->Materialize(i));
  }
}

std::pair<size_t, size_t> Partition::TimeSlice(const EventColumns* cols,
                                               const TimeRange& range) {
  const auto& ts = cols->start_time;
  auto lo = std::lower_bound(ts.begin(), ts.end(), range.begin);
  auto hi = std::lower_bound(ts.begin(), ts.end(), range.end);
  return {static_cast<size_t>(lo - ts.begin()), static_cast<size_t>(hi - ts.begin())};
}

bool Partition::CanMatch(const TimeRange& range, const DataQuery& q,
                         const CompiledEventPred& pred,
                         const std::unordered_set<AgentId>* agent_set,
                         const EntityCandidates* subjects, const EntityCandidates* objects,
                         ScanStats* stats) const {
  if (!finalized_ || size() == 0) {
    return false;
  }
  if (range.begin > max_time() || range.end <= min_time()) {
    return false;
  }
  OpMask mask = static_cast<OpMask>(q.op_mask & pred.op_mask);
  if ((zone_.op_mask & mask) == 0) {
    return false;
  }
  if ((zone_.object_type_mask & (1u << static_cast<int>(q.object_type))) == 0) {
    return false;
  }
  if (agent_set != nullptr && !zone_.ContainsAnyAgent(*agent_set)) {
    return false;
  }
  for (const ColumnFilter& f : pred.filters) {
    if (!f.CanMatchRange(zone_.MinOf(f.col), zone_.MaxOf(f.col))) {
      return false;
    }
  }
  if (subjects != nullptr && !zone_.MayContainSubject(*subjects)) {
    if (stats != nullptr) {
      ++stats->partitions_pruned_entity;
    }
    return false;
  }
  if (objects != nullptr && !zone_.MayContainObject(*objects, q.object_type)) {
    if (stats != nullptr) {
      ++stats->partitions_pruned_entity;
    }
    return false;
  }
  return true;
}

bool Partition::PrefersPostingScan(const EntityCandidates* subjects,
                                   const EntityCandidates* objects) const {
  if (!has_indexes_) {
    return false;
  }
  return (subjects != nullptr && subjects->ids.size() <= kPostingCandidateLimit) ||
         (objects != nullptr && objects->ids.size() <= kPostingCandidateLimit);
}

bool Partition::PostingCandidates(const DataQuery& q, const EntityCandidates* subjects,
                                  const EntityCandidates* objects, size_t lo, size_t hi,
                                  std::vector<uint32_t>* offsets, ScanStats* stats) const {
  if (!PrefersPostingScan(subjects, objects)) {
    return false;
  }
  // Prefer the smaller candidate set.
  const bool subj_indexed = subjects != nullptr && subjects->ids.size() <= kPostingCandidateLimit;
  const bool use_subject =
      subj_indexed && (objects == nullptr || subjects->ids.size() <= objects->ids.size());
  std::vector<uint32_t> raw;
  if (use_subject) {
    for (uint32_t idx : subjects->ids) {
      ++stats->index_lookups;
      auto it = subject_postings_.find(idx);
      if (it != subject_postings_.end()) {
        raw.insert(raw.end(), it->second.begin(), it->second.end());
      }
    }
  } else {
    for (uint32_t idx : objects->ids) {
      ++stats->index_lookups;
      auto it = object_postings_.find(PackObjectKey(q.object_type, idx));
      if (it != object_postings_.end()) {
        raw.insert(raw.end(), it->second.begin(), it->second.end());
      }
    }
  }
  std::sort(raw.begin(), raw.end());
  offsets->reserve(raw.size());
  for (uint32_t off : raw) {
    if (off >= lo && off < hi) {
      offsets->push_back(off);
    }
  }
  return true;
}

bool Partition::AgentFilterActive(const std::unordered_set<AgentId>* agent_set) const {
  if (agent_set == nullptr) {
    return false;
  }
  for (AgentId a : zone_.agents) {
    if (agent_set->count(a) == 0) {
      return true;
    }
  }
  return false;
}

EventColumnMask Partition::ScanColumnMask(const PartitionScanArgs& args) const {
  const DataQuery& q = *args.query;
  const CompiledEventPred& pred = *args.pred;
  if (!pred.residual.is_true()) {
    return kAllEventColumns;  // row-at-a-time attribute access
  }
  EventColumnMask m = kColumnBitOf<&EventColumns::start_time>;
  if (OpFilterActive(static_cast<OpMask>(q.op_mask & pred.op_mask))) {
    m |= kColumnBitOf<&EventColumns::op>;
  }
  if (TypeFilterActive(q.object_type)) {
    m |= kColumnBitOf<&EventColumns::object_type>;
  }
  for (const ColumnFilter& f : pred.filters) {
    if (ColumnFilterActive(f)) {
      m |= ColumnBit(f.col);
    }
  }
  if (AgentFilterActive(args.agent_set)) {
    m |= kColumnBitOf<&EventColumns::agent_id>;
  }
  if (args.subjects != nullptr) {
    m |= kColumnBitOf<&EventColumns::subject_idx>;
  }
  if (args.objects != nullptr) {
    m |= kColumnBitOf<&EventColumns::object_idx>;
  }
  return m;
}

void Partition::VectorScan(std::vector<uint32_t>* sel, const PartitionScanArgs& args,
                           const EventColumns* cols, DecodedPartition* dec,
                           std::vector<EventView>* out, ScanStats* stats) const {
  const DataQuery& q = *args.query;
  const CompiledEventPred& pred = *args.pred;
  stats->events_scanned += sel->size();
  uint32_t* rows = sel->data();
  size_t n = sel->size();

  // Operation mask — skipped when the zone map proves every row qualifies.
  OpMask mask = static_cast<OpMask>(q.op_mask & pred.op_mask);
  if (OpFilterActive(mask)) {
    n = kernels::SelectOpMask(rows, n, cols->op.data(), static_cast<uint32_t>(mask));
  }

  // Object entity type — partitions usually hold a mix of types. Runs before
  // the object membership probe, so that probe only ever sees rows of the
  // query's object type.
  if (TypeFilterActive(q.object_type)) {
    n = kernels::SelectEq(rows, n, cols->object_type.data(), q.object_type);
  }

  // Compiled numeric filters, cheapest predicates first; each is skipped when
  // the zone map proves it true for the whole partition.
  for (const ColumnFilter& f : pred.filters) {
    if (n == 0) {
      break;
    }
    if (!ColumnFilterActive(f)) {
      continue;
    }
    VisitEventColumn(f.col, [&](auto column) {
      n = ApplyColumnFilter(rows, n, column.Of(*cols).data(), f);
    });
  }

  // Spatial constraint — skipped when every agent in the partition qualifies.
  if (n > 0 && AgentFilterActive(args.agent_set)) {
    n = ApplyMembership(rows, n, cols->agent_id.data(), *args.agent_set);
  }

  // Entity membership: one bit test per row against each constrained side's
  // catalog bitmap.
  if (args.subjects != nullptr && n > 0) {
    stats->bitmap_probes += n;
    n = kernels::SelectBitmap(rows, n, cols->subject_idx.data(), args.subjects->bitmap);
  }
  if (args.objects != nullptr && n > 0) {
    stats->bitmap_probes += n;
    n = kernels::SelectBitmap(rows, n, cols->object_idx.data(), args.objects->bitmap);
  }

  // Residual predicate: row-at-a-time over whatever survives.
  if (!pred.residual.is_true() && n > 0) {
    n = kernels::SelectIf(rows, n, [&](uint32_t r) {
      EventView v(cols, r);
      auto source = [&](Attr a) { return EventAttr(v, *args.catalog, a); };
      return pred.residual.Eval(source);
    });
  }

  sel->resize(n);
  // Archived partitions decoded only the filter columns so far; surviving
  // rows become EventViews whose consumers may read any attribute, so widen
  // to the full column set before emitting.
  if (dec != nullptr && n > 0) {
    cols = dec->EnsureAll(stats);
  }
  stats->events_matched += n;
  out->reserve(out->size() + n);
  for (uint32_t r : *sel) {
    out->push_back(EventView(cols, r));
  }
}

void Partition::Execute(const PartitionScanArgs& args, std::vector<EventView>* out,
                        ScanStats* stats) const {
  const DataQuery& q = *args.query;
  TimeRange range = q.EffectiveTime();
  if (!finalized_ || range.empty() || size() == 0 || range.begin > max_time() ||
      range.end <= min_time()) {
    return;
  }

  // Archive tier: every pruning opportunity above (zone times, and the plan's
  // CanMatch before that) ran without touching an encoded byte. A partition
  // that reaches this point decodes — only the columns the filters need now;
  // the rest on first emitted row. The decode-cache entry is pinned for the
  // duration of this call, and registered with the caller's ColumnPins so the
  // emitted EventViews outlive cache eviction.
  const EventColumns* cols = &cols_;
  std::shared_ptr<DecodedPartition> decoded;
  DecodedPartition* dec = nullptr;
  if (archived_ != nullptr) {
    decoded = args.decode_cache->Acquire(this, stats);
    if (args.pins != nullptr) {
      args.pins->Add(decoded);
    }
    dec = decoded.get();
    cols = dec->Ensure(ScanColumnMask(args), stats);
  }

  auto [slice_lo, slice_hi] = TimeSlice(cols, range);
  size_t lo = std::max<size_t>(slice_lo, args.begin_row);
  size_t hi = std::min<size_t>(slice_hi, args.end_row);
  if (lo >= hi) {
    return;
  }

  // Access path: the posting-list union of a side with few candidates, else
  // every row of the time slice.
  std::vector<uint32_t> sel;
  if (!PostingCandidates(q, args.subjects, args.objects, lo, hi, &sel, stats)) {
    sel.resize(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      sel[i - lo] = static_cast<uint32_t>(i);
    }
  }
  VectorScan(&sel, args, cols, dec, out, stats);
}

}  // namespace aiql
