#include "src/core/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

namespace aiql {

const char* SchedulerKindName(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kRelationship:
      return "aiql";
    case SchedulerKind::kFetchFilter:
      return "aiql-ff";
    case SchedulerKind::kBigJoin:
      return "bigjoin";
  }
  return "?";
}

std::vector<EventView> FetchDataQuery(const EventStore& db, const DataQuery& query,
                                      const ExecOptions& options, ThreadPool* pool,
                                      ExecutionSession* session, const ScanContext* ctx) {
  ExecStats* stats = &session->stats;
  ++stats->data_queries;
  bool parallel = pool != nullptr && options.parallelism > 1;
  // Primary path: hand the pool to the store, which enumerates its pruning
  // survivors into a morsel queue (Database partitions, MPP segment
  // partitions) — fan-out lives where the data lives. The session's plan
  // cache lets stores that support it (Database) skip replanning repeated
  // constraint sets.
  if (parallel && options.storage_parallel && db.SupportsParallelScan()) {
    return db.ExecuteQueryCached(query, &stats->scan, pool, session->plan_cache,
                                 &stats->plan_cache_hits, ctx);
  }
  // Fallback for stores without internal parallelism: split multi-day time
  // windows into per-day sub-queries and run those on the pool.
  TimeRange range = query.EffectiveTime().Intersect(db.data_time_range());
  bool can_split = parallel && db.SupportsDaySplit() && !range.empty();
  if (can_split) {
    int64_t first_day = DayIndex(range.begin);
    int64_t last_day = DayIndex(range.end - 1);
    if (last_day > first_day) {
      size_t num_days = static_cast<size_t>(last_day - first_day + 1);
      std::vector<std::vector<EventView>> slices(num_days);
      std::vector<ScanStats> slice_stats(num_days);
      pool->ParallelFor(num_days, [&](size_t k) {
        if (ctx != nullptr && ctx->ShouldStop()) {
          return;
        }
        DataQuery sub = query;
        TimeRange day{DayStart(first_day + static_cast<int64_t>(k)),
                      DayStart(first_day + static_cast<int64_t>(k) + 1)};
        sub.pushed_time = query.pushed_time.has_value() ? query.pushed_time->Intersect(day) : day;
        slices[k] = db.ExecuteQuery(sub, &slice_stats[k], ctx);
      });
      std::vector<EventView> out;
      size_t total = 0;
      for (const auto& s : slices) {
        total += s.size();
      }
      out.reserve(total);
      for (size_t k = 0; k < num_days; ++k) {
        // Day slices are internally sorted and day-disjoint, so appending in
        // day order preserves the global (start_time, id) order.
        out.insert(out.end(), slices[k].begin(), slices[k].end());
        stats->scan += slice_stats[k];
      }
      stats->parallel_slices += num_days;
      return out;
    }
  }
  return db.ExecuteQueryCached(query, &stats->scan, nullptr, session->plan_cache,
                               &stats->plan_cache_hits, ctx);
}

// Applies intra-pattern attribute relationships (e.g. p1.user = f1.owner
// within one pattern) as a row filter on the pattern's matches.
void ApplyIntraRels(const QueryContext& ctx, size_t pattern, std::vector<EventView>* events,
                    const EntityCatalog& catalog) {
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (!rel.IsIntraPattern() || rel.left_pattern != pattern) {
      continue;
    }
    size_t w = 0;
    for (size_t i = 0; i < events->size(); ++i) {
      if (CheckAttrRel(rel, (*events)[i], (*events)[i], catalog)) {
        (*events)[w++] = (*events)[i];
      }
    }
    events->resize(w);
  }
}

namespace {

// Pushdown is skipped when the candidate value set exceeds this size.
constexpr size_t kPushdownValueLimit = 262144;

// Pattern type rank for relationship ordering: the paper sorts relationships
// over process/network events ahead of file events (§5.2 step 2).
int PatternTypeRank(const QueryContext& ctx, size_t pattern) {
  return ctx.patterns[pattern].query.object_type == EntityType::kFile ? 1 : 0;
}

std::vector<Relationship> SortedRelationships(const QueryContext& ctx,
                                              std::vector<Relationship> rels) {
  auto rank = [&](const Relationship& r) {
    return PatternTypeRank(ctx, r.left()) + PatternTypeRank(ctx, r.right());
  };
  std::vector<size_t> scores;
  for (const PatternContext& p : ctx.patterns) {
    scores.push_back(p.PruningScore());
  }
  auto score = [&](const Relationship& r) { return scores[r.left()] + scores[r.right()]; };
  std::stable_sort(rels.begin(), rels.end(), [&](const Relationship& a, const Relationship& b) {
    if (rank(a) != rank(b)) {
      return rank(a) < rank(b);
    }
    return score(a) > score(b);
  });
  return rels;
}

class MultieventExecutor {
 public:
  MultieventExecutor(const EventStore& db, const QueryContext& ctx, const ExecOptions& options,
                     ThreadPool* pool, ExecutionSession* session)
      : db_(db),
        ctx_(ctx),
        options_(options),
        pool_(pool),
        session_(session),
        stats_(&session->stats),
        // The per-run scan context: storage-layer morsel loops check the
        // cancellation flag and the run's deadline between morsels, and
        // decoded archive columns pin into the session for the run's
        // lifetime. AiqlEngine::ExecuteContext already folded the session's
        // budget override into options.time_budget_ms.
        scan_ctx_{.cancel = &session->cancelled,
                  .deadline = Deadline::After(options.time_budget_ms),
                  .pins = &session->pins},
        // The join budget shares the run's one deadline with the scans.
        budget_(scan_ctx_.deadline, options.max_join_work, &session->cancelled),
        joiner_(db.catalog(), &budget_, options.scheduler == SchedulerKind::kBigJoin) {
    stats_->pattern_matches.assign(ctx.patterns.size(), 0);
  }

  Result<TupleSet> Run() {
    Status s = RunLoop();
    stats_->join_work = budget_.rows_produced();
    // The per-loop checks run BEFORE each fetch; a cancel or deadline firing
    // during the final scan stops that scan mid-plan with no later check to
    // notice. ShouldStop true here means the matches may be truncated, so
    // the run must fail rather than pass them off as the answer.
    if (s.ok()) {
      s = CheckStop();
    }
    if (!s.ok()) {
      return Result<TupleSet>(s);
    }
    TupleSet& result = sets_[slot_[0]];
    stats_->final_tuples = result.num_rows();
    return std::move(result);
  }

 private:
  static constexpr size_t kUnfetched = SIZE_MAX;

  size_t Score(size_t pattern) const { return ctx_.patterns[pattern].PruningScore(); }
  bool Fetched(size_t pattern) const { return slot_[pattern] != kUnfetched; }

  // Cancellation / scan-deadline check between execution steps. A stopped
  // storage scan returns a partial result, so the run must fail rather than
  // pass truncated matches off as the answer.
  Status CheckStop() const {
    if (session_->IsCancelled()) {
      return Status::Error("execution cancelled");
    }
    if (scan_ctx_.deadline.Expired()) {
      return Status::Error("execution budget exceeded: time limit reached");
    }
    return Status::Ok();
  }

  // Algorithm 1 over the map M (slot_ / sets_). Fetch-and-filter and
  // big-join run every data query up front. The relationship walk (all but
  // big-join) fetches each relationship's unfetched endpoints, the second
  // one constrained by the first's tuple set, and joins the two sets on
  // that relationship and every other one between them. Every scheduler
  // ends by folding the remaining sets into pattern 0's, left to right: the
  // cross products of the paper's step 5, and big-join's whole left-deep
  // join in written pattern order.
  Status RunLoop() {
    const size_t n = ctx_.patterns.size();
    slot_.assign(n, kUnfetched);
    sets_.assign(n, TupleSet());
    rels_ = InterPatternRelationships(ctx_);
    applied_.assign(rels_.size(), false);
    const bool relationship = options_.scheduler == SchedulerKind::kRelationship;
    if (relationship && options_.ordering) {
      rels_ = SortedRelationships(ctx_, std::move(rels_));
    }
    if (!relationship) {
      if (Status s = FetchUnfetched(); !s.ok()) {
        return s;
      }
    }
    if (options_.scheduler != SchedulerKind::kBigJoin) {
      for (size_t k = 0; k < rels_.size(); ++k) {
        if (applied_[k]) {
          continue;  // both endpoints already share a set
        }
        if (Status s = CheckStop(); !s.ok()) {
          return s;
        }
        // The left side of the join is the endpoint fetched first: the
        // higher pruning score when neither is fetched yet.
        size_t l = rels_[k].left();
        size_t r = rels_[k].right();
        if (!Fetched(l) && !Fetched(r)) {
          if (Score(r) > Score(l)) {
            std::swap(l, r);
          }
          Fetch(l, nullptr);
        } else if (!Fetched(l)) {
          std::swap(l, r);
        }
        if (!Fetched(r)) {
          Fetch(r, &rels_[k]);
        }
        if (Status s = JoinSets(l, r, k); !s.ok()) {
          return s;
        }
      }
    }
    // Patterns no relationship touched.
    if (Status s = FetchUnfetched(); !s.ok()) {
      return s;
    }
    for (size_t i = 1; i < n; ++i) {
      if (slot_[i] != slot_[0]) {
        if (Status s = JoinSets(0, i, std::nullopt); !s.ok()) {
          return s;
        }
      }
    }
    return Status::Ok();
  }

  Status FetchUnfetched() {
    for (size_t i = 0; i < ctx_.patterns.size(); ++i) {
      if (!Fetched(i)) {
        if (Status s = CheckStop(); !s.ok()) {
          return s;
        }
        Fetch(i, nullptr);
      }
    }
    return Status::Ok();
  }

  // Executes the data query of `pattern` and binds its matches as the
  // pattern's one-column set. With `rel`, the query is constrained by the
  // set binding rel's other endpoint.
  void Fetch(size_t pattern, const Relationship* rel) {
    DataQuery q = ctx_.patterns[pattern].query;
    if (options_.pushdown && rel != nullptr) {
      InjectPushdown(&q, *rel, pattern);
    }
    std::vector<EventView> matches = FetchDataQuery(db_, q, options_, pool_, session_, &scan_ctx_);
    ApplyIntraRels(ctx_, pattern, &matches, db_.catalog());
    stats_->pattern_matches[pattern] = matches.size();
    slot_[pattern] = pattern;
    sets_[pattern] = TupleSet::FromMatches(pattern, std::move(matches));
  }

  // Joins the set binding `a` (left) with the set binding `b` (right) on
  // rels_[driver], if given, then on every other relationship between the
  // two sets not applied yet; the joined set replaces both in M. So no set
  // ever holds an unapplied relationship between two of its patterns.
  Status JoinSets(size_t a, size_t b, std::optional<size_t> driver) {
    const size_t sa = slot_[a];
    const size_t sb = slot_[b];
    std::vector<Relationship> on;
    for (size_t k = 0; k < rels_.size(); ++k) {
      const size_t l = slot_[rels_[k].left()];
      const size_t r = slot_[rels_[k].right()];
      if (!applied_[k] && ((l == sa && r == sb) || (l == sb && r == sa))) {
        on.insert(k == driver ? on.begin() : on.end(), rels_[k]);
        applied_[k] = true;
      }
    }
    Result<TupleSet> joined = joiner_.Join(sets_[sa], sets_[sb], on);
    if (!joined.ok()) {
      return joined.status();
    }
    for (size_t p : sets_[sb].patterns()) {
      slot_[p] = sa;
    }
    sets_[sa] = joined.take();
    sets_[sb] = TupleSet();
    return Status::Ok();
  }

  // Constrained execution: derive candidate values / time bounds for
  // `target` from the set binding the other endpoint of `rel` (paper
  // Algorithm 1: "S_j <- execute_{S_i} q_j").
  void InjectPushdown(DataQuery* q, const Relationship& rel, size_t target) {
    const size_t source = rel.left() == target ? rel.right() : rel.left();
    const TupleSet& known = sets_[slot_[source]];
    const int source_col = known.ColumnOf(source);
    const EntityCatalog& catalog = db_.catalog();

    if (rel.kind == Relationship::Kind::kAttr && rel.attr.IsEquiJoin()) {
      bool target_is_left = rel.attr.left_pattern == target;
      RefSide target_side = target_is_left ? rel.attr.left_side : rel.attr.right_side;
      Attr target_attr = target_is_left ? rel.attr.left_attr : rel.attr.right_attr;
      RefSide source_side = target_is_left ? rel.attr.right_side : rel.attr.left_side;
      Attr source_attr = target_is_left ? rel.attr.right_attr : rel.attr.left_attr;

      std::unordered_set<Value, ValueHash> distinct;
      for (size_t r = 0; r < known.num_rows(); ++r) {
        distinct.insert(EndpointValue(known.row(r)[source_col], source_side, source_attr, catalog));
        if (distinct.size() > kPushdownValueLimit) {
          return;  // candidate set too large to help
        }
      }
      std::vector<Value> values(distinct.begin(), distinct.end());
      PredExpr in_pred = PredExpr::Leaf(AttrPredicate::In(target_attr, std::move(values)));
      switch (target_side) {
        case RefSide::kSubject:
          q->subject_pred = PredExpr::And(std::move(q->subject_pred), std::move(in_pred));
          break;
        case RefSide::kObject:
          q->object_pred = PredExpr::And(std::move(q->object_pred), std::move(in_pred));
          break;
        case RefSide::kEvent:
          q->event_pred = PredExpr::And(std::move(q->event_pred), std::move(in_pred));
          break;
        case RefSide::kAlias:
          return;
      }
      ++stats_->pushdown_applications;
      return;
    }

    if (rel.kind == Relationship::Kind::kTemp) {
      TimestampMs tmin = INT64_MAX, tmax = INT64_MIN;
      for (size_t r = 0; r < known.num_rows(); ++r) {
        TimestampMs t = known.row(r)[source_col].start_time();
        tmin = std::min(tmin, t);
        tmax = std::max(tmax, t);
      }
      if (tmin > tmax) {
        q->pushed_time = TimeRange{0, 0};  // empty: no source rows
        return;
      }
      // Admissible start times of the target event.
      const TimeRange bound = TempRelBounds(rel.temp, rel.temp.left_pattern == source, tmin, tmax);
      q->pushed_time = q->pushed_time.has_value() ? q->pushed_time->Intersect(bound) : bound;
      ++stats_->pushdown_applications;
    }
  }

  const EventStore& db_;
  const QueryContext& ctx_;
  const ExecOptions& options_;
  ThreadPool* pool_;
  ExecutionSession* session_;
  ExecStats* stats_;
  ScanContext scan_ctx_;
  BudgetGuard budget_;
  TupleJoiner joiner_;

  // Algorithm 1's map M: pattern p is bound by sets_[slot_[p]] (kUnfetched
  // until its data query runs). A fetched pattern's slot starts as its own
  // one-column set; a join keeps the left set's slot and empties the right's.
  std::vector<size_t> slot_;
  std::vector<TupleSet> sets_;
  std::vector<Relationship> rels_;  // in scheduling order
  std::vector<bool> applied_;       // rels_[k] already holds in its set
};

}  // namespace

Result<TupleSet> ExecuteMultievent(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session) {
  ExecutionSession local;
  MultieventExecutor executor(db, ctx, options, pool, session != nullptr ? session : &local);
  return executor.Run();
}

}  // namespace aiql
