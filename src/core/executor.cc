#include "src/core/executor.h"

#include <algorithm>
#include <memory>
#include <mutex>
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
  std::vector<size_t> scores(ctx.patterns.size());
  for (size_t i = 0; i < ctx.patterns.size(); ++i) {
    scores[i] = ctx.patterns[i].PruningScore();
  }
  std::vector<size_t> order(rels.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ra = PatternTypeRank(ctx, rels[a].left()) + PatternTypeRank(ctx, rels[a].right());
    int rb = PatternTypeRank(ctx, rels[b].left()) + PatternTypeRank(ctx, rels[b].right());
    if (ra != rb) {
      return ra < rb;
    }
    size_t sa = scores[rels[a].left()] + scores[rels[a].right()];
    size_t sb = scores[rels[b].left()] + scores[rels[b].right()];
    if (sa != sb) {
      return sa > sb;
    }
    return a < b;
  });
  std::vector<Relationship> out;
  out.reserve(rels.size());
  for (size_t i : order) {
    out.push_back(rels[i]);
  }
  return out;
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
        joiner_(db.catalog(), &budget_,
                JoinStrategy{
                    .hash_equality = options.scheduler != SchedulerKind::kBigJoin,
                    .temporal_index = options.scheduler != SchedulerKind::kBigJoin}) {
    stats_->pattern_matches.assign(ctx.patterns.size(), 0);
  }

  Result<TupleSet> Run() {
    Result<TupleSet> result = options_.scheduler == SchedulerKind::kBigJoin
                                  ? RunBigJoin()
                                  : RunRelationshipLoop();
    stats_->join_work = budget_.rows_produced();
    // The per-loop checks run BEFORE each fetch; a cancel or deadline firing
    // during the final scan stops that scan mid-plan with no later check to
    // notice. ShouldStop true here means the matches may be truncated, so
    // the run must fail rather than pass them off as the answer.
    if (result.ok()) {
      if (Status s = CheckStop(); !s.ok()) {
        return Result<TupleSet>(s);
      }
      stats_->final_tuples = result.value().num_rows();
    }
    return result;
  }

 private:
  size_t Score(size_t pattern) const { return ctx_.patterns[pattern].PruningScore(); }

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

  // Executes the data query of `pattern`, optionally constrained by the
  // already-known bindings of the relationship's other endpoint.
  void ExecutePattern(size_t pattern, const Relationship* rel, const TupleSet* known) {
    DataQuery q = ctx_.patterns[pattern].query;
    if (options_.pushdown && options_.scheduler == SchedulerKind::kRelationship &&
        rel != nullptr && known != nullptr) {
      InjectPushdown(&q, *rel, pattern, *known);
    }
    matches_[pattern] = FetchDataQuery(db_, q, options_, pool_, session_, &scan_ctx_);
    ApplyIntraRels(ctx_, pattern, &matches_[pattern], db_.catalog());
    executed_[pattern] = true;
    stats_->pattern_matches[pattern] = matches_[pattern].size();
  }

  // Constrained execution: derive candidate values / time bounds for
  // `target` from the known side of `rel` (paper Algorithm 1: "S_j <-
  // execute_{S_i} q_j").
  void InjectPushdown(DataQuery* q, const Relationship& rel, size_t target,
                      const TupleSet& known) {
    size_t source = rel.left() == target ? rel.right() : rel.left();
    int source_col = known.ColumnOf(source);
    if (source_col < 0) {
      return;
    }
    const EntityCatalog& catalog = db_.catalog();

    if (rel.kind == Relationship::Kind::kAttr && rel.attr.IsEquiJoin()) {
      bool target_is_left = rel.attr.left_pattern == target;
      RefSide target_side = target_is_left ? rel.attr.left_side : rel.attr.right_side;
      Attr target_attr = target_is_left ? rel.attr.left_attr : rel.attr.right_attr;
      RefSide source_side = target_is_left ? rel.attr.right_side : rel.attr.left_side;
      Attr source_attr = target_is_left ? rel.attr.right_attr : rel.attr.left_attr;

      std::unordered_set<Value, ValueHash> distinct;
      for (const auto& row : known.rows()) {
        distinct.insert(EndpointValue(row[source_col], source_side, source_attr, catalog));
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
      for (const auto& row : known.rows()) {
        TimestampMs t = row[source_col].start_time();
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

  void ReplaceVals(const std::shared_ptr<TupleSet>& old_set,
                   const std::shared_ptr<TupleSet>& new_set) {
    for (auto& m : m_) {
      if (m == old_set) {
        m = new_set;
      }
    }
  }

  Result<TupleSet> RunRelationshipLoop() {
    const size_t n = ctx_.patterns.size();
    matches_.assign(n, {});
    executed_.assign(n, false);
    m_.assign(n, nullptr);

    std::vector<Relationship> rels = InterPatternRelationships(ctx_);
    if (options_.ordering && options_.scheduler == SchedulerKind::kRelationship) {
      rels = SortedRelationships(ctx_, std::move(rels));
    }

    // Fetch-and-filter executes every data query up front (paper §5.2).
    if (options_.scheduler == SchedulerKind::kFetchFilter) {
      for (size_t i = 0; i < n; ++i) {
        if (Status s = CheckStop(); !s.ok()) {
          return Result<TupleSet>(s);
        }
        ExecutePattern(i, nullptr, nullptr);
      }
    }

    for (const Relationship& rel : rels) {
      if (Status s = CheckStop(); !s.ok()) {
        return Result<TupleSet>(s);
      }
      size_t a = rel.left();
      size_t b = rel.right();
      std::vector<Relationship> rel_vec{rel};
      if (!executed_[a] && !executed_[b]) {
        size_t first = Score(a) >= Score(b) ? a : b;
        size_t second = first == a ? b : a;
        ExecutePattern(first, nullptr, nullptr);
        TupleSet sf = TupleSet::FromMatches(first, matches_[first]);
        ExecutePattern(second, &rel, &sf);
        TupleSet ss = TupleSet::FromMatches(second, matches_[second]);
        Result<TupleSet> joined = joiner_.Join(sf, ss, rel_vec);
        if (!joined.ok()) {
          return joined;
        }
        auto t = std::make_shared<TupleSet>(joined.take());
        m_[a] = t;
        m_[b] = t;
      } else if (executed_[a] != executed_[b]) {
        size_t e = executed_[a] ? a : b;
        size_t u = e == a ? b : a;
        std::shared_ptr<TupleSet> te = m_[e];
        TupleSet raw;
        const TupleSet* known = te.get();
        if (known == nullptr) {
          raw = TupleSet::FromMatches(e, matches_[e]);
          known = &raw;
        }
        ExecutePattern(u, &rel, known);
        TupleSet su = TupleSet::FromMatches(u, matches_[u]);
        Result<TupleSet> joined = joiner_.Join(*known, su, rel_vec);
        if (!joined.ok()) {
          return joined;
        }
        auto t = std::make_shared<TupleSet>(joined.take());
        if (te != nullptr) {
          ReplaceVals(te, t);
        }
        m_[e] = t;
        m_[u] = t;
      } else {
        std::shared_ptr<TupleSet> ta = m_[a];
        std::shared_ptr<TupleSet> tb = m_[b];
        if (ta == tb && ta != nullptr) {
          ta->Filter(rel, db_.catalog());
        } else {
          TupleSet raw_a, raw_b;
          const TupleSet* left = ta.get();
          const TupleSet* right = tb.get();
          if (left == nullptr) {
            raw_a = TupleSet::FromMatches(a, matches_[a]);
            left = &raw_a;
          }
          if (right == nullptr) {
            raw_b = TupleSet::FromMatches(b, matches_[b]);
            right = &raw_b;
          }
          Result<TupleSet> joined = joiner_.Join(*left, *right, rel_vec);
          if (!joined.ok()) {
            return joined;
          }
          auto t = std::make_shared<TupleSet>(joined.take());
          if (ta != nullptr) {
            ReplaceVals(ta, t);
          }
          if (tb != nullptr) {
            ReplaceVals(tb, t);
          }
          m_[a] = t;
          m_[b] = t;
        }
      }
    }

    // Step 4: patterns untouched by any relationship.
    for (size_t i = 0; i < n; ++i) {
      if (!executed_[i]) {
        if (Status s = CheckStop(); !s.ok()) {
          return Result<TupleSet>(s);
        }
        ExecutePattern(i, nullptr, nullptr);
      }
      if (m_[i] == nullptr) {
        m_[i] = std::make_shared<TupleSet>(TupleSet::FromMatches(i, matches_[i]));
      }
    }

    // Step 5: merge remaining disjoint tuple sets (cross products).
    for (;;) {
      std::shared_ptr<TupleSet> first = m_[0];
      std::shared_ptr<TupleSet> other = nullptr;
      for (size_t i = 1; i < n; ++i) {
        if (m_[i] != first) {
          other = m_[i];
          break;
        }
      }
      if (other == nullptr) {
        break;
      }
      Result<TupleSet> joined = joiner_.Join(*first, *other, {});
      if (!joined.ok()) {
        return joined;
      }
      auto t = std::make_shared<TupleSet>(joined.take());
      ReplaceVals(first, t);
      ReplaceVals(other, t);
    }
    return *m_[0];
  }

  // "PostgreSQL scheduling": monolithic left-deep join in written order.
  Result<TupleSet> RunBigJoin() {
    const size_t n = ctx_.patterns.size();
    matches_.assign(n, {});
    executed_.assign(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (Status s = CheckStop(); !s.ok()) {
        return Result<TupleSet>(s);
      }
      ExecutePattern(i, nullptr, nullptr);
    }
    std::vector<Relationship> rels = InterPatternRelationships(ctx_);
    TupleSet t = TupleSet::FromMatches(0, matches_[0]);
    for (size_t i = 1; i < n; ++i) {
      std::vector<Relationship> applicable;
      for (const Relationship& rel : rels) {
        bool touches_i = rel.left() == i || rel.right() == i;
        size_t other = rel.left() == i ? rel.right() : rel.left();
        if (touches_i && other < i) {
          applicable.push_back(rel);
        }
      }
      Result<TupleSet> joined = joiner_.Join(t, TupleSet::FromMatches(i, matches_[i]),
                                             applicable);
      if (!joined.ok()) {
        return joined;
      }
      t = joined.take();
    }
    return t;
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

  std::vector<std::vector<EventView>> matches_;
  std::vector<bool> executed_;
  std::vector<std::shared_ptr<TupleSet>> m_;
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
