// Abstract syntax tree for AIQL queries, mirroring Grammar 1 of the paper.
//
// The parser produces this AST verbatim (shortcuts unresolved); the inference
// pass (inference.h) applies the context-aware shortcuts and produces the
// engine-ready QueryContext.
#ifndef AIQL_SRC_LANG_AST_H_
#define AIQL_SRC_LANG_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "src/lang/expr.h"
#include "src/storage/event.h"
#include "src/storage/predicate.h"
#include "src/util/time_utils.h"

namespace aiql::ast {

// <twind> ::= 'at' (<string>|$p) | 'from' (<string>|$p) 'to' (<string>|$p)
//
// Literal endpoints are resolved to timestamps at parse time; parameterized
// endpoints carry the $name (and its source line) until PreparedQuery::Bind
// substitutes a datetime string. `fixed` is engaged iff the whole window was
// literal (or has been fully bound).
struct TimeWindowSpec {
  std::optional<TimeRange> fixed;
  std::string at_param;              // (at $p)
  std::string from_param, to_param;  // parameterized sides of from..to
  std::optional<TimestampMs> from_fixed, to_fixed;
  int line = 0;

  bool parameterized() const {
    return !at_param.empty() || !from_param.empty() || !to_param.empty();
  }
};

// <entity> ::= <entity_type> <e_id>? ('[' <attr_cstr> ']')?
// Attribute-constraint leaves with an empty attr name await default-attribute
// inference.
struct EntityRef {
  EntityType type = EntityType::kProcess;
  std::string id;        // empty = anonymous (optional-ID shortcut)
  PredExpr constraint;   // may contain leaves with empty attr
  int line = 0;
};

// <evt_patt> ::= <entity> <op_exp> <entity> <evt>? ('(' <twind> ')')?
struct EventPattern {
  EntityRef subject;
  OpMask ops = kAllOps;
  EntityRef object;
  std::string evt_id;    // empty = anonymous
  PredExpr evt_constraint;
  std::optional<TimeWindowSpec> time_window;
  int line = 0;
};

// <attr_rel> ::= <e_id>'.'<attr> <bop> <e_id>'.'<attr> | <e_id> <bop> <e_id>
struct AttrRel {
  std::string left_id;
  std::string left_attr;   // empty = infer (id)
  CmpOp op = CmpOp::kEq;
  std::string right_id;
  std::string right_attr;
  int line = 0;
};

enum class TempOrder : uint8_t { kBefore, kAfter, kWithin };

// <temp_rel> ::= <evt_id> ('before'|'after'|'within') ('[' v '-' v unit ']')? <evt_id>
struct TempRel {
  std::string left_evt;
  TempOrder order = TempOrder::kBefore;
  // Optional distance window [lo, hi] in milliseconds; unset = any distance.
  std::optional<DurationMs> lo;
  std::optional<DurationMs> hi;
  std::string right_evt;
  int line = 0;
};

// <res> with optional rename.
struct ReturnItem {
  Expr expr;
  std::string rename;  // empty = derived name
};

// <return> ::= 'return' 'count'? 'distinct'? <res> (',' <res>)*
struct ReturnClause {
  bool count_all = false;
  bool distinct = false;
  std::vector<ReturnItem> items;
};

struct SortKey {
  Expr expr;
  bool ascending = true;
};

// <filter> pieces (plus <group_by>); any combination may follow the return.
struct Filters {
  std::vector<ReturnItem> group_by;
  std::optional<Expr> having;
  std::vector<SortKey> sort_by;
  std::optional<int64_t> top;
};

// <global_cstr> ::= <cstr> | '(' <twind> ')' | <slide_wind>
struct GlobalConstraints {
  PredExpr constraint;                     // e.g. agentid = 1
  int line = 0;                            // of the first constraint
  // All (at "...") / (from "..." to "...") windows in source order; the
  // resolved query time range is their intersection. Kept as specs (not a
  // single TimeRange) because parameterized windows resolve only at Bind.
  std::vector<TimeWindowSpec> time_windows;
  std::optional<DurationMs> window;         // sliding window length
  std::optional<DurationMs> step;           // sliding window step

  // Intersection of the fully-literal windows; nullopt when none are literal.
  // Convenience for tests and tools that inspect the raw AST.
  std::optional<TimeRange> LiteralTimeWindow() const {
    std::optional<TimeRange> out;
    for (const TimeWindowSpec& w : time_windows) {
      if (w.fixed.has_value()) {
        out = out.has_value() ? out->Intersect(*w.fixed) : *w.fixed;
      }
    }
    return out;
  }
};

struct MultieventQuery {
  std::vector<EventPattern> patterns;
  std::vector<AttrRel> attr_rels;
  std::vector<TempRel> temp_rels;
  ReturnClause ret;
  Filters filters;
};

// <op_edge> ::= ('->' | '<-') '[' <op_exp> ']'
struct DependencyEdge {
  bool points_right = true;  // '->' if true, '<-' if false
  OpMask ops = kAllOps;
};

// <d_query>: a path of entities joined by operation edges.
struct DependencyQuery {
  bool forward = true;  // 'forward:' (default) or 'backward:'
  std::vector<EntityRef> nodes;
  std::vector<DependencyEdge> edges;  // edges.size() == nodes.size() - 1
  ReturnClause ret;
  Filters filters;
};

enum class QueryKind : uint8_t { kMultievent, kDependency, kAnomaly };

struct Query {
  QueryKind kind = QueryKind::kMultievent;
  GlobalConstraints global;
  MultieventQuery multievent;   // valid for kMultievent / kAnomaly
  DependencyQuery dependency;   // valid for kDependency
  std::string text;             // original source text
};

}  // namespace aiql::ast

#endif  // AIQL_SRC_LANG_AST_H_
