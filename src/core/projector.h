// Result projection: evaluates the return clause, grouping, aggregation,
// having filters, sorting, distinct, and top-k over joined tuple rows.
#ifndef AIQL_SRC_CORE_PROJECTOR_H_
#define AIQL_SRC_CORE_PROJECTOR_H_

#include <string>
#include <vector>

#include "src/core/result_table.h"
#include "src/core/tuple_set.h"
#include "src/lang/query_context.h"

namespace aiql {

struct ExecutionSession;

// Projects the final tuple set of a multievent query into a result table.
// Groups are visited in key-string order (see GroupIndex) with their rows in
// tuple order. DISTINCT keeps the first tuple of each distinct tuple of
// return values (compared as per-item value ids, before any row is built),
// then sorts the survivors lexicographically once; sort-by keys reorder that
// stably. When a session is supplied, its cancellation flag is honored
// between rows.
Result<ResultTable> ProjectResults(const QueryContext& ctx, const TupleSet& tuples,
                                   const EntityCatalog& catalog,
                                   const ExecutionSession* session = nullptr);

// Applies the sort-by keys (a stable sort by output column), then top-k; the
// anomaly executor shares it.
// Without sort keys, rows are sorted lexicographically when
// `lexicographic_fallback` is set and keep their order otherwise.
Status SortAndLimit(const QueryContext& ctx, bool lexicographic_fallback, ResultTable* table);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_PROJECTOR_H_
