// Branch-free selection kernels for the columnar vectorized scan.
//
// Every kernel compacts a selection vector in place against one column slab
// and returns the surviving count. They all share one shape:
//
//   sel[w] = sel[i];            // store the row id unconditionally
//   w += predicate(sel[i]);     // advance the write cursor by 0 or 1
//
// There is no per-element branch, so a 50%-selective filter costs the same as
// a 1%-selective one (no mispredictions), and the comparison itself is a
// tight typed loop over contiguous data that the compiler can unroll and
// auto-vectorize. This replaces the per-row lambda dispatch the scan
// previously funneled through a generic FilterSel template.
//
// Membership probes:
//   - SelectBitmap: one bit test per row against a DenseBitmap. Entity
//     membership always takes it: the planner builds one bitmap per
//     constrained side over that side's whole catalog (EntityCandidates);
//   - SelectSmallSet: an OR over <= kSmallSetProbe equality tests against a
//     flat array (no hashing, no pointer chase);
//   - SelectHashSet: the std::unordered_set fallback for larger sets.
// The last two serve agent sets and IN / NOT IN column filters.
#ifndef AIQL_SRC_STORAGE_SCAN_KERNELS_H_
#define AIQL_SRC_STORAGE_SCAN_KERNELS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/storage/predicate.h"

namespace aiql {

// Flat-array membership beats hashing up to this many elements.
inline constexpr size_t kSmallSetProbe = 8;

// Dense bitmap over the index interval [0, span): one bit per value, so a
// membership probe is a single bit test. Probing a value at or beyond `span`
// is the caller's bug (asserted in debug builds); an EntityCandidates bitmap
// spans its entity type's whole catalog, which every stored index lies in.
class DenseBitmap {
 public:
  explicit DenseBitmap(uint32_t span)
      : span_(span), words_((static_cast<size_t>(span) + 63) / 64, 0) {}

  uint32_t span() const { return span_; }

  void Set(uint32_t v) {
    assert(v < span_);
    words_[v >> 6] |= uint64_t{1} << (v & 63);
  }

  uint64_t Test(uint32_t v) const {
    assert(v < span_);
    return (words_[v >> 6] >> (v & 63)) & 1;
  }

 private:
  uint32_t span_ = 0;
  std::vector<uint64_t> words_;
};

namespace kernels {

// Generic compaction core; `pred` must be cheap and branchless for the
// kernels' guarantees to hold. Exposed for the residual row-at-a-time stage,
// whose predicate is anything but cheap — it still benefits from the shared
// compaction shape.
template <typename Pred>
inline size_t SelectIf(uint32_t* sel, size_t n, Pred pred) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(pred(r) ? 1 : 0);
  }
  return w;
}

template <typename T, typename Cmp>
inline size_t SelectCmpLoop(uint32_t* sel, size_t n, const T* col, int64_t value, Cmp cmp) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(cmp(static_cast<int64_t>(col[r]), value));
  }
  return w;
}

// col[row] <op> value for the six ordered/equality comparisons. The switch
// runs once per column, not once per row: each case is its own tight loop.
template <typename T>
inline size_t SelectCompare(uint32_t* sel, size_t n, const T* col, CmpOp op, int64_t value) {
  switch (op) {
    case CmpOp::kEq:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a == b; });
    case CmpOp::kNe:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a != b; });
    case CmpOp::kLt:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a < b; });
    case CmpOp::kLe:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a <= b; });
    case CmpOp::kGt:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a > b; });
    case CmpOp::kGe:
      return SelectCmpLoop(sel, n, col, value, [](int64_t a, int64_t b) { return a >= b; });
    default:
      // IN/NOT IN are handled by the membership kernels before reaching
      // here; anything else (LIKE on a numeric column) matches nothing —
      // the same answer ColumnFilter::Matches gives.
      return 0;
  }
}

// Keeps rows whose operation bit is set in `mask` (branch-free: shift the
// mask by the stored op ordinal).
template <typename OpT>
inline size_t SelectOpMask(uint32_t* sel, size_t n, const OpT* op_col, uint32_t mask) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>((mask >> static_cast<uint32_t>(op_col[r])) & 1u);
  }
  return w;
}

// Keeps rows whose column equals `want` (enum/int8 columns: object type).
template <typename T>
inline size_t SelectEq(uint32_t* sel, size_t n, const T* col, T want) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(col[r] == want);
  }
  return w;
}

// Dense-bitmap membership: one bit test per row. Every probed value must lie
// inside the bitmap's span (see DenseBitmap).
template <typename T>
inline size_t SelectBitmap(uint32_t* sel, size_t n, const T* col, const DenseBitmap& bitmap) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>(bitmap.Test(static_cast<uint32_t>(col[r])));
  }
  return w;
}

// Flat-array membership for sets of <= kSmallSetProbe values: an OR of k
// equality tests, no hashing. `negate` flips it into NOT IN.
template <typename T, typename V>
inline size_t SelectSmallSet(uint32_t* sel, size_t n, const T* col, const V* vals, size_t k,
                             bool negate) {
  const uint32_t flip = negate ? 1u : 0u;
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    const V v = static_cast<V>(col[r]);
    uint32_t hit = 0;
    for (size_t j = 0; j < k; ++j) {
      hit |= static_cast<uint32_t>(v == vals[j]);
    }
    sel[w] = r;
    w += static_cast<size_t>(hit ^ flip);
  }
  return w;
}

// Hash-set membership for sets larger than kSmallSetProbe. The probe itself
// branches inside the hash table; the compaction still does not.
template <typename T, typename SetT>
inline size_t SelectHashSet(uint32_t* sel, size_t n, const T* col,
                            const std::unordered_set<SetT>& set, bool negate) {
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += static_cast<size_t>((set.count(static_cast<SetT>(col[r])) > 0) != negate);
  }
  return w;
}

}  // namespace kernels

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_SCAN_KERNELS_H_
