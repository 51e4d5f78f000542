// Deadline: the one wall-clock budget type of a query run. A run arms it once
// from its time budget and shares the copy with every layer that enforces
// the budget: the storage scan loops (ScanContext), the join budget
// (BudgetGuard), and the property-graph baseline's matcher.
#ifndef AIQL_SRC_UTIL_DEADLINE_H_
#define AIQL_SRC_UTIL_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace aiql {

class Deadline {
 public:
  Deadline() = default;  // unbounded: never expires

  // The point `budget_ms` from now; a non-positive budget is unbounded.
  static Deadline After(int64_t budget_ms) {
    Deadline d;
    if (budget_ms > 0) {
      d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
      d.bounded_ = true;
    }
    return d;
  }

  bool Expired() const { return bounded_ && std::chrono::steady_clock::now() >= at_; }

 private:
  std::chrono::steady_clock::time_point at_{};
  bool bounded_ = false;
};

}  // namespace aiql

#endif  // AIQL_SRC_UTIL_DEADLINE_H_
