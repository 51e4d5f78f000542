// Deterministic pseudo-random number generator for workload generation.
//
// splitmix64 core: fast, well distributed, and reproducible across platforms
// (std::mt19937 distributions are not bit-stable across standard libraries,
// which would make golden tests flaky).
#ifndef AIQL_SRC_UTIL_RNG_H_
#define AIQL_SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>

namespace aiql {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n). n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

  // Uniform in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

  bool Chance(double p) { return Uniform() < p; }

  // Zipf-ish skewed pick over [0, n): a few items dominate, the tail is long.
  // Used to emulate hot processes/files in the synthetic trace.
  size_t Skewed(size_t n, double skew = 1.2);

 private:
  uint64_t state_;
};

}  // namespace aiql

#endif  // AIQL_SRC_UTIL_RNG_H_
