#ifndef FEDSEARCH_UTIL_RNG_H_
#define FEDSEARCH_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedsearch::util {

// Deterministic pseudo-random number generator (xoshiro256** seeded via
// SplitMix64). All randomness in the library flows through this class so
// that every experiment is reproducible bit-for-bit given its seed.
//
// The class is intentionally self-contained (no <random>) because libstdc++
// distributions are not guaranteed to be reproducible across versions.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value (xoshiro256** step). Defined inline: hot loops
  // (corpus generation, sampling) draw millions of values and must not pay
  // a call per draw.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // True with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // Samples an index in [0, weights.size()) with probability proportional
  // to weights[i]. Weights must be non-negative with a positive sum;
  // otherwise returns a uniform index.
  size_t NextDiscrete(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (size_t i = v.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap(v[i], v[j]);
    }
  }

  // Forks an independent, deterministically-derived child generator.
  // Useful to give each database / sampler its own stream.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// Cumulative-table sampler for repeatedly drawing from one fixed discrete
// distribution (binary search over the CDF).
class DiscreteSampler {
 public:
  // Weights must be non-negative; a zero total makes every draw return 0.
  explicit DiscreteSampler(const std::vector<double>& weights);

  size_t Sample(Rng& rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized inclusive prefix sums
};

}  // namespace fedsearch::util

#endif  // FEDSEARCH_UTIL_RNG_H_
