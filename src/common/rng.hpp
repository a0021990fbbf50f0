// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (workload generator, thermal
// model, fault injector, ML initialization, samplers) draw from Rng so that
// a single 64-bit seed reproduces an entire experiment bit-for-bit.
//
// The generator is xoshiro256**, seeded through splitmix64. Child streams
// created with fork() are statistically independent, which lets subsystems
// evolve (e.g. add RNG draws) without perturbing each other's streams.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace repro {

/// splitmix64 step; used for seeding and cheap hashing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of a value (one splitmix64 round).
std::uint64_t hash64(std::uint64_t v) noexcept;

/// Combine two 64-bit values into one hash (order-sensitive).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Independent child stream; deterministic in (parent seed, stream_id).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept;

  /// Raw 64 uniform bits.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double uniform() noexcept;

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Standard normal via Box–Muller (exact; caches the second deviate).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Cheap approximately-normal deviate (Irwin–Hall with 4 uniforms,
  /// rescaled to unit variance). ~3x faster than normal(); used in the
  /// per-node-minute telemetry inner loop where exact tails don't matter.
  double fast_normal() noexcept;

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given rate (> 0).
  double exponential(double rate) noexcept;

  /// Poisson-distributed count with the given mean (>= 0).
  /// Uses Knuth's method for small means and normal approximation above 32.
  std::uint64_t poisson(double mean) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Precomputed Zipf sampler: O(log n) per draw via inverse-CDF table.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t operator()(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  /// P(rank = k).
  [[nodiscard]] double pmf(std::size_t k) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace repro
