// Deterministic random number generation.
//
// The simulator must be bit-reproducible across runs and platforms, so we
// ship our own xoshiro256** generator (public-domain algorithm by Blackman &
// Vigna) seeded through SplitMix64 instead of relying on implementation-
// defined std::default_random_engine behaviour. Distribution helpers avoid
// std::uniform_*_distribution for the same reason: libstdc++ and libc++
// produce different streams.
//
// Draws whose parameters repeat (a category's band, a fixed mix) go through
// the samplers below, which compute their constants once; the one-shot Rng
// calls are wrappers over the same samplers, so both give the same values
// and consume the same draws.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace sps {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive, unbiased (rejection sampling).
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Log-uniform double in [lo, hi): uniform in log-space. Requires 0 < lo < hi.
  double logUniform(double lo, double hi);

  /// Log-uniform integer in [lo, hi] inclusive. Requires 0 < lo <= hi.
  std::int64_t logUniformInt(std::int64_t lo, std::int64_t hi);

  /// Bounded Pareto (power law) on [lo, hi): see BoundedParetoSampler.
  double boundedPareto(double lo, double hi, double alpha);

  /// Integer bounded Pareto in [lo, hi]: see BoundedParetoIntSampler.
  std::int64_t boundedParetoInt(std::int64_t lo, std::int64_t hi,
                                double alpha);

  /// Exponential with the given mean (inverse rate). Requires mean > 0.
  double exponential(double mean);

  /// Standard normal via Box–Muller (deterministic two-call form).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Pick an index in [0, n) with probability proportional to weights[i]:
  /// see CategoricalSampler.
  std::size_t weightedIndex(const double* weights, std::size_t n);

  /// Fork an independent stream (seeded from this stream's output). Used to
  /// give each job-attribute sampler its own stream so adding a sampler does
  /// not perturb the others.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

/// Bounded Pareto (power law) on [lo, hi): density proportional to
/// x^-alpha, by the inverse CDF of the truncated law. alpha == 1 is
/// log-uniform (uniform in log-space). Requires 0 < lo < hi, alpha >= 1;
/// larger alpha biases harder toward lo. One uniform01() per draw.
class BoundedParetoSampler {
 public:
  BoundedParetoSampler(double lo, double hi, double alpha);

  double operator()(Rng& rng) const {
    const double u = rng.uniform01();
    if (logUniform_) return std::exp(base_ + span_ * u);
    return std::pow(base_ + u * span_, invOneMinusAlpha_);
  }

 private:
  bool logUniform_;          // alpha == 1
  double base_;              // log(lo), or lo^(1 - alpha)
  double span_;              // the same of hi, minus base_
  double invOneMinusAlpha_;  // 1 / (1 - alpha); unused when logUniform_
};

/// Integer bounded Pareto on [lo, hi] inclusive: the real law on
/// [lo, hi + 1), truncated and clamped into the range. lo == hi returns lo
/// without a draw (and never reads alpha). Requires 0 < lo <= hi.
class BoundedParetoIntSampler {
 public:
  BoundedParetoIntSampler(std::int64_t lo, std::int64_t hi, double alpha);

  std::int64_t operator()(Rng& rng) const {
    if (lo_ == hi_) return lo_;
    auto r = static_cast<std::int64_t>(real_(rng));
    if (r < lo_) r = lo_;
    if (r > hi_) r = hi_;
    return r;
  }

 private:
  std::int64_t lo_, hi_;
  BoundedParetoSampler real_;
};

/// Index in [0, n) with probability proportional to weights[i], which must
/// be non-negative and sum to > 0. Copies the weights. One uniform01() per
/// draw; a draw that rounding carries past every weight lands on n - 1.
class CategoricalSampler {
 public:
  CategoricalSampler(const double* weights, std::size_t n);

  std::size_t operator()(Rng& rng) const {
    double x = rng.uniform01() * total_;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      x -= weights_[i];
      if (x < 0.0) return i;
    }
    return weights_.size() - 1;
  }

 private:
  std::vector<double> weights_;
  double total_ = 0.0;  // summed in index order
};

}  // namespace sps
