#include "util/rng.hpp"

#include <cmath>

namespace sps {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SPS_CHECK_MSG(lo < hi, "uniform(" << lo << ", " << hi << ")");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  SPS_CHECK_MSG(lo <= hi, "uniformInt(" << lo << ", " << hi << ")");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  // Lemire-style rejection for unbiased sampling.
  const std::uint64_t threshold = (~range + 1) % range;  // 2^64 mod range
  std::uint64_t r;
  do {
    r = next();
  } while (r < threshold);
  return lo + static_cast<std::int64_t>(r % range);
}

double Rng::logUniform(double lo, double hi) {
  return BoundedParetoSampler(lo, hi, 1.0)(*this);
}

std::int64_t Rng::logUniformInt(std::int64_t lo, std::int64_t hi) {
  return BoundedParetoIntSampler(lo, hi, 1.0)(*this);
}

double Rng::boundedPareto(double lo, double hi, double alpha) {
  return BoundedParetoSampler(lo, hi, alpha)(*this);
}

std::int64_t Rng::boundedParetoInt(std::int64_t lo, std::int64_t hi,
                                   double alpha) {
  return BoundedParetoIntSampler(lo, hi, alpha)(*this);
}

double Rng::exponential(double mean) {
  SPS_CHECK_MSG(mean > 0.0, "exponential(mean=" << mean << ")");
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform01();
  } while (u1 == 0.0);
  const double u2 = uniform01();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

std::size_t Rng::weightedIndex(const double* weights, std::size_t n) {
  return CategoricalSampler(weights, n)(*this);
}

Rng Rng::fork() { return Rng(next()); }

BoundedParetoSampler::BoundedParetoSampler(double lo, double hi,
                                           double alpha)
    : logUniform_(alpha == 1.0) {
  SPS_CHECK_MSG(lo > 0.0 && lo < hi, "boundedPareto(" << lo << "," << hi
                                                      << ")");
  SPS_CHECK_MSG(alpha >= 1.0, "boundedPareto alpha=" << alpha << " < 1");
  if (logUniform_) {
    base_ = std::log(lo);
    span_ = std::log(hi) - base_;
    invOneMinusAlpha_ = 0.0;
  } else {
    const double oneMinus = 1.0 - alpha;
    base_ = std::pow(lo, oneMinus);
    span_ = std::pow(hi, oneMinus) - base_;
    invOneMinusAlpha_ = 1.0 / oneMinus;
  }
}

namespace {
/// The real law behind an integer band, checked before it is built.
BoundedParetoSampler realLawOf(std::int64_t lo, std::int64_t hi,
                               double alpha) {
  SPS_CHECK_MSG(lo > 0 && lo <= hi,
                "boundedParetoInt(" << lo << "," << hi << ")");
  // A one-point band never draws, so its alpha goes unchecked.
  return {static_cast<double>(lo), static_cast<double>(hi) + 1.0,
          lo < hi ? alpha : 1.0};
}
}  // namespace

BoundedParetoIntSampler::BoundedParetoIntSampler(std::int64_t lo,
                                                 std::int64_t hi,
                                                 double alpha)
    : lo_(lo), hi_(hi), real_(realLawOf(lo, hi, alpha)) {}

CategoricalSampler::CategoricalSampler(const double* weights, std::size_t n)
    : weights_(weights, weights + n) {
  SPS_CHECK(n > 0);
  for (std::size_t i = 0; i < n; ++i) {
    SPS_CHECK_MSG(weights[i] >= 0.0, "negative weight at " << i);
    total_ += weights[i];
  }
  SPS_CHECK_MSG(total_ > 0.0, "weights sum to zero");
}

}  // namespace sps
