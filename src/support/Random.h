//===- support/Random.h - Deterministic random number generation ---------===//
//
// Part of the pbtuner project: reproduction of "Autotuning Algorithmic
// Choice for Input Sensitivity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic random number generator (xoshiro256**,
/// seeded through SplitMix64). Every stochastic component of the system
/// (input generators, K-means initialisation, the evolutionary autotuner,
/// subset sampling for Figure 8) draws from an explicitly seeded Rng so
/// that runs are reproducible bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_RANDOM_H
#define PBT_SUPPORT_RANDOM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pbt {
namespace support {

/// Deterministic pseudo random number generator.
///
/// Implements xoshiro256** 1.0 (Blackman & Vigna). State is seeded from a
/// single 64-bit value through SplitMix64, so two Rng instances constructed
/// with the same seed produce identical streams on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ull);

  // The integer and uniform draws sit in hot loops (the autotuner draws
  // several per child), so they are inline; the transcendental ones are
  // not.

  /// Next raw 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [Lo, Hi).
  double uniform(double Lo, double Hi) {
    assert(Lo <= Hi && "empty uniform range");
    return Lo + (Hi - Lo) * uniform();
  }

  /// Uniform integer in the inclusive range [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "empty integer range");
    uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
    if (Span == 0) // Full 64-bit range.
      return static_cast<int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    uint64_t Limit = UINT64_MAX - UINT64_MAX % Span;
    uint64_t X = next();
    while (X >= Limit)
      X = next();
    return Lo + static_cast<int64_t>(X % Span);
  }

  /// Uniform index in [0, N). N must be positive.
  size_t index(size_t N) {
    assert(N > 0 && "index() needs a non-empty range");
    return static_cast<size_t>(range(0, static_cast<int64_t>(N) - 1));
  }

  /// Standard normal deviate scaled to \p Mean and \p StdDev (Box-Muller).
  double gaussian(double Mean = 0.0, double StdDev = 1.0);

  /// Exponential deviate with the given rate parameter.
  double exponential(double Rate = 1.0);

  /// Returns true with probability \p P.
  bool chance(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return uniform() < P;
  }

  /// Fisher-Yates shuffle.
  template <typename T> void shuffle(std::vector<T> &V) {
    if (V.size() < 2)
      return;
    for (size_t I = V.size() - 1; I > 0; --I) {
      size_t J = index(I + 1);
      std::swap(V[I], V[J]);
    }
  }

  /// Pick a uniformly random element of a non-empty vector.
  template <typename T> const T &pick(const std::vector<T> &V) {
    assert(!V.empty() && "cannot pick from an empty vector");
    return V[index(V.size())];
  }

  /// Sample \p K distinct indices from [0, N) in random order.
  std::vector<size_t> sampleWithoutReplacement(size_t N, size_t K);

  /// Derive an independently seeded generator. Useful to hand each parallel
  /// worker or pipeline stage its own stream while keeping determinism.
  Rng split();

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
  double SpareGaussian = 0.0;
  bool HasSpareGaussian = false;
};

} // namespace support
} // namespace pbt

#endif // PBT_SUPPORT_RANDOM_H
