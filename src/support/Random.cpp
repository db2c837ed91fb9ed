//===- support/Random.cpp -------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "support/Random.h"

#include <cmath>

using namespace pbt;
using namespace pbt::support;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ull;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

Rng::Rng(uint64_t Seed) {
  // SplitMix64 expansion guarantees a non-degenerate xoshiro state even for
  // adversarial seeds such as 0.
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
}

double Rng::gaussian(double Mean, double StdDev) {
  if (HasSpareGaussian) {
    HasSpareGaussian = false;
    return Mean + StdDev * SpareGaussian;
  }
  // Box-Muller; loop rejects the measure-zero U == 0 case.
  double U = uniform();
  while (U <= 0.0)
    U = uniform();
  double V = uniform();
  double R = std::sqrt(-2.0 * std::log(U));
  double Theta = 2.0 * M_PI * V;
  SpareGaussian = R * std::sin(Theta);
  HasSpareGaussian = true;
  return Mean + StdDev * R * std::cos(Theta);
}

double Rng::exponential(double Rate) {
  assert(Rate > 0.0 && "exponential rate must be positive");
  double U = uniform();
  while (U <= 0.0)
    U = uniform();
  return -std::log(U) / Rate;
}

std::vector<size_t> Rng::sampleWithoutReplacement(size_t N, size_t K) {
  assert(K <= N && "cannot sample more elements than available");
  // Partial Fisher-Yates over an index vector; O(N) setup, fine at our
  // scales and exactly uniform.
  std::vector<size_t> All(N);
  for (size_t I = 0; I != N; ++I)
    All[I] = I;
  for (size_t I = 0; I != K; ++I) {
    size_t J = I + index(N - I);
    std::swap(All[I], All[J]);
  }
  All.resize(K);
  return All;
}

Rng Rng::split() { return Rng(next()); }
