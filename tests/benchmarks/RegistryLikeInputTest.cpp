//===- tests/benchmarks/RegistryLikeInputTest.cpp --------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
//
// generateRegistryLikeInput sorts each registry-like run by counting its
// pool-index draws. This pins it against the direct construction -- draw
// every value of the run, then std::sort it -- over several seeds and
// sizes: same values, same order, same generator state afterwards.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/SortAlgorithms.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace pbt;

namespace {

/// The std::sort construction of a registry-like input.
std::vector<double> sortedRunsReference(size_t N, support::Rng &Rng) {
  std::vector<double> V;
  V.reserve(N);
  size_t Pool = std::max<size_t>(8, N / 10);
  size_t Runs = 2 + Rng.index(9);
  size_t Tail = N / 20 + Rng.index(std::max<size_t>(1, N / 20));
  size_t Body = N > Tail ? N - Tail : N;
  for (size_t R = 0; R != Runs; ++R) {
    size_t RunLen = Body / Runs + (R < Body % Runs ? 1 : 0);
    std::vector<double> Run(RunLen);
    for (double &X : Run)
      X = static_cast<double>(Rng.index(Pool)) * 11.0;
    std::sort(Run.begin(), Run.end());
    V.insert(V.end(), Run.begin(), Run.end());
  }
  while (V.size() < N)
    V.push_back(static_cast<double>(Rng.index(Pool)) * 11.0);
  return V;
}

TEST(RegistryLikeInputTest, CountingSortMatchesStdSortReference) {
  for (uint64_t Seed : {1ull, 7ull, 42ull, 0x5eedull, 0x9e3779b97f4a7c15ull}) {
    for (size_t N : {256u, 257u, 640u, 1000u, 1024u, 2047u, 2048u}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + ", N " +
                   std::to_string(N));
      support::Rng Fast(Seed), Ref(Seed);
      // Two inputs in a row: the second starts from the state the first
      // left, as SortBenchmark draws its dataset.
      for (int Rep = 0; Rep != 2; ++Rep) {
        std::vector<double> Got = bench::generateRegistryLikeInput(N, Fast);
        std::vector<double> Want = sortedRunsReference(N, Ref);
        ASSERT_EQ(Got.size(), N);
        ASSERT_EQ(Got, Want);
      }
      EXPECT_EQ(Fast.next(), Ref.next());
    }
  }
}

} // namespace
