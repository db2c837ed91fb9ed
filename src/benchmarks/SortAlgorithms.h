//===- benchmarks/SortAlgorithms.h - Sorting algorithm suite ---------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five sorting algorithms of the paper's Sort benchmark (Figure 1):
/// InsertionSort, QuickSort, MergeSort (k-way), RadixSort and BitonicSort,
/// plus the PolySorter recursive driver that consults a runtime::Selector
/// at every recursive invocation -- the either...or semantics of
/// PetaBricks. All algorithms charge comparisons and element moves to the
/// deterministic cost model.
///
/// QuickSort deliberately uses a first-element pivot, preserving the
/// classic pathological behaviour on sorted and heavily duplicated inputs
/// that the paper cites as a source of input sensitivity.
///
/// The pipeline consumes only the deterministic cost charges and the
/// sorted output of a run, so kernels whose physical execution is
/// asymptotically slower than their *accounting* are simulated: the
/// charges are computed by a cheaper exact formula (insertion sort via
/// inversion counting, quicksort's sorted-range degeneration in closed
/// form, the k-way merge's head scan via a heap) and the output produced
/// by an equivalent sort. Charges and output bytes are identical to the
/// physical algorithms -- pinned against a test-only physical reference
/// by SortSimulationTest and by the golden retrain suite.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_BENCHMARKS_SORTALGORITHMS_H
#define PBT_BENCHMARKS_SORTALGORITHMS_H

#include "runtime/Selector.h"
#include "support/Cost.h"
#include "support/Random.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace pbt {
namespace bench {

/// The either...or choices of the Sort benchmark, in selector order.
enum class SortAlgo : unsigned {
  Insertion = 0,
  Quick = 1,
  Merge = 2,
  Radix = 3,
  Bitonic = 4,
};
inline constexpr unsigned NumSortAlgos = 5;

/// In-place insertion sort of V[Lo, Hi).
void insertionSort(std::vector<double> &V, size_t Lo, size_t Hi,
                   support::CostCounter &Cost);

/// LSD radix sort of V[Lo, Hi) (8 passes over order-preserving 64-bit
/// keys).
void radixSort(std::vector<double> &V, size_t Lo, size_t Hi,
               support::CostCounter &Cost);

/// Bitonic sorting network over V[Lo, Hi) (padded to a power of two).
void bitonicSort(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost);

/// Recursive polyalgorithm driver. At each recursive range it asks the
/// selector which algorithm handles that size: terminal algorithms
/// (insertion/radix/bitonic) finish the range; Quick and Merge recurse
/// back through the selector, building exactly the paper's Figure 2 style
/// polyalgorithms.
class PolySorter {
public:
  /// The way-count range; the Sort benchmark's config space spans it.
  static constexpr unsigned MinMergeWays = 2, MaxMergeWays = 16;

  /// \p MergeWays is clamped to [MinMergeWays, MaxMergeWays].
  PolySorter(runtime::Selector Selector, unsigned MergeWays)
      : Sel(std::move(Selector)),
        MergeWays(std::clamp(MergeWays, MinMergeWays, MaxMergeWays)) {}

  /// Sorts V in place.
  void sort(std::vector<double> &V, support::CostCounter &Cost) const;

  const runtime::Selector &selector() const { return Sel; }
  unsigned mergeWays() const { return MergeWays; }

private:
  void sortRange(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) const;
  void quickSort(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) const;
  void mergeSort(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) const;

  runtime::Selector Sel;
  unsigned MergeWays;
};

/// \returns true if V[Lo, Hi) is non-decreasing (test helper; free of
/// cost-model side effects).
bool isSorted(const std::vector<double> &V, size_t Lo, size_t Hi);

//===----------------------------------------------------------------------===//
// Input generators. These live with the algorithms (not the benchmark
// wrapper) so kernel micro-benchmarks and tests can synthesise inputs
// without touching the TunableProgram layer.
//===----------------------------------------------------------------------===//

/// Input generator families for Sort.
enum class SortGen : unsigned {
  Uniform = 0,
  Sorted,
  Reverse,
  AlmostSorted,
  FewDistinct,
  OrganPipe,
  Gaussian,
  Exponential,
  Sawtooth,
  Constant,
};
inline constexpr unsigned NumSortGens = 10;

/// Name of a generator (for reports and tests).
const char *sortGenName(SortGen G);

/// Generates one input of the given family and size.
std::vector<double> generateSortInput(SortGen G, size_t N,
                                      support::Rng &Rng);

/// Generates a registry-like input (the paper's sort1 real-world data
/// stand-in): concatenated sorted runs over a small value pool with a
/// fraction of out-of-order updates appended.
std::vector<double> generateRegistryLikeInput(size_t N, support::Rng &Rng);

} // namespace bench
} // namespace pbt

#endif // PBT_BENCHMARKS_SORTALGORITHMS_H
