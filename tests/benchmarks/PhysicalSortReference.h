//===- tests/benchmarks/PhysicalSortReference.h - Physical sort kernels ----==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only physical reference for the Sort benchmark. Production kernels
/// charge some of their cost arithmetically (insertion sort by inversion
/// counting, quicksort's sorted-range degeneration in closed form, the
/// k-way merge through a heap, radix's identity passes, bitonic's
/// per-round compare count). This reference executes every algorithm
/// literally, charging each compare and move as it happens, so
/// SortSimulationTest can pin production's output bytes and per-category
/// charges against it.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_TESTS_BENCHMARKS_PHYSICALSORTREFERENCE_H
#define PBT_TESTS_BENCHMARKS_PHYSICALSORTREFERENCE_H

#include "benchmarks/SortAlgorithms.h"
#include "benchmarks/SortBenchmark.h"

#include <vector>

namespace pbt {
namespace bench {
namespace reference {

/// Sorts \p V in place with the polyalgorithm \p Sorter describes (its
/// selector and way count), executing every kernel physically.
void physicalSort(const PolySorter &Sorter, std::vector<double> &V,
                  support::CostCounter &Cost);

/// SortBenchmark::run without the simulated kernels or the run memo:
/// copies input \p Input of \p Bench, charges the copy, and sorts it
/// physically with the configuration's polyalgorithm.
runtime::RunResult physicalRun(const SortBenchmark &Bench, size_t Input,
                               const runtime::Configuration &Config,
                               support::CostCounter &Cost);

} // namespace reference
} // namespace bench
} // namespace pbt

#endif // PBT_TESTS_BENCHMARKS_PHYSICALSORTREFERENCE_H
