//===- tests/benchmarks/PhysicalSortReference.cpp ----------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "PhysicalSortReference.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

using namespace pbt;
using namespace pbt::bench;

namespace {

void insertionSort(std::vector<double> &V, size_t Lo, size_t Hi,
                   support::CostCounter &Cost) {
  if (Hi - Lo < 2)
    return;
  double Compares = 0.0, Moves = 0.0;
  for (size_t I = Lo + 1; I < Hi; ++I) {
    double Key = V[I];
    size_t J = I;
    Compares += 1.0;
    while (J > Lo && V[J - 1] > Key) {
      V[J] = V[J - 1];
      Moves += 1.0;
      --J;
      if (J > Lo)
        Compares += 1.0;
    }
    if (J != I) {
      V[J] = Key;
      Moves += 1.0;
    }
  }
  Cost.addCompares(Compares);
  Cost.addMoves(Moves);
}

uint64_t orderedKey(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return (Bits & 0x8000000000000000ull) ? ~Bits : Bits | 0x8000000000000000ull;
}

void radixSort(std::vector<double> &V, size_t Lo, size_t Hi,
               support::CostCounter &Cost) {
  size_t N = Hi - Lo;
  if (N < 2)
    return;
  std::vector<uint64_t> Keys(N), Scratch(N);
  for (size_t I = 0; I != N; ++I)
    Keys[I] = orderedKey(V[Lo + I]);
  Cost.addOther(static_cast<double>(N)); // key transform

  size_t Counts[256];
  for (unsigned Pass = 0; Pass != 8; ++Pass) {
    unsigned Shift = Pass * 8;
    std::fill(std::begin(Counts), std::end(Counts), 0);
    for (size_t I = 0; I != N; ++I)
      ++Counts[(Keys[I] >> Shift) & 0xff];
    size_t Total = 0;
    for (size_t &C : Counts) {
      size_t Old = C;
      C = Total;
      Total += Old;
    }
    for (size_t I = 0; I != N; ++I)
      Scratch[Counts[(Keys[I] >> Shift) & 0xff]++] = Keys[I];
    Keys.swap(Scratch);
    Cost.addOther(static_cast<double>(N));
    Cost.addMoves(static_cast<double>(N));
  }

  for (size_t I = 0; I != N; ++I) {
    uint64_t K = Keys[I];
    uint64_t Bits =
        (K & 0x8000000000000000ull) ? K & 0x7fffffffffffffffull : ~K;
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    V[Lo + I] = D;
  }
  Cost.addMoves(static_cast<double>(N)); // write back
}

void bitonicSort(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) {
  size_t N = Hi - Lo;
  if (N < 2)
    return;
  size_t P = 1;
  while (P < N)
    P <<= 1;
  std::vector<double> Buf(P, std::numeric_limits<double>::infinity());
  std::copy(V.begin() + static_cast<long>(Lo),
            V.begin() + static_cast<long>(Hi), Buf.begin());
  Cost.addMoves(static_cast<double>(N));

  double Compares = 0.0, Moves = 0.0;
  for (size_t K = 2; K <= P; K <<= 1)
    for (size_t J = K >> 1; J > 0; J >>= 1)
      for (size_t I = 0; I != P; ++I) {
        size_t L = I ^ J;
        if (L <= I)
          continue;
        bool Ascending = (I & K) == 0;
        Compares += 1.0;
        if ((Ascending && Buf[I] > Buf[L]) || (!Ascending && Buf[I] < Buf[L])) {
          std::swap(Buf[I], Buf[L]);
          Moves += 3.0;
        }
      }
  std::copy(Buf.begin(), Buf.begin() + static_cast<long>(N),
            V.begin() + static_cast<long>(Lo));
  Moves += static_cast<double>(N);
  Cost.addCompares(Compares);
  Cost.addMoves(Moves);
}

/// The PolySorter recursion over the physical kernels.
class PhysicalSorter {
public:
  explicit PhysicalSorter(const PolySorter &Sorter)
      : Sel(Sorter.selector()), MergeWays(Sorter.mergeWays()) {}

  void sortRange(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) const {
    if (Hi - Lo < 2)
      return;
    switch (static_cast<SortAlgo>(Sel.choose(Hi - Lo))) {
    case SortAlgo::Insertion:
      return insertionSort(V, Lo, Hi, Cost);
    case SortAlgo::Quick:
      return quickSort(V, Lo, Hi, Cost);
    case SortAlgo::Merge:
      return mergeSort(V, Lo, Hi, Cost);
    case SortAlgo::Radix:
      return radixSort(V, Lo, Hi, Cost);
    case SortAlgo::Bitonic:
      return bitonicSort(V, Lo, Hi, Cost);
    }
    assert(false && "unknown sort choice");
  }

private:
  void quickSort(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) const {
    size_t CurLo = Lo, CurHi = Hi;
    while (CurHi - CurLo > 1) {
      double Compares = 0.0, Moves = 0.0;
      std::swap(V[CurLo], V[CurHi - 1]); // pivot to the back
      Moves += 3.0;
      double Pivot = V[CurHi - 1];
      size_t Store = CurLo;
      for (size_t I = CurLo; I + 1 < CurHi; ++I) {
        Compares += 1.0;
        if (V[I] < Pivot) {
          if (I != Store) {
            std::swap(V[I], V[Store]);
            Moves += 3.0;
          }
          ++Store;
        }
      }
      std::swap(V[Store], V[CurHi - 1]);
      Moves += 3.0;
      Cost.addCompares(Compares);
      Cost.addMoves(Moves);

      size_t LeftLo = CurLo, LeftHi = Store;
      size_t RightLo = Store + 1, RightHi = CurHi;
      if (LeftHi - LeftLo <= RightHi - RightLo) {
        sortRange(V, LeftLo, LeftHi, Cost);
        CurLo = RightLo;
        CurHi = RightHi;
      } else {
        sortRange(V, RightLo, RightHi, Cost);
        CurLo = LeftLo;
        CurHi = LeftHi;
      }
      if (Sel.choose(CurHi - CurLo) != static_cast<unsigned>(SortAlgo::Quick)) {
        sortRange(V, CurLo, CurHi, Cost);
        return;
      }
    }
  }

  void mergeSort(std::vector<double> &V, size_t Lo, size_t Hi,
                 support::CostCounter &Cost) const {
    size_t N = Hi - Lo;
    unsigned Ways = static_cast<unsigned>(
        std::min<size_t>(MergeWays, std::max<size_t>(2, N / 2)));
    if (N <= Ways) {
      insertionSort(V, Lo, Hi, Cost);
      return;
    }
    std::vector<size_t> Bounds(Ways + 1), Head(Ways);
    for (unsigned W = 0; W <= Ways; ++W)
      Bounds[W] = Lo + N * W / Ways;
    for (unsigned W = 0; W != Ways; ++W)
      sortRange(V, Bounds[W], Bounds[W + 1], Cost);

    // Linear scan over the run heads: minimal head, ties to the lowest
    // run index, one compare per other non-empty run.
    std::vector<double> Out;
    Out.reserve(N);
    for (unsigned W = 0; W != Ways; ++W)
      Head[W] = Bounds[W];
    double Compares = 0.0, Moves = 0.0;
    for (size_t Produced = 0; Produced != N; ++Produced) {
      unsigned Best = Ways;
      for (unsigned W = 0; W != Ways; ++W) {
        if (Head[W] == Bounds[W + 1])
          continue;
        if (Best == Ways) {
          Best = W;
          continue;
        }
        Compares += 1.0;
        if (V[Head[W]] < V[Head[Best]])
          Best = W;
      }
      assert(Best != Ways && "merge ran out of elements");
      Out.push_back(V[Head[Best]++]);
      Moves += 1.0;
    }
    std::copy(Out.begin(), Out.end(), V.begin() + static_cast<long>(Lo));
    Moves += static_cast<double>(N);
    Cost.addCompares(Compares);
    Cost.addMoves(Moves);
  }

  const runtime::Selector &Sel;
  unsigned MergeWays;
};

} // namespace

void reference::physicalSort(const PolySorter &Sorter, std::vector<double> &V,
                             support::CostCounter &Cost) {
  PhysicalSorter(Sorter).sortRange(V, 0, V.size(), Cost);
}

runtime::RunResult reference::physicalRun(const SortBenchmark &Bench,
                                          size_t Input,
                                          const runtime::Configuration &Config,
                                          support::CostCounter &Cost) {
  runtime::RunResult R;
  R.Accuracy = 1.0;
  double Before = Cost.units();
  std::vector<double> Work = Bench.input(Input);
  Cost.addMoves(static_cast<double>(Work.size())); // initial copy
  physicalSort(Bench.sorterFor(Config), Work, Cost);
  R.TimeUnits = Cost.units() - Before;
  return R;
}
