//===- benchmarks/SortAlgorithms.cpp -----------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/SortAlgorithms.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

using namespace pbt;
using namespace pbt::bench;

bool bench::isSorted(const std::vector<double> &V, size_t Lo, size_t Hi) {
  for (size_t I = Lo; I + 1 < Hi; ++I)
    if (V[I] > V[I + 1])
      return false;
  return true;
}

/// Exact simulation of insertionSort. Let m_i = |{j < i : V[j] > V[i]}|
/// (how far element i sinks). The physical algorithm's charges are a
/// closed function of the m_i: per element i >= 1 it pays 1 + m_i
/// compares when the sink stops on a failed comparison, 1 + m_i - 1 when
/// it sinks all the way to Lo (the guard J > Lo short-circuits the last
/// compare), and m_i + 1 moves when m_i > 0 (shifts plus the final
/// placement). Summed:
///
///   Compares = (n-1) + sum(m_i) - |{i : m_i == i}|
///   Moves    = sum(m_i) + |{i : m_i > 0}|
///
/// where sum(m_i) is the range's inversion count (a bottom-up stable
/// merge computes it in O(n log n) while producing the sorted output),
/// m_i == i holds exactly when V[i] undercuts the strict prefix minimum,
/// and m_i > 0 exactly when V[i] undercuts the prefix maximum -- both
/// O(n) scans. The merge is stable, so the written-back output is
/// bit-identical to the physical (stable) insertion result even for
/// bit-distinct equal doubles. Charges are integer-valued doubles, so
/// the reordered accumulation is exact.
static void insertionSortSimulated(std::vector<double> &V, size_t Lo,
                                   size_t Hi, support::CostCounter &Cost) {
  size_t N = Hi - Lo;
  double SinkAll = 0.0, AnyGreater = 0.0;
  {
    double Min = V[Lo], Max = V[Lo];
    for (size_t I = 1; I != N; ++I) {
      double X = V[Lo + I];
      if (X < Max)
        AnyGreater += 1.0;
      if (X < Min) {
        SinkAll += 1.0;
        Min = X;
      }
      if (X > Max)
        Max = X;
    }
  }
  if (AnyGreater == 0.0) { // already non-decreasing: every m_i is 0
    Cost.addCompares(static_cast<double>(N - 1));
    return;
  }

  // Bottom-up stable merge with inversion counting: taking from the right
  // run while the left run is non-empty counts one inversion per left
  // element remaining; ties take from the left (stability, and equal
  // values are not inversions since m_i counts strictly greater).
  thread_local std::vector<double> TLScratch;
  TLScratch.resize(N);
  double *Src = V.data() + Lo;
  double *Dst = TLScratch.data();
  double Inversions = 0.0;
  for (size_t Width = 1; Width < N; Width <<= 1) {
    for (size_t Left = 0; Left < N; Left += 2 * Width) {
      size_t Mid = std::min(Left + Width, N);
      size_t End = std::min(Left + 2 * Width, N);
      size_t A = Left, B = Mid, O = Left;
      while (A != Mid && B != End) {
        if (Src[B] < Src[A]) {
          Inversions += static_cast<double>(Mid - A);
          Dst[O++] = Src[B++];
        } else {
          Dst[O++] = Src[A++];
        }
      }
      while (A != Mid)
        Dst[O++] = Src[A++];
      while (B != End)
        Dst[O++] = Src[B++];
    }
    std::swap(Src, Dst);
  }
  if (Src != V.data() + Lo)
    std::copy(Src, Src + N, V.data() + Lo);

  Cost.addCompares(static_cast<double>(N - 1) + Inversions - SinkAll);
  Cost.addMoves(Inversions + AnyGreater);
}

void bench::insertionSort(std::vector<double> &V, size_t Lo, size_t Hi,
                          support::CostCounter &Cost) {
  if (Hi - Lo < 2)
    return;
  // Below this size the physical quadratic loop is faster than building
  // the rank index; both paths are exact, so the cutover is wall-clock
  // tuning only.
  if (Hi - Lo >= 48) {
    insertionSortSimulated(V, Lo, Hi, Cost);
    return;
  }
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

/// Maps a double to a uint64 whose unsigned order matches double order
/// (standard sign-flip trick; total order with -0 < +0 collapsed is fine
/// for sorting).
static uint64_t orderedKey(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return (Bits & 0x8000000000000000ull) ? ~Bits : Bits | 0x8000000000000000ull;
}

void bench::radixSort(std::vector<double> &V, size_t Lo, size_t Hi,
                      support::CostCounter &Cost) {
  size_t N = Hi - Lo;
  if (N < 2)
    return;
  // Radix is a terminal choice (never recurses), so one per-thread pair of
  // key buffers can serve every call.
  thread_local std::vector<uint64_t> Keys, Scratch;
  Keys.resize(N);
  Scratch.resize(N);
  // A pass whose byte is the same in every key scatters each key to its
  // own slot (a stable identity permutation), so only the bytes where
  // some key differs from the first need their histogram and scatter.
  // Doubles from a common magnitude range share their top exponent bytes,
  // and small integers their low mantissa bytes, so this routinely skips
  // several of the eight passes.
  uint64_t First = orderedKey(V[Lo]), Varying = 0;
  for (size_t I = 0; I != N; ++I) {
    Keys[I] = orderedKey(V[Lo + I]);
    Varying |= Keys[I] ^ First;
  }

  size_t Counts[256];
  for (unsigned Shift = 0; Shift != 64; Shift += 8) {
    if (((Varying >> Shift) & 0xff) == 0)
      continue;
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
  }

  for (size_t I = 0; I != N; ++I) {
    uint64_t K = Keys[I];
    uint64_t Bits =
        (K & 0x8000000000000000ull) ? K & 0x7fffffffffffffffull : ~K;
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    V[Lo + I] = D;
  }
  // Every pass is charged, skipped or not: the key transform plus one
  // histogram touch per element per pass, and one scatter move per
  // element per pass plus the write back.
  Cost.addOther(9.0 * static_cast<double>(N));
  Cost.addMoves(9.0 * static_cast<double>(N));
}

void bench::bitonicSort(std::vector<double> &V, size_t Lo, size_t Hi,
                        support::CostCounter &Cost) {
  size_t N = Hi - Lo;
  if (N < 2)
    return;
  size_t P = 1;
  while (P < N)
    P <<= 1;
  // Terminal like radix: the padded network buffer is reusable per thread.
  thread_local std::vector<double> Buf;
  Buf.assign(P, std::numeric_limits<double>::infinity());
  std::copy(V.begin() + static_cast<long>(Lo),
            V.begin() + static_cast<long>(Hi), Buf.begin());
  Cost.addMoves(static_cast<double>(N));

  // Classic iterative bitonic network. Each round's compare-exchange
  // pairs (ascending I with bit J clear, partner I + J) are enumerated
  // directly block by block. The compare count is data-independent (P/2
  // pairs per round), and each exchange moves 3 elements, so both are
  // charged once at the end from integer counts.
  size_t Rounds = 0, Swaps = 0;
  for (size_t K = 2; K <= P; K <<= 1) {
    for (size_t J = K >> 1; J > 0; J >>= 1) {
      for (size_t Base = 0; Base != P; Base += 2 * J) {
        bool Ascending = (Base & K) == 0;
        // Branch-free exchange: select-on-swap compiles to conditional
        // moves, and the swap count adds 0 or 1 per pair.
        if (Ascending) {
          for (size_t I = Base; I != Base + J; ++I) {
            double A = Buf[I], B = Buf[I + J];
            bool Sw = A > B;
            Buf[I] = Sw ? B : A;
            Buf[I + J] = Sw ? A : B;
            Swaps += Sw;
          }
        } else {
          for (size_t I = Base; I != Base + J; ++I) {
            double A = Buf[I], B = Buf[I + J];
            bool Sw = A < B;
            Buf[I] = Sw ? B : A;
            Buf[I + J] = Sw ? A : B;
            Swaps += Sw;
          }
        }
      }
      ++Rounds;
    }
  }
  std::copy(Buf.begin(), Buf.begin() + static_cast<long>(N),
            V.begin() + static_cast<long>(Lo));
  Cost.addCompares(static_cast<double>(Rounds * (P / 2)));
  Cost.addMoves(static_cast<double>(3 * Swaps + N));
}

void PolySorter::quickSort(std::vector<double> &V, size_t Lo, size_t Hi,
                           support::CostCounter &Cost) const {
  // Lomuto partition with a first-element pivot (kept deliberately: this
  // is the classic variant that degenerates to quadratic time on sorted
  // and heavily duplicated inputs, the input sensitivity the paper cites).
  // Iterates on the larger side to bound stack depth in those cases.
  size_t CurLo = Lo, CurHi = Hi;
  while (CurHi - CurLo > 1) {
    // Sorted-range fast path: once the range is non-decreasing, the
    // physical loop is fully determined -- the pivot is the minimum, so every
    // partition compares k-1 elements, performs exactly the two pivot
    // swaps (6 moves) which cancel each other, leaves the array unchanged
    // and loops into the still-sorted right side of size k-1. Charge that
    // closed form level by level (identical accumulation to the physical
    // addCompares/addMoves per partition) until the selector hands the
    // rest to another algorithm, instead of paying the quadratic scans.
    // The early-exit isSorted probe costs at most one extra pass over a
    // range that was about to be scanned anyway, and catches ranges that
    // *become* sorted mid-descent.
    if (isSorted(V, CurLo, CurHi)) {
      size_t K = CurHi - CurLo;
      while (K > 1) {
        Cost.addCompares(static_cast<double>(K - 1));
        Cost.addMoves(6.0);
        ++CurLo;
        --K;
        if (Sel.choose(K) != static_cast<unsigned>(SortAlgo::Quick)) {
          sortRange(V, CurLo, CurHi, Cost);
          return;
        }
      }
      return;
    }
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

    // Recurse (through the selector) into the smaller side, loop on the
    // larger one.
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
    // The remaining side re-enters the selector as well, unless it would
    // re-select quicksort at the same size class, in which case looping
    // here is equivalent and cheaper.
    unsigned Choice = Sel.choose(CurHi - CurLo);
    if (Choice != static_cast<unsigned>(SortAlgo::Quick)) {
      sortRange(V, CurLo, CurHi, Cost);
      return;
    }
  }
}

void PolySorter::mergeSort(std::vector<double> &V, size_t Lo, size_t Hi,
                           support::CostCounter &Cost) const {
  size_t N = Hi - Lo;
  unsigned Ways = static_cast<unsigned>(
      std::min<size_t>(MergeWays, std::max<size_t>(2, N / 2)));
  if (N < 2)
    return;
  if (N <= Ways) {
    insertionSort(V, Lo, Hi, Cost);
    return;
  }

  // Split into Ways chunks and sort each through the selector. Bounds
  // lives across the child recursion in a fixed stack array (the
  // constructor caps the way count at MaxMergeWays); every chunk is
  // non-empty because N > Ways.
  size_t Bounds[MaxMergeWays + 1];
  for (unsigned W = 0; W <= Ways; ++W)
    Bounds[W] = Lo + N * W / Ways;
  for (unsigned W = 0; W != Ways; ++W)
    sortRange(V, Bounds[W], Bounds[W + 1], Cost);

  // The merge's charge model is a linear scan over the run heads: take
  // the minimal head, ties to the lowest run index, paying (#non-empty
  // runs - 1) compares per output. That take order is a stable merge in
  // run order, and run W stays non-empty through the output position P_W
  // of its last element e_W, so the scan pays sum_W (P_W + 1) - N
  // compares in total.
  //
  // The output is produced by merging adjacent groups of runs pairwise,
  // bottom up, with ties to the left group -- the same stable order. So
  // Taken[W], the elements of W's group taken no later than e_W, starts
  // at W's length, and each pairwise merge adds the other group's
  // elements that precede e_W: those < e_W when the other group comes
  // later, those <= e_W when it comes earlier (ties go to the lower run).
  // One binary search per run and level; after the last level Taken[W]
  // is P_W + 1. The ping-pong buffer is only live between the child
  // recursion above and the copy-back below, so one per-thread buffer
  // serves every level.
  double Last[MaxMergeWays];
  size_t Taken[MaxMergeWays];
  for (unsigned W = 0; W != Ways; ++W) {
    Last[W] = V[Bounds[W + 1] - 1];
    Taken[W] = Bounds[W + 1] - Bounds[W];
  }
  thread_local std::vector<double> Buf;
  if (Buf.size() < N)
    Buf.resize(N);
  double *Src = V.data() + Lo, *Dst = Buf.data();
  for (unsigned Width = 1; Width < Ways; Width <<= 1) {
    for (unsigned W = 0; W < Ways; W += 2 * Width) {
      unsigned MidRun = std::min(W + Width, Ways);
      unsigned EndRun = std::min(W + 2 * Width, Ways);
      double *Begin = Src + (Bounds[W] - Lo);
      double *Mid = Src + (Bounds[MidRun] - Lo);
      double *End = Src + (Bounds[EndRun] - Lo);
      for (unsigned U = W; U != MidRun; ++U)
        Taken[U] += static_cast<size_t>(
            std::lower_bound(Mid, End, Last[U]) - Mid);
      for (unsigned U = MidRun; U != EndRun; ++U)
        Taken[U] += static_cast<size_t>(
            std::upper_bound(Begin, Mid, Last[U]) - Begin);
      std::merge(Begin, Mid, Mid, End, Dst + (Bounds[W] - Lo));
    }
    std::swap(Src, Dst);
  }
  if (Src != V.data() + Lo)
    std::copy(Src, Src + N, V.data() + Lo);
  size_t Compares = 0;
  for (unsigned W = 0; W != Ways; ++W)
    Compares += Taken[W];
  // One move per output plus the copy-back.
  Cost.addCompares(static_cast<double>(Compares - N));
  Cost.addMoves(2.0 * static_cast<double>(N));
}

void PolySorter::sortRange(std::vector<double> &V, size_t Lo, size_t Hi,
                           support::CostCounter &Cost) const {
  size_t N = Hi - Lo;
  if (N < 2)
    return;
  switch (static_cast<SortAlgo>(Sel.choose(N))) {
  case SortAlgo::Insertion:
    insertionSort(V, Lo, Hi, Cost);
    return;
  case SortAlgo::Quick:
    quickSort(V, Lo, Hi, Cost);
    return;
  case SortAlgo::Merge:
    mergeSort(V, Lo, Hi, Cost);
    return;
  case SortAlgo::Radix:
    radixSort(V, Lo, Hi, Cost);
    return;
  case SortAlgo::Bitonic:
    bitonicSort(V, Lo, Hi, Cost);
    return;
  }
  assert(false && "unknown sort choice");
}

void PolySorter::sort(std::vector<double> &V, support::CostCounter &Cost) const {
  sortRange(V, 0, V.size(), Cost);
  assert(isSorted(V, 0, V.size()) && "polyalgorithm produced unsorted output");
}

//===----------------------------------------------------------------------===//
// Input generators
//===----------------------------------------------------------------------===//

const char *bench::sortGenName(SortGen G) {
  switch (G) {
  case SortGen::Uniform:
    return "uniform";
  case SortGen::Sorted:
    return "sorted";
  case SortGen::Reverse:
    return "reverse";
  case SortGen::AlmostSorted:
    return "almost-sorted";
  case SortGen::FewDistinct:
    return "few-distinct";
  case SortGen::OrganPipe:
    return "organ-pipe";
  case SortGen::Gaussian:
    return "gaussian";
  case SortGen::Exponential:
    return "exponential";
  case SortGen::Sawtooth:
    return "sawtooth";
  case SortGen::Constant:
    return "constant";
  }
  return "unknown";
}

std::vector<double> bench::generateSortInput(SortGen G, size_t N,
                                             support::Rng &Rng) {
  std::vector<double> V(N);
  switch (G) {
  case SortGen::Uniform:
    for (double &X : V)
      X = Rng.uniform(0.0, 1e6);
    break;
  case SortGen::Sorted:
    for (size_t I = 0; I != N; ++I)
      V[I] = static_cast<double>(I) + Rng.uniform(0.0, 0.5);
    std::sort(V.begin(), V.end());
    break;
  case SortGen::Reverse:
    for (size_t I = 0; I != N; ++I)
      V[I] = static_cast<double>(N - I) + Rng.uniform(0.0, 0.5);
    std::sort(V.begin(), V.end(), std::greater<double>());
    break;
  case SortGen::AlmostSorted: {
    for (size_t I = 0; I != N; ++I)
      V[I] = static_cast<double>(I);
    // Perturb ~2% of positions with local swaps.
    size_t Swaps = std::max<size_t>(1, N / 50);
    for (size_t S = 0; S != Swaps; ++S) {
      size_t I = Rng.index(N);
      size_t J = std::min(N - 1, I + 1 + Rng.index(8));
      std::swap(V[I], V[J]);
    }
    break;
  }
  case SortGen::FewDistinct: {
    size_t Values = 2 + Rng.index(14);
    for (double &X : V)
      X = static_cast<double>(Rng.index(Values)) * 7.5;
    break;
  }
  case SortGen::OrganPipe:
    for (size_t I = 0; I != N; ++I)
      V[I] = static_cast<double>(I < N / 2 ? I : N - I);
    break;
  case SortGen::Gaussian:
    for (double &X : V)
      X = Rng.gaussian(0.0, 1000.0);
    break;
  case SortGen::Exponential:
    for (double &X : V)
      X = Rng.exponential(1e-3);
    break;
  case SortGen::Sawtooth: {
    size_t Runs = 4 + Rng.index(12);
    size_t RunLen = std::max<size_t>(1, N / Runs);
    for (size_t I = 0; I != N; ++I)
      V[I] = static_cast<double>(I % RunLen) * 3.0 + Rng.uniform(0.0, 1.0);
    break;
  }
  case SortGen::Constant: {
    double C = Rng.uniform(0.0, 100.0);
    for (double &X : V)
      X = C;
    break;
  }
  }
  return V;
}

std::vector<double> bench::generateRegistryLikeInput(size_t N,
                                                     support::Rng &Rng) {
  // Registry extracts are dominated by records sorted by identifier, with
  // a small pool of duplicated identifiers (renewed registrations) and a
  // tail of recent, unsorted updates.
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
