//===- benchmarks/SortBenchmark.cpp ------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/SortBenchmark.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

using namespace pbt;
using namespace pbt::bench;

namespace {
/// Bumped by every SortBenchmark construction and destruction so the
/// per-thread run memos below can never serve a stale entry after a
/// benchmark at the same address is destroyed and another allocated
/// there (the destructor bump alone would suffice -- address reuse
/// requires an intervening destruction -- but bumping on both sides
/// keeps the invariant robust to unconventional allocation schemes).
std::atomic<uint64_t> BenchGeneration{1};
} // namespace

SortBenchmark::SortBenchmark(const Options &Opts) : Opts(Opts) {
  BenchGeneration.fetch_add(1, std::memory_order_relaxed);
  assert(Opts.MinSize >= 4 && Opts.MinSize <= Opts.MaxSize && "bad sizes");
  // Configuration space: the recursive selector over the five algorithms
  // plus the merge-way count.
  Scheme = runtime::SelectorScheme::declare(
      Space, "sort", Opts.SelectorLevels, NumSortAlgos, /*MinCutoff=*/4,
      /*MaxCutoff=*/2 * Opts.MaxSize);
  MergeWaysParam =
      Space.addInteger("sort.mergeWays", PolySorter::MinMergeWays,
                       PolySorter::MaxMergeWays, /*LogScale=*/true);

  // Inputs.
  support::Rng Rng(Opts.Seed);
  Inputs.reserve(Opts.NumInputs);
  Tags.reserve(Opts.NumInputs);
  for (size_t I = 0; I != Opts.NumInputs; ++I) {
    double LogLo = std::log2(static_cast<double>(Opts.MinSize));
    double LogHi = std::log2(static_cast<double>(Opts.MaxSize));
    size_t N = static_cast<size_t>(std::pow(2.0, Rng.uniform(LogLo, LogHi)));
    N = std::max(Opts.MinSize, std::min(Opts.MaxSize, N));
    if (Opts.Data == Dataset::RegistryLike) {
      Inputs.push_back(generateRegistryLikeInput(N, Rng));
      Tags.push_back("registry");
    } else {
      SortGen G = static_cast<SortGen>(Rng.index(NumSortGens));
      Inputs.push_back(generateSortInput(G, N, Rng));
      Tags.push_back(sortGenName(G));
    }
  }
}

std::string SortBenchmark::name() const {
  return Opts.Data == Dataset::RegistryLike ? "sort1" : "sort2";
}

std::vector<runtime::FeatureInfo> SortBenchmark::features() const {
  return {{"deviation", 3}, {"duplication", 3}, {"sortedness", 3},
          {"testsort", 3}};
}

/// Sample size for feature level L: 32, 128, 512 (capped by input size).
static size_t sampleSizeForLevel(unsigned Level, size_t N) {
  size_t S = static_cast<size_t>(32) << (2 * Level);
  return std::min(S, N);
}

double SortBenchmark::extractFeature(size_t Input, unsigned Feature,
                                     unsigned Level,
                                     support::CostCounter &Cost) const {
  assert(Input < Inputs.size() && "input out of range");
  assert(Feature < 4 && Level < 3 && "feature/level out of range");
  const std::vector<double> &V = Inputs[Input];
  size_t N = V.size();
  size_t S = sampleSizeForLevel(Level, N);
  size_t Stride = std::max<size_t>(1, N / S);

  switch (Feature) {
  case 0: { // deviation: stddev of a strided sample
    double Sum = 0.0, SumSq = 0.0;
    size_t Count = 0;
    for (size_t I = 0; I < N && Count < S; I += Stride, ++Count) {
      Sum += V[I];
      SumSq += V[I] * V[I];
    }
    Cost.addFlops(2.0 * static_cast<double>(Count));
    if (Count == 0)
      return 0.0;
    double Mean = Sum / static_cast<double>(Count);
    double Var = SumSq / static_cast<double>(Count) - Mean * Mean;
    return Var > 0.0 ? std::sqrt(Var) : 0.0;
  }
  case 1: { // duplication: 1 - distinct/sample
    std::vector<double> Sample;
    Sample.reserve(S);
    for (size_t I = 0; I < N && Sample.size() < S; I += Stride)
      Sample.push_back(V[I]);
    std::sort(Sample.begin(), Sample.end());
    double Log2S = Sample.size() > 1
                       ? std::log2(static_cast<double>(Sample.size()))
                       : 1.0;
    Cost.addCompares(static_cast<double>(Sample.size()) * Log2S);
    if (Sample.empty())
      return 0.0;
    size_t Distinct = 1;
    for (size_t I = 1; I < Sample.size(); ++I)
      if (Sample[I] != Sample[I - 1])
        ++Distinct;
    Cost.addCompares(static_cast<double>(Sample.size()));
    return 1.0 -
           static_cast<double>(Distinct) / static_cast<double>(Sample.size());
  }
  case 2: { // sortedness: paper Figure 1 pseudocode with step sampling
    size_t Step = std::max<size_t>(1, N / S);
    size_t SortedCount = 0, Count = 0;
    for (size_t I = 0; I + Step < N; I += Step) {
      if (V[I] <= V[I + Step])
        ++SortedCount;
      ++Count;
    }
    Cost.addCompares(static_cast<double>(Count));
    return Count > 0
               ? static_cast<double>(SortedCount) / static_cast<double>(Count)
               : 0.0;
  }
  case 3: { // testsort: insertion-sort work on a strided subsequence
    std::vector<double> Sample;
    Sample.reserve(S);
    for (size_t I = 0; I < N && Sample.size() < S; I += Stride)
      Sample.push_back(V[I]);
    if (Sample.size() < 2)
      return 0.0;
    support::CostCounter Probe;
    insertionSort(Sample, 0, Sample.size(), Probe);
    Cost.merge(Probe);
    // Normalise to per-element work so the feature is size-independent.
    return Probe.units() / static_cast<double>(Sample.size());
  }
  default:
    return 0.0;
  }
}

PolySorter SortBenchmark::sorterFor(const runtime::Configuration &Config) const {
  runtime::Selector Sel = Scheme.instantiate(Config);
  unsigned Ways = static_cast<unsigned>(Config.integer(MergeWaysParam));
  return PolySorter(std::move(Sel), Ways);
}

namespace {
/// The category breakdown of one memoized run. All sort-kernel charges
/// are integer-valued doubles, so re-adding them as one lump per category
/// reproduces the physical accumulation bit-exactly.
struct RunOutcome {
  double Compares = 0.0, Moves = 0.0, Other = 0.0;
};

/// Per-thread run scratch: the work copy every run sorts, the last decoded
/// sorter, and the canonical-configuration run memo. The autotuner
/// evaluates one configuration over a whole tuning neighbourhood back to
/// back, so caching the (benchmark, config) -> PolySorter decode turns
/// most runs' selector instantiation into a vector compare; the memo
/// recognises that *distinct* configurations frequently decode to the
/// same effective polyalgorithm on this benchmark's bounded size domain
/// (cutoffs beyond MaxSize, levels shadowed by earlier ones, mergeWays
/// with merge unreachable) and replays their recorded charges instead of
/// re-running the program. Decoding and the kernels are deterministic, so
/// both reuses are exact.
struct SortRunScratch {
  std::vector<double> Work;
  const void *Bench = nullptr;
  uint64_t Generation = 0;
  std::vector<double> ConfigValues;
  std::optional<PolySorter> Sorter;
  std::vector<uint64_t> Key;     // canonical segments up to MaxSize
  std::vector<uint64_t> RunKey;  // Key truncated to one input's length
  std::map<std::pair<std::vector<uint64_t>, size_t>, RunOutcome> Memo;
};

/// Canonical form of (selector, mergeWays) restricted to sizes [0, MaxN]:
/// the segment-choice step function with adjacent equal-choice segments
/// merged, plus the merge-way count only when merge is reachable. Two
/// configurations with equal canonical keys choose identically at every
/// reachable size, hence run identically on every input.
void canonicalConfigKey(const runtime::Selector &Sel, uint64_t Ways,
                        uint64_t MaxN, std::vector<uint64_t> &Key) {
  Key.clear();
  bool MergeReachable = false;
  uint64_t Prev = 0;
  auto Emit = [&](uint64_t End, unsigned Choice) {
    if (End <= Prev)
      return;
    if (!Key.empty() &&
        (Key.back() & 0x7u) == Choice) // extend the previous segment
      Key.back() = (End << 3) | Choice;
    else
      Key.push_back((End << 3) | Choice);
    if (Choice == static_cast<unsigned>(SortAlgo::Merge))
      MergeReachable = true;
    Prev = End;
  };
  for (const runtime::Selector::Level &L : Sel.levels()) {
    if (Prev > MaxN)
      break;
    Emit(std::min<uint64_t>(L.Cutoff, MaxN + 1), L.Choice);
  }
  if (Prev <= MaxN) // sizes above every cutoff fall back to the last level
    Emit(MaxN + 1, Sel.levels().empty() ? 0u : Sel.levels().back().Choice);
  if (MergeReachable)
    Key.push_back((1ull << 62) | Ways);
}

/// Clips a canonical key to one input's size domain [0, N]: a run on an
/// input of length N never consults the selector above N, so segments
/// beyond it (and the merge-way tag when merge only becomes reachable
/// above N) are invisible -- dropping them lets configurations that
/// differ only at larger sizes share one memo entry.
void truncateKeyTo(const std::vector<uint64_t> &Key, uint64_t N,
                   std::vector<uint64_t> &Out) {
  Out.clear();
  bool MergeReachable = false;
  for (uint64_t Seg : Key) {
    if (Seg >> 62) // the merge-way tag; re-derived below
      break;
    uint64_t End = Seg >> 3;
    unsigned Choice = static_cast<unsigned>(Seg & 0x7u);
    if (End > N) {
      Out.push_back(((N + 1) << 3) | Choice);
      if (Choice == static_cast<unsigned>(SortAlgo::Merge))
        MergeReachable = true;
      break;
    }
    Out.push_back(Seg);
    if (Choice == static_cast<unsigned>(SortAlgo::Merge))
      MergeReachable = true;
  }
  if (MergeReachable && !Key.empty() && (Key.back() >> 62))
    Out.push_back(Key.back());
}
} // namespace

SortBenchmark::~SortBenchmark() {
  BenchGeneration.fetch_add(1, std::memory_order_relaxed);
}

runtime::RunResult SortBenchmark::run(size_t Input,
                                      const runtime::Configuration &Config,
                                      support::CostCounter &Cost) const {
  assert(Input < Inputs.size() && "input out of range");
  runtime::RunResult R;
  R.Accuracy = 1.0;
  thread_local SortRunScratch S;
  uint64_t Gen = BenchGeneration.load(std::memory_order_relaxed);
  if (S.Bench != this || S.Generation != Gen) {
    S.Memo.clear();
    S.ConfigValues.clear();
    S.Sorter.reset();
    S.Bench = this;
    S.Generation = Gen;
  }
  if (!S.Sorter || S.ConfigValues != Config.values()) {
    S.Sorter.emplace(sorterFor(Config));
    S.ConfigValues = Config.values();
    canonicalConfigKey(S.Sorter->selector(), S.Sorter->mergeWays(),
                       Opts.MaxSize, S.Key);
  }

  // The strongest collapse first: when the top-level choice is a terminal
  // algorithm (insertion / radix / bitonic), the kernels never consult the
  // selector again, so the outcome depends on nothing but (input, choice)
  // -- cutoffs and merge-ways are invisible. Quick and merge tops recurse
  // through the selector and key on the input-truncated canonical form.
  unsigned Top = S.Sorter->selector().choose(Inputs[Input].size());
  if (Top != static_cast<unsigned>(SortAlgo::Quick) &&
      Top != static_cast<unsigned>(SortAlgo::Merge)) {
    S.RunKey.assign(1, (1ull << 63) | Top);
  } else {
    truncateKeyTo(S.Key, Inputs[Input].size(), S.RunKey);
  }
  auto MemoKey = std::make_pair(S.RunKey, Input);
  auto It = S.Memo.find(MemoKey);
  if (It != S.Memo.end()) {
    const RunOutcome &O = It->second;
    Cost.addCompares(O.Compares);
    Cost.addMoves(O.Moves);
    Cost.addOther(O.Other);
    R.TimeUnits = O.Compares + O.Moves + O.Other;
    return R;
  }

  support::CostCounter Local;
  S.Work = Inputs[Input];
  Local.addMoves(static_cast<double>(S.Work.size())); // initial copy
  S.Sorter->sort(S.Work, Local);
  Cost.merge(Local);
  R.TimeUnits = Local.units();
  if (S.Memo.size() >= (1u << 17)) // unbounded streams: cap, then refill
    S.Memo.clear();
  RunOutcome O;
  O.Compares = Local.compares();
  O.Moves = Local.moves();
  O.Other = Local.other();
  S.Memo.emplace(std::move(MemoKey), O);
  return R;
}

std::string SortBenchmark::describeInput(size_t Input) const {
  return Tags[Input] + " n=" + std::to_string(Inputs[Input].size());
}

std::string
SortBenchmark::describeConfiguration(const runtime::Configuration &Config) const {
  return "selector " + sorterFor(Config).selector().str();
}

//===----------------------------------------------------------------------===//
// Registry entries: the paper's sort1 (registry-like real-world inputs)
// and sort2 (synthetic generator mixture) rows.
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"

static registry::ProgramPtr makeSortProgram(SortBenchmark::Dataset Data,
                                            double Scale, uint64_t Seed) {
  SortBenchmark::Options O;
  O.Data = Data;
  O.NumInputs = registry::scaledInputCount(Scale, 160);
  O.MinSize = 256;
  O.MaxSize = 2048;
  O.Seed = Seed;
  return std::make_unique<SortBenchmark>(O);
}

static registry::RegisterBenchmark
    RegSort1(std::make_unique<registry::SimpleBenchmarkFactory>(
        "sort1", "Sort, registry-like real-world inputs (paper sort1)",
        /*SuiteOrder=*/0, /*ProgramSeed=*/101, /*PipelineSeed=*/1001,
        [](double Scale, uint64_t Seed) {
          return makeSortProgram(SortBenchmark::Dataset::RegistryLike, Scale,
                                 Seed);
        }));

static registry::RegisterBenchmark
    RegSort2(std::make_unique<registry::SimpleBenchmarkFactory>(
        "sort2", "Sort, synthetic generator mixture (paper sort2)",
        /*SuiteOrder=*/1, /*ProgramSeed=*/102, /*PipelineSeed=*/1002,
        [](double Scale, uint64_t Seed) {
          return makeSortProgram(SortBenchmark::Dataset::SyntheticMix, Scale,
                                 Seed);
        }));
