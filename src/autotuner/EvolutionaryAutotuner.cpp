//===- autotuner/EvolutionaryAutotuner.cpp ----------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "autotuner/EvolutionaryAutotuner.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>

using namespace pbt;
using namespace pbt::autotuner;
using runtime::Configuration;
using runtime::RunResult;

bool autotuner::outcomeBetter(const RunResult &A, const RunResult &B,
                              const std::optional<runtime::AccuracySpec> &Spec) {
  if (!Spec)
    return A.TimeUnits < B.TimeUnits;
  bool AMeets = A.Accuracy >= Spec->AccuracyThreshold;
  bool BMeets = B.Accuracy >= Spec->AccuracyThreshold;
  if (AMeets != BMeets)
    return AMeets;
  if (AMeets) // Both meet the target: faster wins.
    return A.TimeUnits < B.TimeUnits;
  // Neither meets it: more accurate wins, time breaks ties.
  if (A.Accuracy != B.Accuracy)
    return A.Accuracy > B.Accuracy;
  return A.TimeUnits < B.TimeUnits;
}

namespace {
/// A candidate configuration with its measured outcome.
struct Candidate {
  Configuration Config;
  RunResult Outcome;
};

/// Hashes a configuration's values consistently with vector<double>
/// equality: +0.0 == -0.0, so both hash as +0.0. (NaN never equals
/// itself, so a NaN-holding configuration never hits, whatever its hash.)
struct ValuesHash {
  size_t operator()(const std::vector<double> &Values) const {
    uint64_t H = 0x9e3779b97f4a7c15ull ^ Values.size();
    for (double V : Values) {
      if (V == 0.0)
        V = 0.0;
      uint64_t Bits;
      std::memcpy(&Bits, &V, sizeof Bits);
      // Integral values differ only in their high bits; the shift folds
      // them back down for the bucket modulo.
      H = (H ^ Bits) * 0xff51afd7ed558ccdull;
      H ^= H >> 32;
    }
    return static_cast<size_t>(H);
  }
};
} // namespace

TuneResult EvolutionaryAutotuner::tune(const runtime::TunableProgram &Program,
                                       size_t Input) const {
  return tune(Program, std::vector<size_t>{Input});
}

TuneResult
EvolutionaryAutotuner::tune(const runtime::TunableProgram &Program,
                            const std::vector<size_t> &Inputs) const {
  const runtime::ConfigSpace &Space = Program.space();
  std::optional<runtime::AccuracySpec> Spec = Program.accuracy();
  assert(!Inputs.empty() && "need at least one tuning input");
#ifndef NDEBUG
  for (size_t Input : Inputs)
    assert(Input < Program.numInputs() && "tuning input out of range");
#endif
  assert(Options.PopulationSize >= 2 && "population too small");

  support::Rng Rng(Options.Seed);
  unsigned Evaluations = 0;

  // Mean time, worst-case accuracy over the tuning inputs.
  auto Measure = [&](const Configuration &Config) {
    double TimeSum = 0.0;
    double AccMin = 1e300;
    for (size_t Input : Inputs) {
      support::CostCounter C;
      runtime::RunResult R = Program.run(Input, Config, C);
      TimeSum += R.TimeUnits;
      AccMin = std::min(AccMin, R.Accuracy);
    }
    runtime::RunResult Out;
    Out.TimeUnits = TimeSum / static_cast<double>(Inputs.size());
    Out.Accuracy = AccMin;
    return Out;
  };

  // (configuration values -> measured outcome) within this tune() call.
  // Elitism, low-rate mutation and crossover of converging parents re-emit
  // already measured configurations constantly (up to ~85% of evaluations
  // on the discrete-heavy benchmarks). The program runs are deterministic,
  // so a repeat replays its recorded outcome exactly, and each distinct
  // configuration runs once per tune() -- a batch is measured in order,
  // so a repeat within it hits its first occurrence. Hits still count as
  // Evaluations -- that counter reports the search effort, not the run
  // budget. Every batch but the first is at most PopulationSize new
  // entries, so the reserve keeps the table from ever rehashing.
  std::unordered_map<std::vector<double>, runtime::RunResult, ValuesHash>
      Memo;
  Memo.reserve(static_cast<size_t>(Options.PopulationSize) *
               (Options.Generations + 1));
  auto EvaluateAll = [&](std::vector<Candidate> &Pop, size_t Begin) {
    for (size_t I = Begin; I != Pop.size(); ++I) {
      auto [It, Inserted] = Memo.try_emplace(Pop[I].Config.values());
      if (Inserted)
        It->second = Measure(Pop[I].Config);
      Pop[I].Outcome = It->second;
    }
    Evaluations += static_cast<unsigned>(Pop.size() - Begin);
  };

  // Seed population: the deterministic default config plus random samples.
  // Population and Next keep their storage across generations: each
  // generation writes its children into the configurations the one
  // before last held.
  std::vector<Candidate> Population(Options.PopulationSize);
  std::vector<Candidate> Next(Options.PopulationSize);
  Population[0].Config = Space.defaultConfig();
  for (size_t I = 1; I != Population.size(); ++I)
    Population[I].Config = Space.randomConfig(Rng);
  EvaluateAll(Population, 0);

  auto Better = [&](const Candidate &A, const Candidate &B) {
    return outcomeBetter(A.Outcome, B.Outcome, Spec);
  };

  auto SortByFitness = [&](std::vector<Candidate> &Pop) {
    std::stable_sort(Pop.begin(), Pop.end(), Better);
  };
  SortByFitness(Population);

  TuneResult Result;
  Result.History.reserve(Options.Generations);

  auto TournamentPick = [&]() -> const Candidate & {
    size_t Best = Rng.index(Population.size());
    for (unsigned T = 1; T < Options.TournamentSize; ++T) {
      size_t Other = Rng.index(Population.size());
      if (Better(Population[Other], Population[Best]))
        Best = Other;
    }
    return Population[Best];
  };

  // Elitism: carry over the best candidates unchanged (already sorted).
  const unsigned Elites =
      std::min<unsigned>(Options.EliteCount, Options.PopulationSize);
  for (unsigned Gen = 0; Gen != Options.Generations; ++Gen) {
    for (unsigned I = 0; I != Elites; ++I)
      Next[I] = Population[I];
    for (size_t I = Elites; I != Next.size(); ++I) {
      Configuration &Child = Next[I].Config;
      if (Rng.chance(Options.CrossoverRate)) {
        const Candidate &A = TournamentPick();
        const Candidate &B = TournamentPick();
        Space.crossover(A.Config, B.Config, Rng, Child);
      } else {
        Child.values() = TournamentPick().Config.values();
      }
      Space.mutate(Child, Rng, Options.MutationRate, Options.MutationStrength);
    }
    EvaluateAll(Next, Elites);
    std::swap(Population, Next);
    SortByFitness(Population);
    Result.History.push_back(Population.front().Outcome.TimeUnits);
  }

  Result.Best = Population.front().Config;
  Result.BestOutcome = Population.front().Outcome;
  Result.Evaluations = Evaluations;
  return Result;
}
