//===- autotuner/EvolutionaryAutotuner.cpp ----------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "autotuner/EvolutionaryAutotuner.h"

#include <algorithm>
#include <cassert>
#include <map>

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

  // (configuration values -> measured outcome) within this tune() call.
  // Elitism, low-rate mutation and crossover of converging parents re-emit
  // already measured configurations constantly (up to ~85% of evaluations
  // on the discrete-heavy benchmarks). The program runs are deterministic,
  // so a repeat replays its recorded outcome exactly. Hits still count as
  // Evaluations -- that counter reports the search effort, not the run
  // budget.
  std::map<std::vector<double>, runtime::RunResult> Memo;

  auto EvaluateAll = [&](std::vector<Candidate> &Pop, size_t Begin) {
    auto EvalOne = [&](size_t I) {
      // Mean time, worst-case accuracy over the tuning inputs.
      double TimeSum = 0.0;
      double AccMin = 1e300;
      for (size_t Input : Inputs) {
        support::CostCounter C;
        runtime::RunResult R = Program.run(Input, Pop[I].Config, C);
        TimeSum += R.TimeUnits;
        AccMin = std::min(AccMin, R.Accuracy);
      }
      Pop[I].Outcome.TimeUnits = TimeSum / static_cast<double>(Inputs.size());
      Pop[I].Outcome.Accuracy = AccMin;
    };
    // Resolve hits, evaluate only the misses, then record them. Misses
    // within one batch that share a configuration are evaluated
    // redundantly but identically.
    std::vector<size_t> Misses;
    for (size_t I = Begin; I != Pop.size(); ++I) {
      auto It = Memo.find(Pop[I].Config.values());
      if (It != Memo.end())
        Pop[I].Outcome = It->second;
      else
        Misses.push_back(I);
    }
    for (size_t M : Misses)
      EvalOne(M);
    for (size_t I : Misses)
      Memo.emplace(Pop[I].Config.values(), Pop[I].Outcome);
    Evaluations += static_cast<unsigned>(Pop.size() - Begin);
  };

  // Seed population: the deterministic default config plus random samples.
  std::vector<Candidate> Population;
  Population.reserve(Options.PopulationSize);
  Population.push_back({Space.defaultConfig(), {}});
  while (Population.size() < Options.PopulationSize)
    Population.push_back({Space.randomConfig(Rng), {}});
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

  for (unsigned Gen = 0; Gen != Options.Generations; ++Gen) {
    std::vector<Candidate> Next;
    Next.reserve(Options.PopulationSize);
    // Elitism: carry over the best candidates unchanged (already sorted).
    unsigned Elites =
        std::min<unsigned>(Options.EliteCount, Options.PopulationSize);
    for (unsigned I = 0; I != Elites; ++I)
      Next.push_back(Population[I]);

    size_t FreshBegin = Next.size();
    while (Next.size() < Options.PopulationSize) {
      Configuration Child;
      if (Rng.chance(Options.CrossoverRate)) {
        const Candidate &A = TournamentPick();
        const Candidate &B = TournamentPick();
        Child = Space.crossover(A.Config, B.Config, Rng);
      } else {
        Child = TournamentPick().Config;
      }
      Space.mutate(Child, Rng, Options.MutationRate, Options.MutationStrength);
      Next.push_back({std::move(Child), {}});
    }
    EvaluateAll(Next, FreshBegin);
    Population = std::move(Next);
    SortByFitness(Population);
    Result.History.push_back(Population.front().Outcome.TimeUnits);
  }

  Result.Best = Population.front().Config;
  Result.BestOutcome = Population.front().Outcome;
  Result.Evaluations = Evaluations;
  return Result;
}
