//===- autotuner/EvolutionaryAutotuner.h - Evolutionary config search ------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PetaBricks-style evolutionary autotuner. Given a TunableProgram and
/// one training input (in the two-level pipeline: the input nearest a
/// cluster centroid), it searches the program's configuration space for a
/// configuration minimising execution cost, subject to the program's
/// accuracy target when one exists.
///
/// Fitness is lexicographic, mirroring PetaBricks' variable-accuracy
/// objective (paper Section 2.3): first meet the accuracy threshold, then
/// minimise time; configurations that all miss the threshold compare by
/// accuracy. Search is a steady generational GA with tournament selection,
/// elitism, uniform crossover, and the per-parameter mutators declared by
/// the ConfigSpace.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_AUTOTUNER_EVOLUTIONARYAUTOTUNER_H
#define PBT_AUTOTUNER_EVOLUTIONARYAUTOTUNER_H

#include "runtime/TunableProgram.h"

#include <optional>
#include <vector>

namespace pbt {
namespace autotuner {

struct AutotunerOptions {
  unsigned PopulationSize = 24;
  unsigned Generations = 30;
  unsigned TournamentSize = 3;
  unsigned EliteCount = 2;
  /// Probability an offspring comes from crossover (else a mutated clone).
  double CrossoverRate = 0.5;
  /// Per-parameter mutation probability.
  double MutationRate = 0.35;
  /// Mutation step size as a fraction of each parameter's range.
  double MutationStrength = 0.15;
  uint64_t Seed = 0;
};

/// Outcome of a tuning run.
struct TuneResult {
  runtime::Configuration Best;
  runtime::RunResult BestOutcome;
  unsigned Evaluations = 0;
  /// Best-so-far cost after each generation (for convergence tests).
  std::vector<double> History;
};

/// Compares two run outcomes under an optional accuracy spec.
/// \returns true when \p A is strictly better than \p B.
bool outcomeBetter(const runtime::RunResult &A, const runtime::RunResult &B,
                   const std::optional<runtime::AccuracySpec> &Spec);

/// Evolutionary search over a program's ConfigSpace.
class EvolutionaryAutotuner {
public:
  explicit EvolutionaryAutotuner(AutotunerOptions Options = {})
      : Options(Options) {}

  /// Tunes \p Program for the single training input \p Input.
  TuneResult tune(const runtime::TunableProgram &Program, size_t Input) const;

  /// Tunes \p Program for a set of training inputs (typically a cluster
  /// centroid's neighbourhood). A candidate's time is the mean over the
  /// inputs; its accuracy is the minimum, so the winning configuration
  /// must meet the accuracy target on the whole neighbourhood -- which
  /// makes landmarks robust on unseen inputs from the same cluster.
  TuneResult tune(const runtime::TunableProgram &Program,
                  const std::vector<size_t> &Inputs) const;

  const AutotunerOptions &options() const { return Options; }

private:
  AutotunerOptions Options;
};

} // namespace autotuner
} // namespace pbt

#endif // PBT_AUTOTUNER_EVOLUTIONARYAUTOTUNER_H
