//===- runtime/ConfigSpace.h - Tunable parameter spaces -------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The algorithmic configuration space of a PetaBricks-style program.
///
/// PetaBricks programs expose *algorithmic choice* (either...or blocks,
/// realised as selectors over recursive calls) together with ordinary
/// tunables (cutoffs, iteration counts, sampling levels). A ConfigSpace
/// declares every such parameter; a Configuration is one point in the
/// space. The evolutionary autotuner manipulates Configurations through
/// the mutation/crossover entry points defined here, and the two-level
/// learning framework treats them as opaque "landmarks".
///
//===----------------------------------------------------------------------===//

#ifndef PBT_RUNTIME_CONFIGSPACE_H
#define PBT_RUNTIME_CONFIGSPACE_H

#include "support/Random.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace pbt {
namespace runtime {

/// Discriminates the three parameter families the autotuner understands.
enum class ParamKind {
  /// Unordered finite choice, e.g. which algorithm an either...or picks.
  Categorical,
  /// Ordered integer range, e.g. a recursion cutoff. May be log-scaled.
  Integer,
  /// Continuous range, e.g. an SOR relaxation factor or a sampling level.
  Real,
};

/// Declaration of a single tunable parameter.
struct ParamSpec {
  std::string Name;
  ParamKind Kind = ParamKind::Real;
  /// Inclusive bounds. For Categorical: [0, Cardinality-1].
  double Min = 0.0;
  double Max = 1.0;
  /// Number of categories (Categorical only).
  unsigned Cardinality = 0;
  /// Mutate/sample in log space (Integer/Real with positive bounds). The
  /// classic PetaBricks cutoff tunables are log-scaled because plausible
  /// cutoffs span orders of magnitude.
  bool LogScale = false;
  /// Conditional (hierarchical) parameters: index of the categorical
  /// parameter this one depends on, or -1 for an unconditional tunable.
  /// A conditional parameter only *exists* when its parent takes one of
  /// the activating categories -- e.g. an iterative-solver tolerance only
  /// under the solver choice's iterative branch.
  int Parent = -1;
  /// Bitmask over the parent's categories: bit c set means this parameter
  /// is active when the parent holds category c (and is itself active).
  uint64_t ParentMask = 0;
};

class Configuration;

/// An ordered collection of ParamSpecs defining a search space.
class ConfigSpace {
public:
  /// Declare a categorical parameter with \p Cardinality choices.
  /// \returns the parameter index.
  unsigned addCategorical(std::string Name, unsigned Cardinality);

  /// Declare an integer parameter in the inclusive range [Min, Max].
  unsigned addInteger(std::string Name, int64_t Min, int64_t Max,
                      bool LogScale = false);

  /// Declare a real parameter in [Min, Max].
  unsigned addReal(std::string Name, double Min, double Max,
                   bool LogScale = false);

  size_t size() const { return Params.size(); }
  bool empty() const { return Params.empty(); }

  const ParamSpec &param(unsigned Index) const {
    assert(Index < Params.size() && "parameter index out of range");
    return Params[Index];
  }

  /// Index of the parameter named \p Name, or -1 if absent.
  int indexOf(const std::string &Name) const;

  /// Makes parameter \p Index conditional on the earlier categorical
  /// parameter \p Parent: it is active only when the parent holds one of
  /// \p ActivatingValues. Parents must precede children (no cycles), may
  /// themselves be conditional (chains nest), and need Cardinality <= 64
  /// so the activation set fits a bitmask.
  void makeConditional(unsigned Index, unsigned Parent,
                       const std::vector<unsigned> &ActivatingValues);

  /// True when parameter \p Index was declared conditional.
  bool conditional(unsigned Index) const { return param(Index).Parent >= 0; }

  /// True when \p Index exists under \p Config: unconditional, or the
  /// whole parent chain holds activating categories.
  bool active(const Configuration &Config, unsigned Index) const;

  /// Bitmask of active parameters under \p Config (bit I = param I).
  /// Spaces are capped at 64 parameters.
  uint64_t activeMask(const Configuration &Config) const;

  /// The pinned value an *inactive* parameter holds: its defaultConfig
  /// value. Canonical configs keep dead branches at this value so two
  /// configs that differ only in nonexistent tunables compare equal,
  /// serialize identically, and hit the autotuner's outcome memo.
  double canonicalValue(unsigned Index) const;

  /// Pins every inactive parameter of \p Config to its canonicalValue.
  /// Idempotent; parents are processed before children, so one forward
  /// pass settles nested chains.
  void canonicalize(Configuration &Config) const;

  /// Uniformly random configuration (log-scaled params sample uniformly in
  /// log space). The result is canonical: dead-branch parameters are
  /// pinned.
  Configuration randomConfig(support::Rng &Rng) const;

  /// A deterministic mid-range configuration, useful as a search seed.
  /// Always canonical (inactive parameters already hold their pin value).
  Configuration defaultConfig() const;

  /// Mutates \p Config in place. Each *active* parameter independently
  /// mutates with probability \p Rate; categorical params resample,
  /// numeric params take a (log-space, where marked) Gaussian step scaled
  /// by \p Strength of the range, occasionally resetting to a fresh
  /// uniform sample. Parameters a parent flip newly activates are
  /// resampled uniformly (their pinned value carries no search history);
  /// the result is canonical.
  void mutate(Configuration &Config, support::Rng &Rng, double Rate,
              double Strength) const;

  /// Uniform crossover of two parents; the child is canonicalized.
  Configuration crossover(const Configuration &A, const Configuration &B,
                          support::Rng &Rng) const;
  /// The same crossover written into \p Child, reusing its storage (the
  /// autotuner's generation loop). \p Child must not alias a parent.
  void crossover(const Configuration &A, const Configuration &B,
                 support::Rng &Rng, Configuration &Child) const;

  /// Clamp every value into its declared range, rounding integers and
  /// categoricals, then canonicalize. Mutation keeps configs valid; this
  /// is a safety net for externally constructed configurations.
  void repair(Configuration &Config) const;

  /// log10 of the number of distinct configurations, counting real
  /// parameters at \p RealResolution distinguishable values. Reported by
  /// benchmarks to document search-space sizes as the paper does. For
  /// conditional spaces this is the unconstrained product -- an upper
  /// bound on the canonical-config count.
  double searchSpaceLog10(double RealResolution = 1e4) const;

private:
  /// log(Min), log(Max) and their difference for a log-scaled parameter,
  /// computed once at declaration; zero otherwise.
  struct LogBounds {
    double Min = 0.0, Max = 0.0, Span = 0.0;
  };

  unsigned addParam(ParamSpec P);
  double sampleParam(unsigned Index, support::Rng &Rng) const;

  std::vector<ParamSpec> Params;
  std::vector<LogBounds> Logs; // parallel to Params
  /// Some parameter was made conditional. Without one every parameter is
  /// always active and every configuration is canonical, so the
  /// activity and canonicalization passes are skipped.
  bool HasConditional = false;
};

/// One point in a ConfigSpace. Values are stored as doubles; integer and
/// categorical parameters hold exact integral values.
class Configuration {
public:
  Configuration() = default;
  explicit Configuration(std::vector<double> Values)
      : Values(std::move(Values)) {}

  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }

  double real(unsigned Index) const {
    assert(Index < Values.size() && "parameter index out of range");
    return Values[Index];
  }

  int64_t integer(unsigned Index) const {
    return static_cast<int64_t>(real(Index));
  }

  unsigned category(unsigned Index) const {
    double V = real(Index);
    assert(V >= 0.0 && "categorical value must be non-negative");
    return static_cast<unsigned>(V);
  }

  void set(unsigned Index, double Value) {
    assert(Index < Values.size() && "parameter index out of range");
    Values[Index] = Value;
  }

  const std::vector<double> &values() const { return Values; }
  std::vector<double> &values() { return Values; }

  bool operator==(const Configuration &O) const { return Values == O.Values; }

  /// Compact textual form "v0 v1 v2 ...", parseable by fromString.
  std::string toString() const;
  /// Parses toString output. \returns false on malformed input.
  static bool fromString(const std::string &Text, Configuration &Out);

private:
  std::vector<double> Values;
};

} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_CONFIGSPACE_H
