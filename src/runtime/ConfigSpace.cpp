//===- runtime/ConfigSpace.cpp --------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "runtime/ConfigSpace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace pbt;
using namespace pbt::runtime;

unsigned ConfigSpace::addParam(ParamSpec P) {
  LogBounds L;
  if (P.LogScale) {
    L.Min = std::log(P.Min);
    L.Max = std::log(P.Max);
    L.Span = L.Max - L.Min;
  }
  Params.push_back(std::move(P));
  Logs.push_back(L);
  return static_cast<unsigned>(Params.size() - 1);
}

unsigned ConfigSpace::addCategorical(std::string Name, unsigned Cardinality) {
  assert(Cardinality >= 1 && "categorical parameter needs at least 1 choice");
  ParamSpec P;
  P.Name = std::move(Name);
  P.Kind = ParamKind::Categorical;
  P.Min = 0.0;
  P.Max = static_cast<double>(Cardinality - 1);
  P.Cardinality = Cardinality;
  return addParam(std::move(P));
}

unsigned ConfigSpace::addInteger(std::string Name, int64_t Min, int64_t Max,
                                 bool LogScale) {
  assert(Min <= Max && "empty integer range");
  assert((!LogScale || Min > 0) && "log-scaled range must be positive");
  ParamSpec P;
  P.Name = std::move(Name);
  P.Kind = ParamKind::Integer;
  P.Min = static_cast<double>(Min);
  P.Max = static_cast<double>(Max);
  P.LogScale = LogScale;
  return addParam(std::move(P));
}

unsigned ConfigSpace::addReal(std::string Name, double Min, double Max,
                              bool LogScale) {
  assert(Min <= Max && "empty real range");
  assert((!LogScale || Min > 0.0) && "log-scaled range must be positive");
  ParamSpec P;
  P.Name = std::move(Name);
  P.Kind = ParamKind::Real;
  P.Min = Min;
  P.Max = Max;
  P.LogScale = LogScale;
  return addParam(std::move(P));
}

int ConfigSpace::indexOf(const std::string &Name) const {
  for (size_t I = 0; I != Params.size(); ++I)
    if (Params[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

void ConfigSpace::makeConditional(unsigned Index, unsigned Parent,
                                  const std::vector<unsigned> &ActivatingValues) {
  assert(Index < Params.size() && "parameter index out of range");
  assert(Parent < Index && "parents must precede children (no cycles)");
  assert(Params[Parent].Kind == ParamKind::Categorical &&
         "conditional parent must be categorical");
  assert(Params[Parent].Cardinality <= 64 &&
         "activation set must fit a 64-bit mask");
  assert(!ActivatingValues.empty() && "conditional needs >= 1 activating value");
  uint64_t Mask = 0;
  for (unsigned V : ActivatingValues) {
    assert(V < Params[Parent].Cardinality && "activating value out of range");
    Mask |= uint64_t(1) << V;
  }
  Params[Index].Parent = static_cast<int>(Parent);
  Params[Index].ParentMask = Mask;
  HasConditional = true;
}

bool ConfigSpace::active(const Configuration &Config, unsigned Index) const {
  assert(Config.size() == Params.size() && "configuration/space mismatch");
  // Walk the parent chain; makeConditional guarantees Parent < Index, so
  // the walk strictly descends and terminates.
  int I = static_cast<int>(Index);
  while (Params[I].Parent >= 0) {
    int Parent = Params[I].Parent;
    unsigned Cat = Config.category(static_cast<unsigned>(Parent));
    if (!((Params[I].ParentMask >> Cat) & 1))
      return false;
    I = Parent;
  }
  return true;
}

uint64_t ConfigSpace::activeMask(const Configuration &Config) const {
  assert(Params.size() <= 64 && "active mask capped at 64 parameters");
  uint64_t Mask = 0;
  for (size_t I = 0; I != Params.size(); ++I)
    if (active(Config, static_cast<unsigned>(I)))
      Mask |= uint64_t(1) << I;
  return Mask;
}

/// The deterministic defaultConfig value of one parameter.
static double defaultValue(const ParamSpec &P) {
  switch (P.Kind) {
  case ParamKind::Categorical:
    return 0.0;
  case ParamKind::Integer: {
    double Mid = P.LogScale ? std::exp((std::log(P.Min) + std::log(P.Max)) / 2)
                            : (P.Min + P.Max) / 2;
    return std::clamp(std::round(Mid), P.Min, P.Max);
  }
  case ParamKind::Real:
    return P.LogScale ? std::exp((std::log(P.Min) + std::log(P.Max)) / 2)
                      : (P.Min + P.Max) / 2;
  }
  assert(false && "unknown parameter kind");
  return P.Min;
}

double ConfigSpace::canonicalValue(unsigned Index) const {
  return defaultValue(param(Index));
}

void ConfigSpace::canonicalize(Configuration &Config) const {
  assert(Config.size() == Params.size() && "configuration/space mismatch");
  if (!HasConditional)
    return;
  // One pass suffices: activity tests the *whole* parent chain, so
  // pinning an inactive categorical parent to category 0 can never flip a
  // descendant's activity -- the descendant's chain walk already fails at
  // the level that deactivated the parent.
  for (size_t I = 0; I != Params.size(); ++I)
    if (!active(Config, static_cast<unsigned>(I)))
      Config.set(static_cast<unsigned>(I), defaultValue(Params[I]));
}

/// Draws a uniform value for parameter \p Index, respecting integrality
/// and log scaling.
double ConfigSpace::sampleParam(unsigned Index, support::Rng &Rng) const {
  const ParamSpec &P = Params[Index];
  const LogBounds &L = Logs[Index];
  switch (P.Kind) {
  case ParamKind::Categorical:
    return static_cast<double>(Rng.index(P.Cardinality));
  case ParamKind::Integer: {
    if (P.LogScale) {
      double V = std::round(std::exp(Rng.uniform(L.Min, L.Max)));
      return std::clamp(V, P.Min, P.Max);
    }
    return static_cast<double>(
        Rng.range(static_cast<int64_t>(P.Min), static_cast<int64_t>(P.Max)));
  }
  case ParamKind::Real:
    if (P.LogScale)
      return std::exp(Rng.uniform(L.Min, L.Max));
    return Rng.uniform(P.Min, P.Max);
  }
  assert(false && "unknown parameter kind");
  return P.Min;
}

Configuration ConfigSpace::randomConfig(support::Rng &Rng) const {
  std::vector<double> V(Params.size());
  for (size_t I = 0; I != Params.size(); ++I)
    V[I] = sampleParam(static_cast<unsigned>(I), Rng);
  Configuration Config(std::move(V));
  canonicalize(Config);
  return Config;
}

Configuration ConfigSpace::defaultConfig() const {
  std::vector<double> V(Params.size());
  for (size_t I = 0; I != Params.size(); ++I)
    V[I] = defaultValue(Params[I]);
  // Already canonical: inactive parameters hold exactly their pin value.
  return Configuration(std::move(V));
}

void ConfigSpace::mutate(Configuration &Config, support::Rng &Rng, double Rate,
                         double Strength) const {
  assert(Config.size() == Params.size() && "configuration/space mismatch");
  uint64_t WasActive = HasConditional ? activeMask(Config) : ~uint64_t(0);
  for (size_t I = 0; I != Params.size(); ++I) {
    // Dead-branch parameters don't exist under this config; spending the
    // mutation budget on them would only churn values canonicalize pins
    // right back.
    if (!((WasActive >> I) & 1))
      continue;
    if (!Rng.chance(Rate))
      continue;
    const ParamSpec &P = Params[I];
    // A small fraction of mutations restart the parameter entirely; this is
    // the PetaBricks-style "reset" mutator that keeps search ergodic.
    if (Rng.chance(0.2)) {
      Config.set(static_cast<unsigned>(I),
                 sampleParam(static_cast<unsigned>(I), Rng));
      continue;
    }
    double V = Config.real(static_cast<unsigned>(I));
    switch (P.Kind) {
    case ParamKind::Categorical:
      Config.set(static_cast<unsigned>(I),
                 static_cast<double>(Rng.index(P.Cardinality)));
      break;
    case ParamKind::Integer:
    case ParamKind::Real: {
      double NewV;
      if (P.LogScale) {
        double L = std::log(std::max(V, P.Min)) +
                   Rng.gaussian(0.0, std::max(1e-12, Strength * Logs[I].Span));
        NewV = std::exp(L);
      } else {
        double Span = P.Max - P.Min;
        NewV = V + Rng.gaussian(0.0, std::max(1e-12, Strength * Span));
      }
      if (P.Kind == ParamKind::Integer) {
        NewV = std::round(NewV);
        // Guarantee progress on fine-grained integer params.
        if (NewV == V)
          NewV = V + (Rng.chance(0.5) ? 1 : -1);
      }
      Config.set(static_cast<unsigned>(I), std::clamp(NewV, P.Min, P.Max));
      break;
    }
    }
  }
  if (!HasConditional)
    return;
  // A parent flip may have opened a branch: parameters active now but not
  // before carry only their pinned value, so give each a fresh uniform
  // sample. Forward order settles nested chains -- resampling a
  // newly-activated categorical can activate ITS children, and they are
  // visited after it with their parent's value already final.
  for (size_t I = 0; I != Params.size(); ++I)
    if (!((WasActive >> I) & 1) && active(Config, static_cast<unsigned>(I)))
      Config.set(static_cast<unsigned>(I),
                 sampleParam(static_cast<unsigned>(I), Rng));
  canonicalize(Config);
}

Configuration ConfigSpace::crossover(const Configuration &A,
                                     const Configuration &B,
                                     support::Rng &Rng) const {
  Configuration Child;
  crossover(A, B, Rng, Child);
  return Child;
}

void ConfigSpace::crossover(const Configuration &A, const Configuration &B,
                            support::Rng &Rng, Configuration &Child) const {
  assert(A.size() == Params.size() && B.size() == Params.size() &&
         "configuration/space mismatch");
  assert(&Child != &A && &Child != &B && "crossover child aliases a parent");
  std::vector<double> &V = Child.values();
  V.resize(Params.size());
  for (size_t I = 0; I != Params.size(); ++I)
    V[I] = Rng.chance(0.5) ? A.real(static_cast<unsigned>(I))
                           : B.real(static_cast<unsigned>(I));
  canonicalize(Child);
}

void ConfigSpace::repair(Configuration &Config) const {
  assert(Config.size() == Params.size() && "configuration/space mismatch");
  for (size_t I = 0; I != Params.size(); ++I) {
    const ParamSpec &P = Params[I];
    double V = Config.real(static_cast<unsigned>(I));
    if (P.Kind != ParamKind::Real)
      V = std::round(V);
    Config.set(static_cast<unsigned>(I), std::clamp(V, P.Min, P.Max));
  }
  canonicalize(Config);
}

double ConfigSpace::searchSpaceLog10(double RealResolution) const {
  double Log10 = 0.0;
  for (const ParamSpec &P : Params) {
    switch (P.Kind) {
    case ParamKind::Categorical:
      Log10 += std::log10(static_cast<double>(P.Cardinality));
      break;
    case ParamKind::Integer:
      Log10 += std::log10(P.Max - P.Min + 1.0);
      break;
    case ParamKind::Real:
      Log10 += std::log10(RealResolution);
      break;
    }
  }
  return Log10;
}

std::string Configuration::toString() const {
  std::ostringstream OS;
  OS.precision(17);
  for (size_t I = 0; I != Values.size(); ++I) {
    if (I)
      OS << ' ';
    OS << Values[I];
  }
  return OS.str();
}

bool Configuration::fromString(const std::string &Text, Configuration &Out) {
  std::istringstream IS(Text);
  std::vector<double> V;
  double X;
  while (IS >> X)
    V.push_back(X);
  if (!IS.eof())
    return false;
  Out = Configuration(std::move(V));
  return true;
}
