//===- ml/IncrementalBayes.cpp ----------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "ml/IncrementalBayes.h"

#include "ml/CompiledArena.h"
#include "serialize/TextFormat.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace pbt;
using namespace pbt::ml;

void IncrementalBayes::fit(const linalg::Matrix &X,
                           const std::vector<unsigned> &Y,
                           unsigned NumClassesIn,
                           const std::vector<unsigned> &FeatureOrder,
                           const IncrementalBayesOptions &Options,
                           const std::vector<size_t> &SampleIndices) {
  assert(X.rows() == Y.size() && "row/label count mismatch");
  assert(!FeatureOrder.empty() && "need at least one feature");
  NumClasses = NumClassesIn;
  Bins = std::max(2u, Options.Bins);
  PosteriorThreshold = Options.PosteriorThreshold;
  Order = FeatureOrder;

  std::vector<size_t> Indices;
  if (SampleIndices.empty()) {
    Indices.resize(X.rows());
    std::iota(Indices.begin(), Indices.end(), 0);
  } else {
    Indices = SampleIndices;
  }
  assert(!Indices.empty() && "cannot train on zero samples");

  // Priors with Laplace smoothing.
  Priors.assign(NumClasses, Options.Smoothing);
  for (size_t I : Indices) {
    assert(Y[I] < NumClasses && "label out of range");
    Priors[Y[I]] += 1.0;
  }
  double PriorTotal =
      static_cast<double>(Indices.size()) + Options.Smoothing * NumClasses;
  for (double &P : Priors)
    P /= PriorTotal;

  Edges.assign(Order.size(), {});
  LogProb.assign(Order.size(), {});
  std::vector<double> Values(Indices.size());

  for (size_t Pos = 0; Pos != Order.size(); ++Pos) {
    unsigned F = Order[Pos];
    assert(F < X.cols() && "feature index out of range");
    for (size_t I = 0; I != Indices.size(); ++I)
      Values[I] = X.at(Indices[I], F);
    std::vector<double> SortedValues = Values;
    std::sort(SortedValues.begin(), SortedValues.end());

    // Quantile bin edges; duplicates collapse regions harmlessly.
    std::vector<double> E(Bins - 1);
    for (unsigned B = 0; B + 1 < Bins; ++B) {
      double Q = static_cast<double>(B + 1) / Bins;
      double PosF = Q * static_cast<double>(SortedValues.size() - 1);
      size_t Lo = static_cast<size_t>(PosF);
      size_t Hi = std::min(Lo + 1, SortedValues.size() - 1);
      double Frac = PosF - static_cast<double>(Lo);
      E[B] = SortedValues[Lo] * (1.0 - Frac) + SortedValues[Hi] * Frac;
    }
    Edges[Pos] = std::move(E);

    // Class-conditional region counts.
    std::vector<double> Counts(static_cast<size_t>(NumClasses) * Bins,
                               Options.Smoothing);
    for (size_t I = 0; I != Indices.size(); ++I) {
      unsigned R = regionOf(static_cast<unsigned>(Pos), Values[I]);
      Counts[static_cast<size_t>(Y[Indices[I]]) * Bins + R] += 1.0;
    }
    std::vector<double> LP(Counts.size());
    for (unsigned C = 0; C != NumClasses; ++C) {
      const double *Row = Counts.data() + static_cast<size_t>(C) * Bins;
      double Total = 0.0;
      for (unsigned B = 0; B != Bins; ++B)
        Total += Row[B];
      // A class holds only a few training rows, so neighbouring regions
      // mostly share one count; an equal count repeats the same log.
      for (unsigned B = 0; B != Bins; ++B)
        LP[static_cast<size_t>(C) * Bins + B] =
            B != 0 && Row[B] == Row[B - 1]
                ? LP[static_cast<size_t>(C) * Bins + B - 1]
                : std::log(Row[B] / Total);
    }
    LogProb[Pos] = std::move(LP);
  }
}

IncrementalBayes
IncrementalBayes::withOrder(const std::vector<unsigned> &NewOrder) const {
  assert(!NewOrder.empty() && "need at least one feature");
  IncrementalBayes Out;
  Out.Order = NewOrder;
  Out.Priors = Priors;
  Out.NumClasses = NumClasses;
  Out.Bins = Bins;
  Out.PosteriorThreshold = PosteriorThreshold;
  Out.Edges.reserve(NewOrder.size());
  Out.LogProb.reserve(NewOrder.size());
  for (unsigned F : NewOrder) {
    size_t Pos = static_cast<size_t>(
        std::find(Order.begin(), Order.end(), F) - Order.begin());
    assert(Pos != Order.size() && "feature not in this model's order");
    Out.Edges.push_back(Edges[Pos]);
    Out.LogProb.push_back(LogProb[Pos]);
  }
  return Out;
}

unsigned IncrementalBayes::regionOf(unsigned OrderPos, double Value) const {
  const std::vector<double> &E = Edges[OrderPos];
  // Linear scan is fine: Bins is small (<= ~16).
  unsigned R = 0;
  while (R < E.size() && Value > E[R])
    ++R;
  return R;
}

IncrementalPrediction
IncrementalBayes::predict(const std::vector<double> &Row) const {
  return predictWith([&](unsigned F) {
    assert(F < Row.size() && "feature index out of range");
    return Row[F];
  });
}

void IncrementalBayes::compileInto(CompiledArena &A,
                                   CompiledClassifier &Out) const {
  assert(trained() && "compileInto() before fit()/loadFrom()");
  Out.Kind = CompiledKind::Bayes;
  Out.OrderLen = static_cast<uint32_t>(Order.size());
  Out.Bins = Bins;
  Out.Classes = NumClasses;
  Out.PosteriorThreshold = PosteriorThreshold;

  std::vector<int32_t> O(Order.begin(), Order.end());
  Out.OrderBase = A.appendI32(O.data(), O.size());

  Out.EdgeBase = static_cast<uint32_t>(A.F64.size());
  for (const std::vector<double> &E : Edges) {
    assert(E.size() == Bins - 1 && "edge table shape mismatch");
    A.appendF64(E.data(), E.size());
  }
  Out.LogProbBase = static_cast<uint32_t>(A.F64.size());
  for (const std::vector<double> &LP : LogProb) {
    assert(LP.size() == static_cast<size_t>(NumClasses) * Bins &&
           "log-prob table shape mismatch");
    A.appendF64(LP.data(), LP.size());
  }
  // predictWith starts from log(max(prior, 1e-300)); precompute the exact
  // same values once so the per-decision loop begins with plain loads.
  std::vector<double> LogPriors(Priors.size());
  for (size_t C = 0; C != Priors.size(); ++C)
    LogPriors[C] = std::log(std::max(Priors[C], 1e-300));
  Out.LogPriorBase = A.appendF64(LogPriors.data(), LogPriors.size());
}

void IncrementalBayes::saveTo(serialize::Writer &W) const {
  W.key("incremental-bayes")
      .u64(NumClasses)
      .u64(Bins)
      .f(PosteriorThreshold)
      .u64(Order.size())
      .end();
  std::vector<uint64_t> O(Order.begin(), Order.end());
  W.u64s("order", O);
  for (const std::vector<double> &E : Edges)
    W.doubles("edges", E);
  for (const std::vector<double> &LP : LogProb)
    W.doubles("logprob", LP);
  W.doubles("priors", Priors);
}

bool IncrementalBayes::loadFrom(serialize::Reader &R, unsigned NumFeatures) {
  if (!R.expect("incremental-bayes"))
    return false;
  uint64_t Classes = R.count(1u << 20);
  uint64_t B = R.count(1u << 12);
  double Threshold = R.f();
  uint64_t Len = R.count(1u << 20);
  if (!R.endLine())
    return false;
  if (B < 2)
    return R.fail("incremental-bayes needs at least 2 bins");
  if (Classes == 0 || Len == 0)
    return R.fail("incremental-bayes needs classes and ordered features");
  std::vector<uint64_t> O;
  if (!R.u64s("order", O, Len))
    return false;
  if (O.size() != Len)
    return R.fail("feature order length mismatch");
  for (uint64_t F : O)
    if (F >= NumFeatures)
      return R.fail("ordered feature index out of range");
  std::vector<std::vector<double>> E(Len), LP(Len);
  for (uint64_t I = 0; I != Len && R.ok(); ++I) {
    if (!R.doubles("edges", E[I], B - 1))
      return false;
    if (E[I].size() != B - 1)
      return R.fail("edge count mismatch");
  }
  for (uint64_t I = 0; I != Len && R.ok(); ++I) {
    if (!R.doubles("logprob", LP[I], Classes * B))
      return false;
    if (LP[I].size() != Classes * B)
      return R.fail("log-prob table size mismatch");
  }
  std::vector<double> P;
  if (!R.doubles("priors", P, Classes))
    return false;
  if (P.size() != Classes)
    return R.fail("prior count mismatch");
  NumClasses = static_cast<unsigned>(Classes);
  Bins = static_cast<unsigned>(B);
  PosteriorThreshold = Threshold;
  Order.assign(O.begin(), O.end());
  Edges = std::move(E);
  LogProb = std::move(LP);
  Priors = std::move(P);
  return true;
}
