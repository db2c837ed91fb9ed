//===- tests/runtime/DriftMonitorTest.cpp ------------------------------------=//
//
// The two-window divergence test behind the adaptive serving loop:
// stationary traffic must stay quiet, each of the three signals (feature
// mean shift, cluster-histogram TV, decision-mix TV) must fire on its
// own, and the interval/cooldown/rebase mechanics must behave as
// documented.
//
//===----------------------------------------------------------------------===//

#include "runtime/DriftMonitor.h"

#include "support/Random.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace pbt;
using namespace pbt::runtime;

namespace {

constexpr unsigned kFeatures = 3;
constexpr unsigned kClusters = 2;
constexpr unsigned kDecisions = 2;

DriftMonitorOptions tightOptions() {
  DriftMonitorOptions O;
  O.Window = 32;
  O.MinSamples = 16;
  O.CheckInterval = 4;
  O.Cooldown = 16;
  O.MeanShiftThreshold = 2.0;
  O.ClusterTVThreshold = 0.45;
  O.DecisionTVThreshold = 0.45;
  return O;
}

DriftMonitor referenceMonitor() {
  DriftMonitor M(kFeatures, kClusters, kDecisions, tightOptions());
  // Reference: features ~ N(0, 1), both clusters and decisions 50/50.
  M.setReference({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}, {10.0, 10.0},
                 {10.0, 10.0});
  return M;
}

/// Feeds \p N stationary observations (drawn to match the reference) and
/// returns true when any of them flagged drift.
bool feedStationary(DriftMonitor &M, support::Rng &Rng, size_t N) {
  bool Flagged = false;
  for (size_t I = 0; I != N; ++I) {
    double F[kFeatures] = {Rng.gaussian(), Rng.gaussian(), Rng.gaussian()};
    Flagged |= M.observe(F, Rng.chance(0.5) ? 1u : 0u,
                         Rng.chance(0.5) ? 1u : 0u);
  }
  return Flagged;
}

TEST(DriftMonitorTest, StationaryTrafficStaysQuiet) {
  DriftMonitor M = referenceMonitor();
  support::Rng Rng(7);
  EXPECT_FALSE(feedStationary(M, Rng, 500));
  EXPECT_EQ(M.observations(), 500u);
  EXPECT_FALSE(M.lastSignal().Drifted);
}

TEST(DriftMonitorTest, FeatureMeanShiftFlags) {
  DriftMonitor M = referenceMonitor();
  support::Rng Rng(8);
  bool Flagged = false;
  for (size_t I = 0; I != 64 && !Flagged; ++I) {
    // Feature 1 jumps four reference sigmas; the rest stay put.
    double F[kFeatures] = {Rng.gaussian(), 4.0 + Rng.gaussian(),
                           Rng.gaussian()};
    Flagged = M.observe(F, Rng.chance(0.5) ? 1u : 0u,
                        Rng.chance(0.5) ? 1u : 0u);
  }
  ASSERT_TRUE(Flagged);
  EXPECT_TRUE(M.lastSignal().Drifted);
  EXPECT_EQ(M.lastSignal().MeanShiftFeature, 1u);
  EXPECT_GT(M.lastSignal().MeanShift, 2.0);
}

TEST(DriftMonitorTest, ClusterHistogramShiftFlags) {
  DriftMonitor M = referenceMonitor();
  support::Rng Rng(9);
  bool Flagged = false;
  for (size_t I = 0; I != 64 && !Flagged; ++I) {
    double F[kFeatures] = {Rng.gaussian(), Rng.gaussian(), Rng.gaussian()};
    // Every input suddenly lands in cluster 0 (reference: 50/50, TV 0.5).
    Flagged = M.observe(F, 0u, Rng.chance(0.5) ? 1u : 0u);
  }
  ASSERT_TRUE(Flagged);
  EXPECT_GT(M.lastSignal().ClusterTV, 0.45);
  EXPECT_LE(M.lastSignal().MeanShift, 2.0);
}

TEST(DriftMonitorTest, DecisionMixShiftFlags) {
  DriftMonitor M = referenceMonitor();
  support::Rng Rng(10);
  bool Flagged = false;
  for (size_t I = 0; I != 64 && !Flagged; ++I) {
    double F[kFeatures] = {Rng.gaussian(), Rng.gaussian(), Rng.gaussian()};
    Flagged = M.observe(F, Rng.chance(0.5) ? 1u : 0u, 1u);
  }
  ASSERT_TRUE(Flagged);
  EXPECT_GT(M.lastSignal().DecisionTV, 0.45);
}

TEST(DriftMonitorTest, NoTestBeforeMinSamplesAndOnlyOnTheInterval) {
  DriftMonitor M = referenceMonitor();
  // Massively drifted data, but fewer than MinSamples observations:
  // observe() must not test yet, and check() must stay quiet too.
  for (size_t I = 0; I != 15; ++I) {
    double F[kFeatures] = {50.0, 50.0, 50.0};
    EXPECT_FALSE(M.observe(F, 0u, 0u)) << "flagged before MinSamples";
  }
  EXPECT_FALSE(M.check().Drifted);
  // The 16th observation reaches MinSamples; the next interval boundary
  // (a multiple of CheckInterval = 4) runs the test and flags.
  double F[kFeatures] = {50.0, 50.0, 50.0};
  EXPECT_TRUE(M.observe(F, 0u, 0u));
}

TEST(DriftMonitorTest, RebaseToWindowAdoptsTheNewRegime) {
  DriftMonitor M = referenceMonitor();
  support::Rng Rng(11);
  // Drift into a new regime around mean 4.
  bool Flagged = false;
  for (size_t I = 0; I != 64 && !Flagged; ++I) {
    double F[kFeatures] = {4.0 + Rng.gaussian(), Rng.gaussian(),
                           Rng.gaussian()};
    Flagged = M.observe(F, 0u, 0u);
  }
  ASSERT_TRUE(Flagged);
  M.rebaseToWindow();
  EXPECT_EQ(M.windowFill(), 0u);
  // The same regime is now the null hypothesis: no more flags, even far
  // past the cooldown.
  bool Reflagged = false;
  for (size_t I = 0; I != 200; ++I) {
    double F[kFeatures] = {4.0 + Rng.gaussian(), Rng.gaussian(),
                           Rng.gaussian()};
    Reflagged |= M.observe(F, 0u, 0u);
  }
  EXPECT_FALSE(Reflagged) << "rebased monitor re-flagged its own reference";
}

TEST(DriftMonitorTest, CooldownSuppressesImmediateReflagging) {
  DriftMonitorOptions O = tightOptions();
  O.Cooldown = 1000;
  DriftMonitor M(kFeatures, kClusters, kDecisions, O);
  M.setReference({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}, {10.0, 10.0},
                 {10.0, 10.0});
  M.rebaseToWindow(); // arms the cooldown at observation 0
  bool Flagged = false;
  for (size_t I = 0; I != 500; ++I) {
    double F[kFeatures] = {50.0, 50.0, 50.0};
    Flagged |= M.observe(F, 0u, 0u);
  }
  EXPECT_FALSE(Flagged) << "flagged during cooldown";
  // check() ignores the cooldown by design (an explicit probe).
  EXPECT_TRUE(M.check().Drifted);
}

/// The live window as the test fed it: a copy of the monitor's rings,
/// slot for slot.
struct WindowCopy {
  size_t Window = 0;
  unsigned NumFeatures = 0;
  std::vector<std::vector<double>> Rows; // by ring slot
  std::vector<unsigned> Clusters, Decisions;
  size_t Fill = 0, Next = 0;

  WindowCopy(size_t Window, unsigned NumFeatures)
      : Window(Window), NumFeatures(NumFeatures), Rows(Window),
        Clusters(Window, 0), Decisions(Window, 0) {}

  void clear() { Fill = Next = 0; }

  /// Feeds one observation to \p M and to the copy. Feature magnitudes
  /// span twelve decades, so a sum in any other order rounds otherwise.
  void feed(DriftMonitor &M, support::Rng &Rng, unsigned NumClusters,
            unsigned NumDecisions) {
    std::vector<double> Row(NumFeatures);
    for (double &V : Row)
      V = Rng.gaussian(1.0, 2.0) * std::pow(10.0, Rng.uniform(-6.0, 6.0));
    unsigned C = static_cast<unsigned>(Rng.index(NumClusters));
    unsigned D = static_cast<unsigned>(Rng.index(NumDecisions));
    M.observe(Row.data(), C, D);
    Rows[Next] = Row;
    Clusters[Next] = C;
    Decisions[Next] = D;
    Next = (Next + 1) % Window;
    Fill = std::min(Fill + 1, Window);
  }

  /// Feature \p F over the filled slots, in ring-slot order.
  std::vector<double> column(unsigned F) const {
    std::vector<double> Col;
    for (size_t I = 0; I != Fill; ++I)
      Col.push_back(Rows[I][F]);
    return Col;
  }

  std::vector<double> histogram(const std::vector<unsigned> &Ring,
                                unsigned Arity) const {
    std::vector<double> H(Arity, 0.0);
    for (size_t I = 0; I != Fill; ++I)
      H[Ring[I]] += 1.0;
    return H;
  }
};

/// check()'s score of one feature, the monitor's own formula.
double standardizedShift(double Mean, double RefMean, double RefVar) {
  double Denom =
      std::sqrt(std::max(RefVar, 0.0)) + 1e-9 + 1e-6 * std::abs(RefMean);
  return std::abs(Mean - RefMean) / Denom;
}

/// Expects \p M.check() to equal, to the bit, the divergence test
/// recomputed from support::mean over each column of \p W. Then, for
/// each feature in turn, a reference under which that feature's shift is
/// the largest pins the feature's own mean through MeanShift.
void expectCheckMatchesColumns(DriftMonitor &M, const WindowCopy &W,
                               const std::vector<double> &RefMean,
                               const std::vector<double> &RefVar,
                               const std::vector<double> &RefClusters,
                               const std::vector<double> &RefDecisions) {
  const unsigned NF = W.NumFeatures;
  M.setReference(RefMean, RefVar, RefClusters, RefDecisions);
  DriftSignal Want;
  for (unsigned F = 0; F != NF; ++F) {
    double Shift =
        standardizedShift(support::mean(W.column(F)), RefMean[F], RefVar[F]);
    if (Shift > Want.MeanShift) {
      Want.MeanShift = Shift;
      Want.MeanShiftFeature = F;
    }
  }
  Want.ClusterTV =
      totalVariation(W.histogram(W.Clusters, M.numClusters()), RefClusters);
  Want.DecisionTV =
      totalVariation(W.histogram(W.Decisions, M.numDecisions()), RefDecisions);
  DriftSignal Got = M.check();
  EXPECT_EQ(Got.MeanShift, Want.MeanShift);
  EXPECT_EQ(Got.MeanShiftFeature, Want.MeanShiftFeature);
  EXPECT_EQ(Got.ClusterTV, Want.ClusterTV);
  EXPECT_EQ(Got.DecisionTV, Want.DecisionTV);
  EXPECT_GT(Want.ClusterTV, 0.0);
  EXPECT_GT(Want.DecisionTV, 0.0);

  for (unsigned T = 0; T != NF; ++T) {
    // Reference mean 0 everywhere; a zero variance on T alone and a huge
    // one elsewhere make T's shift |mean| / 1e-9, the largest.
    std::vector<double> Zero(NF, 0.0), Var(NF, 1e300);
    Var[T] = 0.0;
    M.setReference(Zero, Var, RefClusters, RefDecisions);
    DriftSignal Probe = M.check();
    EXPECT_EQ(Probe.MeanShiftFeature, T);
    EXPECT_EQ(Probe.MeanShift,
              standardizedShift(support::mean(W.column(T)), 0.0, 0.0))
        << "feature " << T;
  }
}

TEST(DriftMonitorTest, CheckMatchesColumnwiseReference) {
  // check() sums each feature's mean in one row-major pass; its scores
  // must equal, bit for bit, support::mean over each ring column in
  // ring-slot order. Three windows: partly filled, wrapped past its end,
  // and refilled after rebaseToWindow() adopted the wrapped one, whose
  // variances must be support::variance's to the bit.
  constexpr unsigned NF = 12, NC = 3, ND = 4;
  DriftMonitorOptions O;
  O.Window = 64;
  O.MinSamples = 8;
  O.CheckInterval = 1u << 30; // the test runs every check itself
  O.Cooldown = 0;
  DriftMonitor M(NF, NC, ND, O);
  const std::vector<double> Means(NF, 0.5), Vars(NF, 4.0);
  const std::vector<double> RefC = {3.0, 1.0, 1.0},
                            RefD = {1.0, 2.0, 3.0, 4.0};
  M.setReference(Means, Vars, RefC, RefD);
  WindowCopy W(O.Window, NF);
  support::Rng Rng(0xC0C0A);

  for (size_t I = 0; I != 40; ++I)
    W.feed(M, Rng, NC, ND);
  ASSERT_EQ(M.windowFill(), 40u);
  {
    SCOPED_TRACE("partly filled");
    expectCheckMatchesColumns(M, W, Means, Vars, RefC, RefD);
  }

  for (size_t I = 0; I != 150; ++I)
    W.feed(M, Rng, NC, ND);
  ASSERT_EQ(M.windowFill(), O.Window);
  ASSERT_NE(W.Next, 0u) << "the window must have wrapped mid-ring";
  {
    SCOPED_TRACE("wrapped");
    expectCheckMatchesColumns(M, W, Means, Vars, RefC, RefD);
  }

  // rebaseToWindow() adopts the wrapped window as the reference.
  M.setReference(Means, Vars, RefC, RefD);
  M.rebaseToWindow();
  ASSERT_EQ(M.windowFill(), 0u);
  for (unsigned F = 0; F != NF; ++F) {
    EXPECT_EQ(M.referenceMean()[F], support::mean(W.column(F)))
        << "feature " << F;
    EXPECT_EQ(M.referenceVariance()[F], support::variance(W.column(F)))
        << "feature " << F;
  }
  std::vector<double> AdoptedMean = M.referenceMean(),
                      AdoptedVar = M.referenceVariance();
  std::vector<double> AdoptedC = W.histogram(W.Clusters, NC),
                      AdoptedD = W.histogram(W.Decisions, ND);

  W.clear();
  for (size_t I = 0; I != 50; ++I)
    W.feed(M, Rng, NC, ND);
  {
    SCOPED_TRACE("refilled after rebaseToWindow");
    // The adopted reference itself first, then the probes.
    DriftSignal Got = M.check();
    DriftSignal Want;
    for (unsigned F = 0; F != NF; ++F) {
      double Shift = standardizedShift(support::mean(W.column(F)),
                                       AdoptedMean[F], AdoptedVar[F]);
      if (Shift > Want.MeanShift) {
        Want.MeanShift = Shift;
        Want.MeanShiftFeature = F;
      }
    }
    EXPECT_EQ(Got.MeanShift, Want.MeanShift);
    EXPECT_EQ(Got.MeanShiftFeature, Want.MeanShiftFeature);
    EXPECT_EQ(Got.ClusterTV,
              totalVariation(W.histogram(W.Clusters, NC), AdoptedC));
    EXPECT_EQ(Got.DecisionTV,
              totalVariation(W.histogram(W.Decisions, ND), AdoptedD));
    expectCheckMatchesColumns(M, W, AdoptedMean, AdoptedVar, AdoptedC,
                              AdoptedD);
  }
}

TEST(DriftMonitorTest, TotalVariationBasics) {
  EXPECT_DOUBLE_EQ(totalVariation({1.0, 1.0}, {1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(totalVariation({2.0, 0.0}, {0.0, 2.0}), 1.0);
  EXPECT_NEAR(totalVariation({3.0, 1.0}, {1.0, 1.0}), 0.25, 1e-12);
  // All-zero histograms are treated as uniform.
  EXPECT_DOUBLE_EQ(totalVariation({0.0, 0.0}, {5.0, 5.0}), 0.0);
}

} // namespace
