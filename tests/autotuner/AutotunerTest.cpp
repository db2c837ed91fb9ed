//===- tests/autotuner/AutotunerTest.cpp -------------------------------------=//

#include "autotuner/EvolutionaryAutotuner.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace pbt;
using namespace pbt::autotuner;
using namespace pbt::runtime;

namespace {

/// A synthetic tunable program with a known optimum: cost is a quadratic
/// bowl over (x, y) plus a categorical penalty; accuracy (when enabled)
/// requires enough "iterations".
class QuadraticProgram : public TunableProgram {
public:
  explicit QuadraticProgram(bool WithAccuracy) : WithAccuracy(WithAccuracy) {
    XParam = Space_.addReal("x", -10.0, 10.0);
    YParam = Space_.addReal("y", -10.0, 10.0);
    AlgoParam = Space_.addCategorical("algo", 4);
    ItersParam = Space_.addInteger("iters", 1, 100, /*LogScale=*/true);
  }

  std::string name() const override { return "quadratic"; }
  const ConfigSpace &space() const override { return Space_; }
  std::vector<FeatureInfo> features() const override { return {{"f", 1}}; }
  std::optional<AccuracySpec> accuracy() const override {
    if (WithAccuracy)
      return AccuracySpec{0.9, 0.95};
    return std::nullopt;
  }
  size_t numInputs() const override { return 1; }
  double extractFeature(size_t, unsigned, unsigned,
                        support::CostCounter &) const override {
    return 0.0;
  }
  RunResult run(size_t, const Configuration &C,
                support::CostCounter &Cost) const override {
    double X = C.real(XParam), Y = C.real(YParam);
    double AlgoPenalty = C.category(AlgoParam) == 2 ? 0.0 : 50.0;
    double Iters = static_cast<double>(C.integer(ItersParam));
    double Units = 10.0 + (X - 3.0) * (X - 3.0) + (Y + 1.0) * (Y + 1.0) +
                   AlgoPenalty + Iters;
    Cost.addOther(Units);
    RunResult R;
    R.TimeUnits = Units;
    R.Accuracy = 1.0 - std::exp(-Iters / 10.0); // needs ~23 iters for 0.9
    return R;
  }

  unsigned XParam, YParam, AlgoParam, ItersParam;

private:
  ConfigSpace Space_;
  bool WithAccuracy;
};

TEST(OutcomeBetterTest, TimeOnlyComparesTime) {
  RunResult A{5.0, 1.0}, B{7.0, 1.0};
  EXPECT_TRUE(outcomeBetter(A, B, std::nullopt));
  EXPECT_FALSE(outcomeBetter(B, A, std::nullopt));
}

TEST(OutcomeBetterTest, MeetingAccuracyBeatsFaster) {
  AccuracySpec Spec{0.9, 0.95};
  RunResult Meets{100.0, 0.95}, FastButBad{1.0, 0.5};
  EXPECT_TRUE(outcomeBetter(Meets, FastButBad, Spec));
  EXPECT_FALSE(outcomeBetter(FastButBad, Meets, Spec));
}

TEST(OutcomeBetterTest, BothMeetFasterWins) {
  AccuracySpec Spec{0.9, 0.95};
  RunResult A{5.0, 0.92}, B{7.0, 0.99};
  EXPECT_TRUE(outcomeBetter(A, B, Spec));
}

TEST(OutcomeBetterTest, NeitherMeetsMoreAccurateWins) {
  AccuracySpec Spec{0.9, 0.95};
  RunResult A{100.0, 0.8}, B{1.0, 0.5};
  EXPECT_TRUE(outcomeBetter(A, B, Spec));
}

TEST(AutotunerTest, FindsNearOptimalQuadratic) {
  QuadraticProgram P(/*WithAccuracy=*/false);
  AutotunerOptions O;
  O.PopulationSize = 30;
  O.Generations = 60;
  O.Seed = 1;
  EvolutionaryAutotuner Tuner(O);
  TuneResult R = Tuner.tune(P, 0);
  // Optimum: x=3, y=-1, algo=2, iters=1 -> cost 11. Allow slack.
  EXPECT_LT(R.BestOutcome.TimeUnits, 20.0);
  EXPECT_EQ(R.Best.category(P.AlgoParam), 2u);
  EXPECT_NEAR(R.Best.real(P.XParam), 3.0, 1.5);
  EXPECT_NEAR(R.Best.real(P.YParam), -1.0, 1.5);
}

TEST(AutotunerTest, RespectsAccuracyTarget) {
  QuadraticProgram P(/*WithAccuracy=*/true);
  AutotunerOptions O;
  O.PopulationSize = 30;
  O.Generations = 60;
  O.Seed = 2;
  EvolutionaryAutotuner Tuner(O);
  TuneResult R = Tuner.tune(P, 0);
  // Must pick enough iterations to reach accuracy 0.9 even though fewer
  // iterations would be faster.
  EXPECT_GE(R.BestOutcome.Accuracy, 0.9);
  EXPECT_GE(R.Best.integer(P.ItersParam), 20);
}

TEST(AutotunerTest, DeterministicForFixedSeed) {
  QuadraticProgram P(false);
  AutotunerOptions O;
  O.PopulationSize = 12;
  O.Generations = 10;
  O.Seed = 3;
  EvolutionaryAutotuner Tuner(O);
  TuneResult A = Tuner.tune(P, 0);
  TuneResult B = Tuner.tune(P, 0);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_DOUBLE_EQ(A.BestOutcome.TimeUnits, B.BestOutcome.TimeUnits);
}

TEST(AutotunerTest, HistoryIsMonotoneNonIncreasing) {
  QuadraticProgram P(false);
  AutotunerOptions O;
  O.PopulationSize = 16;
  O.Generations = 20;
  O.Seed = 4;
  EvolutionaryAutotuner Tuner(O);
  TuneResult R = Tuner.tune(P, 0);
  ASSERT_EQ(R.History.size(), 20u);
  for (size_t I = 1; I != R.History.size(); ++I)
    EXPECT_LE(R.History[I], R.History[I - 1] + 1e-12)
        << "elitism guarantees monotone best-so-far";
}

TEST(AutotunerTest, ImprovesOverDefaultConfig) {
  QuadraticProgram P(false);
  double DefaultCost = P.runOnce(0, P.space().defaultConfig()).TimeUnits;
  AutotunerOptions O;
  O.PopulationSize = 16;
  O.Generations = 25;
  O.Seed = 5;
  EvolutionaryAutotuner Tuner(O);
  TuneResult R = Tuner.tune(P, 0);
  EXPECT_LE(R.BestOutcome.TimeUnits, DefaultCost);
}

} // namespace
