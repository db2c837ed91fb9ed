//===- tests/core/LevelOneTest.cpp -------------------------------------------=//

#include "benchmarks/BinPackingBenchmark.h"
#include "core/LevelOne.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace pbt;
using namespace pbt::core;

namespace {

/// BinPacking is the cheapest benchmark to drive Level 1 end to end.
class LevelOneTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    bench::BinPackingBenchmark::Options BO;
    BO.NumInputs = 40;
    BO.MinItems = 30;
    BO.MaxItems = 120;
    BO.Seed = 7;
    Program = new bench::BinPackingBenchmark(BO);
    for (size_t I = 0; I != 30; ++I)
      TrainRows.push_back(I);
    LevelOneOptions O;
    O.NumLandmarks = 5;
    O.Seed = 13;
    O.Tuner.PopulationSize = 8;
    O.Tuner.Generations = 6;
    Result = new LevelOneResult(runLevelOne(*Program, TrainRows, O));
  }
  static void TearDownTestSuite() {
    delete Result;
    delete Program;
    Result = nullptr;
    Program = nullptr;
    TrainRows.clear();
  }

  static bench::BinPackingBenchmark *Program;
  static std::vector<size_t> TrainRows;
  static LevelOneResult *Result;
};

bench::BinPackingBenchmark *LevelOneTest::Program = nullptr;
std::vector<size_t> LevelOneTest::TrainRows;
LevelOneResult *LevelOneTest::Result = nullptr;

TEST_F(LevelOneTest, FeatureTablesCoverAllInputsAndFeatures) {
  EXPECT_EQ(Result->Features.rows(), 40u);
  EXPECT_EQ(Result->Features.cols(), Program->numMLFeatures());
  EXPECT_EQ(Result->ExtractCosts.rows(), 40u);
  for (size_t I = 0; I != Result->ExtractCosts.rows(); ++I)
    for (size_t J = 0; J != Result->ExtractCosts.cols(); ++J)
      EXPECT_GT(Result->ExtractCosts.at(I, J), 0.0)
          << "every extraction does work";
}

TEST_F(LevelOneTest, ClusteringAssignsEveryTrainInput) {
  EXPECT_EQ(Result->Clusters.Assignment.size(), TrainRows.size());
  for (unsigned A : Result->Clusters.Assignment)
    EXPECT_LT(A, Result->Landmarks.size());
}

TEST_F(LevelOneTest, RepresentativesAreTrainInputs) {
  std::set<size_t> Train(TrainRows.begin(), TrainRows.end());
  for (size_t Rep : Result->Representatives)
    EXPECT_TRUE(Train.count(Rep)) << "representative must be a train input";
}

TEST_F(LevelOneTest, RepresentativeIsNearestToItsCentroid) {
  // For each cluster, no member is strictly closer to the centroid than
  // the chosen representative.
  linalg::Matrix TrainF(TrainRows.size(), Result->Features.cols());
  for (size_t I = 0; I != TrainRows.size(); ++I)
    for (size_t J = 0; J != Result->Features.cols(); ++J)
      TrainF.at(I, J) = Result->Features.at(TrainRows[I], J);
  linalg::Matrix Norm = Result->Norm.transform(TrainF);
  auto Dist2 = [&](size_t Pos, unsigned C) {
    double Sum = 0.0;
    for (size_t J = 0; J != Norm.cols(); ++J) {
      double D = Norm.at(Pos, J) - Result->Clusters.Centroids.at(C, J);
      Sum += D * D;
    }
    return Sum;
  };
  for (unsigned C = 0; C != Result->Landmarks.size(); ++C) {
    size_t RepPos = 0;
    for (size_t I = 0; I != TrainRows.size(); ++I)
      if (TrainRows[I] == Result->Representatives[C])
        RepPos = I;
    double RepDist = Dist2(RepPos, C);
    for (size_t I = 0; I != TrainRows.size(); ++I)
      if (Result->Clusters.Assignment[I] == C)
        EXPECT_GE(Dist2(I, C), RepDist - 1e-9);
  }
}

TEST_F(LevelOneTest, MeasurementTablesAreComplete) {
  EXPECT_EQ(Result->Time.rows(), 40u);
  EXPECT_EQ(Result->Time.cols(), 5u);
  for (size_t I = 0; I != 40; ++I)
    for (size_t K = 0; K != 5; ++K) {
      EXPECT_GT(Result->Time.at(I, K), 0.0);
      EXPECT_GT(Result->Acc.at(I, K), 0.0);
      EXPECT_LE(Result->Acc.at(I, K), 1.0 + 1e-9);
    }
}

TEST_F(LevelOneTest, MeasurementsMatchDirectRuns) {
  // Spot-check: the table must agree with re-running the program.
  for (size_t I : {size_t(0), size_t(17), size_t(39)})
    for (unsigned K = 0; K != 5; ++K) {
      runtime::RunResult R = Program->runOnce(I, Result->Landmarks[K]);
      EXPECT_DOUBLE_EQ(Result->Time.at(I, K), R.TimeUnits);
      EXPECT_DOUBLE_EQ(Result->Acc.at(I, K), R.Accuracy);
    }
}

TEST_F(LevelOneTest, ParallelAndSequentialAgree) {
  LevelOneOptions O;
  O.NumLandmarks = 3;
  O.Seed = 13;
  O.Tuner.PopulationSize = 6;
  O.Tuner.Generations = 4;
  LevelOneResult Seq = runLevelOne(*Program, TrainRows, O);
  support::ThreadPool Pool(4);
  O.Pool = &Pool;
  LevelOneResult Par = runLevelOne(*Program, TrainRows, O);
  EXPECT_EQ(Seq.Representatives, Par.Representatives);
  for (size_t K = 0; K != Seq.Landmarks.size(); ++K)
    EXPECT_EQ(Seq.Landmarks[K], Par.Landmarks[K]);
  for (size_t I = 0; I != Seq.Time.rows(); ++I)
    for (size_t K = 0; K != Seq.Time.cols(); ++K)
      EXPECT_DOUBLE_EQ(Seq.Time.at(I, K), Par.Time.at(I, K));
}

TEST_F(LevelOneTest, LandmarkCountClampedToTrainSize) {
  LevelOneOptions O;
  O.NumLandmarks = 1000;
  O.Seed = 5;
  O.Tuner.PopulationSize = 4;
  O.Tuner.Generations = 2;
  std::vector<size_t> FewRows{0, 1, 2};
  LevelOneResult R = runLevelOne(*Program, FewRows, O);
  EXPECT_LE(R.Landmarks.size(), 3u);
}

// Tables handed in by the caller (the adaptive service's feature memo)
// stand in for Step 1's extraction without changing any result.
TEST_F(LevelOneTest, PrecomputedFeatureTablesMatchExtraction) {
  linalg::Matrix Values, Costs;
  extractAllFeatures(*Program, Values, Costs);
  LevelOneOptions O;
  O.NumLandmarks = 5;
  O.Seed = 13;
  O.Tuner.PopulationSize = 8;
  O.Tuner.Generations = 6;
  O.Features = &Values;
  O.ExtractCosts = &Costs;
  LevelOneResult R = runLevelOne(*Program, TrainRows, O);

  auto ExpectSame = [](const linalg::Matrix &A, const linalg::Matrix &B) {
    ASSERT_EQ(A.rows(), B.rows());
    ASSERT_EQ(A.cols(), B.cols());
    for (size_t I = 0; I != A.rows(); ++I)
      for (size_t J = 0; J != A.cols(); ++J)
        EXPECT_EQ(A.at(I, J), B.at(I, J)) << I << "," << J;
  };
  ExpectSame(R.Features, Result->Features);
  ExpectSame(R.ExtractCosts, Result->ExtractCosts);
  ExpectSame(R.Time, Result->Time);
  EXPECT_EQ(R.Representatives, Result->Representatives);
  EXPECT_EQ(R.Landmarks, Result->Landmarks);
}

} // namespace
