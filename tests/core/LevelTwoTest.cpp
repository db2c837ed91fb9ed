//===- tests/core/LevelTwoTest.cpp -------------------------------------------=//

#include "benchmarks/BinPackingBenchmark.h"
#include "core/Labeling.h"
#include "core/LevelTwo.h"

#include <gtest/gtest.h>

#include <set>

using namespace pbt;
using namespace pbt::core;

namespace {

TEST(LevelTwoTest, SubsetEnumerationCountsMatchFormula) {
  // (z+1)^u - 1 subsets for u properties with z levels each.
  runtime::FeatureIndex FourByThree(
      {{"a", 3}, {"b", 3}, {"c", 3}, {"d", 3}});
  EXPECT_EQ(enumerateFeatureSubsets(FourByThree).size(), 255u);
  runtime::FeatureIndex ThreeByThree({{"a", 3}, {"b", 3}, {"c", 3}});
  EXPECT_EQ(enumerateFeatureSubsets(ThreeByThree).size(), 63u);
  runtime::FeatureIndex OneByTwo({{"a", 2}});
  EXPECT_EQ(enumerateFeatureSubsets(OneByTwo).size(), 2u);
}

TEST(LevelTwoTest, SubsetsUseOneLevelPerProperty) {
  runtime::FeatureIndex Index({{"a", 3}, {"b", 3}});
  for (const auto &Subset : enumerateFeatureSubsets(Index)) {
    EXPECT_FALSE(Subset.empty());
    std::set<unsigned> Properties;
    for (unsigned Flat : Subset)
      EXPECT_TRUE(Properties.insert(Index.propertyOf(Flat)).second)
          << "a property may appear at only one level";
  }
}

TEST(LevelTwoTest, CostMatrixZeroDiagonalForTimeOnly) {
  // Two landmarks, two inputs, each fastest under its own landmark.
  linalg::Matrix Time(2, 2), Acc(2, 2, 1.0);
  Time.at(0, 0) = 1;
  Time.at(0, 1) = 5;
  Time.at(1, 0) = 7;
  Time.at(1, 1) = 2;
  std::vector<size_t> Rows{0, 1};
  std::vector<unsigned> Labels{0, 1};
  ml::CostMatrix C =
      buildCostMatrix(Time, Acc, Rows, Labels, 2, std::nullopt, 0.5);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 5.0);
}

TEST(LevelTwoTest, CostMatrixAddsAccuracyPenalty) {
  linalg::Matrix Time(2, 2), Acc(2, 2, 1.0);
  Time.at(0, 0) = 1;
  Time.at(0, 1) = 5;
  Time.at(1, 0) = 7;
  Time.at(1, 1) = 2;
  Acc.at(0, 1) = 0.1; // landmark 1 fails accuracy on input 0
  std::vector<size_t> Rows{0, 1};
  std::vector<unsigned> Labels{0, 1};
  runtime::AccuracySpec Spec{0.9, 0.95};
  ml::CostMatrix C = buildCostMatrix(Time, Acc, Rows, Labels, 2, Spec, 0.5);
  // C(0,1) = eta * Ca(0,1) * maxCp(0) + Cp(0,1) = 0.5 * 1 * 4 + 4 = 6.
  EXPECT_DOUBLE_EQ(C.at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 5.0);
}

TEST(LevelTwoTest, EtaZeroDropsAccuracyPenalty) {
  linalg::Matrix Time(1, 2), Acc(1, 2, 1.0);
  Time.at(0, 0) = 1;
  Time.at(0, 1) = 3;
  Acc.at(0, 1) = 0.0;
  runtime::AccuracySpec Spec{0.9, 0.95};
  ml::CostMatrix C0 =
      buildCostMatrix(Time, Acc, {0}, {0}, 2, Spec, /*Eta=*/0.0);
  ml::CostMatrix C1 =
      buildCostMatrix(Time, Acc, {0}, {0}, 2, Spec, /*Eta=*/1.0);
  EXPECT_DOUBLE_EQ(C0.at(0, 1), 2.0);
  EXPECT_GT(C1.at(0, 1), C0.at(0, 1));
}

/// Full Level 1 + Level 2 on a small binpacking instance.
class LevelTwoPipelineTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    bench::BinPackingBenchmark::Options BO;
    BO.NumInputs = 40;
    BO.MinItems = 30;
    BO.MaxItems = 120;
    BO.Seed = 8;
    Program = new bench::BinPackingBenchmark(BO);
    for (size_t I = 0; I != 30; ++I)
      TrainRows.push_back(I);
    LevelOneOptions O1;
    O1.NumLandmarks = 5;
    O1.Seed = 14;
    O1.Tuner.PopulationSize = 8;
    O1.Tuner.Generations = 6;
    L1 = new LevelOneResult(runLevelOne(*Program, TrainRows, O1));
    LevelTwoOptions O2;
    O2.CVFolds = 3;
    L2 = new LevelTwoResult(runLevelTwo(*Program, *L1, TrainRows, O2));
  }
  static void TearDownTestSuite() {
    delete L2;
    delete L1;
    delete Program;
    L2 = nullptr;
    L1 = nullptr;
    Program = nullptr;
    TrainRows.clear();
  }

  static bench::BinPackingBenchmark *Program;
  static std::vector<size_t> TrainRows;
  static LevelOneResult *L1;
  static LevelTwoResult *L2;
};

bench::BinPackingBenchmark *LevelTwoPipelineTest::Program = nullptr;
std::vector<size_t> LevelTwoPipelineTest::TrainRows;
LevelOneResult *LevelTwoPipelineTest::L1 = nullptr;
LevelTwoResult *LevelTwoPipelineTest::L2 = nullptr;

TEST_F(LevelTwoPipelineTest, LabelsMatchTheLabelingRule) {
  std::vector<unsigned> All =
      labelAllRows(L1->Time, L1->Acc, Program->accuracy());
  std::vector<unsigned> Expected;
  for (size_t Row : TrainRows)
    Expected.push_back(All[Row]);
  EXPECT_EQ(L2->TrainLabels, Expected);
}

TEST_F(LevelTwoPipelineTest, ZooHasAllFamilies) {
  // 4 properties x 3 levels -> 255 trees, + static-best + max-apriori +
  // 2 incremental.
  EXPECT_EQ(L2->Candidates.size(), 259u);
  bool SawMaxApriori = false, SawIncremental = false;
  for (const CandidateScore &S : L2->Candidates) {
    SawMaxApriori |= S.Name == "max-apriori";
    SawIncremental |= S.Name.rfind("incremental", 0) == 0;
    EXPECT_GT(S.Objective + 1e-12, S.ObjectiveNoFeat)
        << "feature cost can only add";
  }
  EXPECT_TRUE(SawMaxApriori);
  EXPECT_TRUE(SawIncremental);
}

TEST_F(LevelTwoPipelineTest, ProductionClassifierPredictsValidLandmarks) {
  ASSERT_NE(L2->Production, nullptr);
  for (size_t Row = 0; Row != Program->numInputs(); ++Row) {
    FeatureProbe Probe = probeFromTable(L1->Features, L1->ExtractCosts, Row);
    unsigned Pred = L2->Production->classify(Probe);
    EXPECT_LT(Pred, L1->Landmarks.size());
  }
}

TEST_F(LevelTwoPipelineTest, SelectedCandidateIsRecorded) {
  bool Found = false;
  for (const CandidateScore &S : L2->Candidates)
    if (S.Name == L2->SelectedName)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST_F(LevelTwoPipelineTest, SelectedBeatsOrMatchesOtherValidCandidates) {
  double SelectedObjective = 0.0;
  for (const CandidateScore &S : L2->Candidates)
    if (S.Name == L2->SelectedName)
      SelectedObjective = S.Objective;
  for (const CandidateScore &S : L2->Candidates)
    if (S.Valid)
      EXPECT_LE(SelectedObjective, S.Objective + 1e-9);
}

TEST_F(LevelTwoPipelineTest, RefinementMoveFractionInUnitRange) {
  EXPECT_GE(L2->RefinementMoveFraction, 0.0);
  EXPECT_LE(L2->RefinementMoveFraction, 1.0);
}

} // namespace
