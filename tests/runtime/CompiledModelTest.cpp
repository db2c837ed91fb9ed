//===- tests/runtime/CompiledModelTest.cpp -----------------------------------=//
//
// The compiled inference path must be a faithful lowering: for every
// classifier kind the paper's Level 2 can select (constant, max-apriori,
// subset tree, incremental Bayes, one-level nearest-centroid), a
// CompiledModel decision over the same feature values must equal the
// interpreted InputClassifier::classify() decision -- and examine exactly
// the same features. The suite drives every kind over many random rows,
// directly and after a serialize -> load -> compile round trip.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledModel.h"

#include "core/Classifiers.h"
#include "serialize/ModelIO.h"
#include "support/AlignedAlloc.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

using namespace pbt;

namespace {

constexpr unsigned kNumFlat = 9;
constexpr unsigned kNumClasses = 4;
constexpr size_t kNumRows = 160;

/// A deterministic synthetic training table whose labels correlate with
/// several features, so trees and Bayes models grow real structure.
struct Table {
  linalg::Matrix X;
  std::vector<unsigned> Y;
};

Table makeTable(uint64_t Seed) {
  Table T;
  support::Rng Rng(Seed);
  T.X = linalg::Matrix(kNumRows, kNumFlat);
  T.Y.resize(kNumRows);
  for (size_t I = 0; I != kNumRows; ++I) {
    for (size_t J = 0; J != kNumFlat; ++J)
      T.X.at(I, J) = Rng.uniform(0, 10);
    unsigned L = 0;
    if (T.X.at(I, 0) > 5.0)
      L += 1;
    if (T.X.at(I, 3) + T.X.at(I, 7) > 9.0)
      L += 2;
    T.Y[I] = L % kNumClasses;
  }
  // Column 5 is constant: exercises the normalizer's zero-variance rule.
  for (size_t I = 0; I != kNumRows; ++I)
    T.X.at(I, 5) = 3.25;
  return T;
}

/// Counting probe over a dense row: what the interpreted path sees.
struct RowProbe {
  static core::FeatureProbe make(const linalg::Matrix &X, size_t Row) {
    return core::FeatureProbe(kNumFlat, [&X, Row](unsigned F) {
      return std::make_pair(X.at(Row, F), 1.0);
    });
  }
};

/// Runs the compiled production path over row \p Row, counting feature
/// accesses the same way the probe counts extractions.
unsigned compiledDecide(const runtime::CompiledModel &M,
                        runtime::CompiledModel::Scratch &S,
                        const linalg::Matrix &X, size_t Row,
                        unsigned *ExaminedOut = nullptr) {
  std::vector<char> Seen(kNumFlat, 0);
  unsigned Examined = 0;
  unsigned L = M.decideProduction(S, [&](unsigned F) {
    if (!Seen[F]) {
      Seen[F] = 1;
      ++Examined;
    }
    return X.at(Row, F);
  });
  if (ExaminedOut)
    *ExaminedOut = Examined;
  return L;
}

/// Asserts interpreted/compiled parity for \p Classifier over every row,
/// both compiled directly and compiled from a serialized round trip.
void expectParity(const core::InputClassifier &Classifier,
                  const Table &T) {
  runtime::CompiledModel Direct = runtime::CompiledModel::compileClassifiers(
      Classifier, kNumFlat, kNumClasses);
  ASSERT_TRUE(Direct.ready());

  serialize::Writer W;
  serialize::saveClassifier(W, Classifier);
  serialize::Reader R(W.str());
  std::unique_ptr<core::InputClassifier> Loaded =
      serialize::loadClassifier(R, kNumClasses, kNumFlat);
  ASSERT_NE(Loaded, nullptr) << R.error();
  runtime::CompiledModel RoundTripped =
      runtime::CompiledModel::compileClassifiers(*Loaded, kNumFlat,
                                                 kNumClasses);
  ASSERT_TRUE(RoundTripped.ready());

  runtime::CompiledModel::Scratch SDirect = Direct.makeScratch();
  runtime::CompiledModel::Scratch SRound = RoundTripped.makeScratch();
  for (size_t Row = 0; Row != T.X.rows(); ++Row) {
    core::FeatureProbe Probe = RowProbe::make(T.X, Row);
    unsigned Interpreted = Classifier.classify(Probe);

    unsigned Examined = 0;
    unsigned Compiled = compiledDecide(Direct, SDirect, T.X, Row, &Examined);
    EXPECT_EQ(Compiled, Interpreted)
        << Classifier.describe() << " diverged on row " << Row;
    EXPECT_EQ(Examined, Probe.numExtracted())
        << Classifier.describe() << " examined different features on row "
        << Row;

    EXPECT_EQ(compiledDecide(RoundTripped, SRound, T.X, Row), Interpreted)
        << Classifier.describe()
        << " diverged after serialize/load/compile on row " << Row;
  }
}

TEST(CompiledModelTest, ConstantClassifierParity) {
  Table T = makeTable(11);
  core::ConstantClassifier C(2);
  expectParity(C, T);
}

TEST(CompiledModelTest, MaxAprioriClassifierParity) {
  Table T = makeTable(12);
  ml::MaxApriori Model;
  Model.fit(T.Y, kNumClasses);
  core::MaxAprioriClassifier C(std::move(Model));
  expectParity(C, T);
}

TEST(CompiledModelTest, SubsetTreeClassifierParity) {
  Table T = makeTable(13);
  ml::DecisionTreeOptions Options;
  Options.AllowedFeatures = {0, 3, 7};
  ml::DecisionTree Tree;
  Tree.fit(T.X, T.Y, kNumClasses, Options);
  ASSERT_GT(Tree.numNodes(), 1u) << "degenerate tree defeats the test";
  core::SubsetTreeClassifier C(std::move(Tree), {0, 3, 7}, "tree{0,3,7}");
  expectParity(C, T);
}

TEST(CompiledModelTest, SingleLeafTreeParity) {
  // A pure-label table trains to one leaf: the smallest valid tree must
  // still lower and serve.
  Table T = makeTable(14);
  std::fill(T.Y.begin(), T.Y.end(), 3u);
  ml::DecisionTree Tree;
  Tree.fit(T.X, T.Y, kNumClasses);
  EXPECT_EQ(Tree.numNodes(), 1u);
  core::SubsetTreeClassifier C(std::move(Tree), {}, "tree{leaf}");
  expectParity(C, T);
}

TEST(CompiledModelTest, IncrementalClassifierParity) {
  Table T = makeTable(15);
  std::vector<unsigned> Order = {2, 0, 7, 3, 5};
  ml::IncrementalBayesOptions Options;
  Options.Bins = 6;
  Options.PosteriorThreshold = 0.6;
  ml::IncrementalBayes Model;
  Model.fit(T.X, T.Y, kNumClasses, Order, Options);
  core::IncrementalClassifier C(std::move(Model), "incremental{test}");
  expectParity(C, T);
}

TEST(CompiledModelTest, IncrementalUnreachableThresholdParity) {
  // A threshold no posterior can clear forces the full acquisition loop
  // (the no-early-exit corner of the Bayes lowering).
  Table T = makeTable(16);
  std::vector<unsigned> Order = {1, 4, 6};
  ml::IncrementalBayesOptions Options;
  Options.PosteriorThreshold = 1.1;
  ml::IncrementalBayes Model;
  Model.fit(T.X, T.Y, kNumClasses, Order, Options);
  core::IncrementalClassifier C(std::move(Model), "incremental{noexit}");
  expectParity(C, T);
}

TEST(CompiledModelTest, OneLevelClassifierParity) {
  Table T = makeTable(17);
  ml::Normalizer Norm;
  Norm.fit(T.X);
  linalg::Matrix Normalized = Norm.transform(T.X);
  ml::KMeansOptions Options;
  Options.K = kNumClasses;
  Options.Seed = 5;
  ml::KMeansResult Clusters = ml::kMeans(Normalized, Options);
  std::vector<unsigned> ClusterLandmark = {1, 3, 0, 2};
  core::OneLevelClassifier C(std::move(Clusters.Centroids), std::move(Norm),
                             std::move(ClusterLandmark));
  expectParity(C, T);
}

TEST(CompiledModelTest, ArenaIs64ByteAligned) {
  // Both arena sections start on a cache-line boundary, so a compiled
  // model's hot tables never straddle a line they do not need.
  auto Aligned = [](const void *P) {
    return reinterpret_cast<uintptr_t>(P) % support::kCacheLineBytes == 0;
  };

  ml::CompiledArena Arena;
  const double F[3] = {1.0, 2.0, 3.0};
  const int32_t I[3] = {4, 5, 6};
  Arena.appendF64(F, 3);
  Arena.appendI32(I, 3);
  EXPECT_TRUE(Aligned(Arena.F64.data()));
  EXPECT_TRUE(Aligned(Arena.I32.data()));
}

TEST(CompiledModelTest, NotReadyWithoutClassifiers) {
  runtime::CompiledModel M;
  EXPECT_FALSE(M.ready());
  serialize::TrainedModel Empty;
  EXPECT_FALSE(runtime::CompiledModel::compile(Empty).ready());
}

TEST(CompiledModelTest, CompileInlinesLandmarkConfigurations) {
  // compile(TrainedModel) also flattens the landmark configurations into
  // the arena; check the inlined values against the originals.
  Table T = makeTable(18);
  serialize::TrainedModel Model;
  Model.Meta.Features = {{"a", 3u}, {"b", 3u}, {"c", 3u}};
  ASSERT_EQ(Model.Meta.numFlatFeatures(), kNumFlat);
  Model.System.L1.Landmarks = {
      runtime::Configuration({1.0, 2.0, 3.0}),
      runtime::Configuration({4.0, 5.0, 6.0}),
      runtime::Configuration({7.0, 8.0, 9.0}),
      runtime::Configuration({10.0, 11.0, 12.0}),
  };
  ml::MaxApriori Prior;
  Prior.fit(T.Y, kNumClasses);
  Model.System.L2.Production =
      std::make_unique<core::MaxAprioriClassifier>(std::move(Prior));

  runtime::CompiledModel M = runtime::CompiledModel::compile(Model);
  ASSERT_TRUE(M.ready());
  EXPECT_EQ(M.numLandmarks(), 4u);
  ASSERT_EQ(M.landmarkArity(), 3u);
  for (unsigned L = 0; L != 4; ++L) {
    const double *V = M.landmarkValues(L);
    for (unsigned P = 0; P != 3; ++P)
      EXPECT_EQ(V[P], Model.System.L1.Landmarks[L].real(P));
    // No recorded space: every parameter reads as active.
    EXPECT_EQ(M.landmarkActiveMask(L), uint64_t(0b111));
  }
  EXPECT_GT(M.arenaBytes(), 0u);
}

TEST(CompiledModelTest, CompilePrecomputesLandmarkActiveMasks) {
  // With a conditional space recorded in the model's provenance, compile
  // precomputes which parameters exist under each landmark.
  Table T = makeTable(18);
  serialize::TrainedModel Model;
  Model.Meta.Features = {{"a", 3u}, {"b", 3u}, {"c", 3u}};
  runtime::ConfigSpace &Space = Model.Meta.Space;
  Space.addCategorical("solver", 2);
  Space.addReal("tolerance", 0.0, 1.0);
  Space.addInteger("sweeps", 1, 8);
  Space.makeConditional(1, 0, {1}); // tolerance only under solver=1
  Space.makeConditional(2, 0, {0}); // sweeps only under solver=0
  Model.System.L1.Landmarks = {
      runtime::Configuration({0.0, 0.5, 3.0}),
      runtime::Configuration({1.0, 0.25, 4.0}),
  };
  ml::MaxApriori Prior;
  Prior.fit(T.Y, kNumClasses);
  Model.System.L2.Production =
      std::make_unique<core::MaxAprioriClassifier>(std::move(Prior));

  runtime::CompiledModel M = runtime::CompiledModel::compile(Model);
  ASSERT_TRUE(M.ready());
  ASSERT_EQ(M.numLandmarks(), 2u);
  EXPECT_EQ(M.landmarkActiveMask(0), uint64_t(0b101)); // solver + sweeps
  EXPECT_EQ(M.landmarkActiveMask(1), uint64_t(0b011)); // solver + tolerance
}

} // namespace
