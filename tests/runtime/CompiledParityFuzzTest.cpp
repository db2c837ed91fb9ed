//===- tests/runtime/CompiledParityFuzzTest.cpp ------------------------------=//
//
// Randomized compiled-vs-interpreted parity: the golden suite pins the
// committed models, but the lowering claim is universal -- for ANY
// loadable model, the serving core's decide must equal the model's own
// InputClassifier::classify(). This fuzzer generates ~200 random
// TrainedModels spanning every classifier kind the zoo can select
// (constant, max-apriori, subset tree, incremental Bayes) over both flat
// and conditional (hierarchical) configuration spaces, serves every input
// through an AdaptiveService bound to a matching synthetic program, and
// asserts landmark, extraction-cost and examined-feature parity against
// the classifier driven directly through a FeatureProbe.
//
// Everything is seeded through support/Random, so a failure reproduces
// from its printed model index alone.
//
//===----------------------------------------------------------------------===//

#include "runtime/AdaptiveService.h"

#include "core/Classifiers.h"
#include "core/FeatureProbe.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

using namespace pbt;

namespace {

/// A synthetic program whose features are a stored random table: exactly
/// what an AdaptiveService needs to serve decisions (the run() cost
/// model never executes here).
class TableProgram : public runtime::TunableProgram {
public:
  TableProgram(linalg::Matrix Table, std::vector<runtime::FeatureInfo> Props,
               runtime::ConfigSpace SpaceIn)
      : Table(std::move(Table)), Props(std::move(Props)),
        Space(std::move(SpaceIn)) {
    Index.emplace(this->Props);
  }

  std::string name() const override { return "fuzz-table"; }
  const runtime::ConfigSpace &space() const override { return Space; }
  std::vector<runtime::FeatureInfo> features() const override {
    return Props;
  }
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return std::nullopt;
  }
  size_t numInputs() const override { return Table.rows(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override {
    // Per-feature extraction cost grows with the sampling level, like the
    // real benchmarks' probes.
    Cost.addFlops(1.0 + Level);
    return Table.at(Input, Index->flat(Feature, Level));
  }
  runtime::RunResult run(size_t, const runtime::Configuration &,
                         support::CostCounter &) const override {
    return {};
  }

private:
  linalg::Matrix Table;
  std::vector<runtime::FeatureInfo> Props;
  runtime::ConfigSpace Space;
  std::optional<runtime::FeatureIndex> Index;
};

struct FuzzCase {
  std::unique_ptr<TableProgram> Program;
  serialize::TrainedModel Model;
};

/// A random configuration space. Every third case is conditional: a
/// categorical root gating each real tunable on a random activation set,
/// plus a two-level chain (categorical mode under the root, log-integer
/// leaf under the mode) so nested dependencies fuzz too.
runtime::ConfigSpace makeFuzzSpace(support::Rng &Rng, unsigned Arity,
                                   bool Conditional) {
  runtime::ConfigSpace S;
  if (!Conditional) {
    for (unsigned P = 0; P != Arity; ++P)
      S.addReal("p" + std::to_string(P), 0.0, 1.0);
    return S;
  }
  unsigned Card = static_cast<unsigned>(Rng.range(2, 4));
  unsigned Root = S.addCategorical("branch", Card);
  for (unsigned P = 0; P != Arity; ++P) {
    unsigned Idx = S.addReal("p" + std::to_string(P), 0.0, 1.0);
    std::vector<unsigned> Vals;
    for (unsigned V = 0; V != Card; ++V)
      if (Rng.chance(0.5))
        Vals.push_back(V);
    if (Vals.empty())
      Vals.push_back(static_cast<unsigned>(Rng.index(Card)));
    S.makeConditional(Idx, Root, Vals);
  }
  unsigned Mode = S.addCategorical("mode", 2);
  S.makeConditional(Mode, Root, {0});
  unsigned Leaf = S.addInteger("leaf", 1, 64, /*LogScale=*/true);
  S.makeConditional(Leaf, Mode, {1});
  return S;
}

/// One random model: random feature geometry, random training table,
/// random labels, the classifier kind cycling with the index.
FuzzCase makeCase(unsigned CaseIndex) {
  support::Rng Rng(0xF022 + 7919ull * CaseIndex);

  unsigned NumProps = static_cast<unsigned>(Rng.range(1, 3));
  std::vector<runtime::FeatureInfo> Props;
  for (unsigned P = 0; P != NumProps; ++P)
    Props.push_back({"f" + std::to_string(P),
                     static_cast<unsigned>(Rng.range(1, 3))});
  runtime::FeatureIndex Index(Props);
  unsigned NumFlat = Index.numFlat();
  unsigned K = static_cast<unsigned>(Rng.range(2, 5));
  size_t N = static_cast<size_t>(Rng.range(20, 40));
  unsigned Arity = static_cast<unsigned>(Rng.range(1, 3));

  linalg::Matrix X(N, NumFlat);
  std::vector<unsigned> Y(N);
  for (size_t I = 0; I != N; ++I) {
    for (unsigned F = 0; F != NumFlat; ++F)
      X.at(I, F) = Rng.uniform(0.0, 10.0);
    Y[I] = static_cast<unsigned>(Rng.index(K));
  }
  // Correlate the labels with one feature so trees/Bayes grow structure
  // more often than pure noise would allow.
  unsigned Pivot = static_cast<unsigned>(Rng.index(NumFlat));
  for (size_t I = 0; I != N; ++I)
    if (X.at(I, Pivot) > 5.0)
      Y[I] = (Y[I] + 1) % K;

  FuzzCase C;
  runtime::ConfigSpace Space =
      makeFuzzSpace(Rng, Arity, /*Conditional=*/CaseIndex % 3 == 0);
  C.Program = std::make_unique<TableProgram>(X, Props, Space);

  serialize::TrainedModel &M = C.Model;
  M.Meta.Benchmark = "fuzz-table";
  M.Meta.Scale = 1.0;
  M.Meta.ProgramSeed = CaseIndex;
  M.Meta.Features = Props;
  M.Meta.Space = Space;
  // The training table the model records (its drift reference).
  M.System.L1.Features = X;
  // randomConfig returns canonical points (dead branches pinned), which
  // is exactly what the loader and validateAgainst demand of landmarks.
  for (unsigned L = 0; L != K; ++L)
    M.System.L1.Landmarks.push_back(Space.randomConfig(Rng));

  // The production classifier: cycle through every kind the zoo knows.
  std::unique_ptr<core::InputClassifier> Production;
  switch (CaseIndex % 4) {
  case 0:
    Production = std::make_unique<core::ConstantClassifier>(
        static_cast<unsigned>(Rng.index(K)));
    break;
  case 1: {
    ml::MaxApriori Prior;
    Prior.fit(Y, K);
    Production = std::make_unique<core::MaxAprioriClassifier>(std::move(Prior));
    break;
  }
  case 2: {
    std::vector<unsigned> Subset(NumFlat);
    std::iota(Subset.begin(), Subset.end(), 0u);
    Rng.shuffle(Subset);
    Subset.resize(Rng.index(NumFlat) + 1);
    std::sort(Subset.begin(), Subset.end());
    ml::DecisionTreeOptions Opts;
    Opts.AllowedFeatures = Subset;
    Opts.MaxDepth = static_cast<unsigned>(Rng.range(1, 10));
    Opts.MinSamplesLeaf = static_cast<unsigned>(Rng.range(1, 4));
    ml::DecisionTree Tree;
    Tree.fit(X, Y, K, Opts);
    Production = std::make_unique<core::SubsetTreeClassifier>(
        std::move(Tree), std::move(Subset), "fuzz-tree");
    break;
  }
  default: {
    std::vector<unsigned> Order(NumFlat);
    std::iota(Order.begin(), Order.end(), 0u);
    Rng.shuffle(Order);
    Order.resize(Rng.index(NumFlat) + 1);
    ml::IncrementalBayesOptions Opts;
    Opts.Bins = static_cast<unsigned>(Rng.range(2, 8));
    // Spans the always-stop, sometimes-stop and never-stop regimes.
    Opts.PosteriorThreshold = Rng.uniform(0.4, 1.1);
    ml::IncrementalBayes Model;
    Model.fit(X, Y, K, Order, Opts);
    Production = std::make_unique<core::IncrementalClassifier>(
        std::move(Model), "fuzz-bayes");
    break;
  }
  }
  M.System.L2.Production = std::move(Production);
  M.System.L2.SelectedName = "fuzz";

  // Every model also carries a one-level baseline, as trained models do,
  // so the serializer round trip covers it too.
  {
    ml::Normalizer Norm;
    Norm.fit(X);
    ml::KMeansOptions Opts;
    Opts.K = std::min<unsigned>(K, 3);
    Opts.Seed = Rng.next();
    ml::KMeansResult Clusters = ml::kMeans(Norm.transform(X), Opts);
    std::vector<unsigned> ClusterLandmark;
    for (size_t Cl = 0; Cl != Clusters.Centroids.rows(); ++Cl)
      ClusterLandmark.push_back(static_cast<unsigned>(Rng.index(K)));
    M.System.OneLevel = std::make_unique<core::OneLevelClassifier>(
        std::move(Clusters.Centroids), std::move(Norm),
        std::move(ClusterLandmark));
  }
  return C;
}

TEST(CompiledParityFuzzTest, RandomModelsDecideIdenticallyOnBothPaths) {
  constexpr unsigned kModels = 200;
  unsigned PerKind[4] = {0, 0, 0, 0};
  for (unsigned CaseIndex = 0; CaseIndex != kModels; ++CaseIndex) {
    FuzzCase C = makeCase(CaseIndex);
    ++PerKind[CaseIndex % 4];
    std::string Kind = C.Model.System.L2.Production->describe();

    runtime::AdaptiveService Service(*C.Program, std::move(C.Model));
    ASSERT_TRUE(Service.ready())
        << "case " << CaseIndex << " (" << Kind
        << "): " << Service.status().Error;
    const serialize::TrainedModel &Model = Service.currentEpoch()->Model;
    runtime::FeatureIndex Index(Model.Meta.Features);

    for (size_t Input = 0; Input != C.Program->numInputs(); ++Input) {
      runtime::AdaptiveService::StatsSnapshot Before = Service.stats();
      runtime::AdaptiveService::Decision A;
      Service.decideAnswers(&Input, 1, &A);
      runtime::AdaptiveService::StatsSnapshot After = Service.stats();
      core::FeatureProbe Probe =
          core::probeFromProgram(*C.Program, Input, Index);
      unsigned B = Model.System.L2.Production->classify(Probe);
      ASSERT_EQ(A.Landmark, B)
          << "case " << CaseIndex << " (" << Kind << ") input " << Input
          << ": compiled and interpreted decisions diverge";
      // Each input's first decide is cold: identical extraction work
      // and cost to the fresh probe's.
      EXPECT_DOUBLE_EQ(After.FeatureCostPaid,
                       Before.FeatureCostPaid + Probe.totalCost())
          << "case " << CaseIndex << " (" << Kind << ") input " << Input;
      EXPECT_EQ(After.FeaturesExtracted - Before.FeaturesExtracted,
                Probe.numExtracted())
          << "case " << CaseIndex << " (" << Kind << ") input " << Input;
    }
  }
  for (unsigned Kind = 0; Kind != 4; ++Kind)
    EXPECT_GE(PerKind[Kind], 40u) << "kind " << Kind << " under-covered";
}

/// The same fuzz population, additionally pushed through the serializer:
/// save -> load -> compile must preserve parity (the loader's bounds
/// checks and the writer's 17-digit doubles both under test).
TEST(CompiledParityFuzzTest, SerializedRoundTripPreservesDecisions) {
  for (unsigned CaseIndex = 0; CaseIndex != 40; ++CaseIndex) {
    FuzzCase C = makeCase(CaseIndex);
    // Minimal-but-valid evidence tables so the whole-model serializer has
    // consistent shapes to write.
    size_t N = C.Program->numInputs();
    unsigned NumFlat = C.Program->numMLFeatures();
    unsigned K = static_cast<unsigned>(C.Model.System.L1.Landmarks.size());
    C.Model.System.L1.Features = linalg::Matrix(N, NumFlat);
    C.Model.System.L1.ExtractCosts = linalg::Matrix(N, NumFlat, 1.0);
    C.Model.System.L1.Time = linalg::Matrix(N, K, 1.0);
    C.Model.System.L1.Acc = linalg::Matrix(N, K, 1.0);
    C.Model.System.L1.Norm.fit(C.Model.System.L1.Features);
    ml::KMeansOptions KOpts;
    KOpts.K = K;
    C.Model.System.L1.Clusters =
        ml::kMeans(C.Model.System.L1.Features, KOpts);
    C.Model.System.L1.Clusters.Assignment.clear();
    C.Model.System.L1.Representatives.assign(K, 0);
    C.Model.System.L2.Costs = ml::CostMatrix::zeroOne(K);

    std::string Bytes = serialize::serializeModel(C.Model);
    serialize::TrainedModel Loaded;
    ASSERT_TRUE(serialize::loadModel(Bytes, Loaded).Ok) << "case "
                                                        << CaseIndex;
    // Byte-identity through the round trip: the reloaded model (its
    // config space -- conditional structure included -- landmarks and
    // classifiers) must re-serialize to the exact same bytes.
    ASSERT_EQ(serialize::serializeModel(Loaded), Bytes)
        << "case " << CaseIndex << ": round trip is not byte-identical";

    runtime::AdaptiveService Original(*C.Program, std::move(C.Model));
    runtime::AdaptiveService Reloaded(*C.Program, std::move(Loaded));
    ASSERT_TRUE(Original.ready()) << Original.status().Error;
    ASSERT_TRUE(Reloaded.ready()) << Reloaded.status().Error;
    std::vector<size_t> Inputs(C.Program->numInputs());
    std::iota(Inputs.begin(), Inputs.end(), 0);
    std::vector<runtime::AdaptiveService::Decision> Want(Inputs.size()),
        Got(Inputs.size());
    Original.decideAnswers(Inputs.data(), Inputs.size(), Want.data());
    Reloaded.decideAnswers(Inputs.data(), Inputs.size(), Got.data());
    for (size_t Input = 0; Input != Inputs.size(); ++Input)
      ASSERT_EQ(Got[Input].Landmark, Want[Input].Landmark)
          << "case " << CaseIndex << " input " << Input;
  }
}

} // namespace
