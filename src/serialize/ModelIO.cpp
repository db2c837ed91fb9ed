//===- serialize/ModelIO.cpp ------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "serialize/ModelIO.h"

#include "core/Classifiers.h"

#include <cmath>
#include <fstream>
#include <sstream>

using namespace pbt;
using namespace pbt::serialize;

unsigned ModelMeta::numFlatFeatures() const {
  unsigned Total = 0;
  for (const runtime::FeatureInfo &F : Features)
    Total += F.Levels;
  return Total;
}

//===----------------------------------------------------------------------===//
// Component round trips
//===----------------------------------------------------------------------===//

void serialize::saveConfiguration(Writer &W,
                                  const runtime::Configuration &Config) {
  W.doubles("config", Config.values());
}

bool serialize::loadConfiguration(Reader &R, runtime::Configuration &Out) {
  std::vector<double> Values;
  if (!R.doubles("config", Values, 1u << 20))
    return false;
  Out = runtime::Configuration(std::move(Values));
  return true;
}

void serialize::saveSelector(Writer &W, const runtime::Selector &Selector) {
  W.key("selector").u64(Selector.levels().size()).end();
  for (const runtime::Selector::Level &L : Selector.levels())
    W.key("level").u64(L.Cutoff).u64(L.Choice).end();
}

bool serialize::loadSelector(Reader &R, runtime::Selector &Out) {
  if (!R.expect("selector"))
    return false;
  uint64_t N = R.count(1u << 20);
  if (!R.endLine())
    return false;
  std::vector<runtime::Selector::Level> Levels;
  for (uint64_t I = 0; I != N && R.ok(); ++I) {
    if (!R.expect("level"))
      return false;
    runtime::Selector::Level L;
    L.Cutoff = R.u64();
    uint64_t Choice = R.u64();
    if (!R.endLine())
      return false;
    if (Choice > 0xFFFFFFFFull)
      return R.fail("selector choice out of range");
    L.Choice = static_cast<unsigned>(Choice);
    Levels.push_back(L);
  }
  if (!R.ok())
    return false;
  Out = runtime::Selector(std::move(Levels));
  return true;
}

//===----------------------------------------------------------------------===//
// Polymorphic classifier round trip
//===----------------------------------------------------------------------===//

void serialize::saveClassifier(Writer &W,
                               const core::InputClassifier &Classifier) {
  if (auto *C = dynamic_cast<const core::ConstantClassifier *>(&Classifier)) {
    W.key("classifier").word("constant").end();
    W.key("landmark").u64(C->landmark()).end();
    return;
  }
  if (auto *C =
          dynamic_cast<const core::MaxAprioriClassifier *>(&Classifier)) {
    W.key("classifier").word("max-apriori").end();
    C->model().saveTo(W);
    return;
  }
  if (auto *C =
          dynamic_cast<const core::SubsetTreeClassifier *>(&Classifier)) {
    W.key("classifier").word("tree").end();
    W.key("name").text(C->describe()).end();
    std::vector<uint64_t> Subset(C->subset().begin(), C->subset().end());
    W.u64s("subset", Subset);
    C->tree().saveTo(W);
    return;
  }
  if (auto *C =
          dynamic_cast<const core::IncrementalClassifier *>(&Classifier)) {
    W.key("classifier").word("incremental").end();
    W.key("name").text(C->describe()).end();
    C->model().saveTo(W);
    return;
  }
  if (auto *C = dynamic_cast<const core::OneLevelClassifier *>(&Classifier)) {
    W.key("classifier").word("one-level").end();
    W.matrix("centroids", C->centroids());
    C->norm().saveTo(W);
    std::vector<uint64_t> CL(C->clusterLandmark().begin(),
                             C->clusterLandmark().end());
    W.u64s("cluster-landmark", CL);
    return;
  }
  assert(false && "unknown classifier kind cannot be persisted");
}

std::unique_ptr<core::InputClassifier>
serialize::loadClassifier(Reader &R, unsigned NumClasses, unsigned NumFlat) {
  if (!R.expect("classifier"))
    return nullptr;
  std::string Kind = R.word();
  if (!R.endLine())
    return nullptr;

  if (Kind == "constant") {
    if (!R.expect("landmark"))
      return nullptr;
    uint64_t L = R.u64();
    if (!R.endLine())
      return nullptr;
    if (L >= NumClasses) {
      R.fail("constant classifier landmark out of range");
      return nullptr;
    }
    return std::make_unique<core::ConstantClassifier>(
        static_cast<unsigned>(L));
  }

  if (Kind == "max-apriori") {
    ml::MaxApriori Model;
    if (!Model.loadFrom(R))
      return nullptr;
    if (Model.priors().size() != NumClasses) {
      R.fail("max-apriori prior count does not match landmark count");
      return nullptr;
    }
    return std::make_unique<core::MaxAprioriClassifier>(std::move(Model));
  }

  if (Kind == "tree") {
    if (!R.expect("name"))
      return nullptr;
    std::string Name = R.rest();
    std::vector<uint64_t> Subset;
    if (!R.u64s("subset", Subset, NumFlat))
      return nullptr;
    for (uint64_t F : Subset)
      if (F >= NumFlat) {
        R.fail("subset feature out of range");
        return nullptr;
      }
    ml::DecisionTree Tree;
    if (!Tree.loadFrom(R, NumClasses))
      return nullptr;
    for (unsigned F : Tree.usedFeatures())
      if (F >= NumFlat) {
        R.fail("tree feature out of range");
        return nullptr;
      }
    return std::make_unique<core::SubsetTreeClassifier>(
        std::move(Tree), std::vector<unsigned>(Subset.begin(), Subset.end()),
        std::move(Name));
  }

  if (Kind == "incremental") {
    if (!R.expect("name"))
      return nullptr;
    std::string Name = R.rest();
    ml::IncrementalBayes Model;
    if (!Model.loadFrom(R, NumFlat))
      return nullptr;
    if (Model.numClasses() != NumClasses) {
      R.fail("incremental classifier class count mismatch");
      return nullptr;
    }
    return std::make_unique<core::IncrementalClassifier>(std::move(Model),
                                                         std::move(Name));
  }

  if (Kind == "one-level") {
    linalg::Matrix Centroids;
    if (!R.matrix("centroids", Centroids))
      return nullptr;
    if (Centroids.rows() == 0 || Centroids.cols() != NumFlat) {
      R.fail("one-level centroid shape mismatch");
      return nullptr;
    }
    ml::Normalizer Norm;
    if (!Norm.loadFrom(R))
      return nullptr;
    if (Norm.numFeatures() != NumFlat) {
      R.fail("one-level normalizer width mismatch");
      return nullptr;
    }
    std::vector<uint64_t> CL;
    if (!R.u64s("cluster-landmark", CL, 1u << 20))
      return nullptr;
    if (CL.size() != Centroids.rows()) {
      R.fail("one cluster-landmark entry per centroid required");
      return nullptr;
    }
    for (uint64_t L : CL)
      if (L >= NumClasses) {
        R.fail("cluster landmark out of range");
        return nullptr;
      }
    return std::make_unique<core::OneLevelClassifier>(
        std::move(Centroids), std::move(Norm),
        std::vector<unsigned>(CL.begin(), CL.end()));
  }

  R.fail("unknown classifier kind '" + Kind + "'");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Whole-model round trip
//===----------------------------------------------------------------------===//

TrainedModel serialize::makeModel(const std::string &Benchmark, double Scale,
                                  uint64_t ProgramSeed,
                                  const runtime::TunableProgram &Program,
                                  core::TrainedSystem System) {
  TrainedModel M;
  M.Meta.Benchmark = Benchmark;
  M.Meta.Scale = Scale;
  M.Meta.ProgramSeed = ProgramSeed;
  M.Meta.Features = Program.features();
  M.Meta.Space = Program.space();
  M.System = std::move(System);
  return M;
}

/// The `param` line token for a ParamKind (and back).
static const char *kindWord(runtime::ParamKind K) {
  switch (K) {
  case runtime::ParamKind::Categorical:
    return "categorical";
  case runtime::ParamKind::Integer:
    return "integer";
  case runtime::ParamKind::Real:
    return "real";
  }
  assert(false && "unknown parameter kind");
  return "real";
}

static void saveConfigSpace(Writer &W, const runtime::ConfigSpace &Space) {
  assert(Space.size() <= kMaxSpaceParams &&
         "too many parameters to serialize");
  W.key("config-space").u64(Space.size()).end();
  for (unsigned I = 0; I != Space.size(); ++I) {
    const runtime::ParamSpec &P = Space.param(I);
    // Parent is written +1 so the unconditional sentinel (-1) stays a
    // plain unsigned token: 0 = no parent.
    W.key("param")
        .word(kindWord(P.Kind))
        .f(P.Min)
        .f(P.Max)
        .u64(P.Cardinality)
        .u64(P.LogScale ? 1 : 0)
        .u64(static_cast<uint64_t>(P.Parent + 1))
        .u64(P.ParentMask)
        .text(P.Name)
        .end();
  }
}

/// Parses saveConfigSpace output, rebuilding the space through its
/// declaration API so every ConfigSpace invariant (bounds ordering,
/// positive log-scale ranges, parents preceding children, categorical
/// parents) is re-established -- a corrupt file fails here, never inside
/// an assert.
static bool loadConfigSpace(Reader &R, runtime::ConfigSpace &Out) {
  if (!R.expect("config-space"))
    return false;
  uint64_t N = R.count(kMaxSpaceParams);
  if (!R.endLine())
    return false;
  runtime::ConfigSpace Space;
  for (uint64_t I = 0; I != N && R.ok(); ++I) {
    if (!R.expect("param"))
      return false;
    std::string Kind = R.word();
    double Min = R.f();
    double Max = R.f();
    uint64_t Cardinality = R.u64();
    uint64_t LogScale = R.u64();
    uint64_t ParentP1 = R.u64();
    uint64_t ParentMask = R.u64();
    std::string Name = R.rest();
    if (!R.ok())
      return false;
    if (Name.empty())
      return R.fail("parameter needs a name");
    if (LogScale > 1)
      return R.fail("parameter log-scale flag must be 0 or 1");
    if (Kind == "categorical") {
      if (Cardinality < 1 || Cardinality > (uint64_t(1) << 20))
        return R.fail("categorical cardinality out of range");
      if (LogScale != 0)
        return R.fail("categorical parameters cannot be log-scaled");
      if (Min != 0.0 || Max != static_cast<double>(Cardinality - 1))
        return R.fail("categorical bounds must be [0, cardinality-1]");
      Space.addCategorical(std::move(Name),
                           static_cast<unsigned>(Cardinality));
    } else if (Kind == "integer") {
      if (Cardinality != 0)
        return R.fail("only categorical parameters carry a cardinality");
      if (!(Min <= Max) || Min != std::floor(Min) || Max != std::floor(Max) ||
          std::abs(Min) > 0x1p62 || std::abs(Max) > 0x1p62)
        return R.fail("bad integer parameter bounds");
      if (LogScale && Min <= 0)
        return R.fail("log-scaled range must be positive");
      Space.addInteger(std::move(Name), static_cast<int64_t>(Min),
                       static_cast<int64_t>(Max), LogScale == 1);
    } else if (Kind == "real") {
      if (Cardinality != 0)
        return R.fail("only categorical parameters carry a cardinality");
      if (!(Min <= Max))
        return R.fail("bad real parameter bounds");
      if (LogScale && Min <= 0.0)
        return R.fail("log-scaled range must be positive");
      Space.addReal(std::move(Name), Min, Max, LogScale == 1);
    } else {
      return R.fail("unknown parameter kind '" + Kind + "'");
    }
    if (ParentP1 == 0) {
      if (ParentMask != 0)
        return R.fail("unconditional parameter cannot carry a parent mask");
    } else {
      uint64_t Parent = ParentP1 - 1;
      if (Parent >= I)
        return R.fail("conditional parent must precede its child");
      const runtime::ParamSpec &PP =
          Space.param(static_cast<unsigned>(Parent));
      if (PP.Kind != runtime::ParamKind::Categorical)
        return R.fail("conditional parent must be categorical");
      if (PP.Cardinality > 64)
        return R.fail("conditional parent cardinality exceeds the mask");
      if (ParentMask == 0)
        return R.fail("conditional parameter needs an activation mask");
      if (PP.Cardinality < 64 && (ParentMask >> PP.Cardinality) != 0)
        return R.fail("activation mask has bits beyond the parent's "
                      "cardinality");
      std::vector<unsigned> Values;
      for (unsigned B = 0; B != PP.Cardinality; ++B)
        if ((ParentMask >> B) & 1)
          Values.push_back(B);
      Space.makeConditional(static_cast<unsigned>(I),
                            static_cast<unsigned>(Parent), Values);
    }
  }
  if (!R.ok())
    return false;
  Out = std::move(Space);
  return true;
}

/// Shared by the loader and validateAgainst: \p C must be a legal point
/// of \p Space -- right arity, every value inside its declared range,
/// integral where the kind demands it, and canonical (dead-branch
/// parameters pinned to their canonical value, so byte-compared configs
/// mean what they say).
static std::string checkConfigAgainstSpace(const runtime::ConfigSpace &Space,
                                           const runtime::Configuration &C) {
  if (C.size() != Space.size())
    return "configuration arity does not match the configuration space";
  for (unsigned P = 0; P != Space.size(); ++P) {
    const runtime::ParamSpec &Spec = Space.param(P);
    double V = C.real(P);
    bool IntegralKind = Spec.Kind != runtime::ParamKind::Real;
    if (V < Spec.Min || V > Spec.Max || (IntegralKind && V != std::floor(V)))
      return "value for parameter '" + Spec.Name +
             "' is outside its declared range";
    if (!Space.active(C, P) && V != Space.canonicalValue(P))
      return "parameter '" + Spec.Name +
             "' holds a non-canonical value in a dead branch";
  }
  return std::string();
}

static void saveRows(Writer &W, const std::string &Key,
                     const std::vector<size_t> &Rows) {
  std::vector<uint64_t> V(Rows.begin(), Rows.end());
  W.u64s(Key, V);
}

static bool loadRows(Reader &R, const std::string &Key, uint64_t NumInputs,
                     std::vector<size_t> &Out) {
  std::vector<uint64_t> V;
  if (!R.u64s(Key, V, 1u << 24))
    return false;
  for (uint64_t Row : V)
    if (Row >= NumInputs)
      return R.fail(Key + " entry out of range");
  Out.assign(V.begin(), V.end());
  return true;
}

std::string serialize::serializeModel(const TrainedModel &Model) {
  const core::TrainedSystem &S = Model.System;
  // Everything written here must load back: stay within the schema caps
  // the loader enforces (unreachable under --scale's [0.1, 100] clamp).
  assert(Model.Meta.Features.size() <= kMaxProperties &&
         "too many feature properties to serialize");
#ifndef NDEBUG
  for (const runtime::FeatureInfo &F : Model.Meta.Features)
    assert(F.Levels >= 1 && F.Levels <= kMaxFeatureLevels &&
           "feature level count outside the serializable range");
#endif
  assert(S.L1.Landmarks.size() <= kMaxLandmarks &&
         "too many landmarks to serialize");
  assert(S.L1.Features.rows() <= kMaxRows &&
         "too many evidence rows to serialize");
  Writer W;
  W.key("pbt-model").word("v" + std::to_string(kFormatVersion)).end();
  W.key("benchmark").text(Model.Meta.Benchmark).end();
  W.key("scale").f(Model.Meta.Scale).end();
  W.key("program-seed").u64(Model.Meta.ProgramSeed).end();
  W.key("epoch").u64(Model.Meta.Epoch).end();
  W.key("features").u64(Model.Meta.Features.size()).end();
  for (const runtime::FeatureInfo &F : Model.Meta.Features)
    W.key("feature").u64(F.Levels).text(F.Name).end();
  saveConfigSpace(W, Model.Meta.Space);

  saveRows(W, "train-rows", S.TrainRows);
  saveRows(W, "test-rows", S.TestRows);
  W.key("static-oracle").u64(S.StaticOracleLandmark).end();

  // --- Level 1: evidence tables, normalizer, clusters, landmarks. ---
  W.line("level1");
  W.matrix("features", S.L1.Features);
  W.matrix("extract-costs", S.L1.ExtractCosts);
  W.matrix("time", S.L1.Time);
  W.matrix("acc", S.L1.Acc);
  S.L1.Norm.saveTo(W);
  ml::saveKMeansResult(W, S.L1.Clusters);
  saveRows(W, "representatives", S.L1.Representatives);
  W.key("landmarks").u64(S.L1.Landmarks.size()).end();
  for (const runtime::Configuration &C : S.L1.Landmarks)
    saveConfiguration(W, C);

  // --- Level 2: refined labels, cost matrix, zoo scores, production. ---
  W.line("level2");
  std::vector<uint64_t> Labels(S.L2.TrainLabels.begin(),
                               S.L2.TrainLabels.end());
  W.u64s("train-labels", Labels);
  S.L2.Costs.saveTo(W);
  W.key("refinement-moved").f(S.L2.RefinementMoveFraction).end();
  W.key("candidates").u64(S.L2.Candidates.size()).end();
  for (const core::CandidateScore &C : S.L2.Candidates)
    W.key("candidate")
        .f(C.Objective)
        .f(C.ObjectiveNoFeat)
        .f(C.Satisfaction)
        .u64(C.Valid ? 1 : 0)
        .text(C.Name)
        .end();
  W.key("selected").text(S.L2.SelectedName).end();

  W.line("production");
  saveClassifier(W, *S.L2.Production);
  W.line("one-level-baseline");
  saveClassifier(W, *S.OneLevel);
  W.line("end");
  return W.str();
}

LoadStatus serialize::loadModel(const std::string &Text, TrainedModel &Out) {
  Reader R(Text);
  TrainedModel M;

  // Every failure is tagged with the 1-based line it was detected on:
  // sticky Reader errors already carry it; semantic checks (shape and
  // range validation) borrow the reader's current position.
  auto Failure = [&R](const std::string &Fallback) {
    if (!R.ok())
      return LoadStatus::failure(R.error());
    return LoadStatus::failure("line " + std::to_string(R.lineNumber()) +
                               ": " + Fallback);
  };

  // --- Header. ---
  if (!R.expect("pbt-model"))
    return Failure("missing header");
  std::string Version = R.word();
  if (!R.endLine())
    return Failure("bad header");
  if (Version != "v" + std::to_string(kFormatVersion))
    return Failure("unsupported model format version '" + Version +
                               "' (expected v" +
                               std::to_string(kFormatVersion) + ")");
  if (!R.expect("benchmark"))
    return Failure("missing benchmark");
  M.Meta.Benchmark = R.rest();
  if (!R.expect("scale"))
    return Failure("missing scale");
  M.Meta.Scale = R.f();
  if (!R.endLine() || !R.expect("program-seed"))
    return Failure("missing program-seed");
  M.Meta.ProgramSeed = R.u64();
  if (!R.endLine() || !R.expect("epoch"))
    return Failure("missing epoch");
  M.Meta.Epoch = R.u64();
  if (!R.endLine() || !R.expect("features"))
    return Failure("missing features");
  uint64_t NumProps = R.count(kMaxProperties);
  if (!R.endLine())
    return Failure("bad feature count");
  for (uint64_t I = 0; I != NumProps && R.ok(); ++I) {
    if (!R.expect("feature"))
      return Failure("missing feature declaration");
    runtime::FeatureInfo F;
    uint64_t Levels = R.count(kMaxFeatureLevels);
    F.Name = R.rest();
    if (!R.ok())
      return Failure("bad feature declaration");
    if (Levels == 0)
      return Failure(
          "feature '" + F.Name + "' must have at least one sampling level");
    F.Levels = static_cast<unsigned>(Levels);
    M.Meta.Features.push_back(F);
  }
  unsigned NumFlat = M.Meta.numFlatFeatures();
  if (!loadConfigSpace(R, M.Meta.Space))
    return Failure("bad configuration space");

  // --- Level 1 (read matrices first; they define N and K). ---
  core::TrainedSystem &S = M.System;
  // Rows are validated once the feature matrix fixes the input count, so
  // stash them and re-check below.
  std::vector<size_t> TrainRows, TestRows;
  if (!loadRows(R, "train-rows", UINT64_MAX, TrainRows) ||
      !loadRows(R, "test-rows", UINT64_MAX, TestRows))
    return Failure("bad row lists");
  if (!R.expect("static-oracle"))
    return Failure("missing static-oracle");
  uint64_t StaticOracle = R.u64();
  if (!R.endLine() || !R.expect("level1"))
    return Failure("missing level1 section");
  if (!R.endLine())
    return Failure("bad level1 section");

  if (!R.matrix("features", S.L1.Features) ||
      !R.matrix("extract-costs", S.L1.ExtractCosts) ||
      !R.matrix("time", S.L1.Time) || !R.matrix("acc", S.L1.Acc))
    return Failure("bad evidence tables");

  uint64_t N = S.L1.Features.rows();
  if (S.L1.Features.cols() != NumFlat)
    return Failure(
        "feature table width does not match feature declarations");
  if (!S.L1.ExtractCosts.sameShape(S.L1.Features))
    return Failure("extract-cost table shape mismatch");
  if (S.L1.Time.rows() != N || S.L1.Acc.rows() != N ||
      S.L1.Time.cols() != S.L1.Acc.cols())
    return Failure("time/accuracy table shape mismatch");
  uint64_t K = S.L1.Time.cols();
  if (K == 0)
    return Failure("model declares no landmarks");

  for (size_t Row : TrainRows)
    if (Row >= N)
      return Failure("train row out of range");
  for (size_t Row : TestRows)
    if (Row >= N)
      return Failure("test row out of range");
  if (StaticOracle >= K)
    return Failure("static oracle landmark out of range");
  S.TrainRows = std::move(TrainRows);
  S.TestRows = std::move(TestRows);
  S.StaticOracleLandmark = static_cast<unsigned>(StaticOracle);

  if (!S.L1.Norm.loadFrom(R))
    return Failure("bad normalizer");
  if (S.L1.Norm.numFeatures() != NumFlat)
    return Failure("normalizer width mismatch");
  if (!ml::loadKMeansResult(R, S.L1.Clusters))
    return Failure("bad clustering");
  if (S.L1.Clusters.Centroids.rows() != K)
    return Failure("cluster count does not match landmark count");
  if (S.L1.Clusters.Centroids.cols() != NumFlat)
    return Failure("centroid width mismatch");
  if (S.L1.Clusters.Assignment.size() != S.TrainRows.size())
    return Failure("one cluster assignment per train row required");
  if (!loadRows(R, "representatives", N, S.L1.Representatives))
    return Failure("bad representatives");
  if (S.L1.Representatives.size() != K)
    return Failure("one representative per landmark required");
  if (!R.expect("landmarks"))
    return Failure("missing landmarks");
  uint64_t NumLandmarks = R.count(kMaxLandmarks);
  if (!R.endLine())
    return Failure("bad landmark count");
  if (NumLandmarks != K)
    return Failure("landmark count does not match time table");
  for (uint64_t I = 0; I != NumLandmarks && R.ok(); ++I) {
    runtime::Configuration C;
    if (!loadConfiguration(R, C))
      return Failure("bad landmark configuration");
    // Landmarks must be legal canonical points of the recorded space:
    // in-bounds, integral where declared so, dead branches pinned.
    std::string SpaceError = checkConfigAgainstSpace(M.Meta.Space, C);
    if (!SpaceError.empty())
      return Failure("landmark " + SpaceError);
    S.L1.Landmarks.push_back(std::move(C));
  }

  // --- Level 2. ---
  if (!R.expect("level2") || !R.endLine())
    return Failure("missing level2 section");
  std::vector<uint64_t> Labels;
  if (!R.u64s("train-labels", Labels, 1u << 24))
    return Failure("bad train labels");
  if (Labels.size() != S.TrainRows.size())
    return Failure("one train label per train row required");
  for (uint64_t L : Labels)
    if (L >= K)
      return Failure("train label out of range");
  S.L2.TrainLabels.assign(Labels.begin(), Labels.end());
  if (!S.L2.Costs.loadFrom(R))
    return Failure("bad cost matrix");
  if (S.L2.Costs.numClasses() != K)
    return Failure("cost matrix size does not match landmarks");
  if (!R.expect("refinement-moved"))
    return Failure("missing refinement-moved");
  S.L2.RefinementMoveFraction = R.f();
  if (!R.endLine() || !R.expect("candidates"))
    return Failure("missing candidates");
  uint64_t NumCandidates = R.count(1u << 20);
  if (!R.endLine())
    return Failure("bad candidate count");
  for (uint64_t I = 0; I != NumCandidates && R.ok(); ++I) {
    if (!R.expect("candidate"))
      return Failure("missing candidate");
    core::CandidateScore C;
    C.Objective = R.f();
    C.ObjectiveNoFeat = R.f();
    C.Satisfaction = R.f();
    uint64_t Valid = R.u64();
    C.Name = R.rest();
    if (!R.ok())
      return Failure("bad candidate");
    if (Valid > 1)
      return Failure("candidate validity must be 0 or 1");
    C.Valid = Valid == 1;
    S.L2.Candidates.push_back(std::move(C));
  }
  if (!R.expect("selected"))
    return Failure("missing selected classifier name");
  S.L2.SelectedName = R.rest();

  if (!R.expect("production") || !R.endLine())
    return Failure("missing production section");
  S.L2.Production = loadClassifier(R, static_cast<unsigned>(K), NumFlat);
  if (!S.L2.Production)
    return Failure("bad production classifier");
  if (!R.expect("one-level-baseline") || !R.endLine())
    return Failure("missing one-level baseline section");
  S.OneLevel = loadClassifier(R, static_cast<unsigned>(K), NumFlat);
  if (!S.OneLevel)
    return Failure("bad one-level classifier");
  if (!R.expect("end") || !R.endLine())
    return Failure("missing end marker");
  if (!R.nextKey().empty() || !R.ok())
    return Failure("trailing content after end marker");

  Out = std::move(M);
  return LoadStatus::success();
}

LoadStatus serialize::writeModelText(const std::string &Path,
                                     const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return LoadStatus::failure("cannot open '" + Path + "' for writing");
  Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  Out.flush();
  if (!Out)
    return LoadStatus::failure("short write to '" + Path + "'");
  return LoadStatus::success();
}

LoadStatus serialize::saveModelFile(const std::string &Path,
                                    const TrainedModel &Model) {
  return writeModelText(Path, serializeModel(Model));
}

LoadStatus serialize::loadModelFile(const std::string &Path,
                                    TrainedModel &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return LoadStatus::failure("cannot open '" + Path + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  if (In.bad())
    return LoadStatus::failure("read error on '" + Path + "'");
  LoadStatus St = loadModel(SS.str(), Out);
  if (!St)
    return LoadStatus::failure("'" + Path + "': " + St.Error);
  return St;
}

LoadStatus serialize::validateAgainst(const TrainedModel &Model,
                                      const runtime::TunableProgram &Program) {
  std::vector<runtime::FeatureInfo> Declared = Program.features();
  if (Declared.size() != Model.Meta.Features.size())
    return LoadStatus::failure("model was trained with " +
                               std::to_string(Model.Meta.Features.size()) +
                               " features, program declares " +
                               std::to_string(Declared.size()));
  for (size_t I = 0; I != Declared.size(); ++I) {
    const runtime::FeatureInfo &A = Model.Meta.Features[I];
    const runtime::FeatureInfo &B = Declared[I];
    if (A.Name != B.Name || A.Levels != B.Levels)
      return LoadStatus::failure("feature " + std::to_string(I) +
                                 " mismatch: model has '" + A.Name + "'@" +
                                 std::to_string(A.Levels) + ", program '" +
                                 B.Name + "'@" + std::to_string(B.Levels));
  }
  // The recorded configuration space must be the program's space exactly
  // -- same parameters, bounds, and conditional structure. A drifted
  // space means the landmarks were tuned for a different program shape.
  const runtime::ConfigSpace &Space = Program.space();
  if (Model.Meta.Space.size() != Space.size())
    return LoadStatus::failure(
        "model records " + std::to_string(Model.Meta.Space.size()) +
        " tunable parameters, program declares " +
        std::to_string(Space.size()));
  for (unsigned P = 0; P != Space.size(); ++P) {
    const runtime::ParamSpec &A = Model.Meta.Space.param(P);
    const runtime::ParamSpec &B = Space.param(P);
    if (A.Name != B.Name || A.Kind != B.Kind || A.Min != B.Min ||
        A.Max != B.Max || A.Cardinality != B.Cardinality ||
        A.LogScale != B.LogScale || A.Parent != B.Parent ||
        A.ParentMask != B.ParentMask)
      return LoadStatus::failure("tunable parameter " + std::to_string(P) +
                                 " mismatch: model has '" + A.Name +
                                 "', program '" + B.Name + "'");
  }
  // Landmark configurations run inputs directly (enum casts and array
  // indexing inside the benchmarks), so every value must sit inside its
  // declared parameter range and be canonical -- arity alone is not
  // enough. (The loader already checked against the recorded space; this
  // re-checks against the live program's for models built in process.)
  for (const runtime::Configuration &C : Model.System.L1.Landmarks) {
    std::string SpaceError = checkConfigAgainstSpace(Space, C);
    if (!SpaceError.empty())
      return LoadStatus::failure("landmark " + SpaceError);
  }
  size_t NumInputs = Program.numInputs();
  for (size_t Row : Model.System.TestRows)
    if (Row >= NumInputs)
      return LoadStatus::failure(
          "model test rows exceed the program's input count");
  for (size_t Row : Model.System.TrainRows)
    if (Row >= NumInputs)
      return LoadStatus::failure(
          "model train rows exceed the program's input count");
  return LoadStatus::success();
}

LoadStatus serialize::checkProvenance(const ModelMeta &Model,
                                      const ModelMeta &Serving) {
  if (Model.Benchmark == Serving.Benchmark && Model.Scale == Serving.Scale &&
      Model.ProgramSeed == Serving.ProgramSeed)
    return LoadStatus::success();
  return LoadStatus::failure("model provenance (benchmark '" +
                             Model.Benchmark + "', scale, program seed) "
                             "does not match the serving model's");
}
