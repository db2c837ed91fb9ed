//===- core/LevelTwo.cpp -----------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "core/LevelTwo.h"
#include "core/Labeling.h"
#include "ml/CrossValidation.h"
#include "ml/Dataset.h"
#include "ml/DecisionTree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

using namespace pbt;
using namespace pbt::core;

ml::CostMatrix
core::buildCostMatrix(const linalg::Matrix &Time, const linalg::Matrix &Acc,
                      const std::vector<size_t> &Rows,
                      const std::vector<unsigned> &Labels,
                      unsigned NumLandmarks,
                      const std::optional<runtime::AccuracySpec> &Spec,
                      double Eta) {
  assert(Rows.size() == Labels.size() && "rows/labels mismatch");
  ml::CostMatrix C(NumLandmarks);

  // Accumulate per (true label i, predicted j): mean time difference Cp
  // and accuracy-violation ratio Ca.
  std::vector<double> Count(NumLandmarks, 0.0);
  linalg::Matrix Cp(NumLandmarks, NumLandmarks, 0.0);
  linalg::Matrix Ca(NumLandmarks, NumLandmarks, 0.0);
  for (size_t N = 0; N != Rows.size(); ++N) {
    unsigned I = Labels[N];
    size_t Row = Rows[N];
    Count[I] += 1.0;
    for (unsigned J = 0; J != NumLandmarks; ++J) {
      Cp.at(I, J) += Time.at(Row, J) - Time.at(Row, I);
      if (Spec && Acc.at(Row, J) < Spec->AccuracyThreshold)
        Ca.at(I, J) += 1.0;
    }
  }
  for (unsigned I = 0; I != NumLandmarks; ++I) {
    if (Count[I] == 0.0)
      continue; // empty class: zero cost row
    double MaxCp = 0.0;
    for (unsigned J = 0; J != NumLandmarks; ++J) {
      Cp.at(I, J) /= Count[I];
      Ca.at(I, J) /= Count[I];
      MaxCp = std::max(MaxCp, Cp.at(I, J));
    }
    for (unsigned J = 0; J != NumLandmarks; ++J)
      C.at(I, J) = Eta * Ca.at(I, J) * MaxCp + Cp.at(I, J);
  }
  return C;
}

std::vector<std::vector<unsigned>>
core::enumerateFeatureSubsets(const runtime::FeatureIndex &Index) {
  unsigned U = Index.numProperties();
  // Mixed-radix counter: digit u ranges over 0 (absent) .. levels(u).
  std::vector<unsigned> Digit(U, 0);
  std::vector<std::vector<unsigned>> Subsets;
  while (true) {
    // Advance the counter (skip the initial all-absent state by emitting
    // after incrementing).
    unsigned Pos = 0;
    while (Pos < U && Digit[Pos] == Index.levels(Pos)) {
      Digit[Pos] = 0;
      ++Pos;
    }
    if (Pos == U)
      break;
    ++Digit[Pos];

    std::vector<unsigned> Subset;
    for (unsigned P = 0; P != U; ++P)
      if (Digit[P] > 0)
        Subset.push_back(Index.flat(P, Digit[P] - 1));
    if (!Subset.empty())
      Subsets.push_back(std::move(Subset));
  }
  return Subsets;
}

namespace {
/// The evidence every Level-2 phase reads: the Level-1 tables and their
/// columnar form, label column attached. runLevelTwo builds it and drops
/// it when it returns.
struct Evidence {
  Evidence(const runtime::TunableProgram &Program, const LevelOneResult &L1,
           const std::vector<size_t> &TrainRows)
      : L1(L1), TrainRows(TrainRows), Spec(Program.accuracy()),
        K(static_cast<unsigned>(L1.Landmarks.size())),
        Data(L1.Features, L1.ExtractCosts, L1.Time, L1.Acc,
             Spec ? std::optional<double>(Spec->AccuracyThreshold)
                  : std::nullopt) {
    Data.setLabels(labelAllRows(L1.Time, L1.Acc, Spec));
  }

  const LevelOneResult &L1;
  const std::vector<size_t> &TrainRows;
  std::optional<runtime::AccuracySpec> Spec;
  unsigned K;
  ml::Dataset Data;
};

/// Cross-validation folds over the training rows, as global row ids.
struct Folds {
  std::vector<std::vector<size_t>> Train, Test;
  size_t size() const { return Train.size(); }
};

/// How the retrain refits one zoo candidate on all training rows.
struct Refit {
  enum Family { StaticBest, MaxApriori, SubsetTree, Incremental };
  Family Kind = StaticBest;
  /// SubsetTree: index into Zoo::Subsets; Incremental: into Zoo::Orders.
  size_t Index = 0;
};

/// The swept zoo: a score and a refit record per candidate, parallel and
/// in selection order, and the feature lists the records index.
struct Zoo {
  std::vector<CandidateScore> Scores;
  std::vector<Refit> Refits;
  std::vector<std::vector<unsigned>> Subsets;
  /// Incremental acquisition orders: over all features, then over the
  /// best subset.
  std::vector<std::vector<unsigned>> Orders;

  void add(CandidateScore S, Refit How) {
    Scores.push_back(std::move(S));
    Refits.push_back(How);
  }
};

/// Direct-column feature reader for candidate scoring: replays
/// FeatureProbe's accounting -- each feature's extraction cost charged
/// exactly once, at first touch, in touch order -- against the columnar
/// tables, without the per-row vector allocations and std::function
/// dispatch probeFromTable pays.
class ColumnProbe {
public:
  explicit ColumnProbe(const ml::Dataset &D)
      : D(D), Touched(D.numFeatures(), 0) {
    TouchedList.reserve(D.numFeatures());
  }
  void beginRow(size_t NewRow) {
    for (unsigned F : TouchedList)
      Touched[F] = 0;
    TouchedList.clear();
    RowCost = 0.0;
    Row = NewRow;
  }
  double operator()(unsigned F) {
    if (!Touched[F]) {
      Touched[F] = 1;
      TouchedList.push_back(F);
      RowCost += D.costCol(F)[Row];
    }
    return D.featureCol(F)[Row];
  }
  double totalCost() const { return RowCost; }

private:
  const ml::Dataset &D;
  std::vector<uint8_t> Touched;
  std::vector<unsigned> TouchedList;
  double RowCost = 0.0;
  size_t Row = 0;
};
} // namespace

/// Scores \p Predict (returning a landmark and accumulating feature cost
/// via the probe) over held-out rows \p Rows.
template <class PredictFn>
static CandidateScore scoreOnColumns(const Evidence &E,
                                     const std::vector<size_t> &Rows,
                                     ColumnProbe &Probe, PredictFn &&Predict) {
  CandidateScore S;
  if (Rows.empty())
    return S;
  double SumWith = 0.0, SumWithout = 0.0;
  size_t Meets = 0;
  for (size_t Row : Rows) {
    Probe.beginRow(Row);
    unsigned Pred = Predict(Probe);
    SumWithout += E.Data.timeCol(Pred)[Row];
    SumWith += E.Data.timeCol(Pred)[Row] + Probe.totalCost();
    if (!E.Spec || E.Data.meets(Row, Pred))
      ++Meets;
  }
  S.Objective = SumWith / static_cast<double>(Rows.size());
  S.ObjectiveNoFeat = SumWithout / static_cast<double>(Rows.size());
  S.Satisfaction =
      static_cast<double>(Meets) / static_cast<double>(Rows.size());
  S.Valid = !E.Spec || S.Satisfaction >= E.Spec->SatisfactionThreshold;
  return S;
}

/// Averages the per-fold scores [\p Begin, \p End) into one candidate
/// score. Validity follows the paper's satisfaction-threshold rule
/// applied to the pooled held-out satisfaction rate.
static CandidateScore
averageScores(std::string Name, const CandidateScore *Begin,
              const CandidateScore *End,
              const std::optional<runtime::AccuracySpec> &Spec) {
  CandidateScore S;
  S.Name = std::move(Name);
  if (Begin == End)
    return S;
  S.Satisfaction = 0.0; // default is 1.0; reset before accumulating
  for (const CandidateScore *F = Begin; F != End; ++F) {
    S.Objective += F->Objective;
    S.ObjectiveNoFeat += F->ObjectiveNoFeat;
    S.Satisfaction += F->Satisfaction;
  }
  double N = static_cast<double>(End - Begin);
  S.Objective /= N;
  S.ObjectiveNoFeat /= N;
  S.Satisfaction /= N;
  S.Valid = !Spec || S.Satisfaction >= Spec->SatisfactionThreshold;
  return S;
}

/// Subset name like "tree{sortedness@1,deviation@0}", built in place.
static std::string subsetName(const runtime::FeatureIndex &Index,
                              const std::vector<unsigned> &Subset) {
  std::string Name;
  Name.reserve(64);
  Name += "tree{";
  for (size_t I = 0; I != Subset.size(); ++I) {
    if (I)
      Name += ',';
    unsigned P = Index.propertyOf(Subset[I]);
    Name += Index.propertyName(P);
    Name += '@';
    Name += std::to_string(Subset[I] - Index.flat(P, 0));
  }
  Name += '}';
  return Name;
}

/// Flat features ordered by mean extraction cost over training rows
/// (cheapest first), the acquisition order of the incremental classifier.
static std::vector<unsigned>
cheapestFirstOrder(const linalg::Matrix &ExtractCosts,
                   const std::vector<size_t> &Rows,
                   const std::vector<unsigned> &Candidates) {
  std::vector<double> MeanCost(Candidates.size(), 0.0);
  for (size_t C = 0; C != Candidates.size(); ++C) {
    for (size_t Row : Rows)
      MeanCost[C] += ExtractCosts.at(Row, Candidates[C]);
    if (!Rows.empty())
      MeanCost[C] /= static_cast<double>(Rows.size());
  }
  std::vector<size_t> Order(Candidates.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](size_t A, size_t B) { return MeanCost[A] < MeanCost[B]; });
  std::vector<unsigned> Out(Candidates.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Out[I] = Candidates[Order[I]];
  return Out;
}

/// Refinement: every training row's label is its best landmark (measured,
/// accuracy-aware); records how many rows left their Level-1 cluster.
static void refineLabels(const Evidence &E, LevelTwoResult &R) {
  R.TrainLabels.reserve(E.TrainRows.size());
  size_t Moved = 0;
  for (size_t I = 0; I != E.TrainRows.size(); ++I) {
    R.TrainLabels.push_back(E.Data.label(E.TrainRows[I]));
    if (R.TrainLabels[I] != E.L1.Clusters.Assignment[I])
      ++Moved;
  }
  R.RefinementMoveFraction =
      E.TrainRows.empty() ? 0.0
                          : static_cast<double>(Moved) /
                                static_cast<double>(E.TrainRows.size());
}

/// Cross-validation folds over positions in the training rows,
/// materialised to global row ids exactly once.
static Folds makeFolds(const std::vector<size_t> &TrainRows,
                       const LevelTwoOptions &Options) {
  support::Rng Rng(Options.Seed);
  std::vector<ml::FoldSplit> Splits = ml::kFoldSplits(
      TrainRows.size(), std::max(2u, Options.CVFolds), Rng);
  Folds F;
  F.Train.reserve(Splits.size());
  F.Test.reserve(Splits.size());
  for (const ml::FoldSplit &S : Splits) {
    F.Train.push_back(ml::gatherRows(TrainRows, S.Train));
    F.Test.push_back(ml::gatherRows(TrainRows, S.Test));
  }
  return F;
}

/// The max-a-priori model over the labels of \p Rows.
static ml::MaxApriori fitPrior(const Evidence &E,
                               const std::vector<size_t> &Rows) {
  std::vector<unsigned> Y;
  Y.reserve(Rows.size());
  for (size_t Row : Rows)
    Y.push_back(E.Data.label(Row));
  ml::MaxApriori Prior;
  Prior.fit(Y, E.K);
  return Prior;
}

/// Cross-validates one candidate: \p PredictorOf(FI) is its predictor
/// trained on fold FI, scored on the fold's held-out rows.
template <class PredictorOfFn>
static CandidateScore crossValidate(const Evidence &E, const Folds &F,
                                    std::string Name,
                                    PredictorOfFn &&PredictorOf) {
  std::vector<CandidateScore> FoldScores;
  for (size_t FI = 0; FI != F.size(); ++FI) {
    ColumnProbe Probe(E.Data);
    FoldScores.push_back(scoreOnColumns(E, F.Test[FI], Probe, PredictorOf(FI)));
  }
  return averageScores(std::move(Name), FoldScores.data(),
                       FoldScores.data() + FoldScores.size(), E.Spec);
}

/// Candidates (2)/(3): exhaustive per-property subset trees. Per fold, the
/// whole subset zoo grows together over one presorted base
/// (ml::DecisionTree::fitSubsets) -- overlapping subsets share most of
/// their nodes -- and each distinct tree is scored once: a held-out score
/// depends only on the fitted structure, so subsets sharing a tree share
/// its score. Folds are independent, so the pool splits the sweep by fold;
/// scores land in an index-addressed array and everything after stays
/// sequential, making every thread count identical. Returns the index of
/// the best valid subset.
static size_t sweepSubsetTrees(const Evidence &E, const Folds &F,
                               const runtime::FeatureIndex &Index,
                               const ml::DecisionTreeOptions &TreeOpts,
                               support::ThreadPool *Pool, Zoo &Z) {
  size_t NumFolds = F.size();
  std::vector<CandidateScore> TaskScores(Z.Subsets.size() * NumFolds);
  support::forEachIndex(Pool, NumFolds, [&](size_t FI) {
    ml::PresortedBase Base(E.Data, F.Train[FI]);
    ml::SubsetForest Forest = ml::DecisionTree::fitSubsets(
        E.Data, E.Data.labels(), E.K, TreeOpts, Base, Z.Subsets);
    std::vector<CandidateScore> TreeScores;
    TreeScores.reserve(Forest.Trees.size());
    ColumnProbe Probe(E.Data);
    for (const ml::DecisionTree &Tree : Forest.Trees)
      TreeScores.push_back(
          scoreOnColumns(E, F.Test[FI], Probe, [&Tree](ColumnProbe &P) {
            return Tree.predictWith([&P](unsigned Feat) { return P(Feat); });
          }));
    for (size_t SI = 0; SI != Z.Subsets.size(); ++SI)
      TaskScores[SI * NumFolds + FI] = TreeScores[Forest.TreeOf[SI]];
  });

  size_t Best = 0;
  double BestObjective = std::numeric_limits<double>::max();
  for (size_t SI = 0; SI != Z.Subsets.size(); ++SI) {
    const CandidateScore *Fold = TaskScores.data() + SI * NumFolds;
    CandidateScore S = averageScores(subsetName(Index, Z.Subsets[SI]), Fold,
                                     Fold + NumFolds, E.Spec);
    if (S.Valid && S.Objective < BestObjective) {
      BestObjective = S.Objective;
      Best = SI;
    }
    Z.add(std::move(S), {Refit::SubsetTree, SI});
  }
  return Best;
}

/// The zoo sweep: every candidate cross-validated over the folds, in
/// selection order.
static Zoo sweepZoo(const Evidence &E, const Folds &F,
                    const runtime::FeatureIndex &Index,
                    const LevelTwoOptions &Options,
                    const ml::DecisionTreeOptions &TreeOpts,
                    support::ThreadPool *Pool) {
  Zoo Z;
  Z.Subsets = enumerateFeatureSubsets(Index);
  Z.Scores.reserve(Z.Subsets.size() + 4);
  Z.Refits.reserve(Z.Subsets.size() + 4);

  auto Constant = [](unsigned L) { return [L](ColumnProbe &) { return L; }; };
  // (0) static-best (no input adaptation), scored like every other
  // candidate: its presence guarantees a valid candidate whenever the
  // static oracle meets the satisfaction threshold, so the selection
  // fallback only triggers when *no* configuration covers the inputs.
  Z.add(crossValidate(E, F, "static-best",
                      [&](size_t FI) {
                        return Constant(selectStaticOracle(
                            E.L1.Time, E.L1.Acc, F.Train[FI], E.Spec));
                      }),
        {Refit::StaticBest});
  // (1) max-a-priori.
  Z.add(crossValidate(E, F, "max-apriori",
                      [&](size_t FI) {
                        return Constant(fitPrior(E, F.Train[FI]).predict());
                      }),
        {Refit::MaxApriori});
  size_t BestSubset = sweepSubsetTrees(E, F, Index, TreeOpts, Pool, Z);

  // (4) incremental feature examination, over all features and over the
  // best subset, cheapest first. A feature's tables depend only on the
  // feature and the fold's rows, and the best subset's features are among
  // all of them, so each fold fits once over all features and the
  // best-subset model reuses those tables.
  std::vector<unsigned> AllFlat(Index.numFlat());
  std::iota(AllFlat.begin(), AllFlat.end(), 0);
  Z.Orders.push_back(
      cheapestFirstOrder(E.L1.ExtractCosts, E.TrainRows, AllFlat));
  Z.Orders.push_back(cheapestFirstOrder(E.L1.ExtractCosts, E.TrainRows,
                                        Z.Subsets[BestSubset]));
  std::vector<ml::IncrementalBayes> FoldBayes(F.size());
  for (size_t FI = 0; FI != F.size(); ++FI)
    FoldBayes[FI].fit(E.L1.Features, E.Data.labels(), E.K, Z.Orders[0],
                      Options.Bayes, F.Train[FI]);
  const char *const Names[] = {"incremental{all}", "incremental{best-subset}"};
  for (size_t Run = 0; Run != Z.Orders.size(); ++Run) {
    auto FoldModel = [&](size_t FI) {
      if (Run != 0)
        FoldBayes[FI] = FoldBayes[FI].withOrder(Z.Orders[Run]);
      return [&Bayes = FoldBayes[FI]](ColumnProbe &P) {
        return Bayes.predictWith([&P](unsigned Feat) { return P(Feat); }).Label;
      };
    };
    Z.add(crossValidate(E, F, Names[Run], FoldModel),
          {Refit::Incremental, Run});
  }
  return Z;
}

/// Selection: the valid candidate with the lowest objective; when none
/// clears the satisfaction bar, the highest satisfaction, then the lowest
/// objective.
static size_t selectCandidate(const std::vector<CandidateScore> &Candidates) {
  size_t Selected = 0;
  bool AnyValid = false;
  for (size_t I = 0; I != Candidates.size(); ++I) {
    const CandidateScore &S = Candidates[I];
    if (S.Valid &&
        (!AnyValid || S.Objective < Candidates[Selected].Objective)) {
      Selected = I;
      AnyValid = true;
    }
  }
  if (AnyValid)
    return Selected;
  for (size_t I = 1; I != Candidates.size(); ++I) {
    const CandidateScore &S = Candidates[I];
    const CandidateScore &Cur = Candidates[Selected];
    if (S.Satisfaction > Cur.Satisfaction ||
        (S.Satisfaction == Cur.Satisfaction && S.Objective < Cur.Objective))
      Selected = I;
  }
  return Selected;
}

/// Retrain: refits the selected candidate on all training rows as its
/// record says; \p Name is its report label.
static std::unique_ptr<InputClassifier>
retrainSelected(const Evidence &E, const Zoo &Z, const Refit &How,
                const std::string &Name, const LevelTwoOptions &Options,
                const ml::DecisionTreeOptions &TreeOpts) {
  switch (How.Kind) {
  case Refit::StaticBest:
    return std::make_unique<ConstantClassifier>(
        selectStaticOracle(E.L1.Time, E.L1.Acc, E.TrainRows, E.Spec));
  case Refit::MaxApriori:
    return std::make_unique<MaxAprioriClassifier>(fitPrior(E, E.TrainRows));
  case Refit::SubsetTree: {
    const std::vector<unsigned> &Subset = Z.Subsets[How.Index];
    ml::PresortedBase Base(E.Data, E.TrainRows);
    ml::SubsetForest Forest = ml::DecisionTree::fitSubsets(
        E.Data, E.Data.labels(), E.K, TreeOpts, Base, {Subset});
    return std::make_unique<SubsetTreeClassifier>(std::move(Forest.Trees[0]),
                                                  Subset, Name);
  }
  case Refit::Incremental: {
    ml::IncrementalBayes Bayes;
    Bayes.fit(E.L1.Features, E.Data.labels(), E.K, Z.Orders[How.Index],
              Options.Bayes, E.TrainRows);
    return std::make_unique<IncrementalClassifier>(std::move(Bayes), Name);
  }
  }
  assert(false && "unknown refit family");
  return nullptr;
}

LevelTwoResult core::runLevelTwo(const runtime::TunableProgram &Program,
                                 const LevelOneResult &L1,
                                 const std::vector<size_t> &TrainRows,
                                 const LevelTwoOptions &Options,
                                 support::ThreadPool *Pool) {
  Evidence E(Program, L1, TrainRows);
  LevelTwoResult R;
  refineLabels(E, R);
  R.Costs = buildCostMatrix(L1.Time, L1.Acc, TrainRows, R.TrainLabels, E.K,
                            E.Spec, Options.Eta);
  Folds F = makeFolds(TrainRows, Options);
  ml::DecisionTreeOptions TreeOpts = Options.Tree;
  TreeOpts.Costs = &R.Costs;
  Zoo Z = sweepZoo(E, F, runtime::FeatureIndex(Program.features()), Options,
                   TreeOpts, Pool);
  size_t Selected = selectCandidate(Z.Scores);
  R.SelectedName = Z.Scores[Selected].Name;
  R.Production = retrainSelected(E, Z, Z.Refits[Selected], R.SelectedName,
                                 Options, TreeOpts);
  R.Candidates = std::move(Z.Scores);
  return R;
}
