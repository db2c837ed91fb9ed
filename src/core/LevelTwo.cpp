//===- core/LevelTwo.cpp -----------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "core/LevelTwo.h"
#include "core/Labeling.h"
#include "ml/CrossValidation.h"
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
/// via the probe) over dataset rows \p Rows.
template <class PredictFn>
static CandidateScore
scoreOnColumns(const ml::Dataset &D,
               const std::optional<runtime::AccuracySpec> &Spec,
               const std::vector<size_t> &Rows, const std::string &Name,
               ColumnProbe &Probe, PredictFn &&Predict) {
  CandidateScore S;
  S.Name = Name;
  if (Rows.empty())
    return S;
  double SumWith = 0.0, SumWithout = 0.0;
  size_t Meets = 0;
  for (size_t Row : Rows) {
    Probe.beginRow(Row);
    unsigned Pred = Predict(Row, Probe);
    SumWithout += D.timeCol(Pred)[Row];
    SumWith += D.timeCol(Pred)[Row] + Probe.totalCost();
    if (!Spec || D.meets(Row, Pred))
      ++Meets;
  }
  S.Objective = SumWith / static_cast<double>(Rows.size());
  S.ObjectiveNoFeat = SumWithout / static_cast<double>(Rows.size());
  S.Satisfaction =
      static_cast<double>(Meets) / static_cast<double>(Rows.size());
  S.Valid = !Spec || S.Satisfaction >= Spec->SatisfactionThreshold;
  return S;
}

/// Averages per-fold scores into one candidate score. Validity follows
/// the paper's satisfaction-threshold rule applied to the pooled held-out
/// satisfaction rate, tightened by the selection margin.
static CandidateScore
averageScores(const std::string &Name, const std::vector<CandidateScore> &Folds,
              const std::optional<runtime::AccuracySpec> &Spec,
              double SelectionMargin) {
  CandidateScore S;
  S.Name = Name;
  if (Folds.empty())
    return S;
  S.Satisfaction = 0.0; // default is 1.0; reset before accumulating
  for (const CandidateScore &F : Folds) {
    S.Objective += F.Objective;
    S.ObjectiveNoFeat += F.ObjectiveNoFeat;
    S.Satisfaction += F.Satisfaction;
  }
  double N = static_cast<double>(Folds.size());
  S.Objective /= N;
  S.ObjectiveNoFeat /= N;
  S.Satisfaction /= N;
  S.Valid = !Spec ||
            S.Satisfaction >= std::min(1.0, Spec->SatisfactionThreshold +
                                                SelectionMargin);
  return S;
}

/// Subset name like "tree{sortedness@1,deviation@0}".
static std::string subsetName(const runtime::FeatureIndex &Index,
                              const std::vector<unsigned> &Subset) {
  std::string Name = "tree{";
  for (size_t I = 0; I != Subset.size(); ++I) {
    if (I)
      Name += ",";
    Name += Index.flatName(Subset[I]);
  }
  Name += "}";
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

LevelTwoResult core::runLevelTwo(const runtime::TunableProgram &Program,
                                 const LevelOneResult &L1,
                                 const std::vector<size_t> &TrainRows,
                                 const LevelTwoOptions &Options,
                                 const ml::Dataset *Data) {
  LevelTwoResult R;
  std::optional<runtime::AccuracySpec> Spec = Program.accuracy();
  unsigned K = static_cast<unsigned>(L1.Landmarks.size());
  runtime::FeatureIndex Index(Program.features());

  // The columnar substrate: passed through by the pipeline (extracted
  // once per training run) or columnarized locally for direct callers.
  std::optional<ml::Dataset> LocalData;
  if (!Data) {
    LocalData.emplace(L1.Features, L1.ExtractCosts, L1.Time, L1.Acc,
                      Spec ? std::optional<double>(Spec->AccuracyThreshold)
                           : std::nullopt);
    LocalData->setLabels(labelAllRows(L1.Time, L1.Acc, Spec));
    Data = &*LocalData;
  }
  assert(Data->hasLabels() && "dataset must carry its label column");

  // --- Cluster refinement: performance-based re-labelling. ---
  R.TrainLabels.reserve(TrainRows.size());
  for (size_t Row : TrainRows)
    R.TrainLabels.push_back(Data->label(Row));
  size_t Moved = 0;
  for (size_t I = 0; I != TrainRows.size(); ++I)
    if (R.TrainLabels[I] != L1.Clusters.Assignment[I])
      ++Moved;
  R.RefinementMoveFraction =
      TrainRows.empty() ? 0.0
                        : static_cast<double>(Moved) /
                              static_cast<double>(TrainRows.size());

  // --- Cost matrix. ---
  R.Costs = buildCostMatrix(L1.Time, L1.Acc, TrainRows, R.TrainLabels, K, Spec,
                            Options.Eta);

  // Labels addressed by global row id (for training on fold subsets).
  std::vector<unsigned> LabelOfRow(L1.Features.rows(), 0);
  for (size_t I = 0; I != TrainRows.size(); ++I)
    LabelOfRow[TrainRows[I]] = R.TrainLabels[I];

  // Cross-validation folds over positions in TrainRows, materialised to
  // global row ids exactly once.
  support::Rng Rng(Options.Seed);
  unsigned Folds = std::max(2u, Options.CVFolds);
  std::vector<ml::FoldSplit> Splits =
      ml::kFoldSplits(TrainRows.size(), Folds, Rng);
  size_t NumFolds = Splits.size();
  std::vector<std::vector<size_t>> FoldTrain(NumFolds), FoldTest(NumFolds);
  for (size_t FI = 0; FI != NumFolds; ++FI) {
    FoldTrain[FI] = ml::gatherRows(TrainRows, Splits[FI].Train);
    FoldTest[FI] = ml::gatherRows(TrainRows, Splits[FI].Test);
  }

  ml::DecisionTreeOptions TreeOpts = Options.Tree;
  TreeOpts.Costs = &R.Costs;

  // --- Candidate (0): static-best (no input adaptation). Scored like
  // every other candidate; its presence guarantees a valid candidate
  // whenever the static oracle meets the satisfaction threshold, so the
  // selection fallback only triggers when *no* configuration covers the
  // inputs. ---
  {
    std::vector<CandidateScore> FoldScores;
    for (size_t FI = 0; FI != NumFolds; ++FI) {
      unsigned Static =
          selectStaticOracle(L1.Time, L1.Acc, FoldTrain[FI], Spec);
      ColumnProbe Probe(*Data);
      FoldScores.push_back(scoreOnColumns(
          *Data, Spec, FoldTest[FI], "static-best", Probe,
          [&](size_t, ColumnProbe &) { return Static; }));
    }
    R.Candidates.push_back(averageScores("static-best", FoldScores, Spec,
                                         Options.SelectionMargin));
  }

  // --- Candidate (1): max-a-priori. ---
  {
    std::vector<CandidateScore> FoldScores;
    for (size_t FI = 0; FI != NumFolds; ++FI) {
      ml::MaxApriori Prior;
      std::vector<unsigned> Y;
      Y.reserve(FoldTrain[FI].size());
      for (size_t Row : FoldTrain[FI])
        Y.push_back(LabelOfRow[Row]);
      Prior.fit(Y, K);
      ColumnProbe Probe(*Data);
      FoldScores.push_back(scoreOnColumns(
          *Data, Spec, FoldTest[FI], "max-apriori", Probe,
          [&](size_t, ColumnProbe &) { return Prior.predict(); }));
    }
    R.Candidates.push_back(averageScores("max-apriori", FoldScores, Spec, Options.SelectionMargin));
  }

  // --- Candidates (2)/(3): exhaustive per-property subset trees. Per
  // fold, the whole subset zoo grows together over one presorted base
  // (ml::DecisionTree::fitSubsets) -- overlapping subsets share most of
  // their nodes -- and each distinct tree is scored once: a held-out
  // score depends only on the fitted structure, so subsets sharing a tree
  // share its score. Folds are independent, so the pool splits the sweep
  // by fold; scores land in an index-addressed array and the selection
  // below stays sequential, making every thread count identical. Fold row
  // sets compose as views of the training view. ---
  std::vector<std::vector<unsigned>> Subsets = enumerateFeatureSubsets(Index);
  std::vector<CandidateScore> SubsetScores(Subsets.size());
  ml::RowView TrainView = ml::RowView::of(*Data, TrainRows);
  std::vector<CandidateScore> TaskScores(Subsets.size() * NumFolds);
  auto ScoreFold = [&](size_t FI) {
    ml::PresortedBase Base(*Data, TrainView.subset(Splits[FI].Train));
    ml::SubsetForest Forest = ml::DecisionTree::fitSubsets(
        *Data, LabelOfRow, K, TreeOpts, Base, Subsets);
    std::vector<CandidateScore> TreeScores;
    TreeScores.reserve(Forest.Trees.size());
    ColumnProbe Probe(*Data);
    for (const ml::DecisionTree &Tree : Forest.Trees)
      TreeScores.push_back(scoreOnColumns(
          *Data, Spec, FoldTest[FI], std::string(), Probe,
          [&Tree](size_t, ColumnProbe &P) {
            return Tree.predictWith([&P](unsigned F) { return P(F); });
          }));
    for (size_t SI = 0; SI != Subsets.size(); ++SI)
      TaskScores[SI * NumFolds + FI] = TreeScores[Forest.TreeOf[SI]];
  };
  if (Options.Pool)
    Options.Pool->parallelFor(0, NumFolds, ScoreFold);
  else
    for (size_t FI = 0; FI != NumFolds; ++FI)
      ScoreFold(FI);
  for (size_t SI = 0; SI != Subsets.size(); ++SI) {
    std::string Name = subsetName(Index, Subsets[SI]);
    std::vector<CandidateScore> FoldScores(
        TaskScores.begin() + SI * NumFolds,
        TaskScores.begin() + (SI + 1) * NumFolds);
    SubsetScores[SI] =
        averageScores(Name, FoldScores, Spec, Options.SelectionMargin);
  }

  size_t BestSubsetIdx = 0;
  double BestSubsetObjective = std::numeric_limits<double>::max();
  for (size_t SI = 0; SI != Subsets.size(); ++SI) {
    CandidateScore &S = SubsetScores[SI];
    if (S.Valid && S.Objective < BestSubsetObjective) {
      BestSubsetObjective = S.Objective;
      BestSubsetIdx = SI;
    }
    R.Candidates.push_back(std::move(S));
  }

  // --- Candidate (4): incremental feature examination, over all features
  // and over the best subset, cheapest first. ---
  std::vector<unsigned> AllFlat(Index.numFlat());
  std::iota(AllFlat.begin(), AllFlat.end(), 0);
  std::vector<std::pair<std::string, std::vector<unsigned>>> IncrementalRuns =
      {{"incremental{all}",
        cheapestFirstOrder(L1.ExtractCosts, TrainRows, AllFlat)},
       {"incremental{best-subset}",
        cheapestFirstOrder(L1.ExtractCosts, TrainRows,
                           Subsets[BestSubsetIdx])}};
  for (const auto &[Name, Order] : IncrementalRuns) {
    std::vector<CandidateScore> FoldScores;
    for (size_t FI = 0; FI != NumFolds; ++FI) {
      ml::IncrementalBayes Bayes;
      Bayes.fit(L1.Features, LabelOfRow, K, Order, Options.Bayes,
                FoldTrain[FI]);
      ColumnProbe Probe(*Data);
      FoldScores.push_back(scoreOnColumns(
          *Data, Spec, FoldTest[FI], Name, Probe,
          [&Bayes](size_t, ColumnProbe &P) {
            return Bayes.predictWith([&P](unsigned F) { return P(F); }).Label;
          }));
    }
    R.Candidates.push_back(averageScores(Name, FoldScores, Spec, Options.SelectionMargin));
  }

  // --- Candidate selection. ---
  size_t Selected = 0;
  bool AnyValid = false;
  for (size_t I = 0; I != R.Candidates.size(); ++I) {
    const CandidateScore &S = R.Candidates[I];
    if (S.Valid && (!AnyValid || S.Objective < R.Candidates[Selected].Objective)) {
      Selected = I;
      AnyValid = true;
    }
  }
  if (!AnyValid) {
    // No candidate clears the satisfaction bar: fall back to the highest
    // satisfaction, then lowest objective.
    for (size_t I = 1; I != R.Candidates.size(); ++I) {
      const CandidateScore &S = R.Candidates[I];
      const CandidateScore &Cur = R.Candidates[Selected];
      if (S.Satisfaction > Cur.Satisfaction ||
          (S.Satisfaction == Cur.Satisfaction && S.Objective < Cur.Objective))
        Selected = I;
    }
  }
  R.SelectedName = R.Candidates[Selected].Name;

  // --- Retrain the selected family on all training rows. ---
  if (R.SelectedName == "static-best") {
    unsigned Static = selectStaticOracle(L1.Time, L1.Acc, TrainRows, Spec);
    R.Production = std::make_unique<ConstantClassifier>(Static);
  } else if (R.SelectedName == "max-apriori") {
    ml::MaxApriori Prior;
    Prior.fit(R.TrainLabels, K);
    R.Production = std::make_unique<MaxAprioriClassifier>(std::move(Prior));
  } else if (R.SelectedName.rfind("incremental", 0) == 0) {
    const auto &Order = R.SelectedName == "incremental{all}"
                            ? IncrementalRuns[0].second
                            : IncrementalRuns[1].second;
    ml::IncrementalBayes Bayes;
    Bayes.fit(L1.Features, LabelOfRow, K, Order, Options.Bayes, TrainRows);
    R.Production =
        std::make_unique<IncrementalClassifier>(std::move(Bayes), R.SelectedName);
  } else {
    // A subset tree: candidates 2 .. 2+S-1 are the subsets in order.
    assert(Selected >= 2 && Selected - 2 < Subsets.size() &&
           "selected candidate is not a subset tree");
    const std::vector<unsigned> &Subset = Subsets[Selected - 2];
    ml::PresortedBase TrainBase(*Data, TrainView);
    ml::SubsetForest Forest = ml::DecisionTree::fitSubsets(
        *Data, LabelOfRow, K, TreeOpts, TrainBase, {Subset});
    R.Production = std::make_unique<SubsetTreeClassifier>(
        std::move(Forest.Trees[0]), Subset, R.SelectedName);
  }
  return R;
}
