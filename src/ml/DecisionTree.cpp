//===- ml/DecisionTree.cpp -------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "ml/DecisionTree.h"

#include "ml/CompiledArena.h"
#include "ml/Dataset.h"
#include "serialize/TextFormat.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>

using namespace pbt;
using namespace pbt::ml;

/// Gini impurity of a class histogram with \p Total samples.
static double gini(const std::vector<double> &Counts, double Total) {
  if (Total <= 0.0)
    return 0.0;
  double SumSq = 0.0;
  for (double C : Counts)
    SumSq += C * C;
  return 1.0 - SumSq / (Total * Total);
}

/// Leaf label for a class histogram: the expected-cost-minimising class
/// under the cost matrix, else the majority class.
static unsigned leafLabel(const std::vector<double> &ClassCounts,
                          const DecisionTreeOptions &Options) {
  if (Options.Costs && !Options.Costs->empty())
    return Options.Costs->cheapestPrediction(ClassCounts);
  return static_cast<unsigned>(std::distance(
      ClassCounts.begin(),
      std::max_element(ClassCounts.begin(), ClassCounts.end())));
}

unsigned DecisionTree::makeLeaf(const std::vector<double> &ClassCounts,
                                const DecisionTreeOptions &Options) {
  Node L;
  L.IsLeaf = true;
  L.Label = leafLabel(ClassCounts, Options);
  Nodes.push_back(L);
  return static_cast<unsigned>(Nodes.size() - 1);
}

namespace {
/// The best split of one feature at one node.
struct SplitChoice {
  /// Gains must beat this floor to split at all.
  double Gain = 1e-12;
  double Threshold = 0.0;
  bool Found = false;
};
} // namespace

/// Scans the \p N rows of one value-ordered presorted column \p Col
/// (values \p Vals) for its best split: the maximal Gini gain above the
/// 1e-12 floor, taken at the first value boundary reaching it. Picking
/// the feature whose best gain is strictly greatest, in candidate order,
/// then selects the same (feature, threshold) as one running scan over
/// every candidate's boundaries would. \p LeftCounts is scratch.
static SplitChoice bestSplitOf(const uint32_t *Col, size_t N,
                               const double *Vals,
                               const std::vector<unsigned> &Y,
                               const std::vector<double> &Counts,
                               double ParentImpurity,
                               const DecisionTreeOptions &Options,
                               std::vector<double> &LeftCounts) {
  SplitChoice Best;
  double Total = static_cast<double>(N);
  unsigned NumClasses = static_cast<unsigned>(Counts.size());
  std::fill(LeftCounts.begin(), LeftCounts.end(), 0.0);
  for (size_t I = 0; I + 1 < N; ++I) {
    LeftCounts[Y[Col[I]]] += 1.0;
    double Va = Vals[Col[I]], Vb = Vals[Col[I + 1]];
    if (Va == Vb)
      continue;
    double NLeft = static_cast<double>(I + 1);
    double NRight = Total - NLeft;
    if (NLeft < Options.MinSamplesLeaf || NRight < Options.MinSamplesLeaf)
      continue;
    double RightImpurity;
    {
      // Right counts = Counts - LeftCounts.
      double SumSq = 0.0;
      for (unsigned C = 0; C != NumClasses; ++C) {
        double R = Counts[C] - LeftCounts[C];
        SumSq += R * R;
      }
      RightImpurity = 1.0 - SumSq / (NRight * NRight);
    }
    double Gain = ParentImpurity - (NLeft / Total) * gini(LeftCounts, NLeft) -
                  (NRight / Total) * RightImpurity;
    if (Gain > Best.Gain) {
      Best.Gain = Gain;
      Best.Threshold = (Va + Vb) / 2.0;
      Best.Found = true;
    }
  }
  return Best;
}

unsigned DecisionTree::build(const linalg::Matrix &X,
                             const std::vector<unsigned> &Y,
                             unsigned NumClasses,
                             const DecisionTreeOptions &Options,
                             std::vector<size_t> &Indices, size_t Begin,
                             size_t End, unsigned Depth,
                             std::vector<std::pair<double, unsigned>> &Scratch) {
  assert(End > Begin && "empty node");
  double Total = static_cast<double>(End - Begin);
  std::vector<double> Counts(NumClasses, 0.0);
  for (size_t I = Begin; I != End; ++I)
    Counts[Y[Indices[I]]] += 1.0;

  bool Pure = false;
  for (double C : Counts)
    if (C == Total)
      Pure = true;

  if (Pure || Depth >= Options.MaxDepth ||
      End - Begin < Options.MinSamplesSplit)
    return makeLeaf(Counts, Options);

  // Find the best (feature, threshold) split by exhaustive scan.
  const std::vector<unsigned> &Candidates = Options.AllowedFeatures;
  double ParentImpurity = gini(Counts, Total);
  double BestGain = 1e-12;
  int BestFeature = -1;
  double BestThreshold = 0.0;

  // Copy (value, label) pairs into the reused scratch buffer and sort
  // that, instead of re-sorting an index vector with a Matrix::at
  // comparator per (node, feature): the sweep below only reads counts of
  // labels on each side of a value boundary, which are invariant to the
  // order within equal-value runs, so a plain value sort of the pairs
  // finds exactly the same (feature, threshold) split as the old
  // stable_sort-by-index scan.
  std::vector<double> LeftCounts(NumClasses);
  for (size_t CI = 0, CE = Candidates.empty() ? NumFeatures
                                              : Candidates.size();
       CI != CE; ++CI) {
    unsigned F = Candidates.empty() ? static_cast<unsigned>(CI)
                                    : Candidates[CI];
    Scratch.clear();
    for (size_t I = Begin; I != End; ++I)
      Scratch.emplace_back(X.at(Indices[I], F), Y[Indices[I]]);
    std::sort(Scratch.begin(), Scratch.end(),
              [](const std::pair<double, unsigned> &A,
                 const std::pair<double, unsigned> &B) {
                return A.first < B.first;
              });
    std::fill(LeftCounts.begin(), LeftCounts.end(), 0.0);
    for (size_t I = 0; I + 1 < Scratch.size(); ++I) {
      LeftCounts[Scratch[I].second] += 1.0;
      double Va = Scratch[I].first, Vb = Scratch[I + 1].first;
      if (Va == Vb)
        continue;
      double NLeft = static_cast<double>(I + 1);
      double NRight = Total - NLeft;
      if (NLeft < Options.MinSamplesLeaf || NRight < Options.MinSamplesLeaf)
        continue;
      double RightImpurity;
      {
        // Right counts = Counts - LeftCounts.
        double SumSq = 0.0;
        for (unsigned C = 0; C != NumClasses; ++C) {
          double R = Counts[C] - LeftCounts[C];
          SumSq += R * R;
        }
        RightImpurity = 1.0 - SumSq / (NRight * NRight);
      }
      double Gain = ParentImpurity - (NLeft / Total) * gini(LeftCounts, NLeft) -
                    (NRight / Total) * RightImpurity;
      if (Gain > BestGain) {
        BestGain = Gain;
        BestFeature = static_cast<int>(F);
        BestThreshold = (Va + Vb) / 2.0;
      }
    }
  }

  if (BestFeature < 0)
    return makeLeaf(Counts, Options);

  // Partition indices in place: left = value <= threshold.
  auto Mid = std::stable_partition(
      Indices.begin() + Begin, Indices.begin() + End, [&](size_t I) {
        return X.at(I, static_cast<unsigned>(BestFeature)) <= BestThreshold;
      });
  size_t MidPos = static_cast<size_t>(Mid - Indices.begin());
  if (MidPos == Begin || MidPos == End)
    return makeLeaf(Counts, Options); // Degenerate split; should not happen.

  unsigned Self = static_cast<unsigned>(Nodes.size());
  Nodes.emplace_back();
  Nodes[Self].IsLeaf = false;
  Nodes[Self].Feature = BestFeature;
  Nodes[Self].Threshold = BestThreshold;
  unsigned Left = build(X, Y, NumClasses, Options, Indices, Begin, MidPos,
                        Depth + 1, Scratch);
  unsigned Right = build(X, Y, NumClasses, Options, Indices, MidPos, End,
                         Depth + 1, Scratch);
  Nodes[Self].Left = Left;
  Nodes[Self].Right = Right;
  return Self;
}

/// Grows every subset tree of one row set at once (see fitSubsets). A
/// node is visited once per distinct root-to-node path; the subsets on
/// that path ("members") share its label counts, leaf tests, per-feature
/// best splits and partitions. Subsets are tracked in equivalence classes
/// of identical trees so far, refined whenever two members of a class
/// choose differently; the final classes are the distinct trees. A class
/// always reaches a node whole (its members chose alike at every
/// ancestor), so each class keeps one node list, and a node is appended
/// once per class that reaches it, in that class's pre-order -- the node
/// numbering an independent fit emits. A class that splits off starts
/// from a copy of its parent class's list.
class DecisionTree::SharedGrower {
public:
  SharedGrower(const ml::Dataset &Data, const std::vector<unsigned> &Y,
               unsigned NumClasses, const DecisionTreeOptions &Options,
               const std::vector<std::vector<unsigned>> &Subsets)
      : Data(Data), Y(Y), NumClasses(NumClasses), Options(Options),
        M(Data.numFeatures()), Feats(Subsets), ClassNodes(1),
        ClassOf(Subsets.size(), 0) {
    for (std::vector<unsigned> &F : Feats) {
      if (F.empty()) {
        F.resize(M);
        std::iota(F.begin(), F.end(), 0u);
      }
#ifndef NDEBUG
      for (unsigned Feature : F)
        assert(Feature < M && "subset feature out of range");
#endif
    }
  }

  /// Grows the node holding the \p N rows of \p Cols (all M presorted
  /// columns, feature-major) for \p Members.
  void grow(const uint32_t *Cols, size_t N,
            const std::vector<unsigned> &Members, unsigned Depth) {
    assert(N > 0 && "empty node");
    while (Frames.size() <= Depth)
      Frames.emplace_back();
    Frame &Fr = Frames[Depth];
    double Total = static_cast<double>(N);
    std::vector<double> &Counts = Fr.Counts;
    Counts.assign(NumClasses, 0.0);
    for (size_t I = 0; I != N; ++I)
      Counts[Y[Cols[I]]] += 1.0;

    bool Pure = false;
    for (double C : Counts)
      if (C == Total)
        Pure = true;
    if (Pure || Depth >= Options.MaxDepth || N < Options.MinSamplesSplit) {
      addLeaf(Members, Counts);
      return;
    }

    // Each feature's best split, once, for every feature a member may use.
    std::vector<uint8_t> &Needed = Fr.Needed;
    Needed.assign(M, 0);
    for (unsigned S : Members)
      for (unsigned F : Feats[S])
        Needed[F] = 1;
    double ParentImpurity = gini(Counts, Total);
    std::vector<SplitChoice> &Best = Fr.Best;
    Best.assign(M, SplitChoice());
    LeftCounts.resize(NumClasses);
    for (unsigned F = 0; F != M; ++F)
      if (Needed[F])
        Best[F] = bestSplitOf(Cols + static_cast<size_t>(F) * N, N,
                              Data.featureCol(F), Y, Counts, ParentImpurity,
                              Options, LeftCounts);

    // Each member's split: its strictly best feature, in its own order
    // (-1: no split clears the floor). Members choosing alike form one
    // group, in order of first appearance.
    std::vector<int> &GroupOfChoice = Fr.GroupOfChoice;
    GroupOfChoice.assign(M + 1, -1);
    std::vector<int> &GroupFeature = Fr.GroupFeature;
    GroupFeature.clear();
    std::vector<std::vector<unsigned>> &Groups = Fr.Groups;
    size_t NumGroups = 0;
    std::vector<int> &Choice = Fr.Choice;
    Choice.resize(Members.size());
    for (size_t I = 0; I != Members.size(); ++I) {
      double Gain = 1e-12;
      int Pick = -1;
      for (unsigned F : Feats[Members[I]])
        if (Best[F].Found && Best[F].Gain > Gain) {
          Gain = Best[F].Gain;
          Pick = static_cast<int>(F);
        }
      Choice[I] = Pick;
      int &G = GroupOfChoice[static_cast<size_t>(Pick + 1)];
      if (G < 0) {
        G = static_cast<int>(NumGroups++);
        if (Groups.size() < NumGroups)
          Groups.emplace_back();
        Groups[static_cast<size_t>(G)].clear();
        GroupFeature.push_back(Pick);
      }
      Groups[static_cast<size_t>(G)].push_back(Members[I]);
    }
    refineClasses(Members, Choice);

    for (size_t G = 0; G != NumGroups; ++G) {
      const std::vector<unsigned> &Group = Groups[G];
      if (GroupFeature[G] < 0) {
        addLeaf(Group, Counts);
        continue;
      }
      unsigned F = static_cast<unsigned>(GroupFeature[G]);
      double Threshold = Best[F].Threshold;
      const double *SplitVals = Data.featureCol(F);
      size_t NLeft = 0;
      for (size_t I = 0; I != N; ++I)
        NLeft += SplitVals[Cols[I]] <= Threshold;
      if (NLeft == 0 || NLeft == N) {
        addLeaf(Group, Counts); // Degenerate split; should not happen.
        continue;
      }
      // Stable partition of every column into the two children's
      // buffers: each stays value-ordered for its own feature.
      size_t NRight = N - NLeft;
      std::vector<uint32_t> &Left = Fr.Left, &Right = Fr.Right;
      Left.resize(static_cast<size_t>(M) * NLeft);
      Right.resize(static_cast<size_t>(M) * NRight);
      for (unsigned C = 0; C != M; ++C) {
        const uint32_t *Col = Cols + static_cast<size_t>(C) * N;
        uint32_t *L = Left.data() + static_cast<size_t>(C) * NLeft;
        uint32_t *R = Right.data() + static_cast<size_t>(C) * NRight;
        for (size_t I = 0; I != N; ++I) {
          uint32_t Row = Col[I];
          if (SplitVals[Row] <= Threshold)
            *L++ = Row;
          else
            *R++ = Row;
        }
      }

      // Each member records where its class put the split node: a class
      // that splits off inside the left subtree copies the list with the
      // node at the same index, so the Right patch finds it there too.
      Node Split;
      Split.IsLeaf = false;
      Split.Feature = static_cast<int>(F);
      Split.Threshold = Threshold;
      std::vector<unsigned> &Self = Fr.Self;
      Self.resize(Group.size());
      beginClassPass();
      for (size_t I = 0; I != Group.size(); ++I) {
        std::vector<Node> &T = ClassNodes[ClassOf[Group[I]]];
        if (firstVisit(ClassOf[Group[I]])) {
          Split.Left = static_cast<unsigned>(T.size()) + 1; // pre-order
          T.push_back(Split);
        }
        Self[I] = static_cast<unsigned>(T.size()) - 1;
      }
      grow(Left.data(), NLeft, Group, Depth + 1);
      for (size_t I = 0; I != Group.size(); ++I) {
        std::vector<Node> &T = ClassNodes[ClassOf[Group[I]]];
        T[Self[I]].Right = static_cast<unsigned>(T.size());
      }
      grow(Right.data(), NRight, Group, Depth + 1);
    }
  }

  /// One tree per final class, in order of first subset.
  SubsetForest finish() {
    SubsetForest Out;
    Out.TreeOf.resize(ClassOf.size());
    std::vector<int> TreeOfClass(ClassNodes.size(), -1);
    for (size_t S = 0; S != ClassOf.size(); ++S) {
      int &T = TreeOfClass[ClassOf[S]];
      if (T < 0) {
        T = static_cast<int>(Out.Trees.size());
        Out.Trees.emplace_back();
        Out.Trees.back().Nodes = std::move(ClassNodes[ClassOf[S]]);
        Out.Trees.back().NumFeatures = M;
      }
      Out.TreeOf[S] = static_cast<unsigned>(T);
    }
    return Out;
  }

private:
  void addLeaf(const std::vector<unsigned> &Members,
               const std::vector<double> &Counts) {
    Node Leaf;
    Leaf.IsLeaf = true;
    Leaf.Label = leafLabel(Counts, Options);
    beginClassPass();
    for (unsigned S : Members)
      if (firstVisit(ClassOf[S]))
        ClassNodes[ClassOf[S]].push_back(Leaf);
  }

  /// Starts a pass over some members' classes; firstVisit() is then true
  /// once per class.
  void beginClassPass() {
    ++Pass;
    PassOf.resize(ClassNodes.size(), 0);
  }
  bool firstVisit(unsigned Class) {
    if (PassOf[Class] == Pass)
      return false;
    PassOf[Class] = Pass;
    return true;
  }

  /// Splits each class whose members chose differently at this node: the
  /// first choice seen keeps the class id, every other (class, choice)
  /// pair gets a fresh id whose node list starts as a copy of the
  /// class's.
  void refineClasses(const std::vector<unsigned> &Members,
                     const std::vector<int> &Choice) {
    beginClassPass();
    Kept.resize(ClassNodes.size());
    Fresh.clear();
    for (size_t I = 0; I != Members.size(); ++I) {
      unsigned &Class = ClassOf[Members[I]];
      if (firstVisit(Class))
        Kept[Class] = Choice[I];
      if (Kept[Class] == Choice[I])
        continue;
      auto It = std::find_if(Fresh.begin(), Fresh.end(),
                             [&](const FreshClass &F) {
                               return F.From == Class && F.Choice == Choice[I];
                             });
      if (It == Fresh.end()) {
        Fresh.push_back(
            {Class, Choice[I], static_cast<unsigned>(ClassNodes.size())});
        It = Fresh.end() - 1;
        std::vector<Node> Copy = ClassNodes[Class];
        ClassNodes.push_back(std::move(Copy));
      }
      Class = It->Id;
    }
  }

  const ml::Dataset &Data;
  const std::vector<unsigned> &Y;
  unsigned NumClasses;
  const DecisionTreeOptions &Options;
  unsigned M;
  /// Per subset: its candidate features, in order.
  std::vector<std::vector<unsigned>> Feats;
  /// Per class: its tree's nodes so far.
  std::vector<std::vector<Node>> ClassNodes;
  /// Per subset: its class of identical trees so far.
  std::vector<unsigned> ClassOf;
  /// Per-depth scratch of grow(): a node's buffers stay live while its
  /// children grow one level down, and the nodes of one depth reuse them,
  /// so growing allocates per depth rather than per node.
  struct Frame {
    std::vector<double> Counts;
    std::vector<uint8_t> Needed;
    std::vector<SplitChoice> Best;
    std::vector<int> GroupOfChoice, GroupFeature, Choice;
    std::vector<std::vector<unsigned>> Groups;
    std::vector<uint32_t> Left, Right;
    std::vector<unsigned> Self;
  };
  std::deque<Frame> Frames;
  /// bestSplitOf's and refineClasses' scratch, dead once each call
  /// returns: per class, the first choice seen; the classes split off.
  std::vector<double> LeftCounts;
  std::vector<int> Kept;
  struct FreshClass {
    unsigned From;
    int Choice;
    unsigned Id;
  };
  std::vector<FreshClass> Fresh;
  /// Per class: the last pass that visited it (see beginClassPass).
  std::vector<uint64_t> PassOf;
  uint64_t Pass = 0;
};

SubsetForest
DecisionTree::fitSubsets(const ml::Dataset &Data,
                         const std::vector<unsigned> &Y, unsigned NumClasses,
                         const DecisionTreeOptions &Options,
                         const ml::PresortedBase &Base,
                         const std::vector<std::vector<unsigned>> &Subsets) {
  assert(Y.size() == Data.numRows() && "labels must cover every dataset row");
  assert(NumClasses >= 1 && "need at least one class");
  assert(Base.size() > 0 && "cannot train on zero samples");
  assert(Data.numFeatures() > 0 && "need at least one feature");
  SharedGrower Grower(Data, Y, NumClasses, Options, Subsets);
  std::vector<unsigned> All(Subsets.size());
  std::iota(All.begin(), All.end(), 0u);
  if (!All.empty())
    Grower.grow(Base.columns(), Base.size(), All, 0);
  return Grower.finish();
}

void DecisionTree::fit(const linalg::Matrix &X, const std::vector<unsigned> &Y,
                       unsigned NumClasses,
                       const DecisionTreeOptions &Options,
                       const std::vector<size_t> &SampleIndices) {
  assert(X.rows() == Y.size() && "row/label count mismatch");
  assert(NumClasses >= 1 && "need at least one class");
  Nodes.clear();
  NumFeatures = X.cols();

  std::vector<size_t> Indices;
  if (SampleIndices.empty()) {
    Indices.resize(X.rows());
    std::iota(Indices.begin(), Indices.end(), 0);
  } else {
    Indices = SampleIndices;
  }
  assert(!Indices.empty() && "cannot train on zero samples");
#ifndef NDEBUG
  for (size_t I : Indices)
    assert(I < X.rows() && Y[I] < NumClasses && "bad sample index or label");
#endif
  std::vector<std::pair<double, unsigned>> Scratch;
  Scratch.reserve(Indices.size());
  build(X, Y, NumClasses, Options, Indices, 0, Indices.size(), 0, Scratch);
}

unsigned DecisionTree::predict(const double *Row, size_t Width) const {
  assert(trained() && "predict() before fit()");
  assert(Width >= NumFeatures && "row too narrow for this tree");
  (void)Width;
  // Root is node 0 only when the tree is a single leaf; interior nodes are
  // emplaced pre-order so the root is always index 0.
  unsigned N = 0;
  while (!Nodes[N].IsLeaf) {
    const Node &Cur = Nodes[N];
    N = Row[Cur.Feature] <= Cur.Threshold ? Cur.Left : Cur.Right;
  }
  return Nodes[N].Label;
}

unsigned DecisionTree::predict(const std::vector<double> &Row) const {
  return predict(Row.data(), Row.size());
}

unsigned DecisionTree::predictLazy(
    const std::function<double(unsigned)> &GetFeature) const {
  return predictWith(GetFeature);
}

std::string DecisionTree::structuralKey() const {
  std::string Key;
  Key.reserve(Nodes.size() * 21 + 8);
  auto AppendU32 = [&Key](uint32_t V) {
    char Buf[4];
    std::memcpy(Buf, &V, 4);
    Key.append(Buf, 4);
  };
  AppendU32(static_cast<uint32_t>(Nodes.size()));
  for (const Node &N : Nodes) {
    Key.push_back(N.IsLeaf ? 1 : 0);
    if (N.IsLeaf) {
      AppendU32(N.Label);
    } else {
      AppendU32(static_cast<uint32_t>(N.Feature));
      char Buf[8];
      std::memcpy(Buf, &N.Threshold, 8);
      Key.append(Buf, 8);
      AppendU32(N.Left);
      AppendU32(N.Right);
    }
  }
  return Key;
}

std::vector<unsigned> DecisionTree::usedFeatures() const {
  std::vector<bool> Seen(NumFeatures, false);
  for (const Node &N : Nodes)
    if (!N.IsLeaf)
      Seen[static_cast<size_t>(N.Feature)] = true;
  std::vector<unsigned> Out;
  for (size_t I = 0; I != Seen.size(); ++I)
    if (Seen[I])
      Out.push_back(static_cast<unsigned>(I));
  return Out;
}

void DecisionTree::saveTo(serialize::Writer &W) const {
  W.key("decision-tree").u64(Nodes.size()).u64(NumFeatures).end();
  for (const Node &N : Nodes) {
    if (N.IsLeaf)
      W.key("leaf").u64(N.Label).end();
    else
      W.key("split")
          .u64(static_cast<uint64_t>(N.Feature))
          .f(N.Threshold)
          .u64(N.Left)
          .u64(N.Right)
          .end();
  }
}

bool DecisionTree::loadFrom(serialize::Reader &R, unsigned NumClasses) {
  if (!R.expect("decision-tree"))
    return false;
  uint64_t Count = R.count(1u << 24);
  uint64_t Feats = R.count(1u << 20);
  if (!R.endLine())
    return false;
  // Every trained tree has at least its root leaf; an empty node list
  // would make prediction read past the vector.
  if (Count == 0)
    return R.fail("decision tree needs at least one node");
  std::vector<Node> Loaded;
  for (uint64_t I = 0; I != Count && R.ok(); ++I) {
    std::string Key = R.nextKey();
    Node N;
    if (Key == "leaf") {
      N.IsLeaf = true;
      uint64_t Label = R.u64();
      if (R.ok() && Label >= NumClasses)
        return R.fail("leaf label out of range");
      N.Label = static_cast<unsigned>(Label);
    } else if (Key == "split") {
      N.IsLeaf = false;
      uint64_t Feature = R.u64();
      N.Threshold = R.f();
      uint64_t Left = R.u64();
      uint64_t Right = R.u64();
      if (!R.ok())
        return false;
      if (Feature >= Feats)
        return R.fail("split feature out of range");
      // Children are emplaced after their parent during training; the
      // same invariant here guarantees prediction terminates.
      if (Left <= I || Left >= Count || Right <= I || Right >= Count)
        return R.fail("split child index out of range");
      N.Feature = static_cast<int>(Feature);
      N.Left = static_cast<unsigned>(Left);
      N.Right = static_cast<unsigned>(Right);
    } else {
      return R.fail("expected 'leaf' or 'split', got '" + Key + "'");
    }
    if (!R.endLine())
      return false;
    Loaded.push_back(N);
  }
  if (!R.ok())
    return false;
  Nodes = std::move(Loaded);
  NumFeatures = Feats;
  return true;
}

void DecisionTree::compileInto(CompiledArena &A,
                               CompiledClassifier &Out) const {
  assert(trained() && "compileInto() before fit()/loadFrom()");
  Out.Kind = CompiledKind::Tree;
  Out.NumNodes = static_cast<uint32_t>(Nodes.size());
  std::vector<int32_t> Feature(Nodes.size()), Left(Nodes.size()),
      Right(Nodes.size());
  std::vector<double> Threshold(Nodes.size());
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    if (N.IsLeaf) {
      Feature[I] = -1;
      Left[I] = static_cast<int32_t>(N.Label);
      Right[I] = static_cast<int32_t>(N.Label);
      Threshold[I] = 0.0;
    } else {
      Feature[I] = N.Feature;
      Left[I] = static_cast<int32_t>(N.Left);
      Right[I] = static_cast<int32_t>(N.Right);
      Threshold[I] = N.Threshold;
    }
  }
  Out.TreeFeature = A.appendI32(Feature.data(), Feature.size());
  Out.TreeLeft = A.appendI32(Left.data(), Left.size());
  Out.TreeRight = A.appendI32(Right.data(), Right.size());
  Out.TreeThreshold = A.appendF64(Threshold.data(), Threshold.size());
}

unsigned DecisionTree::depth() const {
  if (Nodes.empty())
    return 0;
  // Iterative depth computation over the explicit structure.
  std::vector<std::pair<unsigned, unsigned>> Stack = {{0u, 1u}};
  unsigned MaxDepth = 0;
  while (!Stack.empty()) {
    auto [N, D] = Stack.back();
    Stack.pop_back();
    MaxDepth = std::max(MaxDepth, D);
    if (!Nodes[N].IsLeaf) {
      Stack.push_back({Nodes[N].Left, D + 1});
      Stack.push_back({Nodes[N].Right, D + 1});
    }
  }
  return MaxDepth;
}
