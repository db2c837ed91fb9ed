//===- ml/DecisionTree.h - CART-style decision tree classifier -------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CART-style decision tree over continuous features with axis-aligned
/// threshold splits, Gini impurity, and optional cost-sensitive leaf
/// labelling. This is the workhorse of the paper's "Exhaustive Feature
/// Subsets" classifiers (Section 3.2, classifier family 2): one tree is
/// trained per feature subset, with the pipeline's cost matrix shaping the
/// leaf labels.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ML_DECISIONTREE_H
#define PBT_ML_DECISIONTREE_H

#include "linalg/Matrix.h"
#include "ml/CostMatrix.h"

#include <functional>
#include <utility>
#include <vector>

#include <string>

namespace pbt {
namespace serialize {
class Writer;
class Reader;
} // namespace serialize
namespace ml {

struct CompiledArena;
struct CompiledClassifier;
class Dataset;
class PresortedBase;
struct SubsetForest;

struct DecisionTreeOptions {
  unsigned MaxDepth = 12;
  unsigned MinSamplesLeaf = 2;
  unsigned MinSamplesSplit = 4;
  /// Candidate features; empty means all columns.
  std::vector<unsigned> AllowedFeatures;
  /// Optional cost matrix for leaf labelling (training-time splits still
  /// use Gini; leaves pick the expected-cost-minimising class).
  const CostMatrix *Costs = nullptr;
};

/// Binary classification/decision tree over dense double rows.
class DecisionTree {
public:
  /// Trains on rows of \p X with labels \p Y in [0, NumClasses).
  /// \p SampleIndices selects the training subset (empty = all rows).
  void fit(const linalg::Matrix &X, const std::vector<unsigned> &Y,
           unsigned NumClasses, const DecisionTreeOptions &Options = {},
           const std::vector<size_t> &SampleIndices = {});

  /// Fits one tree per feature subset of \p Subsets over the rows of
  /// \p Base, growing them all together: each node's label counts, leaf
  /// tests and per-feature best splits are computed once for every
  /// subset that reaches it, each subset takes the best of its own
  /// features (in its listed order, strictly greater gain wins), and the
  /// subsets that pick the same split share one partition and recurse
  /// together. Every tree is exactly the one the row-major fit() grows
  /// over the same rows with AllowedFeatures = the subset -- same
  /// splits, same node order, same structuralKey() -- but no node sorts
  /// anything: sweeps walk \p Base's value-ordered row lists, and a split
  /// stably partitions them into the children's. The zoo's heavily
  /// overlapping subsets visit each distinct node once instead of once
  /// per subset, and a single-subset call is the production retrain.
  /// \p Y holds one label per *global* dataset row. An empty subset
  /// means all features; Options.AllowedFeatures is ignored.
  static SubsetForest fitSubsets(const ml::Dataset &Data,
                                 const std::vector<unsigned> &Y,
                                 unsigned NumClasses,
                                 const DecisionTreeOptions &Options,
                                 const ml::PresortedBase &Base,
                                 const std::vector<std::vector<unsigned>> &Subsets);

  /// Predicted class for a dense feature row.
  unsigned predict(const std::vector<double> &Row) const;
  unsigned predict(const double *Row, size_t Width) const;

  /// Predicted class with lazy feature access: \p GetFeature(F) is invoked
  /// only for features on the root-to-leaf path, enabling per-input
  /// feature-extraction cost accounting in the production classifier.
  unsigned predictLazy(const std::function<double(unsigned)> &GetFeature) const;

  /// predictLazy without the std::function indirection: the hot training
  /// scorers instantiate this directly with a column reader. Identical
  /// arithmetic to predictLazy (which delegates here).
  template <class GetFn> unsigned predictWith(GetFn &&GetFeature) const {
    assert(trained() && "predictWith() before fit()");
    unsigned N = 0;
    while (!Nodes[N].IsLeaf) {
      const Node &Cur = Nodes[N];
      N = GetFeature(static_cast<unsigned>(Cur.Feature)) <= Cur.Threshold
              ? Cur.Left
              : Cur.Right;
    }
    return Nodes[N].Label;
  }

  /// Stable byte encoding of the fitted structure (nodes in emission
  /// order). Two trees with equal keys decide identically on every input.
  std::string structuralKey() const;

  /// Features actually referenced by at least one internal node.
  std::vector<unsigned> usedFeatures() const;

  size_t numNodes() const { return Nodes.size(); }
  unsigned depth() const;
  bool trained() const { return !Nodes.empty(); }

  /// Serialization hooks for the model-persistence layer. loadFrom
  /// validates the structure (children strictly after their parent, so
  /// prediction terminates; features within bounds; leaf labels below
  /// \p NumClasses) and fails on anything inconsistent.
  void saveTo(serialize::Writer &W) const;
  bool loadFrom(serialize::Reader &R, unsigned NumClasses);

  /// Compile hook for the serving path: lowers the trained tree into
  /// \p A as struct-of-arrays node vectors (ml/CompiledArena.h).
  /// Decisions over the lowered form are bit-identical to predictLazy().
  void compileInto(CompiledArena &A, CompiledClassifier &Out) const;

private:
  struct Node {
    /// -1 for leaves.
    int Feature = -1;
    double Threshold = 0.0;
    /// Children indices (leaves: 0).
    unsigned Left = 0;
    unsigned Right = 0;
    /// Leaf label.
    unsigned Label = 0;
    bool IsLeaf = true;
  };

  unsigned build(const linalg::Matrix &X, const std::vector<unsigned> &Y,
                 unsigned NumClasses, const DecisionTreeOptions &Options,
                 std::vector<size_t> &Indices, size_t Begin, size_t End,
                 unsigned Depth,
                 std::vector<std::pair<double, unsigned>> &Scratch);
  unsigned makeLeaf(const std::vector<double> &ClassCounts,
                    const DecisionTreeOptions &Options);

  class SharedGrower;

  std::vector<Node> Nodes;
  size_t NumFeatures = 0;
};

/// The subset trees of one row set, deduplicated: subsets whose fits
/// coincide share one tree.
struct SubsetForest {
  /// One tree per distinct fitted structure, ordered by first subset.
  std::vector<DecisionTree> Trees;
  /// Per subset (parallel to the subsets fitted): its tree in Trees.
  std::vector<unsigned> TreeOf;
};

} // namespace ml
} // namespace pbt

#endif // PBT_ML_DECISIONTREE_H
