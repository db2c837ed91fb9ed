//===- runtime/CompiledModel.h - Lowered, servable model form -------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled inference path: a loaded serialize::TrainedModel's
/// production classifier is lowered once into one contiguous,
/// pointer-free arena (via the learners' compileInto hooks, see
/// ml/CompiledArena.h), and every online decision afterwards is array
/// walks over hot cache lines -- no virtual dispatch, no std::function
/// allocation, no tree-node pointer chasing.
///
/// The lowering is semantics-preserving by construction: for the same
/// feature values, a compiled decision replays exactly the arithmetic of
/// the interpreted classifier (same operation order, same comparisons),
/// so chosen landmarks are bit-identical to the polymorphic
/// InputClassifier path. The golden-file suite pins this against the
/// committed *.choices.csv decisions.
///
/// Only the four kinds Level 2 selects lower: constant (static-best),
/// max-apriori, subset tree and incremental Bayes. A model whose
/// production classifier is anything else compiles to a non-ready model.
///
/// Feature access is a template parameter (any `double(unsigned)`
/// callable), which lets AdaptiveService plug in its memo-backed
/// extractor with zero indirection on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_RUNTIME_COMPILEDMODEL_H
#define PBT_RUNTIME_COMPILEDMODEL_H

#include "ml/CompiledArena.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace pbt {
namespace core {
class InputClassifier;
} // namespace core
namespace serialize {
struct TrainedModel;
} // namespace serialize
namespace runtime {

class CompiledModel {
public:
  /// Reusable per-caller working memory, so the hot path never
  /// allocates. A Scratch is mutable state: one caller uses it at a time.
  struct Scratch {
    /// Bayes posterior accumulator (>= the class count).
    std::vector<double> LogPost;
  };

  CompiledModel() = default;

  /// Lowers a loaded model's production classifier. Returns a non-ready
  /// model when \p Model has no landmarks or no production classifier of
  /// a lowerable kind.
  static CompiledModel compile(const serialize::TrainedModel &Model);

  /// Lower-level entry used by tests and compile(): lowers the given
  /// classifier directly, or returns a non-ready model when it is not one
  /// of the four Level-2 kinds.
  static CompiledModel
  compileClassifiers(const core::InputClassifier &Production,
                     unsigned NumLandmarks);

  bool ready() const { return Ready; }

  /// Scratch pre-sized for this model's classifier.
  Scratch makeScratch() const;

  /// Decides through the lowered production classifier. \p Get is
  /// invoked as Get(flatFeature) only for features actually examined.
  template <typename GetFeature>
  unsigned decideProduction(Scratch &S, GetFeature &&Get) const {
    assert(Ready && "decide on a non-ready CompiledModel");
    return classify(Production, S, Get);
  }

private:
  /// The single dispatch point: one switch on the kind tag, then pure
  /// array walks. Each case replays its interpreter counterpart
  /// operation-for-operation (see the parity notes inline) so decisions
  /// cannot drift between the two paths.
  template <typename GetFeature>
  unsigned classify(const ml::CompiledClassifier &C, Scratch &S,
                    GetFeature &Get) const {
    const double *F64 = Arena.F64.data();
    const int32_t *I32 = Arena.I32.data();
    switch (C.Kind) {
    case ml::CompiledKind::Constant:
      return C.Landmark;

    case ml::CompiledKind::Tree: {
      // DecisionTree::predictWith over struct-of-arrays nodes.
      const int32_t *Feature = I32 + C.TreeFeature;
      const int32_t *Left = I32 + C.TreeLeft;
      const int32_t *Right = I32 + C.TreeRight;
      const double *Threshold = F64 + C.TreeThreshold;
      int32_t N = 0;
      for (;;) {
        int32_t F = Feature[N];
        if (F < 0)
          return static_cast<unsigned>(Left[N]); // leaf: label
        N = Get(static_cast<unsigned>(F)) <= Threshold[N] ? Left[N]
                                                          : Right[N];
      }
    }

    case ml::CompiledKind::Bayes: {
      // IncrementalBayes::predictWith: acquire features in order,
      // update the log posterior, stop once some class clears the
      // threshold. LogPost starts from the pre-logged priors.
      const unsigned Classes = C.Classes, Bins = C.Bins;
      double *LogPost = S.LogPost.data();
      assert(S.LogPost.size() >= Classes && "scratch too small");
      const double *LogPrior = F64 + C.LogPriorBase;
      for (unsigned K = 0; K != Classes; ++K)
        LogPost[K] = LogPrior[K];
      const int32_t *Order = I32 + C.OrderBase;
      unsigned Best = 0;
      for (unsigned Pos = 0; Pos != C.OrderLen; ++Pos) {
        double Value = Get(static_cast<unsigned>(Order[Pos]));
        const double *Edges =
            F64 + C.EdgeBase + static_cast<size_t>(Pos) * (Bins - 1);
        unsigned R = 0;
        while (R < Bins - 1 && Value > Edges[R])
          ++R;
        const double *LP = F64 + C.LogProbBase +
                           static_cast<size_t>(Pos) * Classes * Bins + R;
        for (unsigned K = 0; K != Classes; ++K)
          LogPost[K] += LP[static_cast<size_t>(K) * Bins];

        // One fused pass with max_element semantics (first maximum):
        // the interpreter's two max_element scans use the same strict
        // comparison, so MaxLog and Best come out identical.
        double MaxLog = LogPost[0];
        Best = 0;
        for (unsigned K = 1; K != Classes; ++K)
          if (MaxLog < LogPost[K]) {
            MaxLog = LogPost[K];
            Best = K;
          }
        // The interpreter sums Z += exp(LogPost[K] - MaxLog) over all K
        // and then divides exp(LogPost[Best] - MaxLog) by it. Since
        // LogPost[Best] IS MaxLog, that argument is exactly 0.0 and
        // std::exp(0.0) is exactly 1.0 -- so Best's Z term is the
        // constant 1.0 and the posterior is 1.0 / Z, bit for bit. This
        // drops one exp per acquired feature from the hot path.
        double Z = 0.0;
        for (unsigned K = 0; K != Classes; ++K)
          Z += K == Best ? 1.0 : std::exp(LogPost[K] - MaxLog);
        double Posterior = 1.0 / Z;
        if (Posterior > C.PosteriorThreshold)
          return Best;
      }
      return Best;
    }
    }
    assert(false && "unknown compiled classifier kind");
    return 0;
  }

  ml::CompiledArena Arena;
  ml::CompiledClassifier Production{};
  bool Ready = false;
  unsigned NumLandmarks = 0;
};

} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_COMPILEDMODEL_H
