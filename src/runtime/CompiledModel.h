//===- runtime/CompiledModel.h - Lowered, servable model form -------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled inference path: a loaded serialize::TrainedModel is
/// lowered once into one contiguous, pointer-free arena (via the
/// learners' compileInto hooks, see ml/CompiledArena.h), and every online
/// decision afterwards is array walks over hot cache lines -- no virtual
/// dispatch, no std::function allocation, no tree-node pointer chasing.
///
/// The lowering is semantics-preserving by construction: for the same
/// feature values, a compiled decision replays exactly the arithmetic of
/// the interpreted classifier (same operation order, same comparisons),
/// so chosen landmarks are bit-identical to the polymorphic
/// InputClassifier path. The golden-file suite pins this against the
/// committed *.choices.csv decisions.
///
/// Besides the production classifier, the landmark Configurations are
/// inlined into the arena as a flat values-by-arity table, so "decision
/// -> configuration values" is one offset computation instead of a
/// vector-of-vectors walk.
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
#include <limits>
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
  /// Reusable per-caller working memory: decideBatch gives each worker
  /// shard its own Scratch so the hot path never allocates and never
  /// shares mutable state across threads.
  struct Scratch {
    /// Bayes posterior accumulator (>= the class count).
    std::vector<double> LogPost;
    /// One-level dense feature row (>= the flat feature count).
    std::vector<double> Row;
  };

  CompiledModel() = default;

  /// Lowers a loaded model (production classifier, landmark
  /// configurations). Returns a non-ready model when \p Model has no
  /// production classifier or no landmarks.
  static CompiledModel compile(const serialize::TrainedModel &Model);

  /// Lower-level entry used by tests and compile(): lowers the given
  /// classifier directly.
  static CompiledModel compileClassifiers(
      const core::InputClassifier &Production, unsigned NumFlat,
      unsigned NumLandmarks);

  bool ready() const { return Ready; }
  unsigned numFlat() const { return NumFlat; }
  unsigned numLandmarks() const { return NumLandmarks; }

  /// Scratch pre-sized for this model's classifier.
  Scratch makeScratch() const;

  /// Arena footprint in bytes (diagnostics).
  size_t arenaBytes() const {
    return Arena.F64.size() * sizeof(double) +
           Arena.I32.size() * sizeof(int32_t);
  }

  /// Landmark configuration values inlined into the arena; valid while
  /// this model is alive. Arity is uniform across landmarks.
  unsigned landmarkArity() const { return Arity; }
  const double *landmarkValues(unsigned Landmark) const {
    assert(Landmark < NumLandmarks && "landmark out of range");
    return Arena.F64.data() + LandmarkBase +
           static_cast<size_t>(Landmark) * Arity;
  }

  /// Which parameters *exist* under landmark \p Landmark (bit P set =
  /// parameter P is active in the model's conditional config space),
  /// precomputed once at compile time from the recorded space. Inactive
  /// positions of landmarkValues hold the canonical pin value; consumers
  /// applying a decision (or diffing two landmarks) can mask them out
  /// instead of re-walking parent chains per decision. All-ones over the
  /// arity when the model carries no space (legacy/synthetic models).
  uint64_t landmarkActiveMask(unsigned Landmark) const {
    assert(Landmark < NumLandmarks && "landmark out of range");
    return LandmarkMasks.empty() ? fullMask(Arity) : LandmarkMasks[Landmark];
  }

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
    case ml::CompiledKind::MaxApriori:
      return C.Landmark;

    case ml::CompiledKind::Tree: {
      // DecisionTree::predictLazy over struct-of-arrays nodes.
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
      // IncrementalBayes::predictLazy: acquire features in order,
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

    case ml::CompiledKind::OneLevel: {
      // OneLevelClassifier::classify: extract every feature in flat
      // order, apply the fused normalizer, nearest centroid wins.
      const unsigned Dim = C.Dim;
      double *Row = S.Row.data();
      assert(S.Row.size() >= Dim && "scratch too small");
      for (unsigned F = 0; F != Dim; ++F)
        Row[F] = Get(F);
      const double *Norm = F64 + C.NormBase;
      for (unsigned F = 0; F != Dim; ++F) {
        double Scale = Norm[2 * F + 1];
        Row[F] = Scale != 0.0 ? (Row[F] - Norm[2 * F]) / Scale : 0.0;
      }
      const double *Centroids = F64 + C.CentroidBase;
      double BestD = std::numeric_limits<double>::max();
      unsigned BestK = 0;
      for (unsigned K = 0; K != C.NumCentroids; ++K) {
        const double *P = Centroids + static_cast<size_t>(K) * Dim;
        double Sum = 0.0;
        for (unsigned F = 0; F != Dim; ++F) {
          double Delta = P[F] - Row[F];
          Sum += Delta * Delta;
        }
        if (Sum < BestD) {
          BestD = Sum;
          BestK = K;
        }
      }
      return static_cast<unsigned>(I32[C.ClusterLandmarkBase + BestK]);
    }
    }
    assert(false && "unknown compiled classifier kind");
    return 0;
  }

  static uint64_t fullMask(unsigned Bits) {
    return Bits >= 64 ? ~uint64_t(0) : (uint64_t(1) << Bits) - 1;
  }

  ml::CompiledArena Arena;
  ml::CompiledClassifier Production{};
  std::vector<uint64_t> LandmarkMasks;
  bool Ready = false;
  unsigned NumFlat = 0;
  unsigned NumLandmarks = 0;
  unsigned Arity = 0;
  uint32_t LandmarkBase = 0;
};

} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_COMPILEDMODEL_H
