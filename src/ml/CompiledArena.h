//===- ml/CompiledArena.h - Flat storage for lowered classifiers ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data substrate of the compiled inference path: every trained
/// learner can lower itself ("compile") into one shared, contiguous,
/// pointer-free arena of doubles and 32-bit integers. A lowered
/// classifier is then nothing but a CompiledClassifier descriptor --
/// a kind tag plus offsets into the arena -- so online classification
/// is array walks over hot cache lines with no virtual dispatch, no
/// std::function indirection, and no per-call allocation.
///
/// Layout per kind:
///  - Tree: struct-of-arrays nodes. Feature[i] >= 0 is a split reading
///    flat feature Feature[i] against Threshold[i], descending to
///    Left[i]/Right[i]; Feature[i] < 0 is a leaf whose label is Left[i].
///  - Bayes: the acquisition order, per-position quantile edges and
///    class-conditional log-probability tables flattened row-major, and
///    the priors pre-logged so the per-decision loop starts from plain
///    loads.
///  - OneLevel: centroids flattened row-major, the normalizer fused
///    into per-feature (offset, scale) pairs (scale == 0 encodes the
///    zero-variance "map to 0" rule, hoisting the epsilon test out of
///    the hot loop), and the centroid-to-landmark table.
///
/// This header lives in ml/ (not runtime/) so each learner can declare a
/// compileInto hook without a layering inversion; runtime/CompiledModel.h
/// composes descriptors into a servable model.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ML_COMPILEDARENA_H
#define PBT_ML_COMPILEDARENA_H

#include "support/AlignedAlloc.h"

#include <cstddef>
#include <cstdint>

namespace pbt {
namespace ml {

/// Append-only backing store shared by every classifier lowered into one
/// CompiledModel. Offsets (not pointers) address into it, so the arena
/// can be moved/copied freely and stays cache-dense. Storage is 64-byte
/// aligned, so each section starts on a cache-line boundary.
struct CompiledArena {
  support::CacheAlignedVector<double> F64;
  support::CacheAlignedVector<int32_t> I32;

  /// Appends \p N doubles and returns the offset of the first.
  uint32_t appendF64(const double *V, size_t N) {
    uint32_t Base = static_cast<uint32_t>(F64.size());
    F64.insert(F64.end(), V, V + N);
    return Base;
  }
  /// Appends \p N int32s and returns the offset of the first.
  uint32_t appendI32(const int32_t *V, size_t N) {
    uint32_t Base = static_cast<uint32_t>(I32.size());
    I32.insert(I32.end(), V, V + N);
    return Base;
  }
};

/// Which lowering a CompiledClassifier describes.
enum class CompiledKind : uint8_t {
  /// Fixed landmark, no feature access (constant and max-apriori).
  Constant,
  MaxApriori,
  /// Decision tree over flat features (struct-of-arrays nodes).
  Tree,
  /// Incremental naive Bayes with sequential feature acquisition.
  Bayes,
  /// Nearest centroid in normalized feature space (one-level baseline).
  OneLevel,
};

/// One lowered classifier: a kind tag plus arena offsets. Produced by the
/// learners' compileInto hooks; consumed by runtime::CompiledModel.
struct CompiledClassifier {
  CompiledKind Kind = CompiledKind::Constant;

  /// Constant / MaxApriori: the fixed prediction.
  uint32_t Landmark = 0;

  /// Tree: parallel node arrays (see file comment for leaf encoding).
  uint32_t NumNodes = 0;
  uint32_t TreeFeature = 0;   ///< I32 base, NumNodes entries
  uint32_t TreeLeft = 0;      ///< I32 base, NumNodes entries
  uint32_t TreeRight = 0;     ///< I32 base, NumNodes entries
  uint32_t TreeThreshold = 0; ///< F64 base, NumNodes entries

  /// Bayes: acquisition order + flattened tables.
  uint32_t OrderBase = 0; ///< I32 base, OrderLen entries
  uint32_t OrderLen = 0;
  uint32_t Bins = 0;
  uint32_t Classes = 0;
  uint32_t EdgeBase = 0;     ///< F64 base, OrderLen * (Bins-1)
  uint32_t LogProbBase = 0;  ///< F64 base, OrderLen * Classes * Bins
  uint32_t LogPriorBase = 0; ///< F64 base, Classes (already logged)
  double PosteriorThreshold = 0.0;

  /// OneLevel: centroids + fused normalizer + landmark table.
  uint32_t CentroidBase = 0; ///< F64 base, NumCentroids * Dim
  uint32_t NumCentroids = 0;
  uint32_t Dim = 0;
  uint32_t NormBase = 0; ///< F64 base, Dim (offset, scale) pairs
  uint32_t ClusterLandmarkBase = 0; ///< I32 base, NumCentroids entries
};

} // namespace ml
} // namespace pbt

#endif // PBT_ML_COMPILEDARENA_H
