//===- ml/Reservoir.h - Sliding-window stream sampling ----------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sampling over an unbounded request stream, the training-set source of
/// the adaptive serving loop (runtime/AdaptiveService.h): when drift is
/// detected, the shadow pipeline retrains on the sampler's current
/// contents instead of the full (unavailable) live distribution.
///
/// The sample is a sliding window: exactly the last `Capacity` stream
/// items. After a distribution shift the window fills with post-shift
/// traffic, so the retrain sees the new regime, not a uniform mix
/// dominated by history. The same add() sequence always produces the
/// same sample.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ML_RESERVOIR_H
#define PBT_ML_RESERVOIR_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbt {
namespace ml {

class Reservoir {
public:
  explicit Reservoir(size_t Capacity);

  /// Offers one stream item to the sampler.
  void add(size_t Item);

  /// The retained items in arrival order (oldest first).
  std::vector<size_t> sample() const;

  /// sample() into a caller-owned buffer (cleared first). The adaptive
  /// loop keeps one buffer across retrain rounds, so the per-drift sample
  /// materialisation stops allocating.
  void sampleInto(std::vector<size_t> &Out) const;

  /// Number of distinct item values currently retained (the retrain
  /// feasibility check: a window full of one hot input cannot train).
  /// Uses an internal scratch buffer reused across calls.
  size_t distinctCount() const;

  /// Items offered since construction or the last reset().
  uint64_t seen() const { return Seen; }
  size_t size() const { return Items.size(); }
  size_t capacity() const { return Capacity; }
  bool full() const { return Items.size() == Capacity; }

  /// Empties the sampler, so the next fill reflects only post-reset
  /// traffic (called after every model swap).
  void reset();

private:
  size_t Capacity = 0;
  uint64_t Seen = 0;
  size_t Next = 0; ///< Ring cursor: the slot the next add() overwrites.
  std::vector<size_t> Items;
  /// distinctCount() scratch, reused across retrain rounds.
  mutable std::vector<size_t> Scratch;
};

} // namespace ml
} // namespace pbt

#endif // PBT_ML_RESERVOIR_H
