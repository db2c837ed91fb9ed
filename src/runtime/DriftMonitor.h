//===- runtime/DriftMonitor.h - Live-traffic distribution-shift detector ---==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detects when live inputs no longer look like the sample a model was
/// trained on -- the trigger of the adaptive serving loop. The paper's
/// whole premise is that the best algorithmic configuration depends on
/// the input distribution; this monitor is what notices the distribution
/// moved out from under a deployed model.
///
/// Three views of every served request are maintained over a sliding
/// window (streaming; O(window) memory, no per-request allocation):
///
///   * the flat feature vector         (per-feature windowed mean),
///   * the K-means cluster the input lands in against the model's Level-1
///     centroids                       (cluster-assignment histogram), and
///   * the landmark the model chose    (decision-mix histogram).
///
/// The reference side of the two-window test comes from the trained model
/// itself (its recorded evidence tables, cluster assignment and refined
/// training labels -- see referenceFrom()), so no extra training pass is
/// needed. The divergence test is deliberately cheap: the maximum
/// per-feature standardized mean shift plus total-variation distances
/// between the histograms, checked every few observations. Any score
/// crossing its threshold flags drift.
///
/// A check reads only the live means and histograms. It sums every
/// feature's mean in one row-major pass over the window, adding each
/// column in ring-slot order exactly as support::mean would, so its
/// scores keep support::mean's bits; and it works in member scratch, so
/// it allocates nothing. Only rebaseToWindow() takes the live variances
/// (support::variance over each column), when it adopts the window as
/// the new reference.
///
/// After the serving loop reacts (hot-swap or explicit dismissal) it
/// rebases the monitor: the reference becomes the new model's training
/// stats (rebaseToModel) or the live window itself (rebaseToWindow, the
/// "accept the new regime" response when a retrain did not beat the
/// champion), and a cooldown suppresses immediate re-flagging.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_RUNTIME_DRIFTMONITOR_H
#define PBT_RUNTIME_DRIFTMONITOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbt {
namespace serialize {
struct TrainedModel;
} // namespace serialize
namespace runtime {

struct DriftMonitorOptions {
  /// Sliding-window length (observations).
  size_t Window = 64;
  /// Minimum live observations before any divergence test runs.
  size_t MinSamples = 32;
  /// Run the divergence test every this many observations (0 = every
  /// Window/4, at least 1).
  size_t CheckInterval = 0;
  /// Observations ignored after a rebase before testing resumes, so one
  /// adaptation cannot immediately trigger the next.
  size_t Cooldown = 32;
  /// Flag when some feature's windowed mean moves this many reference
  /// standard deviations from the reference mean.
  double MeanShiftThreshold = 2.0;
  /// Flag when the cluster-assignment histogram's total-variation
  /// distance from the reference exceeds this.
  double ClusterTVThreshold = 0.45;
  /// Flag when the decision-mix histogram's total-variation distance
  /// from the reference exceeds this.
  double DecisionTVThreshold = 0.45;
};

/// Outcome of one divergence test.
struct DriftSignal {
  bool Drifted = false;
  /// Largest standardized mean shift and the feature attaining it.
  double MeanShift = 0.0;
  unsigned MeanShiftFeature = 0;
  /// Total-variation distances, each in [0, 1].
  double ClusterTV = 0.0;
  double DecisionTV = 0.0;
  /// Observation count (since construction) at which the test ran.
  uint64_t AtObservation = 0;
};

class DriftMonitor {
public:
  DriftMonitor(unsigned NumFeatures, unsigned NumClusters,
               unsigned NumDecisions, const DriftMonitorOptions &Options);

  /// Builds a monitor whose reference window is \p Model's own training
  /// sample: feature means/variances over the recorded evidence rows,
  /// the Level-1 cluster assignment histogram, and the refined
  /// training-label (decision) histogram.
  static DriftMonitor referenceFrom(const serialize::TrainedModel &Model,
                                    const DriftMonitorOptions &Options);

  unsigned numFeatures() const { return NumFeatures; }
  unsigned numClusters() const { return NumClusters; }
  unsigned numDecisions() const { return NumDecisions; }

  /// Replaces the reference window statistics. Histograms are counts (or
  /// any nonnegative weights); they are normalized internally.
  void setReference(std::vector<double> FeatureMean,
                    std::vector<double> FeatureVar,
                    std::vector<double> ClusterHist,
                    std::vector<double> DecisionHist);

  /// Feeds one served request: its flat feature row (NumFeatures values),
  /// the cluster it lands in, and the landmark decided. Returns true when
  /// this observation triggered a divergence test that flagged drift (the
  /// signal is kept in lastSignal() until the next test).
  bool observe(const double *Features, unsigned Cluster, unsigned Decision);

  /// Runs the divergence test on the current window immediately,
  /// regardless of interval/cooldown (still requires MinSamples).
  DriftSignal check() const;

  /// Most recent test outcome (all-zero before the first test).
  const DriftSignal &lastSignal() const { return Last; }

  /// Total observations fed since construction.
  uint64_t observations() const { return Observations; }
  /// Live observations currently in the window.
  size_t windowFill() const { return Fill; }

  /// Reference := \p Model's training stats; window cleared, cooldown
  /// started. The post-hot-swap rebase.
  void rebaseToModel(const serialize::TrainedModel &Model);
  /// Reference := the current live window; window cleared, cooldown
  /// started. The "new regime accepted without a swap" rebase.
  void rebaseToWindow();

  const DriftMonitorOptions &options() const { return Opts; }

  /// The reference window's per-feature means and variances.
  const std::vector<double> &referenceMean() const { return RefMean; }
  const std::vector<double> &referenceVariance() const { return RefVar; }

private:
  /// The live window's per-feature means and cluster and decision
  /// histograms, into LiveMean, LiveClusterHist and LiveDecisionHist.
  void liveStats() const;

  DriftMonitorOptions Opts;
  unsigned NumFeatures = 0;
  unsigned NumClusters = 0;
  unsigned NumDecisions = 0;

  // Reference window statistics.
  std::vector<double> RefMean, RefVar, RefClusterHist, RefDecisionHist;

  // Live sliding window (rings of length Opts.Window).
  std::vector<double> FeatRing;      // Window x NumFeatures, row-major
  std::vector<unsigned> ClusterRing; // Window
  std::vector<unsigned> DecisionRing;
  size_t Fill = 0;
  size_t Next = 0;

  uint64_t Observations = 0;
  uint64_t CooldownUntil = 0;
  DriftSignal Last;

  // check()'s scratch, kept so that a check allocates nothing once the
  // monitor has run one (the serving thread is the only caller).
  mutable std::vector<double> LiveMean, LiveClusterHist, LiveDecisionHist;
};

/// Total-variation distance 0.5 * sum |p - q| between two nonnegative
/// weight vectors of equal length, each normalized to a distribution
/// first (all-zero vectors are treated as uniform).
double totalVariation(const std::vector<double> &P,
                      const std::vector<double> &Q);

} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_DRIFTMONITOR_H
