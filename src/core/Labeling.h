//===- core/Labeling.h - Accuracy-aware best-landmark labelling -------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's labelling rule (Section 3.2, "Cluster Refinement before
/// Classifier Learning"): each input's label is its best landmark
/// configuration -- argmin time for time-only problems; for variable-
/// accuracy problems, the fastest landmark among those meeting the
/// accuracy threshold, falling back to the most accurate landmark when
/// none meets it. Re-grouping training inputs by these labels is the
/// second-level clustering that closes the mapping-disparity gap.
///
/// The same rule drives the dynamic oracle, so both live here, together
/// with the static-oracle selection and satisfaction computations.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_LABELING_H
#define PBT_CORE_LABELING_H

#include "linalg/Matrix.h"
#include "runtime/TunableProgram.h"

#include <optional>
#include <vector>

namespace pbt {
namespace core {

/// Best landmark for table row \p Row given the measured time matrix
/// \p Time (rows x landmarks) and accuracy matrix \p Acc.
unsigned bestLandmark(const linalg::Matrix &Time, const linalg::Matrix &Acc,
                      size_t Row,
                      const std::optional<runtime::AccuracySpec> &Spec);

/// Labels for *every* table row: the ml::Dataset label column that
/// runLevelTwo attaches. Computed once per Level-2 run and shared by the
/// refinement, the zoo's folds and the retrain.
std::vector<unsigned>
labelAllRows(const linalg::Matrix &Time, const linalg::Matrix &Acc,
             const std::optional<runtime::AccuracySpec> &Spec);

/// Fraction of \p Rows whose accuracy under landmark \p Landmark meets the
/// threshold. Returns 1.0 for exact programs.
double satisfactionOf(const linalg::Matrix &Acc,
                      const std::vector<size_t> &Rows, unsigned Landmark,
                      const std::optional<runtime::AccuracySpec> &Spec);

/// The static oracle (paper Section 4): the single landmark with the best
/// total time over \p Rows among landmarks meeting the satisfaction
/// threshold; if none qualifies, the landmark with the highest
/// satisfaction (ties broken by time).
unsigned selectStaticOracle(const linalg::Matrix &Time,
                            const linalg::Matrix &Acc,
                            const std::vector<size_t> &Rows,
                            const std::optional<runtime::AccuracySpec> &Spec);

/// Best landmark for \p Row restricted to the subset \p Allowed of
/// landmark indices (used by the Figure 8 landmark-count sweep).
unsigned bestLandmarkWithin(const linalg::Matrix &Time,
                            const linalg::Matrix &Acc, size_t Row,
                            const std::vector<unsigned> &Allowed,
                            const std::optional<runtime::AccuracySpec> &Spec);

} // namespace core
} // namespace pbt

#endif // PBT_CORE_LABELING_H
