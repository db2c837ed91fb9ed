//===- ml/Normalizer.h - Z-score feature normalisation ---------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-column z-score normalisation. The paper normalises input feature
/// vectors before clustering "to avoid biases imposed by the different
/// value scales in different dimensions" (Level 1, Step 2).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ML_NORMALIZER_H
#define PBT_ML_NORMALIZER_H

#include "linalg/Matrix.h"

#include <vector>

namespace pbt {
namespace serialize {
class Writer;
class Reader;
} // namespace serialize
namespace ml {

/// Fits per-column mean/stddev on a data matrix and maps rows into z-score
/// space. Columns with (near-)zero variance map to 0, so constant features
/// are effectively ignored downstream instead of producing NaNs.
class Normalizer {
public:
  /// Fits on the rows of \p X (samples x features).
  void fit(const linalg::Matrix &X);

  /// Transforms a matrix (same column count as fitted).
  linalg::Matrix transform(const linalg::Matrix &X) const;

  /// Transforms a single row vector in place.
  void transformRow(std::vector<double> &Row) const;

  size_t numFeatures() const { return Mean.size(); }
  double mean(size_t Col) const { return Mean[Col]; }
  double stddev(size_t Col) const { return Std[Col]; }

  /// Serialization hooks for the model-persistence layer (exact text
  /// round trip; see serialize/TextFormat.h).
  void saveTo(serialize::Writer &W) const;
  bool loadFrom(serialize::Reader &R);

private:
  std::vector<double> Mean;
  std::vector<double> Std;
};

} // namespace ml
} // namespace pbt

#endif // PBT_ML_NORMALIZER_H
