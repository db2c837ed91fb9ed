//===- ml/Normalizer.cpp ---------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "ml/Normalizer.h"

#include "serialize/TextFormat.h"

#include <cassert>
#include <cmath>

using namespace pbt;
using namespace pbt::ml;

void Normalizer::fit(const linalg::Matrix &X) {
  size_t N = X.rows(), D = X.cols();
  assert(N > 0 && "cannot fit a normalizer on an empty matrix");
  Mean.assign(D, 0.0);
  Std.assign(D, 0.0);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != D; ++J)
      Mean[J] += X.at(I, J);
  for (size_t J = 0; J != D; ++J)
    Mean[J] /= static_cast<double>(N);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != D; ++J) {
      double Delta = X.at(I, J) - Mean[J];
      Std[J] += Delta * Delta;
    }
  for (size_t J = 0; J != D; ++J)
    Std[J] = std::sqrt(Std[J] / static_cast<double>(N));
}

linalg::Matrix Normalizer::transform(const linalg::Matrix &X) const {
  assert(X.cols() == Mean.size() && "column count mismatch");
  linalg::Matrix Out(X.rows(), X.cols());
  for (size_t I = 0; I != X.rows(); ++I)
    for (size_t J = 0; J != X.cols(); ++J)
      Out.at(I, J) =
          Std[J] > 1e-12 ? (X.at(I, J) - Mean[J]) / Std[J] : 0.0;
  return Out;
}

void Normalizer::transformRow(std::vector<double> &Row) const {
  assert(Row.size() == Mean.size() && "column count mismatch");
  for (size_t J = 0; J != Row.size(); ++J)
    Row[J] = Std[J] > 1e-12 ? (Row[J] - Mean[J]) / Std[J] : 0.0;
}

void Normalizer::saveTo(serialize::Writer &W) const {
  W.key("normalizer").u64(Mean.size()).end();
  W.doubles("mean", Mean);
  W.doubles("std", Std);
}

bool Normalizer::loadFrom(serialize::Reader &R) {
  if (!R.expect("normalizer"))
    return false;
  uint64_t D = R.count(1u << 20);
  if (!R.endLine())
    return false;
  std::vector<double> M, S;
  if (!R.doubles("mean", M, D) || !R.doubles("std", S, D))
    return false;
  if (M.size() != D || S.size() != D)
    return R.fail("normalizer mean/std length mismatch");
  Mean = std::move(M);
  Std = std::move(S);
  return true;
}
