//===- runtime/CompiledModel.cpp --------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledModel.h"

#include "core/Classifiers.h"
#include "serialize/ModelIO.h"

#include <algorithm>

using namespace pbt;
using namespace pbt::runtime;

CompiledModel CompiledModel::compileClassifiers(
    const core::InputClassifier &Production, unsigned NumFlat,
    unsigned NumLandmarks) {
  CompiledModel M;
  M.NumFlat = NumFlat;
  M.NumLandmarks = NumLandmarks;
  Production.compileInto(M.Arena, M.Production);
  M.Ready = true;
  return M;
}

CompiledModel CompiledModel::compile(const serialize::TrainedModel &Model) {
  const core::TrainedSystem &S = Model.System;
  if (!S.L2.Production || S.L1.Landmarks.empty())
    return CompiledModel();
  CompiledModel M = compileClassifiers(
      *S.L2.Production, Model.Meta.numFlatFeatures(),
      static_cast<unsigned>(S.L1.Landmarks.size()));
  // Inline the landmark configurations: a flat values-by-arity table so
  // decision -> configuration is one multiply-add away.
  M.Arity = static_cast<unsigned>(S.L1.Landmarks.front().size());
  M.LandmarkBase = static_cast<uint32_t>(M.Arena.F64.size());
  for (const Configuration &C : S.L1.Landmarks) {
    assert(C.size() == M.Arity && "landmark arity mismatch");
    M.Arena.appendF64(C.values().data(), C.values().size());
  }
  // Precompute each landmark's active-parameter bitmask from the
  // recorded conditional space: one chain walk per landmark at compile
  // time, a single load per decision afterwards.
  const ConfigSpace &Space = Model.Meta.Space;
  if (Space.size() == M.Arity && M.Arity != 0) {
    M.LandmarkMasks.reserve(S.L1.Landmarks.size());
    for (const Configuration &C : S.L1.Landmarks)
      M.LandmarkMasks.push_back(Space.activeMask(C));
  }
  return M;
}

CompiledModel::Scratch CompiledModel::makeScratch() const {
  Scratch S;
  S.LogPost.assign(std::max({NumLandmarks, Production.Classes, 1u}), 0.0);
  S.Row.assign(std::max({NumFlat, Production.Dim, 1u}), 0.0);
  return S;
}
