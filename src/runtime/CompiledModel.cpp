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

CompiledModel
CompiledModel::compileClassifiers(const core::InputClassifier &Production,
                                  unsigned NumLandmarks) {
  CompiledModel M;
  M.NumLandmarks = NumLandmarks;
  ml::CompiledClassifier &Out = M.Production;
  if (auto *C = dynamic_cast<const core::ConstantClassifier *>(&Production)) {
    Out.Kind = ml::CompiledKind::Constant;
    Out.Landmark = C->landmark();
  } else if (auto *C = dynamic_cast<const core::MaxAprioriClassifier *>(
                 &Production)) {
    C->model().compileInto(M.Arena, Out);
  } else if (auto *C = dynamic_cast<const core::SubsetTreeClassifier *>(
                 &Production)) {
    C->tree().compileInto(M.Arena, Out);
  } else if (auto *C = dynamic_cast<const core::IncrementalClassifier *>(
                 &Production)) {
    C->model().compileInto(M.Arena, Out);
  } else {
    // Not a kind Level 2 selects (e.g. the one-level baseline): refuse.
    return CompiledModel();
  }
  M.Ready = true;
  return M;
}

CompiledModel CompiledModel::compile(const serialize::TrainedModel &Model) {
  const core::TrainedSystem &S = Model.System;
  if (!S.L2.Production || S.L1.Landmarks.empty())
    return CompiledModel();
  return compileClassifiers(*S.L2.Production,
                            static_cast<unsigned>(S.L1.Landmarks.size()));
}

CompiledModel::Scratch CompiledModel::makeScratch() const {
  Scratch S;
  S.LogPost.assign(std::max({NumLandmarks, Production.Classes, 1u}), 0.0);
  return S;
}
