//===- ml/MaxApriori.cpp ---------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "ml/MaxApriori.h"

#include "ml/CompiledArena.h"
#include "serialize/TextFormat.h"

using namespace pbt;
using namespace pbt::ml;

void MaxApriori::compileInto(CompiledArena &, CompiledClassifier &Out) const {
  assert(Trained && "compileInto() before fit()/loadFrom()");
  Out.Kind = CompiledKind::Constant;
  Out.Landmark = Mode;
}

void MaxApriori::saveTo(serialize::Writer &W) const {
  W.doubles("max-apriori", Priors);
}

bool MaxApriori::loadFrom(serialize::Reader &R) {
  std::vector<double> P;
  if (!R.doubles("max-apriori", P, 1u << 20))
    return false;
  if (P.empty())
    return R.fail("max-apriori needs at least one class");
  Priors = std::move(P);
  Mode = 0;
  for (unsigned I = 1; I < Priors.size(); ++I)
    if (Priors[I] > Priors[Mode])
      Mode = I;
  Trained = true;
  return true;
}
