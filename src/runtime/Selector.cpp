//===- runtime/Selector.cpp -----------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Selector.h"

#include <algorithm>
#include <sstream>

using namespace pbt;
using namespace pbt::runtime;

std::string Selector::str() const {
  std::ostringstream OS;
  for (size_t I = 0; I != Levels.size(); ++I) {
    if (I + 1 == Levels.size())
      OS << "[* -> " << Levels[I].Choice << "]";
    else
      OS << "[n<" << Levels[I].Cutoff << " -> " << Levels[I].Choice << "]";
  }
  if (Levels.empty())
    OS << "[* -> 0]";
  return OS.str();
}

SelectorScheme SelectorScheme::declare(ConfigSpace &Space,
                                       const std::string &Name,
                                       unsigned NumLevels, unsigned NumChoices,
                                       uint64_t MinCutoff,
                                       uint64_t MaxCutoff) {
  assert(NumLevels >= 1 && "selector needs at least one level");
  assert(NumChoices >= 1 && "selector needs at least one choice");
  assert(MinCutoff >= 1 && MinCutoff <= MaxCutoff && "bad cutoff range");
  SelectorScheme S;
  S.NumLevels = NumLevels;
  S.NumChoices = NumChoices;
  for (unsigned I = 0; I != NumLevels; ++I) {
    unsigned Index = Space.addCategorical(
        Name + ".choice" + std::to_string(I), NumChoices);
    if (I == 0)
      S.FirstChoiceParam = Index;
  }
  for (unsigned I = 0; I + 1 < NumLevels; ++I) {
    unsigned Index = Space.addInteger(Name + ".cutoff" + std::to_string(I),
                                      static_cast<int64_t>(MinCutoff),
                                      static_cast<int64_t>(MaxCutoff),
                                      /*LogScale=*/true);
    if (I == 0)
      S.FirstCutoffParam = Index;
  }
  return S;
}

Selector SelectorScheme::instantiate(const Configuration &Config) const {
  assert(NumLevels >= 1 && "scheme was not declared");
  // Gather the cutoffs straight into the level list and sort them there
  // (stored cutoffs are unordered; sorting them makes every encoding
  // decode to a monotone rule), then attach the choices in level order.
  std::vector<Selector::Level> Levels(NumLevels);
  for (unsigned I = 0; I + 1 < NumLevels; ++I)
    Levels[I].Cutoff =
        static_cast<uint64_t>(Config.integer(FirstCutoffParam + I));
  std::sort(Levels.begin(), Levels.end() - 1,
            [](const Selector::Level &A, const Selector::Level &B) {
              return A.Cutoff < B.Cutoff;
            });
  Levels.back().Cutoff = std::numeric_limits<uint64_t>::max();
  for (unsigned I = 0; I != NumLevels; ++I) {
    Levels[I].Choice = Config.category(FirstChoiceParam + I);
    assert(Levels[I].Choice < NumChoices && "choice out of range");
  }
  return Selector(std::move(Levels));
}
