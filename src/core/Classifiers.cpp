//===- core/Classifiers.cpp --------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "core/Classifiers.h"

using namespace pbt;
using namespace pbt::core;

InputClassifier::~InputClassifier() = default;
