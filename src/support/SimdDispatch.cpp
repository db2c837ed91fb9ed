//===- support/SimdDispatch.cpp ---------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "support/SimdDispatch.h"

using namespace pbt;
using namespace pbt::support;

const char *support::simdTierName(SimdTier Tier) {
  switch (Tier) {
  case SimdTier::Scalar:
    return "scalar";
  case SimdTier::Sse42:
    return "sse42";
  case SimdTier::Avx2:
    return "avx2";
  }
  return "scalar";
}

SimdTier support::detectSimdTier() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2"))
    return SimdTier::Avx2;
  if (__builtin_cpu_supports("sse4.2"))
    return SimdTier::Sse42;
#endif
  return SimdTier::Scalar;
}

SimdTier support::activeSimdTier() {
  static const SimdTier Active = detectSimdTier();
  return Active;
}
