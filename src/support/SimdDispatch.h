//===- support/SimdDispatch.h - Host ISA tier detection --------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host's best SIMD tier, probed once (CPUID via
/// __builtin_cpu_supports on x86; everything else is Scalar). Benchmark
/// host records carry its name so numbers measured on different hosts
/// are never compared as if they were one.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_SIMDDISPATCH_H
#define PBT_SUPPORT_SIMDDISPATCH_H

#include <cstdint>

namespace pbt {
namespace support {

enum class SimdTier : uint8_t {
  Scalar = 0,
  Sse42 = 1,
  Avx2 = 2,
};

/// Stable lowercase name ("scalar" / "sse42" / "avx2") for reports.
const char *simdTierName(SimdTier Tier);

/// The best tier the host can execute.
SimdTier detectSimdTier();

/// detectSimdTier(), computed once and cached for the process.
SimdTier activeSimdTier();

} // namespace support
} // namespace pbt

#endif // PBT_SUPPORT_SIMDDISPATCH_H
