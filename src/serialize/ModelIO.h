//===- serialize/ModelIO.h - Trained-system persistence ---------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-trips a fully trained two-level system through the versioned text
/// format of serialize/TextFormat.h, decoupling expensive offline training
/// from cheap online selection: `pbt-bench train` persists a TrainedModel,
/// a fresh process loads it into a runtime::AdaptiveService, and the
/// golden-file regression suite pins the serialized bytes.
///
/// A TrainedModel is a core::TrainedSystem (evidence tables, normalizer,
/// clusters, landmark Configurations, cost matrix, the production
/// classifier and the one-level baseline) plus the metadata needed to
/// reconstruct the program it was trained for (benchmark registry key,
/// scale, input-generation seed, feature declarations).
///
/// Loading is defensive: every index is bounds-checked against the
/// declared shapes, so truncated, corrupted, or adversarial files produce
/// an error message -- never a crash or a silently mis-loaded model.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SERIALIZE_MODELIO_H
#define PBT_SERIALIZE_MODELIO_H

#include "core/Pipeline.h"
#include "runtime/ConfigSpace.h"
#include "runtime/Selector.h"
#include "serialize/TextFormat.h"

#include <memory>
#include <string>
#include <vector>

namespace pbt {
namespace serialize {

/// Current format version; bump when the schema changes shape. Loaders
/// reject any other version outright (no silent best-effort parsing).
/// v2: adds the model-epoch tag (the adaptive serving loop's hot-swap
/// generation counter; 0 for offline-trained models).
/// v3: records the program's configuration space -- parameter kinds,
/// bounds, and the conditional (parent/activation-mask) structure -- so
/// landmarks are validated at load time against the exact space they were
/// tuned in, dead-branch values are checked canonical, and a serving
/// process can reject a model whose space drifted from the program's.
inline constexpr unsigned kFormatVersion = 3;

/// Schema caps shared by the writer and the loader, so everything the
/// writer accepts loads back. The loader uses them to reject corrupt
/// counts before allocating; serializeModel asserts them at save time.
/// All sit far above what `--scale`'s [0.1, 100] clamp can produce.
inline constexpr uint64_t kMaxProperties = 1u << 10;
inline constexpr uint64_t kMaxFeatureLevels = 64;
inline constexpr uint64_t kMaxLandmarks = 1u << 16;
inline constexpr uint64_t kMaxRows = 1u << 22;
/// Matches ConfigSpace::activeMask's 64-parameter bitmask cap.
inline constexpr uint64_t kMaxSpaceParams = 64;

/// Provenance needed to rebuild the program a system was trained on.
struct ModelMeta {
  /// Benchmark registry key, e.g. "sort1".
  std::string Benchmark;
  /// Input-count scale the training program was built at.
  double Scale = 1.0;
  /// Input-generation seed of the training program.
  uint64_t ProgramSeed = 0;
  /// Model generation in an adaptive serving loop: 0 for offline-trained
  /// models, incremented by every runtime::AdaptiveService hot-swap so a
  /// persisted snapshot records which adaptation round produced it.
  uint64_t Epoch = 0;
  /// The program's input_feature declarations (names + sampling levels).
  std::vector<runtime::FeatureInfo> Features;
  /// The program's configuration space, including conditional-parameter
  /// structure. Landmarks are validated against it on load, and a serving
  /// process compares it against the live program's space (validateAgainst)
  /// before trusting the model's configurations.
  runtime::ConfigSpace Space;

  /// Total flat ML feature count (sum of per-property levels).
  unsigned numFlatFeatures() const;
};

/// A trained system plus its provenance: the unit of persistence.
struct TrainedModel {
  ModelMeta Meta;
  core::TrainedSystem System;
};

/// Outcome of a load; on failure Error names the offending line.
struct LoadStatus {
  bool Ok = true;
  std::string Error;

  static LoadStatus success() { return {}; }
  static LoadStatus failure(std::string Msg) { return {false, std::move(Msg)}; }
  explicit operator bool() const { return Ok; }
};

//===----------------------------------------------------------------------===//
// Component round trips (used standalone by tests and composed below)
//===----------------------------------------------------------------------===//

void saveConfiguration(Writer &W, const runtime::Configuration &Config);
bool loadConfiguration(Reader &R, runtime::Configuration &Out);

void saveSelector(Writer &W, const runtime::Selector &Selector);
bool loadSelector(Reader &R, runtime::Selector &Out);

/// Polymorphic production-classifier round trip. \p NumClasses is the
/// landmark count predictions must stay below; \p NumFlat the flat ML
/// feature count extractions must stay below.
void saveClassifier(Writer &W, const core::InputClassifier &Classifier);
std::unique_ptr<core::InputClassifier>
loadClassifier(Reader &R, unsigned NumClasses, unsigned NumFlat);

//===----------------------------------------------------------------------===//
// Whole-model round trip
//===----------------------------------------------------------------------===//

/// Captures provenance from \p Program and adopts \p System.
TrainedModel makeModel(const std::string &Benchmark, double Scale,
                       uint64_t ProgramSeed,
                       const runtime::TunableProgram &Program,
                       core::TrainedSystem System);

/// Serializes \p Model to the versioned text format. Deterministic: equal
/// models produce identical bytes, and serialize(load(text)) == text.
std::string serializeModel(const TrainedModel &Model);

/// Parses serializeModel output. On failure \p Out is untouched.
LoadStatus loadModel(const std::string &Text, TrainedModel &Out);

/// File convenience wrappers. writeModelText exists so callers that
/// already hold serializeModel output need not serialize twice.
LoadStatus writeModelText(const std::string &Path, const std::string &Text);
LoadStatus saveModelFile(const std::string &Path, const TrainedModel &Model);
LoadStatus loadModelFile(const std::string &Path, TrainedModel &Out);

/// Checks that \p Model matches \p Program (feature declarations,
/// configuration arity, input count covering the recorded rows) -- the
/// gate an AdaptiveService runs before serving decisions.
LoadStatus validateAgainst(const TrainedModel &Model,
                           const runtime::TunableProgram &Program);

} // namespace serialize
} // namespace pbt

#endif // PBT_SERIALIZE_MODELIO_H
