//===- store/ModelStore.h - Crash-safe on-disk model store -----------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable half of the trainer/server split: an on-disk store of
/// epoch-numbered model images that one publisher writes and N serving
/// replicas consume, designed so a reader can NEVER observe a torn or
/// half-written model no matter where the publisher dies.
///
/// Layout of a store directory:
///
///   epoch-000001.pbt   model image: the exact serializeModel() bytes of
///                      the v2 text format (the golden-anchored source of
///                      truth; store images round-trip byte-identically)
///   MANIFEST           one record per epoch: number, byte size, FNV-1a
///                      checksum, rollout state -- the durable log of the
///                      rollout state machine (rollout/RolloutController.h)
///   CURRENT            the fleet-wide promoted epoch, updated LAST
///   .tmp-*             in-flight writes (removed by recovery)
///
/// Every durable write follows temp-file + fsync + atomic rename (+
/// parent-directory fsync), in a fixed order: image, then MANIFEST, then
/// CURRENT. A crash at any point leaves either the old state or the new
/// state visible, never a mix a reader would mis-load:
///
///   crash during image write      -> .tmp orphan, removed by recovery
///   crash before image rename     -> same
///   crash before MANIFEST update  -> unreferenced epoch image, removed
///   crash before CURRENT update   -> MANIFEST already names the new
///                                    active epoch; recovery rolls the
///                                    promotion FORWARD by rewriting
///                                    CURRENT (redo, never undo)
///
/// Checksums close the remaining hole: an image whose bytes rot (or are
/// corrupted by an injected fault) is rejected at load, quarantined by
/// recovery, and readers fall back to the newest remaining good epoch.
///
/// Concurrency contract: one writer (the publisher owns the ModelStore
/// object); any number of readers through the stateless functions at the
/// bottom, safe concurrently with the writer because every visible file
/// lands by atomic rename. The write paths are instrumented with
/// support/FaultInject.h failpoints; an injected crash propagates as
/// support::FaultCrash with the directory left mid-protocol, which is
/// exactly what the recovery tests feed on.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_STORE_MODELSTORE_H
#define PBT_STORE_MODELSTORE_H

#include "serialize/ModelIO.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pbt {
namespace store {

/// FNV-1a 64-bit over \p Size bytes: the per-epoch integrity checksum.
/// Dependency-free and byte-order independent (it hashes bytes).
uint64_t fnv1a64(const char *Data, size_t Size);

/// "epoch-000042.pbt" -- the image file name for \p Epoch.
std::string imageFileName(uint64_t Epoch);

/// Rollout state of one epoch, durable in the MANIFEST. The legal
/// transitions are the rollout state machine's:
///   Published -> Canary -> Active | RolledBack
///   Active -> Retired (when a later epoch promotes)
enum class EpochState : unsigned {
  Published = 0, ///< image durable, not serving anywhere
  Canary,        ///< being shadow-scored against the champion
  Active,        ///< fleet-wide promoted (the CURRENT epoch)
  Retired,       ///< formerly Active, superseded by a later promote
  RolledBack,    ///< failed canary (or demoted in-flight by recovery)
};

const char *epochStateName(EpochState S);
bool parseEpochState(const std::string &Name, EpochState &Out);

/// One MANIFEST record.
struct EpochRecord {
  uint64_t Epoch = 0;
  uint64_t Size = 0;
  uint64_t Checksum = 0;
  EpochState State = EpochState::Published;
};

/// What open()'s recovery pass found and repaired; every counter is a
/// crash-point class the fault-injection wall drives.
struct RecoveryReport {
  unsigned TempFilesRemoved = 0;
  /// Epoch images no MANIFEST record references (crash between image
  /// rename and MANIFEST update): never durably published, removed.
  unsigned OrphanImagesRemoved = 0;
  /// Records whose image is missing, short, or checksum-mismatched:
  /// image quarantined as .bad-*, record dropped.
  unsigned CorruptImagesQuarantined = 0;
  /// Published/Canary records demoted to RolledBack: the rollout they
  /// belonged to died mid-flight; the fleet converges to the last
  /// durable Active epoch instead.
  unsigned InFlightDemoted = 0;
  /// CURRENT was missing, stale, or pointed at a dead epoch and was
  /// rewritten (roll-forward of a promotion, or fallback).
  bool CurrentRepaired = false;
};

/// The single-writer store handle. Construct, open() (recovery runs
/// there), then publish/promote/rollback in rollout order.
class ModelStore {
public:
  explicit ModelStore(std::string Dir) : Dir(std::move(Dir)) {}

  /// Creates the directory when absent, then runs crash recovery: drops
  /// temp files, quarantines corrupt images, removes unreferenced ones,
  /// demotes in-flight epochs, and repairs CURRENT (rolling an
  /// interrupted promotion forward). Idempotent; call once per handle.
  serialize::LoadStatus open();

  const std::string &dir() const { return Dir; }
  const RecoveryReport &recovery() const { return Recovered; }

  /// Writes \p ModelText as the next epoch image (temp + fsync + rename),
  /// records it in the MANIFEST as Published, and returns its number.
  /// On failure (e.g. failing fsync) nothing durable changes.
  serialize::LoadStatus publish(const std::string &ModelText,
                                uint64_t &EpochOut);

  /// Durable state transition of one epoch (Publish -> Canary etc.).
  serialize::LoadStatus setState(uint64_t Epoch, EpochState S);

  /// Promotes \p Epoch fleet-wide: one MANIFEST rewrite marks it Active
  /// (retiring the previous Active), THEN CURRENT is updated -- the
  /// order recovery's roll-forward depends on.
  serialize::LoadStatus promote(uint64_t Epoch);

  /// Marks \p Epoch RolledBack. CURRENT is untouched (it still names
  /// the champion).
  serialize::LoadStatus rollback(uint64_t Epoch);

  /// Deletes all but the newest \p KeepFinished Retired/RolledBack
  /// epochs (images + records). Active/Canary/Published epochs are
  /// never collected.
  serialize::LoadStatus gc(size_t KeepFinished);

  /// The promoted epoch (0 = nothing promoted yet).
  uint64_t currentEpoch() const { return Current; }
  const std::vector<EpochRecord> &records() const { return Records; }
  const EpochRecord *record(uint64_t Epoch) const;
  /// The epoch number the next publish() lands as.
  uint64_t nextEpoch() const {
    return Records.empty() ? 1 : Records.back().Epoch + 1;
  }

private:
  serialize::LoadStatus writeManifest();
  serialize::LoadStatus writeCurrent(uint64_t Epoch);

  std::string Dir;
  std::vector<EpochRecord> Records; // ascending by epoch
  uint64_t Current = 0;
  RecoveryReport Recovered;
  bool Opened = false;
};

//===----------------------------------------------------------------------===//
// Reader side: stateless, safe concurrently with one writer.
//===----------------------------------------------------------------------===//

/// MANIFEST + CURRENT as the filesystem shows them right now.
struct ReaderSnapshot {
  uint64_t CurrentEpoch = 0; ///< 0 = no CURRENT (nothing promoted)
  std::vector<EpochRecord> Records;
};

/// Parses MANIFEST and CURRENT. A missing MANIFEST is an empty store
/// (Ok, no records); a malformed one is an error.
serialize::LoadStatus readSnapshot(const std::string &Dir,
                                   ReaderSnapshot &Out);

/// Just the CURRENT pointer -- the cheap poll a serving replica runs to
/// detect a promotion. 0 when absent.
serialize::LoadStatus readCurrentPointer(const std::string &Dir,
                                         uint64_t &Epoch);

/// A checksum-verified model image plus how it was found.
struct VerifiedModel {
  uint64_t Epoch = 0;
  std::string Text;
  /// Images rejected (missing/short/checksum mismatch) before this one
  /// loaded -- each is a torn read that never reached serving.
  unsigned RejectedLoads = 0;
};

/// Loads the CURRENT epoch's image, verifying size + checksum against
/// the MANIFEST. On rejection falls back epoch-by-epoch to the newest
/// remaining Active/Retired record; fails only when no good image
/// exists. This is THE replica load path: a torn or corrupt image can
/// cost a fallback, never a mis-served model.
serialize::LoadStatus loadCurrentVerified(const std::string &Dir,
                                          VerifiedModel &Out);

/// The store-follow step of ModelRegistry::pollStores and of the rollout
/// controller's champion load: when CURRENT names an epoch other than
/// \p Held, loads it through loadCurrentVerified. Out.Epoch is 0 when
/// there is nothing new to adopt. Fails when CURRENT is unreadable or
/// nothing loads.
serialize::LoadStatus followCurrent(const std::string &Dir, uint64_t Held,
                                    VerifiedModel &Out);

/// Loads exactly \p Epoch's image, verifying size + checksum against the
/// MANIFEST -- no fallback. The canary load path: the canary must score
/// exactly the candidate or refuse it.
serialize::LoadStatus loadEpochVerified(const std::string &Dir,
                                        uint64_t Epoch, std::string &Text);

} // namespace store
} // namespace pbt

#endif // PBT_STORE_MODELSTORE_H
