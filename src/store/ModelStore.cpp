//===- store/ModelStore.cpp - Crash-safe on-disk model store ---------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "store/ModelStore.h"

#include "support/FaultInject.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace pbt {
namespace store {

using serialize::LoadStatus;
using support::FaultInjector;
using support::FaultPoint;

uint64_t fnv1a64(const char *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != Size; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string imageFileName(uint64_t Epoch) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "epoch-%06llu.pbt",
                static_cast<unsigned long long>(Epoch));
  return Buf;
}

const char *epochStateName(EpochState S) {
  switch (S) {
  case EpochState::Published:
    return "published";
  case EpochState::Canary:
    return "canary";
  case EpochState::Active:
    return "active";
  case EpochState::Retired:
    return "retired";
  case EpochState::RolledBack:
    return "rolled-back";
  }
  return "unknown";
}

bool parseEpochState(const std::string &Name, EpochState &Out) {
  for (unsigned I = 0; I <= static_cast<unsigned>(EpochState::RolledBack);
       ++I) {
    EpochState S = static_cast<EpochState>(I);
    if (Name == epochStateName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

namespace {

constexpr const char *kManifestName = "MANIFEST";
constexpr const char *kCurrentName = "CURRENT";
constexpr const char *kManifestHeader = "pbt-store v1";
constexpr const char *kTmpPrefix = ".tmp-";
constexpr const char *kBadPrefix = ".bad-";

std::string joinPath(const std::string &Dir, const std::string &Name) {
  return Dir + "/" + Name;
}

std::string hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool parseHex64(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 16)
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<unsigned>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<unsigned>(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | Digit;
  }
  Out = V;
  return true;
}

bool parseU64(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 19)
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

/// fsync with the slow/failing failpoints applied. Returns false only on
/// (injected or real) fsync failure.
bool durableFsync(int Fd) {
  FaultInjector &Inj = FaultInjector::instance();
  if (Inj.fire(FaultPoint::FsyncSlow))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  if (Inj.fire(FaultPoint::FsyncFail))
    return false;
  return ::fsync(Fd) == 0;
}

/// fsyncs \p Dir so a just-renamed entry is durable. Best effort: some
/// filesystems refuse directory fds; that only weakens durability, never
/// atomicity, so failures are ignored.
void fsyncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

/// The one durable-write primitive: write \p Data to a .tmp file in
/// \p Dir, fsync, atomically rename to \p Name, fsync the directory.
/// \p Faulty arms the image-write failpoints (torn write, crash before
/// rename); the MANIFEST/CURRENT writers keep their own crash points at
/// higher-level protocol boundaries instead.
LoadStatus writeFileDurable(const std::string &Dir, const std::string &Name,
                            const std::string &Data, bool Faulty) {
  FaultInjector &Inj = FaultInjector::instance();
  std::string TmpPath = joinPath(Dir, kTmpPrefix + Name);
  std::string FinalPath = joinPath(Dir, Name);

  int Fd = ::open(TmpPath.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (Fd < 0)
    return LoadStatus::failure("cannot create '" + TmpPath + "'");

  size_t WriteSize = Data.size();
  bool Torn = Faulty && Inj.fire(FaultPoint::TornWrite);
  if (Torn)
    WriteSize = Data.size() / 2; // prefix only, then die below

  size_t Off = 0;
  while (Off < WriteSize) {
    ssize_t N = ::write(Fd, Data.data() + Off, WriteSize - Off);
    if (N < 0) {
      ::close(Fd);
      ::unlink(TmpPath.c_str());
      return LoadStatus::failure("short write to '" + TmpPath + "'");
    }
    Off += static_cast<size_t>(N);
  }
  if (Torn) {
    // A torn write dies without fsync/rename: the .tmp prefix is what a
    // real mid-write power cut leaves. Leak the fd like the dead process
    // would? No -- fds are process state, not disk state; close it.
    ::close(Fd);
    throw support::FaultCrash(FaultPoint::TornWrite);
  }
  if (!durableFsync(Fd)) {
    ::close(Fd);
    ::unlink(TmpPath.c_str());
    return LoadStatus::failure("fsync('" + TmpPath + "') failed");
  }
  ::close(Fd);

  if (Faulty)
    Inj.fireOrCrash(FaultPoint::CrashBeforeRename);

  if (std::rename(TmpPath.c_str(), FinalPath.c_str()) != 0)
    return LoadStatus::failure("rename('" + TmpPath + "' -> '" + FinalPath +
                               "') failed");
  fsyncDir(Dir);
  return LoadStatus::success();
}

LoadStatus readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return LoadStatus::failure("cannot open '" + Path + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  if (In.bad())
    return LoadStatus::failure("read error on '" + Path + "'");
  Out = SS.str();
  return LoadStatus::success();
}

std::string renderManifest(const std::vector<EpochRecord> &Records) {
  std::string Out = kManifestHeader;
  Out += '\n';
  for (const EpochRecord &R : Records) {
    Out += "epoch " + std::to_string(R.Epoch) + " " + std::to_string(R.Size) +
           " " + hex64(R.Checksum) + " " + epochStateName(R.State) + "\n";
  }
  Out += "end\n";
  return Out;
}

LoadStatus parseManifest(const std::string &Text,
                         std::vector<EpochRecord> &Out) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != kManifestHeader)
    return LoadStatus::failure("MANIFEST: bad or missing header");
  std::vector<EpochRecord> Records;
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream LS(Line);
    std::string Key, EpochTok, SizeTok, SumTok, StateTok;
    if (!(LS >> Key >> EpochTok >> SizeTok >> SumTok >> StateTok) ||
        Key != "epoch")
      return LoadStatus::failure("MANIFEST: malformed record '" + Line + "'");
    EpochRecord R;
    if (!parseU64(EpochTok, R.Epoch) || R.Epoch == 0 ||
        !parseU64(SizeTok, R.Size) || !parseHex64(SumTok, R.Checksum) ||
        !parseEpochState(StateTok, R.State))
      return LoadStatus::failure("MANIFEST: malformed record '" + Line + "'");
    if (!Records.empty() && R.Epoch <= Records.back().Epoch)
      return LoadStatus::failure("MANIFEST: epochs out of order");
    Records.push_back(R);
  }
  // A manifest lands by atomic rename, so a truncated one means someone
  // edited it by hand; refuse rather than guess.
  if (!SawEnd)
    return LoadStatus::failure("MANIFEST: missing end marker");
  Out = std::move(Records);
  return LoadStatus::success();
}

LoadStatus parseCurrent(const std::string &Text, uint64_t &Epoch) {
  std::istringstream In(Text);
  std::string Key, EpochTok;
  if (!(In >> Key >> EpochTok) || Key != "epoch" ||
      !parseU64(EpochTok, Epoch) || Epoch == 0)
    return LoadStatus::failure("CURRENT: malformed content");
  return LoadStatus::success();
}

/// Verifies one record's image on disk; Text is filled on success.
LoadStatus verifyImage(const std::string &Dir, const EpochRecord &R,
                       std::string &Text) {
  std::string Path = joinPath(Dir, imageFileName(R.Epoch));
  std::string Bytes;
  LoadStatus St = readWholeFile(Path, Bytes);
  if (!St)
    return St;
  if (Bytes.size() != R.Size)
    return LoadStatus::failure(
        "'" + Path + "': size " + std::to_string(Bytes.size()) +
        " does not match manifest " + std::to_string(R.Size));
  uint64_t Sum = fnv1a64(Bytes.data(), Bytes.size());
  if (Sum != R.Checksum)
    return LoadStatus::failure("'" + Path + "': checksum mismatch (image " +
                               hex64(Sum) + ", manifest " + hex64(R.Checksum) +
                               ")");
  Text = std::move(Bytes);
  return LoadStatus::success();
}

} // namespace

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

const EpochRecord *ModelStore::record(uint64_t Epoch) const {
  for (const EpochRecord &R : Records)
    if (R.Epoch == Epoch)
      return &R;
  return nullptr;
}

LoadStatus ModelStore::writeManifest() {
  return writeFileDurable(Dir, kManifestName, renderManifest(Records),
                          /*Faulty=*/false);
}

LoadStatus ModelStore::writeCurrent(uint64_t Epoch) {
  LoadStatus St =
      writeFileDurable(Dir, kCurrentName,
                       "epoch " + std::to_string(Epoch) + "\n",
                       /*Faulty=*/false);
  if (St)
    Current = Epoch;
  return St;
}

LoadStatus ModelStore::open() {
  if (Opened)
    return LoadStatus::success();
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return LoadStatus::failure("cannot create store directory '" + Dir +
                               "': " + EC.message());

  // 1. In-flight temp files are by definition not durable state.
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind(kTmpPrefix, 0) == 0) {
      fs::remove(E.path(), EC);
      ++Recovered.TempFilesRemoved;
    }
  }

  // 2. The MANIFEST is the durable truth about which epochs exist.
  std::string ManifestText;
  std::string ManifestPath = joinPath(Dir, kManifestName);
  bool HaveManifest = fs::exists(ManifestPath);
  if (HaveManifest) {
    LoadStatus St = readWholeFile(ManifestPath, ManifestText);
    if (!St)
      return St;
    St = parseManifest(ManifestText, Records);
    if (!St)
      return St;
  }

  // 3. Quarantine records whose image is missing, short, or corrupt.
  bool Dirty = false;
  {
    std::vector<EpochRecord> Good;
    for (const EpochRecord &R : Records) {
      std::string Text;
      if (verifyImage(Dir, R, Text)) {
        Good.push_back(R);
        continue;
      }
      std::string Image = joinPath(Dir, imageFileName(R.Epoch));
      // Keep the bad bytes for forensics, out of the epoch namespace.
      std::rename(Image.c_str(),
                  joinPath(Dir, kBadPrefix + imageFileName(R.Epoch)).c_str());
      ++Recovered.CorruptImagesQuarantined;
      Dirty = true;
    }
    Records = std::move(Good);
  }

  // 4. Epoch images no record references were never durably published
  //    (the crash-before-manifest window); remove them.
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("epoch-", 0) != 0)
      continue;
    uint64_t Epoch = 0;
    size_t Dot = Name.find('.');
    if (Dot == std::string::npos ||
        !parseU64(Name.substr(6, Dot - 6), Epoch) || record(Epoch))
      continue;
    fs::remove(E.path(), EC);
    ++Recovered.OrphanImagesRemoved;
  }

  // 5. Reconcile the state machine. At most one Active epoch (newest
  //    wins -- an older duplicate can only come from hand edits).
  uint64_t Active = 0;
  for (EpochRecord &R : Records) {
    if (R.State != EpochState::Active)
      continue;
    if (Active != 0) {
      const EpochRecord *Old = record(Active);
      const_cast<EpochRecord *>(Old)->State = EpochState::Retired;
      Dirty = true;
    }
    Active = R.Epoch;
  }

  // 6. CURRENT: roll an interrupted promotion forward (MANIFEST already
  //    names the Active epoch; CURRENT just lags), or repair a pointer
  //    at a quarantined/unknown epoch.
  uint64_t Pointed = 0;
  std::string CurrentText;
  if (readWholeFile(joinPath(Dir, kCurrentName), CurrentText))
    parseCurrent(CurrentText, Pointed); // malformed -> 0, repaired below

  if (Active != 0) {
    Current = Active;
    if (Pointed != Active) {
      LoadStatus St = writeCurrent(Active);
      if (!St)
        return St;
      Recovered.CurrentRepaired = true;
    }
  } else if (Pointed != 0 && record(Pointed)) {
    // CURRENT names a live epoch the manifest does not mark Active --
    // only reachable through hand edits, but converge anyway: trust the
    // manifest-referenced image and finish the promotion.
    const_cast<EpochRecord *>(record(Pointed))->State = EpochState::Active;
    Current = Pointed;
    Dirty = true;
  } else {
    Current = 0;
    if (Pointed != 0) {
      // Pointer at a dead epoch and nothing promoted: drop it so readers
      // see "no current" rather than an unloadable epoch.
      fs::remove(joinPath(Dir, kCurrentName), EC);
      Recovered.CurrentRepaired = true;
    }
  }

  // 7. Published/Canary epochs other than CURRENT were mid-rollout when
  //    the fleet died; the rollout is over, demote them.
  for (EpochRecord &R : Records) {
    if (R.Epoch != Current && (R.State == EpochState::Published ||
                               R.State == EpochState::Canary)) {
      R.State = EpochState::RolledBack;
      ++Recovered.InFlightDemoted;
      Dirty = true;
    }
  }

  if (Dirty || (!HaveManifest && !Records.empty())) {
    LoadStatus St = writeManifest();
    if (!St)
      return St;
  }
  Opened = true;
  return LoadStatus::success();
}

LoadStatus ModelStore::publish(const std::string &ModelText,
                               uint64_t &EpochOut) {
  if (!Opened)
    return LoadStatus::failure("store '" + Dir + "' is not open");
  if (ModelText.empty())
    return LoadStatus::failure("refusing to publish an empty model image");
  uint64_t Epoch = nextEpoch();

  EpochRecord R;
  R.Epoch = Epoch;
  R.Size = ModelText.size();
  R.Checksum = fnv1a64(ModelText.data(), ModelText.size());
  R.State = EpochState::Published;

  // Image first (torn-write / crash-before-rename failpoints live in the
  // durable writer), checksum recorded above from the intended bytes.
  LoadStatus St =
      writeFileDurable(Dir, imageFileName(Epoch), ModelText, /*Faulty=*/true);
  if (!St)
    return St;

  FaultInjector &Inj = FaultInjector::instance();
  if (Inj.fire(FaultPoint::CorruptChecksum)) {
    // Rot the published bytes behind the recorded checksum: the load
    // path must now reject this image.
    std::string Path = joinPath(Dir, imageFileName(Epoch));
    int Fd = ::open(Path.c_str(), O_WRONLY);
    if (Fd >= 0) {
      char Byte = '#';
      ::pwrite(Fd, &Byte, 1, static_cast<off_t>(ModelText.size() / 2));
      ::close(Fd);
    }
  }

  Inj.fireOrCrash(FaultPoint::CrashBeforeManifest);

  Records.push_back(R);
  St = writeManifest();
  if (!St) {
    Records.pop_back();
    return St;
  }
  EpochOut = Epoch;
  return LoadStatus::success();
}

LoadStatus ModelStore::setState(uint64_t Epoch, EpochState S) {
  if (!Opened)
    return LoadStatus::failure("store '" + Dir + "' is not open");
  for (EpochRecord &R : Records) {
    if (R.Epoch != Epoch)
      continue;
    EpochState Saved = R.State;
    R.State = S;
    LoadStatus St = writeManifest();
    if (!St)
      R.State = Saved;
    return St;
  }
  return LoadStatus::failure("epoch " + std::to_string(Epoch) +
                             " is not in the store");
}

LoadStatus ModelStore::promote(uint64_t Epoch) {
  if (!Opened)
    return LoadStatus::failure("store '" + Dir + "' is not open");
  EpochRecord *Target = nullptr;
  for (EpochRecord &R : Records)
    if (R.Epoch == Epoch)
      Target = &R;
  if (!Target)
    return LoadStatus::failure("epoch " + std::to_string(Epoch) +
                               " is not in the store");

  // One manifest rewrite covers retire-old + activate-new, so the two
  // can never be observed half-done.
  std::vector<EpochRecord> Saved = Records;
  for (EpochRecord &R : Records) {
    if (R.Epoch == Epoch)
      R.State = EpochState::Active;
    else if (R.State == EpochState::Active)
      R.State = EpochState::Retired;
  }
  LoadStatus St = writeManifest();
  if (!St) {
    Records = std::move(Saved);
    return St;
  }

  // THE window: manifest says Active, CURRENT still old. Recovery rolls
  // forward from exactly here.
  FaultInjector::instance().fireOrCrash(
      FaultPoint::CrashBetweenManifestAndCurrent);

  return writeCurrent(Epoch);
}

LoadStatus ModelStore::rollback(uint64_t Epoch) {
  return setState(Epoch, EpochState::RolledBack);
}

LoadStatus ModelStore::gc(size_t KeepFinished) {
  if (!Opened)
    return LoadStatus::failure("store '" + Dir + "' is not open");
  // Finished = Retired or RolledBack; records are epoch-ascending, so
  // walk from the back keeping the newest KeepFinished of them.
  std::vector<EpochRecord> Kept;
  std::vector<uint64_t> Doomed;
  size_t FinishedKept = 0;
  for (auto It = Records.rbegin(); It != Records.rend(); ++It) {
    bool Finished = It->State == EpochState::Retired ||
                    It->State == EpochState::RolledBack;
    if (Finished && FinishedKept >= KeepFinished)
      Doomed.push_back(It->Epoch);
    else {
      if (Finished)
        ++FinishedKept;
      Kept.push_back(*It);
    }
  }
  if (Doomed.empty())
    return LoadStatus::success();
  std::reverse(Kept.begin(), Kept.end());
  std::vector<EpochRecord> Saved = std::move(Records);
  Records = std::move(Kept);
  LoadStatus St = writeManifest();
  if (!St) {
    Records = std::move(Saved);
    return St;
  }
  // Images go after the manifest stops referencing them; a crash between
  // leaves orphans recovery removes.
  std::error_code EC;
  for (uint64_t Epoch : Doomed)
    fs::remove(joinPath(Dir, imageFileName(Epoch)), EC);
  return LoadStatus::success();
}

//===----------------------------------------------------------------------===//
// Readers
//===----------------------------------------------------------------------===//

LoadStatus readSnapshot(const std::string &Dir, ReaderSnapshot &Out) {
  ReaderSnapshot S;
  std::string ManifestPath = joinPath(Dir, kManifestName);
  std::error_code EC;
  if (fs::exists(ManifestPath, EC)) {
    std::string Text;
    LoadStatus St = readWholeFile(ManifestPath, Text);
    if (!St)
      return St;
    St = parseManifest(Text, S.Records);
    if (!St)
      return St;
  }
  std::string CurrentText;
  if (readWholeFile(joinPath(Dir, kCurrentName), CurrentText)) {
    uint64_t Epoch = 0;
    if (parseCurrent(CurrentText, Epoch))
      S.CurrentEpoch = Epoch;
  }
  Out = std::move(S);
  return LoadStatus::success();
}

LoadStatus readCurrentPointer(const std::string &Dir, uint64_t &Epoch) {
  Epoch = 0;
  std::string Text;
  std::error_code EC;
  if (!fs::exists(joinPath(Dir, kCurrentName), EC))
    return LoadStatus::success(); // no promotion yet; not an error
  LoadStatus St = readWholeFile(joinPath(Dir, kCurrentName), Text);
  if (!St)
    return St;
  return parseCurrent(Text, Epoch);
}

LoadStatus loadCurrentVerified(const std::string &Dir, VerifiedModel &Out) {
  ReaderSnapshot Snap;
  LoadStatus St = readSnapshot(Dir, Snap);
  if (!St)
    return St;
  if (Snap.CurrentEpoch == 0)
    return LoadStatus::failure("store '" + Dir +
                               "' has no promoted epoch yet");

  VerifiedModel V;
  std::string FirstError;
  // CURRENT first, then newest-to-oldest over every epoch that has ever
  // served fleet-wide (Active or Retired): the fallback chain.
  std::vector<uint64_t> Order;
  Order.push_back(Snap.CurrentEpoch);
  for (auto It = Snap.Records.rbegin(); It != Snap.Records.rend(); ++It)
    if (It->Epoch != Snap.CurrentEpoch &&
        (It->State == EpochState::Active || It->State == EpochState::Retired))
      Order.push_back(It->Epoch);

  for (uint64_t Epoch : Order) {
    const EpochRecord *R = nullptr;
    for (const EpochRecord &Rec : Snap.Records)
      if (Rec.Epoch == Epoch)
        R = &Rec;
    if (!R) {
      ++V.RejectedLoads;
      if (FirstError.empty())
        FirstError = "CURRENT epoch " + std::to_string(Epoch) +
                     " has no manifest record";
      continue;
    }
    std::string Text;
    LoadStatus Img = verifyImage(Dir, *R, Text);
    if (Img) {
      V.Epoch = Epoch;
      V.Text = std::move(Text);
      Out = std::move(V);
      return LoadStatus::success();
    }
    ++V.RejectedLoads;
    if (FirstError.empty())
      FirstError = Img.Error;
  }
  return LoadStatus::failure("no loadable epoch in store '" + Dir +
                             "' (first rejection: " + FirstError + ")");
}

LoadStatus followCurrent(const std::string &Dir, uint64_t Held,
                         VerifiedModel &Out) {
  Out = VerifiedModel();
  uint64_t Pointed = 0;
  LoadStatus St = readCurrentPointer(Dir, Pointed);
  if (!St || Pointed == 0 || Pointed == Held)
    return St;
  St = loadCurrentVerified(Dir, Out);
  if (St && Out.Epoch == Held)
    Out.Epoch = 0; // the fallback converged on what is already served
  return St;
}

LoadStatus loadEpochVerified(const std::string &Dir, uint64_t Epoch,
                             std::string &Text) {
  ReaderSnapshot Snap;
  LoadStatus St = readSnapshot(Dir, Snap);
  if (!St)
    return St;
  for (const EpochRecord &R : Snap.Records)
    if (R.Epoch == Epoch)
      return verifyImage(Dir, R, Text);
  return LoadStatus::failure("epoch " + std::to_string(Epoch) +
                             " is not in the store");
}

} // namespace store
} // namespace pbt
