//===- daemon/ModelRegistry.cpp - Multi-tenant hot model registry ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"

#include "store/ModelStore.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace pbt {
namespace daemon {

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Builds the AdaptiveService for \p Model under \p Opts; shared by the
/// file path, the store path, and store hot-swaps (a swapped-in epoch
/// gets a fresh drift monitor and reservoir -- its serving history
/// starts at the promotion).
std::unique_ptr<runtime::AdaptiveService>
buildService(const registry::BenchmarkFactory &Factory,
             runtime::TunableProgram &Program, serialize::TrainedModel Model,
             const ModelRegistryOptions &Opts) {
  runtime::AdaptiveServiceOptions AO;
  AO.Monitor.Window = std::max(8u, Opts.Window);
  AO.Monitor.MinSamples = AO.Monitor.Window / 2;
  AO.Monitor.Cooldown = AO.Monitor.Window;
  AO.ReservoirSize = std::max(8u, Opts.Reservoir);
  AO.MinRetrainInputs = std::min<size_t>(16, AO.ReservoirSize);
  AO.Retrain = registry::reservoirRetrainOptions(
      Factory, Model.Meta.Scale, AO.ReservoirSize, Opts.Pool);
  AO.AutoAdapt = Opts.AutoAdapt;
  return std::make_unique<runtime::AdaptiveService>(Program, std::move(Model),
                                                    AO);
}

} // namespace

std::vector<std::pair<std::string, std::string>>
splitModelSpec(const std::string &Spec) {
  std::vector<std::pair<std::string, std::string>> Out;
  size_t Start = 0;
  while (Start <= Spec.size()) {
    size_t Comma = Spec.find(',', Start);
    std::string Entry = Spec.substr(
        Start, Comma == std::string::npos ? std::string::npos : Comma - Start);
    if (!Entry.empty()) {
      size_t Eq = Entry.find('=');
      if (Eq == std::string::npos)
        Out.emplace_back("", Entry);
      else
        Out.emplace_back(Entry.substr(0, Eq), Entry.substr(Eq + 1));
    }
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  return Out;
}

serialize::LoadStatus
ModelRegistry::buildTenant(const std::string &Name,
                           const std::string &SourceDesc,
                           serialize::TrainedModel Model,
                           std::unique_ptr<Tenant> &Out) {
  const registry::BenchmarkFactory *Factory =
      registry::BenchmarkRegistry::instance().lookup(Model.Meta.Benchmark);
  if (!Factory)
    return serialize::LoadStatus::failure("model benchmark '" +
                                          Model.Meta.Benchmark +
                                          "' is not registered");

  auto T = std::make_unique<Tenant>();
  T->Name = Name.empty() ? Model.Meta.Benchmark : Name;
  T->ModelPath = SourceDesc;
  T->Benchmark = Model.Meta.Benchmark;
  T->Program = Factory->makeProgram(Model.Meta.Scale, Model.Meta.ProgramSeed);
  T->Landmarks = static_cast<unsigned>(Model.System.L1.Landmarks.size());
  T->Service = buildService(*Factory, *T->Program, std::move(Model), Opts);
  if (!T->Service->ready())
    return T->Service->status();
  Out = std::move(T);
  return serialize::LoadStatus::success();
}

serialize::LoadStatus ModelRegistry::publishTenant(std::unique_ptr<Tenant> T) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &Existing : Tenants)
    if (Existing->Name == T->Name)
      return serialize::LoadStatus::failure(
          "duplicate tenant name '" + T->Name +
          "' (use --model=NAME=FILE to disambiguate)");
  Tenants.push_back(std::move(T));
  return serialize::LoadStatus::success();
}

serialize::LoadStatus ModelRegistry::addTenant(const std::string &Name,
                                               const std::string &ModelPath) {
  auto Start = std::chrono::steady_clock::now();
  serialize::TrainedModel Model;
  serialize::LoadStatus Loaded = serialize::loadModelFile(ModelPath, Model);
  if (!Loaded)
    return Loaded;
  std::unique_ptr<Tenant> T;
  serialize::LoadStatus Built =
      buildTenant(Name, ModelPath, std::move(Model), T);
  if (!Built)
    return Built;
  T->BuildMs = msSince(Start);
  return publishTenant(std::move(T));
}

serialize::LoadStatus
ModelRegistry::addStoreTenant(const std::string &Name,
                              const std::string &StoreDir) {
  auto Start = std::chrono::steady_clock::now();
  store::VerifiedModel V;
  serialize::LoadStatus St = store::loadCurrentVerified(StoreDir, V);
  if (!St)
    return St;
  serialize::TrainedModel Model;
  St = serialize::loadModel(V.Text, Model);
  if (!St)
    return serialize::LoadStatus::failure(
        "store '" + StoreDir + "' epoch " + std::to_string(V.Epoch) + ": " +
        St.Error);
  std::unique_ptr<Tenant> T;
  St = buildTenant(Name, StoreDir, std::move(Model), T);
  if (!St)
    return St;
  T->StoreDir = StoreDir;
  T->StoreEpoch.store(V.Epoch);
  T->StoreRejects.store(V.RejectedLoads);
  T->BuildMs = msSince(Start);
  return publishTenant(std::move(T));
}

size_t ModelRegistry::pollStores() {
  // Snapshot the tenant pointers (append-only table; addresses stable).
  std::vector<Tenant *> Watched;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &T : Tenants)
      if (!T->StoreDir.empty())
        Watched.push_back(T.get());
  }

  size_t Swapped = 0;
  for (Tenant *T : Watched) {
    uint64_t Pointed = 0;
    if (!store::readCurrentPointer(T->StoreDir, Pointed))
      continue;
    if (Pointed == 0 || Pointed == T->StoreEpoch.load())
      continue;

    store::VerifiedModel V;
    serialize::LoadStatus St = store::loadCurrentVerified(T->StoreDir, V);
    if (!St) {
      T->StoreRejects.fetch_add(1);
      continue; // nothing loadable; keep serving the held epoch
    }
    T->StoreRejects.fetch_add(V.RejectedLoads);
    if (V.Epoch == T->StoreEpoch.load())
      continue; // fallback converged on what we already serve

    serialize::TrainedModel Model;
    St = serialize::loadModel(V.Text, Model);
    if (!St) {
      T->StoreRejects.fetch_add(1);
      continue;
    }
    // Provenance must match: the tenant's compiled program was built for
    // the original model's (benchmark, scale, seed); a store that starts
    // publishing a different program is refused, not served.
    const serialize::ModelMeta &Now = T->Service->currentEpoch()->Model.Meta;
    if (Model.Meta.Benchmark != Now.Benchmark ||
        Model.Meta.Scale != Now.Scale ||
        Model.Meta.ProgramSeed != Now.ProgramSeed) {
      T->StoreRejects.fetch_add(1);
      continue;
    }

    // swapModel is the operator-push path: validated against the bound
    // program, thread-safe against serving workers, no shadow gate (the
    // store's canary already gated this epoch).
    St = T->Service->swapModel(std::move(Model));
    if (!St) {
      T->StoreRejects.fetch_add(1);
      continue;
    }
    T->StoreEpoch.store(V.Epoch);
    T->StoreSwaps.fetch_add(1);
    ++Swapped;
  }
  return Swapped;
}

Tenant *ModelRegistry::find(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &T : Tenants)
    if (T->Name == Name)
      return T.get();
  return nullptr;
}

Tenant *ModelRegistry::at(size_t Idx) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Idx < Tenants.size() ? Tenants[Idx].get() : nullptr;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Tenants.size();
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Out;
  Out.reserve(Tenants.size());
  for (const auto &T : Tenants)
    Out.push_back(T->Name);
  return Out;
}

} // namespace daemon
} // namespace pbt
