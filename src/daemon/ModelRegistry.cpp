//===- daemon/ModelRegistry.cpp - Multi-tenant hot model registry ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"

#include "store/ModelStore.h"

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
  registry::BoundModel Bound = registry::bindModel(
      std::move(Model), Opts.Window, Opts.Reservoir, Opts.AutoAdapt);
  if (!Bound.Status)
    return Bound.Status;
  runtime::AdaptiveService::EpochPtr Ep = Bound.Service->currentEpoch();
  Out = std::make_unique<Tenant>();
  Out->Name = Name.empty() ? Ep->Model.Meta.Benchmark : Name;
  Out->ModelPath = SourceDesc;
  Out->Benchmark = Ep->Model.Meta.Benchmark;
  Out->Landmarks = static_cast<unsigned>(Ep->Model.System.L1.Landmarks.size());
  Out->Program = std::move(Bound.Program);
  Out->Service = std::move(Bound.Service);
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
  Loaded = buildTenant(Name, ModelPath, std::move(Model), T);
  if (!Loaded)
    return Loaded;
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
    store::VerifiedModel V;
    if (!store::followCurrent(T->StoreDir, T->StoreEpoch.load(), V)) {
      T->StoreRejects.fetch_add(1);
      continue; // nothing loadable; keep serving the held epoch
    }
    T->StoreRejects.fetch_add(V.RejectedLoads);
    if (V.Epoch == 0)
      continue;

    // swapModel checks the bound program and the serving provenance (a
    // foreign store is refused, not served), is safe against serving
    // workers, and skips the shadow gate (the store's canary ran it).
    serialize::TrainedModel Model;
    if (!serialize::loadModel(V.Text, Model) ||
        !T->Service->swapModel(std::move(Model))) {
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
