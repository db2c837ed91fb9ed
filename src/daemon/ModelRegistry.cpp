//===- daemon/ModelRegistry.cpp - Multi-tenant hot model registry ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"

#include "store/ModelStore.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>
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
ModelRegistry::buildTenant(const TenantSource &Src,
                           std::unique_ptr<Tenant> &Out) const {
  auto Start = std::chrono::steady_clock::now();
  serialize::TrainedModel Model;
  store::VerifiedModel V;
  serialize::LoadStatus St;
  if (Src.Store) {
    St = store::loadCurrentVerified(Src.Path, V);
    if (!St)
      return St;
    St = serialize::loadModel(V.Text, Model);
    if (!St)
      return serialize::LoadStatus::failure(
          "store '" + Src.Path + "' epoch " + std::to_string(V.Epoch) +
          ": " + St.Error);
  } else {
    St = serialize::loadModelFile(Src.Path, Model);
    if (!St)
      return St;
  }
  registry::BoundModel Bound = registry::bindModel(
      std::move(Model), Opts.Window, Opts.Reservoir, Opts.AutoAdapt);
  if (!Bound.Status)
    return Bound.Status;
  runtime::AdaptiveService::EpochPtr Ep = Bound.Service->currentEpoch();
  Out = std::make_unique<Tenant>();
  Out->Name = Src.Name.empty() ? Ep->Model.Meta.Benchmark : Src.Name;
  Out->ModelPath = Src.Path;
  Out->Benchmark = Ep->Model.Meta.Benchmark;
  Out->Landmarks = static_cast<unsigned>(Ep->Model.System.L1.Landmarks.size());
  Out->Program = std::move(Bound.Program);
  Out->Service = std::move(Bound.Service);
  if (Src.Store) {
    Out->StoreDir = Src.Path;
    Out->StoreEpoch.store(V.Epoch);
    Out->StoreRejects.store(V.RejectedLoads);
  }
  Out->BuildMs = msSince(Start);
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

serialize::LoadStatus
ModelRegistry::addTenants(const std::vector<TenantSource> &Sources,
                          size_t *FailedAt) {
  struct Build {
    serialize::LoadStatus Status;
    std::unique_ptr<Tenant> T;
    std::exception_ptr Thrown;
  };
  std::vector<Build> Builds(Sources.size());
  std::atomic<size_t> NextSource{0};
  auto Builder = [&] {
    for (size_t I = NextSource++; I < Sources.size(); I = NextSource++) {
      try {
        Builds[I].Status = buildTenant(Sources[I], Builds[I].T);
      } catch (...) {
        Builds[I].Thrown = std::current_exception();
      }
    }
  };
  unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  size_t Helpers = std::min<size_t>(Sources.size(), Hardware);
  Helpers = Helpers > 0 ? Helpers - 1 : 0;
  std::vector<std::thread> Threads;
  Threads.reserve(Helpers);
  try {
    while (Threads.size() < Helpers)
      Threads.emplace_back(Builder);
  } catch (const std::system_error &) {
    // Fewer helpers than asked for: the calling thread builds the rest.
  }
  Builder();
  for (std::thread &Th : Threads)
    Th.join();

  for (size_t I = 0; I != Builds.size(); ++I) {
    if (Builds[I].Thrown)
      std::rethrow_exception(Builds[I].Thrown);
    serialize::LoadStatus St = Builds[I].Status
                                   ? publishTenant(std::move(Builds[I].T))
                                   : Builds[I].Status;
    if (!St) {
      if (FailedAt)
        *FailedAt = I;
      return St;
    }
  }
  if (FailedAt)
    *FailedAt = Sources.size();
  return serialize::LoadStatus::success();
}

serialize::LoadStatus ModelRegistry::addTenant(const std::string &Name,
                                               const std::string &ModelPath) {
  return addTenants({{Name, ModelPath, false}});
}

serialize::LoadStatus
ModelRegistry::addStoreTenant(const std::string &Name,
                              const std::string &StoreDir) {
  return addTenants({{Name, StoreDir, true}});
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
