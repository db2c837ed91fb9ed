//===- daemon/ModelRegistry.h - Multi-tenant hot model registry ------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's tenant table: many trained models kept hot in one
/// pbt-serve process, each compiled into its own AdaptiveService with a
/// private DriftMonitor, reservoir, and epoch counter. A tenant is built
/// from a persisted model file -- the model's provenance (benchmark key,
/// scale, program seed) rebuilds the exact program it was trained on,
/// like `pbt-bench predict`/`stream` do -- and is addressed by name on
/// the wire (Hello).
///
/// AdaptiveService's contract is one serving thread; in the daemon every
/// session thread serves its own client's requests to any tenant, so
/// each tenant carries a ServeMutex that makes "the serving thread" a
/// role the sessions pass around rather than a fixed thread. Registration happens
/// at startup, before the server accepts connections; lookups afterwards
/// are read-only and lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_MODELREGISTRY_H
#define PBT_DAEMON_MODELREGISTRY_H

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pbt {
namespace daemon {

/// One hot model: the rebuilt program, its adaptive serving loop, and
/// the mutex that serializes serving across session threads.
struct Tenant {
  std::string Name;
  std::string ModelPath;
  std::string Benchmark;
  registry::ProgramPtr Program;
  std::unique_ptr<runtime::AdaptiveService> Service;
  /// Serializes serve()/decideBatch()/adaptNow() across session threads
  /// (AdaptiveService expects a single serving thread).
  std::mutex ServeMutex;
  /// The landmark count of the model the tenant was registered with;
  /// never updated afterwards. Hello and Stats report the serving
  /// epoch's count instead. Kept only because perfbench's serving
  /// harness reads it.
  std::atomic<unsigned> Landmarks{0};
  /// Store-backed tenants (addStoreTenant): the watched store directory
  /// and the store epoch currently serving. Empty/0 for file tenants.
  /// StoreEpoch is atomic so stats readers race cleanly with the poller.
  std::string StoreDir;
  std::atomic<uint64_t> StoreEpoch{0};
  /// Wall time registration spent on this tenant, in ms: model load,
  /// then makeProgram, then service build. Written before the tenant is
  /// published; Stats reports it so an operator can see which tenant
  /// slows a replica's start.
  double BuildMs = 0.0;
  // Daemon-side accounting (the service keeps its own decision totals).
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Decisions{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> StoreSwaps{0};
  std::atomic<uint64_t> StoreRejects{0};
  /// Per-tenant admission refusals and error replies, so dashboards and
  /// quarantine decisions can tell tenants apart (the server also keeps
  /// global totals).
  std::atomic<uint64_t> Shed{0};
  std::atomic<uint64_t> Errors{0};
};

struct ModelRegistryOptions {
  /// Drift-monitor window per tenant (mirrors `pbt-bench stream`
  /// --window).
  unsigned Window = 64;
  /// Shadow-retrain reservoir capacity per tenant (--reservoir).
  unsigned Reservoir = 48;
  /// serve()-driven drift adaptation: the Server answers through
  /// AdaptiveService::serve() (drift observation + online adaptation);
  /// off = frozen decideBatch serving.
  bool AutoAdapt = false;
  /// Parallelises per-tenant shadow retraining; may be null.
  support::ThreadPool *Pool = nullptr;
};

/// Splits a tenant list such as `a.pbt,fast=b.pbt` (pbt-serve's --model
/// and --store, loadgen's --model) into (name, path) pairs in order. An
/// entry without '=' gets an empty name, which the registry resolves to
/// the model's benchmark key; otherwise the name ends at the first '='.
/// Empty entries are skipped.
std::vector<std::pair<std::string, std::string>>
splitModelSpec(const std::string &Spec);

class ModelRegistry {
public:
  explicit ModelRegistry(ModelRegistryOptions Options = {})
      : Opts(Options) {}

  /// Loads \p ModelPath, rebuilds its program from provenance, and
  /// publishes it as \p Name (empty = the model's benchmark key).
  /// Duplicate names and unregistered benchmarks fail.
  serialize::LoadStatus addTenant(const std::string &Name,
                                  const std::string &ModelPath);

  /// Like addTenant, but the model comes from a crash-safe model store
  /// directory (store/ModelStore.h): the CURRENT epoch is loaded
  /// checksum-verified (falling back past torn images), and pollStores()
  /// hot-swaps the tenant whenever a rollout promotes a new epoch.
  serialize::LoadStatus addStoreTenant(const std::string &Name,
                                       const std::string &StoreDir);

  /// Polls every store-backed tenant's CURRENT pointer and hot-swaps
  /// those whose store promoted a new epoch (verified load; a torn or
  /// corrupt image is rejected and counted, never served). A swap that
  /// fails provenance/bind leaves the tenant serving its held epoch.
  /// Returns the number of tenants swapped. Safe to call from the
  /// daemon's park loop while workers serve.
  size_t pollStores();

  /// Name lookup (wire path); nullptr when unknown.
  Tenant *find(const std::string &Name);
  Tenant *at(size_t Idx);
  size_t size() const;
  std::vector<std::string> names() const;
  const ModelRegistryOptions &options() const { return Opts; }

private:
  serialize::LoadStatus buildTenant(const std::string &Name,
                                    const std::string &SourceDesc,
                                    serialize::TrainedModel Model,
                                    std::unique_ptr<Tenant> &Out);
  serialize::LoadStatus publishTenant(std::unique_ptr<Tenant> T);

  ModelRegistryOptions Opts;
  mutable std::mutex Mutex;
  /// Append-only; unique_ptr keeps Tenant addresses stable across
  /// growth, so find() results stay valid for the process lifetime.
  std::vector<std::unique_ptr<Tenant>> Tenants;
};

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_MODELREGISTRY_H
