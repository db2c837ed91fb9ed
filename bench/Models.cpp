//===- bench/Models.cpp - pbt-bench train, predict and stream --------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "daemon/ModelRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "streams/WorkloadStream.h"
#include "support/Cost.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::benchharness;

//===----------------------------------------------------------------------===//
// train / predict
//===----------------------------------------------------------------------===//

int benchharness::runTrain(const DriverOptions &Opts) {
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);
  if (!Opts.Out.empty() && Suite.size() != 1) {
    std::fprintf(stderr,
                 "pbt-bench train: --out targets a single model; use "
                 "--only=<name> or --out-dir for a whole suite\n");
    return 1;
  }

  support::TextTable Table;
  Table.setHeader({"Benchmark", "landmarks", "selected classifier", "bytes",
                   "model file"});
  for (registry::SuiteEntry &E : Suite) {
    support::WallTimer T;
    serialize::TrainedModel Model = trainModel(Opts, E);
    std::string Path =
        Opts.Out.empty() ? csvPath(Opts, E.Name + ".pbt") : Opts.Out;
    std::string Text = serialize::serializeModel(Model);
    serialize::LoadStatus Saved = serialize::writeModelText(Path, Text);
    if (!Saved) {
      std::fprintf(stderr, "pbt-bench train: %s\n", Saved.Error.c_str());
      return 1;
    }
    size_t Bytes = Text.size();
    std::fprintf(stderr, "[train] %-12s trained+persisted in %.1fs\n",
                 E.Name.c_str(), T.elapsedSeconds());
    Table.addRow({E.Name,
                  std::to_string(Model.System.L1.Landmarks.size()),
                  Model.System.L2.SelectedName, std::to_string(Bytes), Path});
  }
  std::printf("Trained models (format v%u, PBT_BENCH_SCALE=%.2f):\n\n%s\n",
              serialize::kFormatVersion, Opts.Scale, Table.format().c_str());
  std::printf("Serve with: pbt-bench predict --model=<file>\n");
  return 0;
}

/// Decodes --rows (test|train|all) against a loaded model. Returns false
/// (with a message) on a bad value.
static bool selectRows(const DriverOptions &Opts, const char *Sub,
                       const serialize::TrainedModel &Model,
                       std::vector<size_t> &Rows) {
  if (Opts.Rows == "test") {
    Rows = Model.System.TestRows;
  } else if (Opts.Rows == "train") {
    Rows = Model.System.TrainRows;
  } else if (Opts.Rows == "all") {
    Rows = Model.System.TrainRows;
    Rows.insert(Rows.end(), Model.System.TestRows.begin(),
                Model.System.TestRows.end());
    std::sort(Rows.begin(), Rows.end());
  } else {
    std::fprintf(stderr,
                 "pbt-bench %s: bad --rows value '%s' (test|train|all)\n",
                 Sub, Opts.Rows.c_str());
    return false;
  }
  return true;
}

int benchharness::runPredict(const DriverOptions &Opts) {
  if (Opts.Model.empty()) {
    std::fprintf(stderr, "pbt-bench predict: --model=FILE is required\n");
    return 1;
  }
  registry::BoundModel Bound = loadBoundModel(Opts.Model);
  if (!Bound.Status) {
    std::fprintf(stderr, "pbt-bench predict: cannot load '%s': %s\n",
                 Opts.Model.c_str(), Bound.Status.Error.c_str());
    return 1;
  }
  const runtime::TunableProgram &Program = *Bound.Program;
  runtime::AdaptiveService &Service = *Bound.Service;
  runtime::AdaptiveService::EpochPtr Epoch = Service.currentEpoch();
  const serialize::TrainedModel &Model = Epoch->Model;

  std::vector<size_t> Rows;
  if (!selectRows(Opts, "predict", Model, Rows))
    return 1;

  support::TextTable Table;
  Table.setHeader({"input", "landmark", "feat. cost", "configuration"});
  support::CsvWriter Csv;
  Csv.setHeader({"input", "landmark"});
  unsigned Repeat = std::max(1u, Opts.Repeat);
  for (unsigned Pass = 0; Pass != Repeat; ++Pass) {
    for (size_t Row : Rows) {
      // The row's extraction cost is what it added to the service's total.
      double PaidBefore = Service.stats().FeatureCostPaid;
      runtime::AdaptiveService::Decision D;
      Service.decideAnswers(&Row, 1, &D);
      if (Pass != 0)
        continue; // later passes only exercise the memo
      Table.addRow(
          {Program.describeInput(Row), std::to_string(D.Landmark),
           support::formatDouble(
               Service.stats().FeatureCostPaid - PaidBefore, 1),
           Program.describeConfiguration(
               Model.System.L1.Landmarks[D.Landmark])});
      Csv.addRow({std::to_string(Row), std::to_string(D.Landmark)});
    }
  }
  if (!Opts.Csv.empty() && !Csv.writeFile(Opts.Csv)) {
    std::fprintf(stderr, "pbt-bench predict: cannot write '%s'\n",
                 Opts.Csv.c_str());
    return 1;
  }

  runtime::AdaptiveService::StatsSnapshot S = Service.stats();
  std::printf("Online decisions from %s (benchmark %s, %zu rows, "
              "%u pass%s, production classifier: %s)\n\n%s\n",
              Opts.Model.c_str(), Model.Meta.Benchmark.c_str(), Rows.size(),
              Repeat, Repeat == 1 ? "" : "es",
              Model.System.L2.SelectedName.c_str(), Table.format().c_str());
  std::printf("Service stats: %llu calls, %llu memoized, %llu features "
              "extracted, total extraction cost %.1f units\n",
              static_cast<unsigned long long>(S.Decisions),
              static_cast<unsigned long long>(S.MemoizedDecisions),
              static_cast<unsigned long long>(S.FeaturesExtracted),
              S.FeatureCostPaid);
  return 0;
}

//===----------------------------------------------------------------------===//
// stream
//===----------------------------------------------------------------------===//

namespace {
/// Per-request record of one serving loop over the stream.
struct StreamTrace {
  std::vector<uint64_t> Epochs;
  std::vector<double> Costs;
  std::vector<size_t> SwapTicks;
  /// Every distinct epoch encountered, kept alive for oracle evaluation.
  std::map<uint64_t, runtime::AdaptiveService::EpochPtr> EpochsSeen;
  double ServeSeconds = 0.0;
};

/// Replays the whole stream through \p Service, one input per call.
/// \p Adapt selects serveAnswers() (the full observe-and-adapt loop) vs
/// decideAnswers() (the frozen control). Only that call is timed;
/// running the input under the decision -- the cost measurement --
/// happens off the clock.
StreamTrace replayStream(const streams::WorkloadStream &Stream,
                         const runtime::TunableProgram &Universe,
                         runtime::AdaptiveService &Service, bool Adapt) {
  StreamTrace T;
  uint64_t Swaps = Service.stats().Swaps;
  for (size_t Tick = 0; Tick != Stream.length(); ++Tick) {
    size_t Input = Stream.inputAt(Tick);
    runtime::AdaptiveService::Decision D;
    support::WallTimer Timer;
    runtime::AdaptiveService::EpochPtr Ep =
        Adapt ? Service.serveAnswers(&Input, 1, &D)
              : Service.decideAnswers(&Input, 1, &D);
    T.ServeSeconds += Timer.elapsedSeconds();
    T.Epochs.push_back(D.Epoch);
    T.Costs.push_back(
        Universe.runOnce(Input, Ep->Model.System.L1.Landmarks[D.Landmark])
            .TimeUnits);
    // Only a drift response swaps (nothing else pushes models here).
    if (D.DriftFlagged) {
      uint64_t Now = Service.stats().Swaps;
      if (Now != Swaps)
        T.SwapTicks.push_back(Tick);
      Swaps = Now;
    }
    T.EpochsSeen.emplace(D.Epoch, std::move(Ep));
  }
  return T;
}

/// Mean cost of the best landmark of \p Epoch's model for \p Input (the
/// dynamic oracle restricted to what that model could have chosen).
double oracleCostFor(const runtime::TunableProgram &Universe,
                     const runtime::AdaptiveService::ModelEpoch &Epoch,
                     size_t Input,
                     std::map<std::pair<uint64_t, size_t>, double> &Cache) {
  auto Key = std::make_pair(Epoch.Model.Meta.Epoch, Input);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  double Best = 0.0;
  bool First = true;
  for (const runtime::Configuration &C : Epoch.Model.System.L1.Landmarks) {
    double Cost = Universe.runOnce(Input, C).TimeUnits;
    if (First || Cost < Best)
      Best = Cost;
    First = false;
  }
  Cache[Key] = Best;
  return Best;
}

struct SegmentStats {
  size_t From = 0, To = 0;
  uint64_t Epoch = 0;
  double AdaptiveMeanCost = 0.0, FrozenMeanCost = 0.0;
  double AdaptiveRegret = 0.0, FrozenRegret = 0.0;
};
} // namespace

int benchharness::runStream(const DriverOptions &Opts) {
  if (Opts.Model.empty()) {
    std::fprintf(stderr, "pbt-bench stream: --model=FILE is required\n");
    return 1;
  }
  streams::Schedule Kind;
  if (!streams::parseSchedule(Opts.StreamSchedule, Kind)) {
    std::fprintf(stderr,
                 "pbt-bench stream: bad --schedule '%s' "
                 "(abrupt|ramp|periodic)\n",
                 Opts.StreamSchedule.c_str());
    return 1;
  }

  serialize::TrainedModel Initial;
  serialize::LoadStatus Loaded = serialize::loadModelFile(Opts.Model, Initial);
  if (!Loaded) {
    std::fprintf(stderr, "pbt-bench stream: cannot load '%s': %s\n",
                 Opts.Model.c_str(), Loaded.Error.c_str());
    return 1;
  }

  // The traffic universe: the model's own provenance, optionally
  // stretched to a larger --scale (the same generator produces a
  // superset population, so the model still binds).
  double UniverseScale =
      Opts.ScaleExplicit ? Opts.Scale : Initial.Meta.Scale;
  registry::BoundModel AdaptiveBound = registry::bindModel(
      std::move(Initial), Opts.StreamWindow, Opts.StreamReservoir,
      /*AutoAdapt=*/true, UniverseScale);
  if (!AdaptiveBound.Status) {
    std::fprintf(stderr, "pbt-bench stream: %s\n",
                 AdaptiveBound.Status.Error.c_str());
    return 1;
  }
  runtime::AdaptiveService &Adaptive = *AdaptiveBound.Service;
  const runtime::TunableProgram *Universe = AdaptiveBound.Program.get();

  streams::WorkloadStreamOptions SO;
  SO.Kind = Kind;
  SO.Requests = std::max(1u, Opts.StreamRequests);
  SO.Seed = Opts.StreamSeed;
  SO.KeyProperty = Opts.StreamKey;
  SO.Period = Opts.StreamPeriod;
  std::unique_ptr<streams::WorkloadStream> Stream;
  try {
    Stream = std::make_unique<streams::WorkloadStream>(*Universe, SO);
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "pbt-bench stream: %s\n", E.what());
    return 1;
  }

  // Frozen control: a second service from the same bytes, never adapted.
  serialize::TrainedModel FrozenInitial;
  registry::BoundModel FrozenBound;
  Loaded = serialize::loadModelFile(Opts.Model, FrozenInitial);
  if (Loaded) {
    FrozenBound = registry::bindModel(
        std::move(FrozenInitial), Opts.StreamWindow, Opts.StreamReservoir,
        /*AutoAdapt=*/false, UniverseScale);
    Loaded = FrozenBound.Status;
  }
  if (!Loaded) {
    std::fprintf(stderr, "pbt-bench stream: cannot reload '%s': %s\n",
                 Opts.Model.c_str(), Loaded.Error.c_str());
    return 1;
  }
  runtime::AdaptiveService &Frozen = *FrozenBound.Service;

  StreamTrace Ada = replayStream(*Stream, *Universe, Adaptive, true);
  StreamTrace Frz = replayStream(*Stream, *Universe, Frozen, false);

  size_t Served = Ada.Costs.size();
  runtime::AdaptiveService::StatsSnapshot AStats = Adaptive.stats();
  std::vector<runtime::AdaptiveService::SwapRecord> History =
      Adaptive.history();

  // Drift-to-swap latency over the accepted swaps: how long live traffic
  // kept being served by the stale champion after each detection. This is
  // the window the columnar training substrate shrinks.
  std::vector<double> SwapLatencies;
  for (const runtime::AdaptiveService::SwapRecord &Rec : History)
    if (Rec.Accepted)
      SwapLatencies.push_back(Rec.DriftToSwapSeconds);

  // Inter-swap segments with mean cost and regret vs each model's own
  // dynamic oracle.
  std::map<std::pair<uint64_t, size_t>, double> OracleCache;
  std::vector<SegmentStats> Segments;
  std::vector<size_t> Bounds;
  Bounds.push_back(0);
  for (size_t Tick : Ada.SwapTicks)
    if (Tick + 1 < Served)
      Bounds.push_back(Tick + 1);
  Bounds.push_back(Served);
  for (size_t B = 0; B + 1 < Bounds.size(); ++B) {
    SegmentStats Seg;
    Seg.From = Bounds[B];
    Seg.To = Bounds[B + 1];
    if (Seg.From >= Seg.To)
      continue;
    Seg.Epoch = Ada.Epochs[Seg.From];
    double N = static_cast<double>(Seg.To - Seg.From);
    for (size_t T = Seg.From; T != Seg.To; ++T) {
      size_t Input = Stream->inputAt(T);
      Seg.AdaptiveMeanCost += Ada.Costs[T];
      Seg.FrozenMeanCost += Frz.Costs[T];
      Seg.AdaptiveRegret +=
          Ada.Costs[T] - oracleCostFor(*Universe,
                                       *Ada.EpochsSeen.at(Ada.Epochs[T]),
                                       Input, OracleCache);
      Seg.FrozenRegret +=
          Frz.Costs[T] - oracleCostFor(*Universe,
                                       *Frz.EpochsSeen.at(Frz.Epochs[T]),
                                       Input, OracleCache);
    }
    Seg.AdaptiveMeanCost /= N;
    Seg.FrozenMeanCost /= N;
    Seg.AdaptiveRegret /= N;
    Seg.FrozenRegret /= N;
    Segments.push_back(Seg);
  }

  support::JsonWriter W(support::JsonWriter::Layout::Indented);
  W.beginObject()
      .string("subcommand", "stream")
      .string("model", Opts.Model)
      .string("benchmark", Adaptive.currentEpoch()->Model.Meta.Benchmark)
      .string("schedule", streams::scheduleName(Kind))
      .number("requests", Stream->length())
      .number("served", Served)
      .number("universe_scale", UniverseScale)
      .number("universe_inputs", Universe->numInputs())
      .number("key_property", SO.KeyProperty)
      .number("first_shift_tick", Stream->firstShiftTick())
      .number("window", Adaptive.options().Monitor.Window)
      .number("reservoir", Adaptive.options().ReservoirSize)
      .number("decisions_per_sec",
              Ada.ServeSeconds > 0.0
                  ? static_cast<double>(Served) / Ada.ServeSeconds
                  : 0.0)
      .number("frozen_decisions_per_sec",
              Frz.ServeSeconds > 0.0
                  ? static_cast<double>(Served) / Frz.ServeSeconds
                  : 0.0)
      .number("drift_detections", AStats.DriftDetections)
      .number("retrains", AStats.Retrains)
      .number("swaps", AStats.Swaps)
      .number("rejected_candidates", AStats.RejectedCandidates)
      .number("skipped_retrains", AStats.SkippedRetrains)
      .string("last_skip_reason", AStats.LastSkipReason)
      .number("final_epoch", Adaptive.epoch())
      .number("adaptive_mean_cost", support::mean(Ada.Costs))
      .number("frozen_mean_cost", support::mean(Frz.Costs))
      .number("mean_drift_to_swap_seconds", support::mean(SwapLatencies))
      .number("max_drift_to_swap_seconds",
              SwapLatencies.empty() ? 0.0 : support::maxOf(SwapLatencies))
      .beginArray("swap_history");
  for (const runtime::AdaptiveService::SwapRecord &R : History)
    W.beginObject()
        .number("from_epoch", R.FromEpoch)
        .number("to_epoch", R.ToEpoch)
        .number("at_decision", R.AtDecision)
        .number("champion_shadow_cost", R.ChampionShadowCost)
        .number("candidate_shadow_cost", R.CandidateShadowCost)
        .number("retrain_seconds", R.RetrainSeconds)
        .number("shadow_seconds", R.ShadowSeconds)
        .number("drift_to_swap_seconds", R.DriftToSwapSeconds)
        .boolean("accepted", R.Accepted)
        .end();
  W.end().beginArray("segments");
  for (const SegmentStats &S : Segments)
    W.beginObject()
        .number("from", S.From)
        .number("to", S.To)
        .number("epoch", S.Epoch)
        .number("adaptive_mean_cost", S.AdaptiveMeanCost)
        .number("frozen_mean_cost", S.FrozenMeanCost)
        .number("adaptive_regret", S.AdaptiveRegret)
        .number("frozen_regret", S.FrozenRegret)
        .end();
  W.end().end();
  return emitReport(Opts, "stream", "BENCH_stream.json", W.str()) ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// stream --mix
//===----------------------------------------------------------------------===//

int benchharness::runStreamMix(const DriverOptions &Opts) {
  // `stream --mix` takes one model per tenant.
  std::vector<std::string> Models = splitCommas(Opts.Model);
  if (Models.size() < 2) {
    std::fprintf(stderr,
                 "pbt-bench stream --mix: --model=a.pbt,b.pbt,... needs at "
                 "least two models (one tenant each)\n");
    return 1;
  }

  // The tenant table is the daemon's own: the same registry type
  // pbt-serve serves from, each tenant named by its model's benchmark
  // key with the program rebuilt from recorded provenance.
  daemon::ModelRegistryOptions RO;
  RO.Window = std::max(8u, Opts.StreamWindow);
  RO.Reservoir = std::max(8u, Opts.StreamReservoir);
  RO.AutoAdapt = false; // frozen tenants: parity-checkable serving
  daemon::ModelRegistry Registry(RO);
  for (const std::string &Path : Models) {
    serialize::LoadStatus St = Registry.addTenant("", Path);
    if (!St) {
      std::fprintf(stderr, "pbt-bench stream --mix: cannot register '%s': %s\n",
                   Path.c_str(), St.Error.c_str());
      return 1;
    }
  }

  // One WorkloadStream per tenant over its own program: schedules
  // rotated through the three kinds and seeds decorrelated per tenant,
  // so every tenant drifts on its own clock inside the shared sequence.
  const streams::Schedule Rotation[3] = {streams::Schedule::Abrupt,
                                         streams::Schedule::Ramp,
                                         streams::Schedule::Periodic};
  std::vector<std::unique_ptr<streams::WorkloadStream>> Streams;
  std::vector<streams::MixedTenantSpec> Specs;
  for (size_t I = 0; I != Registry.size(); ++I) {
    daemon::Tenant *T = Registry.at(I);
    streams::WorkloadStreamOptions SO;
    SO.Kind = Rotation[I % 3];
    SO.Requests = std::max(1u, Opts.StreamRequests);
    SO.Seed = Opts.StreamSeed + 0x9E3779B97F4A7C15ull * (I + 1);
    SO.KeyProperty = Opts.StreamKey;
    SO.Period = Opts.StreamPeriod;
    try {
      Streams.push_back(
          std::make_unique<streams::WorkloadStream>(*T->Program, SO));
    } catch (const std::invalid_argument &E) {
      std::fprintf(stderr, "pbt-bench stream --mix: tenant '%s': %s\n",
                   T->Name.c_str(), E.what());
      return 1;
    }
    Specs.push_back({T->Name, Streams.back().get(), 1.0});
  }
  streams::MixedStreamOptions MO;
  MO.Requests = std::max(1u, Opts.StreamRequests);
  MO.Seed = Opts.StreamSeed;
  std::unique_ptr<streams::MixedStream> Mixed;
  try {
    Mixed = std::make_unique<streams::MixedStream>(std::move(Specs), MO);
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "pbt-bench stream --mix: %s\n", E.what());
    return 1;
  }

  // Replay the global sequence through the registry, holding each
  // tenant's ServeMutex per decision exactly like the daemon's batch
  // workers pass the serving-thread role around.
  struct TenantTrace {
    std::vector<unsigned> Landmarks;
    double ServeSeconds = 0.0;
  };
  std::vector<TenantTrace> Traces(Registry.size());
  size_t Served = 0;
  for (size_t T = 0; T != Mixed->length(); ++T) {
    const streams::MixedStream::Tick &K = Mixed->at(T);
    daemon::Tenant *Ten = Registry.at(K.Tenant);
    TenantTrace &Trace = Traces[K.Tenant];
    support::WallTimer Timer;
    runtime::AdaptiveService::Decision D;
    {
      std::lock_guard<std::mutex> Lock(Ten->ServeMutex);
      Ten->Service->decideAnswers(&K.Input, 1, &D);
    }
    Trace.ServeSeconds += Timer.elapsedSeconds();
    Trace.Landmarks.push_back(D.Landmark);
    Ten->Requests.fetch_add(1, std::memory_order_relaxed);
    Ten->Decisions.fetch_add(1, std::memory_order_relaxed);
    ++Served;
  }

  // The parity wall: an independent AdaptiveService replay of each
  // tenant's model file over exactly its subsequence of the mix must
  // agree decision for decision with what the registry served.
  size_t Mismatches = 0;
  for (size_t I = 0; I != Registry.size(); ++I) {
    daemon::Tenant *T = Registry.at(I);
    registry::BoundModel Replay = loadBoundModel(T->ModelPath);
    if (!Replay.Status) {
      std::fprintf(stderr, "pbt-bench stream --mix: parity replay '%s': %s\n",
                   T->ModelPath.c_str(), Replay.Status.Error.c_str());
      return 1;
    }
    std::vector<size_t> Inputs = Mixed->tenantInputs(static_cast<unsigned>(I));
    std::vector<runtime::AdaptiveService::Decision> Ref(Inputs.size());
    Replay.Service->decideAnswers(Inputs.data(), Inputs.size(), Ref.data());
    for (size_t R = 0; R != Ref.size(); ++R)
      if (Ref[R].Landmark != Traces[I].Landmarks[R]) {
        ++Mismatches;
        std::fprintf(stderr,
                     "pbt-bench stream --mix: tenant '%s' request %zu "
                     "(input %zu): registry chose %u, replay chose %u\n",
                     T->Name.c_str(), R, Inputs[R], Traces[I].Landmarks[R],
                     Ref[R].Landmark);
      }
  }

  support::JsonWriter W(support::JsonWriter::Layout::Indented);
  W.beginObject()
      .string("subcommand", "stream-mix")
      .number("requests", Mixed->length())
      .number("served", Served)
      .number("mix_seed", MO.Seed)
      .number("window", RO.Window)
      .number("reservoir", RO.Reservoir)
      .number("parity_mismatches", Mismatches)
      .boolean("parity_ok", Mismatches == 0)
      .beginArray("tenants");
  for (size_t I = 0; I != Registry.size(); ++I) {
    daemon::Tenant *T = Registry.at(I);
    const TenantTrace &Trace = Traces[I];
    const streams::WorkloadStream &S = *Streams[I];
    W.beginObject()
        .string("name", T->Name)
        .string("benchmark", T->Benchmark)
        .string("model", T->ModelPath)
        .string("schedule", streams::scheduleName(S.options().Kind))
        .number("requests", Trace.Landmarks.size())
        .number("decisions_per_sec",
                Trace.ServeSeconds > 0.0
                    ? static_cast<double>(Trace.Landmarks.size()) /
                          Trace.ServeSeconds
                    : 0.0)
        .number("first_shift_tick", S.firstShiftTick())
        .end();
  }
  W.end().end();
  if (!emitReport(Opts, "stream --mix", "BENCH_stream_mix.json", W.str()))
    return 1;
  return Mismatches == 0 ? 0 : 1;
}
