//===- bench/Reports.cpp - pbt-bench subcommand implementations -----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "core/TheoreticalModel.h"
#include "daemon/ModelRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "streams/WorkloadStream.h"
#include "support/Cost.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

using namespace pbt;
using namespace pbt::benchharness;

std::vector<registry::SuiteEntry>
benchharness::suiteFor(const DriverOptions &Opts) {
  if (Opts.Only.empty())
    return registry::makeSuite(Opts.Scale, Opts.Pool);
  return registry::makeSuite(Opts.Only, Opts.Scale, Opts.Pool);
}

static std::string csvPath(const DriverOptions &Opts, const std::string &Name) {
  if (Opts.OutDir.empty() || Opts.OutDir == ".")
    return Name;
  return Opts.OutDir + "/" + Name;
}

//===----------------------------------------------------------------------===//
// list
//===----------------------------------------------------------------------===//

int benchharness::runList(const DriverOptions &Opts) {
  support::TextTable Table;
  Table.setHeader({"name", "inputs@scale", "description"});
  for (const registry::BenchmarkFactory *F :
       registry::BenchmarkRegistry::instance().all()) {
    registry::ProgramPtr Program =
        F->makeProgram(Opts.Scale, F->defaultProgramSeed());
    Table.addRow({F->name(), std::to_string(Program->numInputs()),
                  F->describe()});
  }
  std::printf("Registered benchmarks (PBT_BENCH_SCALE=%.2f):\n\n%s\n",
              Opts.Scale, Table.format().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// table1
//===----------------------------------------------------------------------===//

int benchharness::runTable1(const DriverOptions &Opts) {
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);

  support::TextTable Table;
  Table.setHeader({"Benchmark", "Dynamic", "Two-level", "Two-level",
                   "One-level", "One-level", "One-level", "Two-level"});
  Table.addRow({"", "Oracle", "(w/o feat.)", "(w/ feat.)", "(w/o feat.)",
                "(w/ feat.)", "accuracy", "accuracy"});

  support::WallTimer Total;
  for (registry::SuiteEntry &E : Suite) {
    support::WallTimer T;
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
    core::EvaluationResult R =
        core::evaluateSystem(*E.Program, System, Opts.Pool);
    std::fprintf(stderr, "[table1] %-12s trained+evaluated in %.1fs "
                         "(K=%zu landmarks, %zu train, %zu test, "
                         "oracle-sat %.0f%%, static-sat %.0f%%)\n",
                 E.Name.c_str(), T.elapsedSeconds(),
                 System.L1.Landmarks.size(), System.TrainRows.size(),
                 System.TestRows.size(), 100.0 * R.DynamicOracleSatisfaction,
                 100.0 * R.StaticOracleSatisfaction);

    bool HasAccuracy = E.Program->accuracy().has_value();
    Table.addRow({E.Name, support::formatSpeedup(R.DynamicOracle),
                  support::formatSpeedup(R.TwoLevelNoFeat),
                  support::formatSpeedup(R.TwoLevelWithFeat),
                  support::formatSpeedup(R.OneLevelNoFeat),
                  support::formatSpeedup(R.OneLevelWithFeat),
                  HasAccuracy ? support::formatPercent(R.OneLevelSatisfaction)
                              : std::string("-"),
                  HasAccuracy ? support::formatPercent(R.TwoLevelSatisfaction)
                              : std::string("-")});
  }

  std::printf("Table 1: mean speedup over the static oracle "
              "(PBT_BENCH_SCALE=%.2f)\n\n%s\n",
              Opts.Scale, Table.format().c_str());
  std::printf("Total wall time: %.1fs\n", Total.elapsedSeconds());
  return 0;
}

//===----------------------------------------------------------------------===//
// fig6
//===----------------------------------------------------------------------===//

int benchharness::runFig6(const DriverOptions &Opts) {
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);

  support::TextTable Table;
  Table.setHeader({"Benchmark", "min", "p25", "median", "p75", "p90", "p99",
                   "max", "mean"});

  for (registry::SuiteEntry &E : Suite) {
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
    core::EvaluationResult R =
        core::evaluateSystem(*E.Program, System, Opts.Pool);
    std::vector<double> S = R.PerInputSpeedups;
    std::sort(S.begin(), S.end());
    std::fprintf(stderr, "[fig6] %-12s %zu test inputs\n", E.Name.c_str(),
                 S.size());

    Table.addRow({E.Name, support::formatSpeedup(support::quantile(S, 0.0)),
                  support::formatSpeedup(support::quantile(S, 0.25)),
                  support::formatSpeedup(support::quantile(S, 0.5)),
                  support::formatSpeedup(support::quantile(S, 0.75)),
                  support::formatSpeedup(support::quantile(S, 0.9)),
                  support::formatSpeedup(support::quantile(S, 0.99)),
                  support::formatSpeedup(support::quantile(S, 1.0)),
                  support::formatSpeedup(support::mean(S))});

    support::CsvWriter Csv;
    Csv.setHeader({"rank", "speedup"});
    for (size_t I = 0; I != S.size(); ++I)
      Csv.addRow({std::to_string(I), support::formatDouble(S[I], 6)});
    Csv.writeFile(csvPath(Opts, "fig6_" + E.Name + ".csv"));
  }

  std::printf("Figure 6: distribution of per-input speedups of the "
              "two-level method over the static oracle\n"
              "(sorted series written to fig6_<benchmark>.csv; "
              "PBT_BENCH_SCALE=%.2f)\n\n%s\n",
              Opts.Scale, Table.format().c_str());
  std::printf("Shape check: per-benchmark max >> median reproduces the "
              "paper's 'small sets of inputs with very large speedups'.\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// fig7 (pure model evaluation; ignores the suite)
//===----------------------------------------------------------------------===//

int benchharness::runFig7(const DriverOptions &Opts) {
  // --- Figure 7a ---
  support::CsvWriter CsvA;
  {
    std::vector<std::string> Header{"region_size"};
    for (unsigned K = 2; K <= 9; ++K)
      Header.push_back("loss_k" + std::to_string(K));
    CsvA.setHeader(Header);
  }
  support::TextTable A;
  A.setHeader({"p", "k=2", "k=3", "k=4", "k=5", "k=6", "k=7", "k=8", "k=9"});
  for (double P = 0.0; P <= 1.0001; P += 0.05) {
    std::vector<std::string> Row{support::formatDouble(P, 2)};
    std::vector<std::string> CsvRow{support::formatDouble(P, 4)};
    for (unsigned K = 2; K <= 9; ++K) {
      double L = core::regionLossContribution(P, K);
      Row.push_back(support::formatDouble(L, 4));
      CsvRow.push_back(support::formatDouble(L, 6));
    }
    A.addRow(Row);
    CsvA.addRow(CsvRow);
  }
  CsvA.writeFile(csvPath(Opts, "fig7a.csv"));

  std::printf("Figure 7a: predicted loss in speedup contributed by input "
              "space regions of different sizes\n\n%s\n",
              A.format().c_str());
  for (unsigned K = 2; K <= 9; ++K)
    std::printf("  worst-case region size for k=%u configs: 1/(k+1) = %.4f\n",
                K, core::worstCaseRegionSize(K));

  // --- Figure 7b ---
  support::TextTable B;
  B.setHeader({"landmarks", "predicted fraction of full speedup"});
  support::CsvWriter CsvB;
  CsvB.setHeader({"landmarks", "fraction"});
  for (unsigned K = 1; K <= 100; ++K) {
    double F = core::predictedSpeedupFraction(K);
    if (K <= 10 || K % 10 == 0)
      B.addRow({std::to_string(K), support::formatDouble(F, 4)});
    CsvB.addRow({std::to_string(K), support::formatDouble(F, 6)});
  }
  CsvB.writeFile(csvPath(Opts, "fig7b.csv"));

  std::printf("\nFigure 7b: predicted speedup (worst-case region sizes) vs "
              "number of landmarks\n\n%s\n",
              B.format().c_str());
  std::printf("Shape check: steep gains up to ~10 landmarks, saturation "
              "after ~10-30 (the paper's diminishing-returns argument).\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// fig8
//===----------------------------------------------------------------------===//

int benchharness::runFig8(const DriverOptions &Opts) {
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);
  const unsigned Trials = Opts.Fig8Trials;

  for (registry::SuiteEntry &E : Suite) {
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
    unsigned K = static_cast<unsigned>(System.L1.Landmarks.size());
    std::vector<unsigned> Counts;
    for (unsigned C = 1; C <= K; ++C)
      Counts.push_back(C);
    std::vector<core::LandmarkSweepPoint> Sweep = core::landmarkCountSweep(
        *E.Program, System, Counts, Trials, /*Seed=*/0xF1680 + K, Opts.Pool);

    support::TextTable Table;
    Table.setHeader({"landmarks", "min", "Q1", "median", "Q3", "max"});
    support::CsvWriter Csv;
    Csv.setHeader({"landmarks", "min", "q1", "median", "q3", "max", "mean"});
    for (const core::LandmarkSweepPoint &P : Sweep) {
      Table.addRow({std::to_string(P.NumLandmarks),
                    support::formatSpeedup(P.Speedups.Min),
                    support::formatSpeedup(P.Speedups.Q1),
                    support::formatSpeedup(P.Speedups.Median),
                    support::formatSpeedup(P.Speedups.Q3),
                    support::formatSpeedup(P.Speedups.Max)});
      Csv.addRow({std::to_string(P.NumLandmarks),
                  support::formatDouble(P.Speedups.Min, 6),
                  support::formatDouble(P.Speedups.Q1, 6),
                  support::formatDouble(P.Speedups.Median, 6),
                  support::formatDouble(P.Speedups.Q3, 6),
                  support::formatDouble(P.Speedups.Max, 6),
                  support::formatDouble(P.Speedups.Mean, 6)});
    }
    Csv.writeFile(csvPath(Opts, "fig8_" + E.Name + ".csv"));
    std::printf("Figure 8 (%s): speedup over static oracle vs number of "
                "landmarks (%u random subsets per count)\n\n%s\n",
                E.Name.c_str(), Trials, Table.format().c_str());
  }
  std::printf("Shape check: medians rise steeply for the first few "
              "landmarks and plateau, matching the Figure 7b model "
              "(PBT_BENCH_SCALE=%.2f).\n",
              Opts.Scale);
  return 0;
}

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
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get(E.Name);
    serialize::TrainedModel Model =
        serialize::makeModel(E.Name, Opts.Scale, F.defaultProgramSeed(),
                             *E.Program, std::move(System));
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

/// Loads --model, rebuilds the exact program the model was trained on
/// from its recorded provenance (the registry key, scale, and seed all
/// live in the file), and builds the serving core over the pair. Returns
/// a nonzero exit code on failure, 0 on success.
static int loadService(const DriverOptions &Opts, const char *Sub,
                       registry::ProgramPtr &Program,
                       std::unique_ptr<runtime::AdaptiveService> &Service) {
  if (Opts.Model.empty()) {
    std::fprintf(stderr, "pbt-bench %s: --model=FILE is required\n", Sub);
    return 1;
  }
  serialize::TrainedModel Model;
  serialize::LoadStatus Loaded = serialize::loadModelFile(Opts.Model, Model);
  if (!Loaded) {
    std::fprintf(stderr, "pbt-bench %s: cannot load '%s': %s\n", Sub,
                 Opts.Model.c_str(), Loaded.Error.c_str());
    return 1;
  }
  const registry::BenchmarkFactory *Factory =
      registry::BenchmarkRegistry::instance().lookup(Model.Meta.Benchmark);
  if (!Factory) {
    std::fprintf(stderr,
                 "pbt-bench %s: model benchmark '%s' is not registered\n",
                 Sub, Model.Meta.Benchmark.c_str());
    return 1;
  }
  Program = Factory->makeProgram(Model.Meta.Scale, Model.Meta.ProgramSeed);
  Service = std::make_unique<runtime::AdaptiveService>(*Program,
                                                       std::move(Model));
  if (!Service->ready()) {
    std::fprintf(stderr, "pbt-bench %s: model/program mismatch: %s\n", Sub,
                 Service->status().Error.c_str());
    return 1;
  }
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
  registry::ProgramPtr Program;
  std::unique_ptr<runtime::AdaptiveService> Service;
  if (int Failed = loadService(Opts, "predict", Program, Service))
    return Failed;
  runtime::AdaptiveService::EpochPtr Epoch = Service->currentEpoch();
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
      runtime::AdaptiveService::Decision D = Service->decide(Row);
      if (Pass != 0)
        continue; // later passes only exercise the memo
      Table.addRow({Program->describeInput(Row), std::to_string(D.Landmark),
                    support::formatDouble(D.FeatureCost, 1),
                    Program->describeConfiguration(*D.Config)});
      Csv.addRow({std::to_string(Row), std::to_string(D.Landmark)});
    }
  }
  if (!Opts.Csv.empty() && !Csv.writeFile(Opts.Csv)) {
    std::fprintf(stderr, "pbt-bench predict: cannot write '%s'\n",
                 Opts.Csv.c_str());
    return 1;
  }

  runtime::AdaptiveService::StatsSnapshot S = Service->stats();
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
// JSON helpers
//===----------------------------------------------------------------------===//

std::string benchharness::jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

bool benchharness::writeReport(const DriverOptions &Opts, const char *Sub,
                               const std::string &Name,
                               const std::string &Json) {
  std::string Path = csvPath(Opts, Name);
  FILE *Out = std::fopen(Path.c_str(), "wb");
  bool Ok =
      Out && std::fwrite(Json.data(), 1, Json.size(), Out) == Json.size();
  // A full disk often surfaces only when the buffered bytes are flushed.
  if (Out && std::fclose(Out) != 0)
    Ok = false;
  if (!Ok)
    std::fprintf(stderr, "pbt-bench %s: cannot write '%s'\n", Sub,
                 Path.c_str());
  return Ok;
}

/// Escapes a string for embedding in a JSON literal (paths and names are
/// user-controlled; a quote or backslash must not corrupt the report).
std::string benchharness::jsonString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string benchharness::jsonQuantile(const std::vector<double> &V,
                                       double Q) {
  if (V.empty())
    return "null";
  return jsonNumber(support::quantile(V, Q));
}

std::vector<std::string> benchharness::splitCommas(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t Comma = Text.find(',', Start);
    if (Comma == std::string::npos)
      Comma = Text.size();
    if (Comma > Start)
      Out.push_back(Text.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

std::string benchharness::dirnameOf(const std::string &Path) {
  size_t Slash = Path.rfind('/');
  return Slash == std::string::npos ? std::string(".") : Path.substr(0, Slash);
}

//===----------------------------------------------------------------------===//
// stream
//===----------------------------------------------------------------------===//

namespace {
/// Per-request record of one serving loop over the stream.
struct StreamTrace {
  std::vector<unsigned> Landmarks;
  std::vector<uint64_t> Epochs;
  std::vector<double> Costs;
  std::vector<size_t> DetectTicks;
  std::vector<size_t> SwapTicks;
  /// Every distinct epoch encountered, kept alive for oracle evaluation.
  std::map<uint64_t, runtime::AdaptiveService::EpochPtr> EpochsSeen;
  double ServeSeconds = 0.0;
  size_t Served = 0;
};

/// Replays the stream through \p Service. \p Adapt selects serve() (the
/// full observe-and-adapt loop) vs decide() (the frozen control). Only
/// the decide/serve call itself is timed; running the input under the
/// decision -- the cost measurement -- happens off the clock.
StreamTrace replayStream(const streams::WorkloadStream &Stream,
                         const runtime::TunableProgram &Universe,
                         runtime::AdaptiveService &Service, bool Adapt,
                         double SecondsBudget, size_t MaxRequests) {
  StreamTrace T;
  support::WallTimer Budget;
  for (size_t Tick = 0; Tick != Stream.length() && Tick != MaxRequests;
       ++Tick) {
    size_t Input = Stream.inputAt(Tick);
    support::WallTimer Timer;
    runtime::AdaptiveService::Decision D =
        Adapt ? Service.serve(Input) : Service.decide(Input);
    T.ServeSeconds += Timer.elapsedSeconds();
    T.Landmarks.push_back(D.Landmark);
    T.Epochs.push_back(D.Epoch);
    T.Costs.push_back(Universe.runOnce(Input, *D.Config).TimeUnits);
    if (D.DriftFlagged)
      T.DetectTicks.push_back(Tick);
    if (D.Swapped)
      T.SwapTicks.push_back(Tick);
    T.EpochsSeen.emplace(D.Epoch, D.Hold);
    ++T.Served;
    if (Budget.elapsedSeconds() > SecondsBudget)
      break; // wall-clock cap; --requests is the deterministic bound
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
  const registry::BenchmarkFactory *Factory =
      registry::BenchmarkRegistry::instance().lookup(Initial.Meta.Benchmark);
  if (!Factory) {
    std::fprintf(stderr,
                 "pbt-bench stream: model benchmark '%s' is not registered\n",
                 Initial.Meta.Benchmark.c_str());
    return 1;
  }

  // The traffic universe: the model's own provenance, optionally
  // stretched to a larger --scale (the same generator produces a
  // superset population, so the model still binds).
  double UniverseScale =
      Opts.ScaleExplicit ? Opts.Scale : Initial.Meta.Scale;
  registry::ProgramPtr Universe =
      Factory->makeProgram(UniverseScale, Initial.Meta.ProgramSeed);

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

  runtime::AdaptiveServiceOptions AO = registry::adaptiveServiceOptions(
      *Factory, UniverseScale, Opts.StreamWindow, Opts.StreamReservoir,
      Opts.Pool);

  // Frozen control: a second service from the same bytes, never adapted.
  serialize::TrainedModel FrozenInitial;
  if (!serialize::loadModelFile(Opts.Model, FrozenInitial)) {
    std::fprintf(stderr, "pbt-bench stream: cannot reload '%s'\n",
                 Opts.Model.c_str());
    return 1;
  }
  runtime::AdaptiveServiceOptions FO = AO;
  FO.AutoAdapt = false;

  runtime::AdaptiveService Adaptive(*Universe, std::move(Initial), AO);
  if (!Adaptive.ready()) {
    std::fprintf(stderr, "pbt-bench stream: model/universe mismatch: %s\n",
                 Adaptive.status().Error.c_str());
    return 1;
  }
  runtime::AdaptiveService Frozen(*Universe, std::move(FrozenInitial), FO);
  if (!Frozen.ready()) {
    std::fprintf(stderr, "pbt-bench stream: %s\n",
                 Frozen.status().Error.c_str());
    return 1;
  }

  double Seconds = std::max(0.01, Opts.Seconds);
  StreamTrace Ada = replayStream(*Stream, *Universe, Adaptive, true, Seconds,
                                 Stream->length());
  // The control replays exactly the prefix the adaptive run served.
  StreamTrace Frz = replayStream(*Stream, *Universe, Frozen, false, Seconds,
                                 Ada.Served);

  size_t Served = std::min(Ada.Served, Frz.Served);
  runtime::AdaptiveService::StatsSnapshot AStats = Adaptive.stats();
  std::vector<runtime::AdaptiveService::SwapRecord> History =
      Adaptive.history();

  // Drift-to-swap latency over the accepted swaps: how long live traffic
  // kept being served by the stale champion after each detection. This is
  // the window the columnar training substrate shrinks.
  double SwapLatencySum = 0.0, SwapLatencyMax = 0.0;
  size_t AcceptedSwaps = 0;
  for (const runtime::AdaptiveService::SwapRecord &Rec : History)
    if (Rec.Accepted) {
      ++AcceptedSwaps;
      SwapLatencySum += Rec.DriftToSwapSeconds;
      SwapLatencyMax = std::max(SwapLatencyMax, Rec.DriftToSwapSeconds);
    }

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

  auto MeanCost = [Served](const StreamTrace &T) {
    double Sum = 0.0;
    for (size_t I = 0; I != Served; ++I)
      Sum += T.Costs[I];
    return Served ? Sum / static_cast<double>(Served) : 0.0;
  };

  std::string Json =
      std::string("{\n") + "  \"subcommand\": \"stream\",\n" +
      "  \"model\": \"" + jsonString(Opts.Model) + "\",\n" +
      "  \"benchmark\": \"" +
      jsonString(Adaptive.currentEpoch()->Model.Meta.Benchmark) + "\",\n" +
      "  \"schedule\": \"" + streams::scheduleName(Kind) + "\",\n" +
      "  \"requests\": " + std::to_string(Stream->length()) + ",\n" +
      "  \"served\": " + std::to_string(Served) + ",\n" +
      "  \"universe_scale\": " + jsonNumber(UniverseScale) + ",\n" +
      "  \"universe_inputs\": " + std::to_string(Universe->numInputs()) +
      ",\n" +
      "  \"key_property\": " + std::to_string(SO.KeyProperty) + ",\n" +
      "  \"first_shift_tick\": " + std::to_string(Stream->firstShiftTick()) +
      ",\n" +
      "  \"threads\": " +
      std::to_string(Opts.Pool ? Opts.Pool->numThreads() : 1) + ",\n" +
      "  \"window\": " + std::to_string(AO.Monitor.Window) + ",\n" +
      "  \"reservoir\": " + std::to_string(AO.ReservoirSize) + ",\n" +
      "  \"decisions_per_sec\": " +
      jsonNumber(Ada.ServeSeconds > 0.0
                     ? static_cast<double>(Ada.Served) / Ada.ServeSeconds
                     : 0.0) +
      ",\n" +
      "  \"frozen_decisions_per_sec\": " +
      jsonNumber(Frz.ServeSeconds > 0.0
                     ? static_cast<double>(Frz.Served) / Frz.ServeSeconds
                     : 0.0) +
      ",\n" +
      "  \"drift_detections\": " + std::to_string(AStats.DriftDetections) +
      ",\n" +
      "  \"retrains\": " + std::to_string(AStats.Retrains) + ",\n" +
      "  \"swaps\": " + std::to_string(AStats.Swaps) + ",\n" +
      "  \"rejected_candidates\": " +
      std::to_string(AStats.RejectedCandidates) + ",\n" +
      "  \"skipped_retrains\": " + std::to_string(AStats.SkippedRetrains) +
      ",\n" +
      "  \"last_skip_reason\": \"" + jsonString(AStats.LastSkipReason) +
      "\",\n" +
      "  \"final_epoch\": " + std::to_string(Adaptive.epoch()) + ",\n" +
      "  \"adaptive_mean_cost\": " + jsonNumber(MeanCost(Ada)) + ",\n" +
      "  \"frozen_mean_cost\": " + jsonNumber(MeanCost(Frz)) + ",\n" +
      "  \"mean_drift_to_swap_seconds\": " +
      jsonNumber(AcceptedSwaps ? SwapLatencySum /
                                     static_cast<double>(AcceptedSwaps)
                               : 0.0) +
      ",\n" +
      "  \"max_drift_to_swap_seconds\": " + jsonNumber(SwapLatencyMax) +
      ",\n";
  Json += "  \"swap_history\": [";
  for (size_t I = 0; I != History.size(); ++I) {
    const runtime::AdaptiveService::SwapRecord &R = History[I];
    Json += std::string(I ? "," : "") + "\n    {\"from_epoch\": " +
            std::to_string(R.FromEpoch) +
            ", \"to_epoch\": " + std::to_string(R.ToEpoch) +
            ", \"at_decision\": " + std::to_string(R.AtDecision) +
            ", \"champion_shadow_cost\": " +
            jsonNumber(R.ChampionShadowCost) +
            ", \"candidate_shadow_cost\": " +
            jsonNumber(R.CandidateShadowCost) +
            ", \"retrain_seconds\": " + jsonNumber(R.RetrainSeconds) +
            ", \"shadow_seconds\": " + jsonNumber(R.ShadowSeconds) +
            ", \"drift_to_swap_seconds\": " +
            jsonNumber(R.DriftToSwapSeconds) + ", \"accepted\": " +
            (R.Accepted ? "true" : "false") + "}";
  }
  Json += History.empty() ? "],\n" : "\n  ],\n";
  Json += "  \"segments\": [";
  for (size_t I = 0; I != Segments.size(); ++I) {
    const SegmentStats &S = Segments[I];
    Json += std::string(I ? "," : "") + "\n    {\"from\": " +
            std::to_string(S.From) + ", \"to\": " + std::to_string(S.To) +
            ", \"epoch\": " + std::to_string(S.Epoch) +
            ", \"adaptive_mean_cost\": " + jsonNumber(S.AdaptiveMeanCost) +
            ", \"frozen_mean_cost\": " + jsonNumber(S.FrozenMeanCost) +
            ", \"adaptive_regret\": " + jsonNumber(S.AdaptiveRegret) +
            ", \"frozen_regret\": " + jsonNumber(S.FrozenRegret) + "}";
  }
  Json += Segments.empty() ? "]\n" : "\n  ]\n";
  Json += "}\n";

  std::fputs(Json.c_str(), stdout);
  if (Opts.Json && !writeReport(Opts, "stream", "BENCH_stream.json", Json))
    return 1;
  return 0;
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
  RO.Pool = Opts.Pool;
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
  double SecondsBudget = std::max(0.01, Opts.Seconds);
  support::WallTimer Budget;
  size_t Served = 0;
  for (size_t T = 0; T != Mixed->length(); ++T) {
    const streams::MixedStream::Tick &K = Mixed->at(T);
    daemon::Tenant *Ten = Registry.at(K.Tenant);
    TenantTrace &Trace = Traces[K.Tenant];
    support::WallTimer Timer;
    unsigned Landmark;
    {
      std::lock_guard<std::mutex> Lock(Ten->ServeMutex);
      Landmark = Ten->Service->decide(K.Input).Landmark;
    }
    Trace.ServeSeconds += Timer.elapsedSeconds();
    Trace.Landmarks.push_back(Landmark);
    Ten->Requests.fetch_add(1, std::memory_order_relaxed);
    Ten->Decisions.fetch_add(1, std::memory_order_relaxed);
    ++Served;
    if (Budget.elapsedSeconds() > SecondsBudget)
      break; // wall-clock cap; --requests is the deterministic bound
  }

  // The parity wall: an independent AdaptiveService replay of each
  // tenant's model file over exactly its subsequence of the mix must
  // agree decision for decision with what the registry served.
  size_t Mismatches = 0;
  for (size_t I = 0; I != Registry.size(); ++I) {
    daemon::Tenant *T = Registry.at(I);
    serialize::TrainedModel ReplayModel;
    serialize::LoadStatus St =
        serialize::loadModelFile(T->ModelPath, ReplayModel);
    if (!St) {
      std::fprintf(stderr, "pbt-bench stream --mix: parity reload '%s': %s\n",
                   T->ModelPath.c_str(), St.Error.c_str());
      return 1;
    }
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get(T->Benchmark);
    registry::ProgramPtr Program = F.makeProgram(
        ReplayModel.Meta.Scale, ReplayModel.Meta.ProgramSeed);
    runtime::AdaptiveService Replay(*Program, std::move(ReplayModel));
    if (!Replay.ready()) {
      std::fprintf(stderr, "pbt-bench stream --mix: parity bind '%s': %s\n",
                   T->Name.c_str(), Replay.status().Error.c_str());
      return 1;
    }
    std::vector<size_t> Inputs = Mixed->tenantInputs(static_cast<unsigned>(I));
    Inputs.resize(Traces[I].Landmarks.size()); // the served prefix
    std::vector<runtime::AdaptiveService::Decision> Ref =
        Replay.decideBatch(Inputs);
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

  std::string Json = std::string("{\n") +
                     "  \"subcommand\": \"stream-mix\",\n" +
                     "  \"requests\": " + std::to_string(Mixed->length()) +
                     ",\n" + "  \"served\": " + std::to_string(Served) +
                     ",\n" + "  \"mix_seed\": " +
                     std::to_string(MO.Seed) + ",\n" +
                     "  \"window\": " + std::to_string(RO.Window) + ",\n" +
                     "  \"reservoir\": " + std::to_string(RO.Reservoir) +
                     ",\n" + "  \"parity_mismatches\": " +
                     std::to_string(Mismatches) + ",\n" +
                     "  \"parity_ok\": " +
                     (Mismatches == 0 ? "true" : "false") + ",\n";
  Json += "  \"tenants\": [";
  for (size_t I = 0; I != Registry.size(); ++I) {
    daemon::Tenant *T = Registry.at(I);
    const TenantTrace &Trace = Traces[I];
    const streams::WorkloadStream &S = *Streams[I];
    Json += std::string(I ? "," : "") + "\n    {\"name\": \"" +
            jsonString(T->Name) + "\", \"benchmark\": \"" +
            jsonString(T->Benchmark) + "\", \"model\": \"" +
            jsonString(T->ModelPath) + "\", \"schedule\": \"" +
            streams::scheduleName(S.options().Kind) + "\", \"requests\": " +
            std::to_string(Trace.Landmarks.size()) +
            ", \"decisions_per_sec\": " +
            jsonNumber(Trace.ServeSeconds > 0.0
                           ? static_cast<double>(Trace.Landmarks.size()) /
                                 Trace.ServeSeconds
                           : 0.0) +
            ", \"first_shift_tick\": " + std::to_string(S.firstShiftTick()) +
            "}";
  }
  Json += Registry.size() ? "\n  ]\n" : "]\n";
  Json += "}\n";

  std::fputs(Json.c_str(), stdout);
  if (Opts.Json &&
      !writeReport(Opts, "stream --mix", "BENCH_stream_mix.json", Json))
    return 1;
  return Mismatches == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// interact
//===----------------------------------------------------------------------===//

int benchharness::runInteract(const DriverOptions &Opts) {
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);

  std::string Json = std::string("{\n") + "  \"subcommand\": \"interact\",\n" +
                     "  \"scale\": " + jsonNumber(Opts.Scale) + ",\n" +
                     "  \"workloads\": [";
  support::TextTable Table;
  Table.setHeader({"Benchmark", "inputs", "landmarks", "interaction",
                   "oracle/static"});

  for (size_t W = 0; W != Suite.size(); ++W) {
    registry::SuiteEntry &E = Suite[W];
    support::WallTimer T;
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
    const linalg::Matrix &C = System.L1.Time; // inputs x landmarks
    size_t N = C.rows(), K = C.cols();
    if (N == 0 || K == 0)
      continue;

    // Two-way decomposition of the inputs-by-configs cost surface. The
    // additive model (grand mean + input effect + config effect) is the
    // least-squares fit without interaction; the fraction of variance it
    // cannot explain IS the input-config interaction -- zero would mean
    // one static choice is as good as an oracle, and the paper's whole
    // premise (Section 2) is that real workloads leave this large.
    double Grand = 0.0;
    std::vector<double> RowMean(N, 0.0), ColMean(K, 0.0);
    for (size_t I = 0; I != N; ++I)
      for (size_t J = 0; J != K; ++J) {
        double V = C.at(I, J);
        Grand += V;
        RowMean[I] += V;
        ColMean[J] += V;
      }
    Grand /= static_cast<double>(N * K);
    for (double &M : RowMean)
      M /= static_cast<double>(K);
    for (double &M : ColMean)
      M /= static_cast<double>(N);
    double SSTotal = 0.0, SSResid = 0.0;
    for (size_t I = 0; I != N; ++I)
      for (size_t J = 0; J != K; ++J) {
        double V = C.at(I, J);
        double Fit = RowMean[I] + ColMean[J] - Grand;
        SSTotal += (V - Grand) * (V - Grand);
        SSResid += (V - Fit) * (V - Fit);
      }
    double Interaction = SSTotal > 0.0 ? SSResid / SSTotal : 0.0;

    // What that interaction buys: dynamic oracle vs the best single
    // static landmark, as a mean-cost speedup.
    double OracleMean = 0.0;
    for (size_t I = 0; I != N; ++I) {
      double Best = C.at(I, 0);
      for (size_t J = 1; J != K; ++J)
        Best = std::min(Best, C.at(I, J));
      OracleMean += Best;
    }
    OracleMean /= static_cast<double>(N);
    size_t StaticBest = 0;
    for (size_t J = 1; J != K; ++J)
      if (ColMean[J] < ColMean[StaticBest])
        StaticBest = J;
    double Speedup =
        OracleMean > 0.0 ? ColMean[StaticBest] / OracleMean : 1.0;

    std::fprintf(stderr,
                 "[interact] %-12s interaction %.3f, oracle/static %.2fx "
                 "(%zux%zu table, %.1fs)\n",
                 E.Name.c_str(), Interaction, Speedup, N, K,
                 T.elapsedSeconds());
    Table.addRow({E.Name, std::to_string(N), std::to_string(K),
                  jsonNumber(Interaction), support::formatSpeedup(Speedup)});

    Json += std::string(W ? "," : "") + "\n    {\"name\": \"" +
            jsonString(E.Name) + "\", \"inputs\": " + std::to_string(N) +
            ", \"landmarks\": " + std::to_string(K) +
            ", \"interaction_strength\": " + jsonNumber(Interaction) +
            ", \"oracle_over_static\": " + jsonNumber(Speedup) +
            ", \"best_static_landmark\": " + std::to_string(StaticBest) +
            "}";
  }
  Json += Suite.empty() ? "]\n" : "\n  ]\n";
  Json += "}\n";

  std::fprintf(stderr,
               "\nInteraction strength per workload "
               "(PBT_BENCH_SCALE=%.2f):\n\n%s\n",
               Opts.Scale, Table.format().c_str());
  std::fputs(Json.c_str(), stdout);
  if (Opts.Json &&
      !writeReport(Opts, "interact", "BENCH_interact.json", Json))
    return 1;
  return 0;
}

//===----------------------------------------------------------------------===//
// ablation-eta
//===----------------------------------------------------------------------===//

int benchharness::runAblationEta(const DriverOptions &Opts) {
  const double Etas[] = {0.001, 0.01, 0.1, 0.5, 1.0};
  std::vector<std::string> Names = Opts.Only;
  if (Names.empty())
    Names = {"binpacking", "clustering2", "poisson2d"};

  for (const std::string &Name : Names) {
    support::TextTable Table;
    Table.setHeader({"eta", "two-level (w/ feat.)", "satisfaction",
                     "selected classifier"});
    for (double Eta : Etas) {
      std::vector<registry::SuiteEntry> Suite =
          registry::makeSuite({Name}, Opts.Scale, Opts.Pool);
      registry::SuiteEntry &E = Suite.front();
      E.Options.L2.Eta = Eta;
      core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
      core::EvaluationResult R =
          core::evaluateSystem(*E.Program, System, Opts.Pool);
      Table.addRow({support::formatDouble(Eta, 3),
                    support::formatSpeedup(R.TwoLevelWithFeat),
                    support::formatPercent(R.TwoLevelSatisfaction),
                    System.L2.SelectedName});
    }
    std::printf("Ablation E7 (%s): cost-matrix blend factor eta\n\n%s\n",
                Name.c_str(), Table.format().c_str());
  }
  std::printf("Shape check: speedup/satisfaction should be robust in a "
              "band around eta = 0.5, the paper's setting "
              "(PBT_BENCH_SCALE=%.2f).\n",
              Opts.Scale);
  return 0;
}

//===----------------------------------------------------------------------===//
// ablation-landmarks
//===----------------------------------------------------------------------===//

int benchharness::runAblationLandmarks(const DriverOptions &Opts) {
  std::vector<std::string> Names = Opts.Only;
  if (Names.empty())
    Names = {"sort2", "clustering2"};

  for (const std::string &Name : Names) {
    support::TextTable Table;
    Table.setHeader({"landmarks", "kmeans-selected", "random-selected",
                     "degradation"});
    for (unsigned K : {2u, 5u, 8u, 12u}) {
      double SpeedKMeans = 0.0, SpeedRandom = 0.0;
      for (core::LandmarkSelection Sel :
           {core::LandmarkSelection::KMeansCentroids,
            core::LandmarkSelection::UniformRandom}) {
        std::vector<registry::SuiteEntry> Suite =
            registry::makeSuite({Name}, Opts.Scale, Opts.Pool);
        registry::SuiteEntry &E = Suite.front();
        E.Options.L1.NumLandmarks = K;
        E.Options.L1.Selection = Sel;
        core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
        core::EvaluationResult R =
            core::evaluateSystem(*E.Program, System, Opts.Pool);
        if (Sel == core::LandmarkSelection::KMeansCentroids)
          SpeedKMeans = R.DynamicOracle;
        else
          SpeedRandom = R.DynamicOracle;
      }
      double Degradation =
          SpeedKMeans > 0.0 ? (SpeedKMeans - SpeedRandom) / SpeedKMeans : 0.0;
      Table.addRow({std::to_string(K), support::formatSpeedup(SpeedKMeans),
                    support::formatSpeedup(SpeedRandom),
                    support::formatPercent(Degradation)});
    }
    std::printf("Ablation E5 (%s): landmark selection strategy "
                "(dynamic-oracle speedup over the static oracle)\n\n%s\n",
                Name.c_str(), Table.format().c_str());
  }
  std::printf("Shape check: random selection degrades small landmark "
              "counts most; the gap shrinks as counts grow "
              "(PBT_BENCH_SCALE=%.2f).\n",
              Opts.Scale);
  return 0;
}

//===----------------------------------------------------------------------===//
// ablation-twolevel
//===----------------------------------------------------------------------===//

int benchharness::runAblationTwoLevel(const DriverOptions &Opts) {
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);

  support::TextTable Table;
  Table.setHeader({"Benchmark", "moved", "selected classifier",
                   "two-level", "one-level", "advantage"});

  for (registry::SuiteEntry &E : Suite) {
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
    core::EvaluationResult R =
        core::evaluateSystem(*E.Program, System, Opts.Pool);
    double Advantage = R.OneLevelWithFeat > 0.0
                           ? R.TwoLevelWithFeat / R.OneLevelWithFeat
                           : 0.0;
    Table.addRow({E.Name,
                  support::formatPercent(System.L2.RefinementMoveFraction),
                  System.L2.SelectedName,
                  support::formatSpeedup(R.TwoLevelWithFeat),
                  support::formatSpeedup(R.OneLevelWithFeat),
                  support::formatSpeedup(Advantage)});
    std::fprintf(stderr, "[twolevel] %-12s done\n", E.Name.c_str());
  }

  std::printf("Ablation E6: second-level cluster refinement and classifier "
              "selection (speedups over the static oracle, with feature "
              "extraction time)\n\n%s\n",
              Table.format().c_str());
  std::printf("Shape check: large 'moved' fractions show the feature-space "
              "clusters disagree with the performance-space labels (the "
              "paper reports 73.4%% for kmeans); 'advantage' is the paper's "
              "two-level-over-one-level factor (up to 34x in the paper) "
              "(PBT_BENCH_SCALE=%.2f).\n",
              Opts.Scale);
  return 0;
}
