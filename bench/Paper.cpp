//===- bench/Paper.cpp - pbt-bench paper tables, figures and sweeps --------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "core/TheoreticalModel.h"
#include "support/Cost.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::benchharness;

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
// interact
//===----------------------------------------------------------------------===//

int benchharness::runInteract(const DriverOptions &Opts) {
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);

  support::JsonWriter W(support::JsonWriter::Layout::Indented);
  W.beginObject()
      .string("subcommand", "interact")
      .number("scale", Opts.Scale)
      .beginArray("workloads");
  support::TextTable Table;
  Table.setHeader({"Benchmark", "inputs", "landmarks", "interaction",
                   "oracle/static"});

  for (registry::SuiteEntry &E : Suite) {
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
                  support::formatDouble(Interaction, 3),
                  support::formatSpeedup(Speedup)});

    W.beginObject()
        .string("name", E.Name)
        .number("inputs", N)
        .number("landmarks", K)
        .number("interaction_strength", Interaction)
        .number("oracle_over_static", Speedup)
        .number("best_static_landmark", StaticBest)
        .end();
  }
  W.end().end();

  std::fprintf(stderr,
               "\nInteraction strength per workload "
               "(PBT_BENCH_SCALE=%.2f):\n\n%s\n",
               Opts.Scale, Table.format().c_str());
  return emitReport(Opts, "interact", "BENCH_interact.json", W.str()) ? 0 : 1;
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
