//===- bench/Reports.cpp - Helpers shared by the pbt-bench subcommands -----==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "core/Pipeline.h"
#include "serialize/ModelIO.h"
#include "support/Statistics.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

using namespace pbt;
using namespace pbt::benchharness;

std::vector<registry::SuiteEntry>
benchharness::suiteFor(const DriverOptions &Opts) {
  if (Opts.Only.empty())
    return registry::makeSuite(Opts.Scale);
  return registry::makeSuite(Opts.Only, Opts.Scale);
}

std::string benchharness::csvPath(const DriverOptions &Opts,
                                  const std::string &Name) {
  if (Opts.OutDir.empty() || Opts.OutDir == ".")
    return Name;
  return Opts.OutDir + "/" + Name;
}

bool benchharness::emitReport(const DriverOptions &Opts, const char *Sub,
                              const std::string &Name,
                              const std::string &Json) {
  std::fputs(Json.c_str(), stdout);
  if (!Opts.Json)
    return true;
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

double benchharness::quantileOrNaN(const std::vector<double> &V, double Q) {
  return V.empty() ? std::nan("") : support::quantile(V, Q);
}

registry::BoundModel benchharness::loadBoundModel(const std::string &Path) {
  serialize::TrainedModel Model;
  serialize::LoadStatus Loaded = serialize::loadModelFile(Path, Model);
  if (!Loaded)
    return {Loaded, nullptr, nullptr};
  return registry::bindModel(std::move(Model));
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

std::string benchharness::serverExe(const DriverOptions &Opts,
                                   const char *Argv0) {
  if (!Opts.ServerExe.empty())
    return Opts.ServerExe;
  std::string Path = Argv0;
  size_t Slash = Path.rfind('/');
  return (Slash == std::string::npos ? "." : Path.substr(0, Slash)) +
         "/pbt-serve";
}

serialize::TrainedModel benchharness::trainModel(const DriverOptions &Opts,
                                                 registry::SuiteEntry &E) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(E.Name);
  return serialize::makeModel(E.Name, Opts.Scale, F.defaultProgramSeed(),
                              *E.Program,
                              core::trainSystem(*E.Program, E.Options,
                                                Opts.Pool));
}
