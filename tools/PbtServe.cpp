//===- tools/PbtServe.cpp - pbt-serve daemon entry point -------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pbt-serve binary: loads one or more trained model files into a
/// multi-tenant ModelRegistry, binds a Unix-domain socket, and serves
/// framed prediction requests until a Shutdown frame or SIGINT/SIGTERM.
/// Lives under tools/ (not src/) because the pbtuner OBJECT library
/// globs every src/*.cpp into the test binaries, which already have a
/// main.
///
/// Two tenants, four workers and a queue of 128 (one command line):
///
///   pbt-serve --socket=/tmp/pbt.sock --model=sort1.pbt
///             --model=fast=other.pbt --workers=4 --queue=128
///
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"
#include "daemon/Server.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace pbt;

namespace {

std::atomic<bool> GSignalled{false};

void onSignal(int) { GSignalled.store(true); }

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket=PATH | --listen=HOST:PORT) "
      "--model=[NAME=]FILE[,[NAME=]FILE...] [options]\n"
      "\n"
      "A multi-tenant prediction daemon over Unix-domain and/or TCP\n"
      "stream sockets. Each --model entry becomes one tenant, addressed\n"
      "by NAME on the wire (default: the model's benchmark key). Clients\n"
      "speak the framed protocol of src/daemon/Protocol.h; `pbt-bench\n"
      "loadgen` is the reference client and load driver.\n"
      "\n"
      "options:\n"
      "  --socket=PATH      listening Unix socket path (short paths only\n"
      "                     -- sun_path caps ~107 bytes). At least one of\n"
      "                     --socket / --listen is required\n"
      "  --listen=HOST:PORT additional TCP listen endpoint (repeatable;\n"
      "                     port 0 binds an ephemeral port -- pair with\n"
      "                     --port-file so a supervisor can find it)\n"
      "  --port-file=PATH   after binding, atomically write the bound\n"
      "                     endpoint specs (one per line, TCP first) to\n"
      "                     PATH; a fleet supervisor reads the real port\n"
      "                     back from here\n"
      "  --read-deadline=S  once a frame starts arriving, the rest must\n"
      "                     land within S seconds or the session is\n"
      "                     dropped (default 30; 0 disables). Idle\n"
      "                     sessions are never timed out\n"
      "  --max-sessions=N   concurrent session-thread cap (default 256);\n"
      "                     connections over the cap get one Shed frame\n"
      "                     and are closed\n"
      "  --model=SPEC       tenant model file(s); NAME=FILE to name one\n"
      "  --store=SPEC       tenant model store dir(s); NAME=DIR to name\n"
      "                     one. The daemon serves the store's CURRENT\n"
      "                     epoch (checksum-verified) and hot-swaps the\n"
      "                     tenant whenever a rollout promotes a new one\n"
      "  --store-poll-ms=N  store promotion poll interval (default 250)\n"
      "  --workers=N        Predicts served concurrently (default 2)\n"
      "  --queue=N          Predicts waiting for a slot (default 64); a\n"
      "                     Predict that finds the line full is shed\n"
      "  --adapt            serve every tenant through the drift-adaptation\n"
      "                     loop (per-tenant DriftMonitor + shadow retrain)\n"
      "  --window=N         drift-monitor window per tenant (default 64)\n"
      "  --reservoir=N      retrain reservoir per tenant (default 48)\n",
      Argv0);
}

int badValue(const char *Flag, const std::string &Value, const char *Expect) {
  std::fprintf(stderr, "pbt-serve: bad %s value '%s' (expected %s)\n", Flag,
               Value.c_str(), Expect);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  daemon::ServerOptions SO;
  daemon::ModelRegistryOptions RO;
  std::vector<std::pair<std::string, std::string>> Models;
  std::vector<std::pair<std::string, std::string>> Stores;
  std::string PortFile;
  unsigned StorePollMs = 250;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (const char *V = Value("--socket=")) {
      SO.SocketPath = V;
    } else if (const char *V = Value("--listen=")) {
      SO.Listen.emplace_back(V);
    } else if (const char *V = Value("--port-file=")) {
      PortFile = V;
    } else if (const char *V = Value("--read-deadline=")) {
      if (!support::parseDouble(V, SO.ReadDeadline) || SO.ReadDeadline < 0)
        return badValue("--read-deadline", V, "a non-negative number");
    } else if (const char *V = Value("--max-sessions=")) {
      if (!support::parseUnsigned(V, SO.MaxSessions, 1u << 16) ||
          SO.MaxSessions == 0)
        return badValue("--max-sessions", V, "an integer in [1, 65536]");
    } else if (const char *V = Value("--model=")) {
      for (auto &Spec : daemon::splitModelSpec(V))
        Models.push_back(std::move(Spec));
    } else if (const char *V = Value("--store=")) {
      for (auto &Spec : daemon::splitModelSpec(V))
        Stores.push_back(std::move(Spec));
    } else if (const char *V = Value("--store-poll-ms=")) {
      if (!support::parseUnsigned(V, StorePollMs, 60000) || StorePollMs == 0)
        return badValue("--store-poll-ms", V, "an integer in [1, 60000]");
    } else if (const char *V = Value("--workers=")) {
      if (!support::parseUnsigned(V, SO.Workers, 256))
        return badValue("--workers", V, "an integer in [0, 256]");
    } else if (const char *V = Value("--queue=")) {
      unsigned Cap = 0;
      if (!support::parseUnsigned(V, Cap, 1u << 20))
        return badValue("--queue", V, "an integer in [0, 2^20]");
      SO.QueueCapacity = Cap;
    } else if (Arg == "--adapt") {
      RO.AutoAdapt = true;
    } else if (const char *V = Value("--window=")) {
      if (!support::parseUnsigned(V, RO.Window, 1u << 20))
        return badValue("--window", V, "an integer in [0, 2^20]");
    } else if (const char *V = Value("--reservoir=")) {
      if (!support::parseUnsigned(V, RO.Reservoir, 1u << 20))
        return badValue("--reservoir", V, "an integer in [0, 2^20]");
    } else {
      std::fprintf(stderr, "pbt-serve: unknown argument '%s'\n",
                   Arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if ((SO.SocketPath.empty() && SO.Listen.empty()) ||
      (Models.empty() && Stores.empty())) {
    usage(argv[0]);
    return 2;
  }

  // Every tenant builds concurrently; they publish in this order (the
  // --model entries, then the --store entries) up to the first failure.
  std::vector<daemon::TenantSource> Sources;
  for (const auto &[Name, Path] : Models)
    Sources.push_back({Name, Path, false});
  for (const auto &[Name, Dir] : Stores)
    Sources.push_back({Name, Dir, true});
  daemon::ModelRegistry Registry(RO);
  size_t FailedAt = 0;
  serialize::LoadStatus St = Registry.addTenants(Sources, &FailedAt);
  if (!St) {
    const daemon::TenantSource &Bad = Sources[FailedAt];
    std::fprintf(stderr, "pbt-serve: cannot load tenant from %s'%s': %s\n",
                 Bad.Store ? "store " : "", Bad.Path.c_str(),
                 St.Error.c_str());
    return 1;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  daemon::Server Srv(Registry, SO);
  std::string Err;
  if (!Srv.start(Err)) {
    std::fprintf(stderr, "pbt-serve: %s\n", Err.c_str());
    return 1;
  }

  std::vector<std::string> Bound = Srv.boundEndpoints();
  // TCP endpoints first: a supervisor reading the port file wants the
  // cross-host endpoint on line 1.
  std::stable_sort(Bound.begin(), Bound.end(),
                   [](const std::string &A, const std::string &B) {
                     return (A.compare(0, 4, "tcp:") == 0) >
                            (B.compare(0, 4, "tcp:") == 0);
                   });

  if (!PortFile.empty()) {
    // Write-to-temp + rename so a supervisor polling the path never
    // observes a partial file.
    std::string Tmp = PortFile + ".tmp";
    std::FILE *F = std::fopen(Tmp.c_str(), "w");
    bool Ok = F != nullptr;
    if (F) {
      for (const std::string &E : Bound)
        Ok = Ok && std::fprintf(F, "%s\n", E.c_str()) >= 0;
      Ok = std::fclose(F) == 0 && Ok;
    }
    if (!Ok || std::rename(Tmp.c_str(), PortFile.c_str()) != 0) {
      std::fprintf(stderr, "pbt-serve: cannot write port file '%s'\n",
                   PortFile.c_str());
      Srv.stop();
      return 1;
    }
  }

  {
    std::string Names, Where;
    for (const std::string &N : Registry.names())
      Names += (Names.empty() ? "" : ", ") + N;
    for (const std::string &E : Bound)
      Where += (Where.empty() ? "" : ", ") + E;
    std::fprintf(stderr,
                 "pbt-serve: listening on %s (%zu tenant%s: %s; workers=%u "
                 "queue=%zu max-sessions=%u%s)\n",
                 Where.c_str(), Registry.size(),
                 Registry.size() == 1 ? "" : "s", Names.c_str(), SO.Workers,
                 SO.QueueCapacity, SO.MaxSessions,
                 Registry.options().AutoAdapt ? " adapt" : "");
    std::fflush(stderr);
  }

  // Park until a client's Shutdown frame flips the server's stop flag or
  // a signal lands. Polling keeps the signal handler async-signal-safe
  // (it only stores a flag). Store-backed tenants piggyback on the park
  // loop: every --store-poll-ms the registry checks each watched store's
  // CURRENT pointer and hot-swaps promoted epochs.
  unsigned TicksPerPoll = std::max(1u, StorePollMs / 50);
  for (uint64_t Tick = 1; Srv.running() && !GSignalled.load(); ++Tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (!Stores.empty() && Tick % TicksPerPoll == 0) {
      size_t Swapped = Registry.pollStores();
      if (Swapped > 0) {
        std::fprintf(stderr, "pbt-serve: hot-swapped %zu tenant%s onto newly "
                             "promoted store epochs\n",
                     Swapped, Swapped == 1 ? "" : "s");
        std::fflush(stderr);
      }
    }
  }

  std::string FinalStats = Srv.statsJson();
  Srv.stop();
  std::printf("%s\n", FinalStats.c_str());
  return 0;
}
