//===- perfbench/src/Trace.cpp - Spans, metrics and the run report ---------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace pbt {
namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

uint32_t Tracer::begin(const std::string &Name, uint32_t Parent,
                       uint64_t Request) {
  return On ? record(Name, Parent, Request, nowNs(), 0) : 0;
}

void Tracer::end(uint32_t Id) {
  if (!On || Id == 0)
    return;
  uint64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Id - 1].EndNs = Now;
}

uint32_t Tracer::record(const std::string &Name, uint32_t Parent,
                        uint64_t Request, uint64_t StartNs, uint64_t EndNs) {
  if (!On)
    return 0;
  Span S;
  S.Parent = Parent;
  S.Request = Request;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  std::lock_guard<std::mutex> Lock(Mutex);
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void Tracer::aggregate(const std::string &Name, uint32_t Parent,
                       uint64_t Calls, uint64_t TotalNs) {
  if (!On)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Start = Parent ? Spans[Parent - 1].StartNs : nowNs();
  Span S;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.Parent = Parent;
  S.Name = Name;
  S.StartNs = Start;
  S.EndNs = Start + TotalNs;
  S.Calls = Calls;
  S.Aggregate = true;
  Spans.push_back(std::move(S));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Children per parent: intervals of real spans, summed time of
  // aggregates (which stand for many calls, not one interval).
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size() +
                                                                1);
  std::vector<uint64_t> AggNs(Spans.size() + 1, 0);
  for (const Span &S : Spans) {
    if (S.Parent == 0)
      continue;
    if (S.Aggregate)
      AggNs[S.Parent] += S.EndNs - S.StartNs;
    else
      Kids[S.Parent].emplace_back(S.StartNs, S.EndNs);
  }
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    uint64_t Dur = S.EndNs > S.StartNs ? S.EndNs - S.StartNs : 0;
    uint64_t Covered = AggNs[S.Id];
    if (!S.Aggregate) {
      auto &K = Kids[S.Id];
      std::sort(K.begin(), K.end());
      uint64_t RunStart = 0, RunEnd = 0;
      bool Open = false;
      for (const auto &[B, E] : K) {
        uint64_t Lo = std::max(B, S.StartNs), Hi = std::min(E, S.EndNs);
        if (Hi <= Lo)
          continue;
        if (Open && Lo <= RunEnd) {
          RunEnd = std::max(RunEnd, Hi);
          continue;
        }
        if (Open)
          Covered += RunEnd - RunStart;
        RunStart = Lo;
        RunEnd = Hi;
        Open = true;
      }
      if (Open)
        Covered += RunEnd - RunStart;
    }
    uint64_t SelfNs = Dur > Covered ? Dur - Covered : 0;
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Self[Layer] += static_cast<double>(SelfNs) * 1e-6;
  }
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  uint64_t T0 = UINT64_MAX;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.StartNs);
  for (const Span &S : Spans) {
    Out << "{\"id\":" << S.Id << ",\"parent\":" << S.Parent
        << ",\"request\":" << S.Request << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs - T0
        << ",\"end_ns\":" << std::max(S.EndNs, S.StartNs) - T0
        << ",\"calls\":" << S.Calls
        << "}\n";
  }
  return static_cast<bool>(Out);
}

void Report::wrong(const std::string &Why) {
  Correct = false;
  // Keep the report bounded when an oracle fails on every answer.
  if (Errors.size() < 20)
    Errors.push_back(Why);
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
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
  return Out + "\"";
}

std::string Report::json() const {
  std::string J = "{\"workload\": " + jsonString(Workload);
  J += ", \"seed\": " + std::to_string(Seed);
  J += std::string(", \"trace\": ") + (Traced ? "1" : "0");
  J += std::string(", \"correct\": ") + (Correct ? "true" : "false");
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    J += (I ? ", " : "") + jsonString(M.Name) +
         ": {\"value\": " + jsonNumber(M.Value) +
         ", \"unit\": " + jsonString(M.Unit) +
         ", \"samples\": " + std::to_string(M.Samples) + "}";
  }
  J += "}, \"errors\": [";
  for (size_t I = 0; I < Errors.size(); ++I)
    J += (I ? ", " : "") + jsonString(Errors[I]);
  J += "]";
  for (const auto &[K, V] : Details)
    J += ", " + jsonString(K) + ": " + V;
  return J + "}";
}

double peakRssMiB(long Pid) {
  std::string Path = Pid > 0 ? "/proc/" + std::to_string(Pid) + "/status"
                              : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream SS(Line.substr(6));
      double Kb = 0;
      if (SS >> Kb)
        return Kb / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

} // namespace perfbench
} // namespace pbt
