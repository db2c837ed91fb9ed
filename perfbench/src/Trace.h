//===- perfbench/src/Trace.h - Spans, metrics and the run report -----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's measurement plumbing: an in-memory span tracer for the
/// traced run, the report one run prints, and the small statistics the
/// workloads share.
///
/// Spans are recorded only by the benchmark's own code, around its calls
/// into the program's public functions; nothing inside src/ is
/// instrumented. A span is named "<layer>.<operation>", where the layer
/// is the module called (daemon, runtime, core, benchmarks, serialize,
/// registry) or "bench" for the harness itself. Spans of one request
/// share a request id and every span names its parent, so a layer's self
/// time is its spans' durations minus the part their children cover.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_PERFBENCH_TRACE_H
#define PBT_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double secondsBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) * 1e-9;
}

/// Nearest-rank quantile; +infinity (a failed request) sorts last and is
/// returned as is. NaN for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// One traced call. Calls > 1 marks an aggregate: Calls leaf calls made
/// inside the parent, whose summed time is EndNs - StartNs.
struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 = a root span
  uint64_t Request = 0;
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t Calls = 1;
  bool Aggregate = false;
};

/// In-memory span store, written out once when the run ends. Disabled
/// tracers record nothing and hand out span id 0.
class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled) {}

  bool enabled() const { return On; }

  /// Opens a span now; close it with end().
  uint32_t begin(const std::string &Name, uint32_t Parent = 0,
                 uint64_t Request = 0);
  void end(uint32_t Id);
  /// Records a finished span measured elsewhere (a client thread keeps
  /// its own timestamps and hands them over after the phase).
  uint32_t record(const std::string &Name, uint32_t Parent, uint64_t Request,
                  uint64_t StartNs, uint64_t EndNs);
  /// Records \p Calls leaf calls under \p Parent that took \p TotalNs.
  void aggregate(const std::string &Name, uint32_t Parent, uint64_t Calls,
                 uint64_t TotalNs);

  size_t size() const;
  /// Self milliseconds per layer: each span's duration minus the union of
  /// its children's intervals (aggregates count by their summed time).
  std::map<std::string, double> selfMsByLayer() const;
  /// One JSON object per line, times relative to the first span.
  bool write(const std::string &Path) const;

private:
  bool On;
  mutable std::mutex Mutex;
  std::vector<Span> Spans; // guarded by Mutex; Spans[i].Id == i + 1
};

/// Times one call as a span; a no-op when the tracer is off.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const std::string &Name, uint32_t Parent = 0,
             uint64_t Request = 0)
      : T(T), Id(T.enabled() ? T.begin(Name, Parent, Request) : 0) {}
  ~ScopedSpan() {
    if (Id)
      T.end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  uint32_t id() const { return Id; }

private:
  Tracer &T;
  uint32_t Id;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  /// Samples the value summarises (0 = a single measurement or count).
  uint64_t Samples = 0;
};

/// What one run prints: the contract fields, every metric, and a free-form
/// details object (closure checks, tracing overhead, host record).
struct Report {
  std::string Workload;
  uint64_t Seed = 0;
  bool Traced = false;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Errors;
  /// Extra "key": value members, already JSON-encoded.
  std::vector<std::pair<std::string, std::string>> Details;

  void add(const std::string &Name, double Value, const std::string &Unit,
           uint64_t Samples = 0) {
    Metrics.push_back({Name, Value, Unit, Samples});
  }
  /// Records a wrong answer: the run's outputs failed an oracle.
  void wrong(const std::string &Why);
  void detail(const std::string &Key, const std::string &JsonValue) {
    Details.emplace_back(Key, JsonValue);
  }
  std::string json() const;
};

std::string jsonNumber(double V);
std::string jsonString(const std::string &S);

/// Peak resident set (VmHWM) of \p Pid, or of this process when Pid <= 0,
/// in MiB; NaN when /proc cannot be read.
double peakRssMiB(long Pid);

} // namespace perfbench
} // namespace pbt

#endif // PBT_PERFBENCH_TRACE_H
