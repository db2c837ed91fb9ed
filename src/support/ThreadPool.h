//===- support/ThreadPool.h - Minimal parallel-for pool -------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool exposing a blocking parallelFor. Used to
/// parallelise the embarrassingly parallel stages of offline training
/// (feature extraction, landmark tuning, the landmark-on-every-input
/// measurement sweep, the Level-2 classifier zoo, evaluation). All
/// measured quantities are deterministic work units, so parallel
/// scheduling never perturbs results.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_THREADPOOL_H
#define PBT_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pbt {
namespace support {

/// Fixed pool of worker threads with a blocking index-range parallel for.
/// It runs one parallelFor at a time, so each pool has one owner.
class ThreadPool {
public:
  /// \p NumThreads == 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs \p Body(I) for every I in [Begin, End), distributing indices over
  /// the pool and the calling thread, and blocks until all indices
  /// completed. Safe to call with an empty range. Precondition: no other
  /// parallelFor on this pool is running, from another thread or from
  /// inside \p Body (a debug build asserts; otherwise the calls race).
  ///
  /// \p GrainSize is the number of consecutive indices a worker claims per
  /// counter hit. The default of 1 is right for coarse bodies (a full
  /// program run); fine-grained task lists (the Level-2 fold x subset zoo
  /// on a small retrain reservoir) pass a larger grain so idle workers
  /// steal work in chunks instead of serialising on the claim lock.
  /// Scheduling never affects results -- bodies write index-addressed
  /// outputs.
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t)> &Body,
                   size_t GrainSize = 1);

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  static unsigned hardwareThreads();

private:
  struct Job {
    size_t Begin = 0;
    size_t End = 0;
    const std::function<void(size_t)> *Body = nullptr;
    size_t NextIndex = 0;
    size_t Remaining = 0;
    size_t GrainSize = 1;
  };

  void workerLoop();
  bool runSomeOf(Job &J);

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable JobDone;
  Job Current;
  bool HasJob = false;
  bool ShuttingDown = false;
};

/// Runs \p Body(I) for every I in [0, \p N): over \p Pool when given,
/// otherwise in order on the calling thread by direct calls.
template <class BodyFn>
void forEachIndex(ThreadPool *Pool, size_t N, BodyFn &&Body) {
  if (Pool) {
    Pool->parallelFor(0, N, Body);
    return;
  }
  for (size_t I = 0; I != N; ++I)
    Body(I);
}

} // namespace support
} // namespace pbt

#endif // PBT_SUPPORT_THREADPOOL_H
