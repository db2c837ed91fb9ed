//===- daemon/RequestQueue.h - Predict admission gate ----------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission-control heart of pbt-serve. Session threads serve their
/// own Predicts; the gate bounds how many do so at once (Slots) and how
/// many more may wait for a slot (Capacity) -- the daemon's request
/// queue is the line of sessions waiting here. A Predict that finds the
/// line full is refused at once so the session can answer Shed, so the
/// backlog never grows past Capacity no matter how many clients pile on.
///
/// The gate barges: a freed slot goes to whichever thread takes it
/// first, a newcomer included, not to the oldest waiter. Handing slots
/// over in FIFO order costs a wakeup per request and convoys under
/// overload.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_REQUESTQUEUE_H
#define PBT_DAEMON_REQUESTQUEUE_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace pbt {
namespace daemon {

class AdmissionGate {
public:
  /// At most \p Slots threads inside at once and \p Capacity waiting for
  /// a slot; 0 means 1 for both.
  AdmissionGate(size_t Slots, size_t Capacity)
      : Slots(Slots ? Slots : 1), Cap(Capacity ? Capacity : 1) {}

  struct Entry {
    /// False: refused, because Capacity threads were already waiting.
    bool Admitted = false;
    /// Threads waiting when this one arrived, itself included when it
    /// joined them; 0 when a slot was free.
    size_t Waiting = 0;
    /// Admitted after every slot was found busy, and how long it waited.
    bool Waited = false;
    std::chrono::nanoseconds WaitTime{0};
  };

  /// Takes a slot, waiting for one while the line has room. An admitted
  /// caller must call leave() exactly once.
  Entry enter() {
    Entry E;
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Busy < Slots) {
      ++Busy;
      E.Admitted = true;
      return E;
    }
    if (Waiters >= Cap) {
      E.Waiting = Waiters;
      return E;
    }
    E.Waiting = ++Waiters;
    auto T0 = std::chrono::steady_clock::now();
    SlotFree.wait(Lock, [&] { return Busy < Slots; });
    --Waiters;
    ++Busy;
    E.Admitted = E.Waited = true;
    E.WaitTime = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - T0);
    return E;
  }

  /// Frees the caller's slot.
  void leave() {
    bool Wake;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --Busy;
      Wake = Waiters > 0;
    }
    if (Wake)
      SlotFree.notify_one();
  }

  size_t waiting() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Waiters;
  }

  size_t slots() const { return Slots; }
  size_t capacity() const { return Cap; }

private:
  const size_t Slots;
  const size_t Cap;
  mutable std::mutex Mutex;
  std::condition_variable SlotFree;
  size_t Busy = 0;
  size_t Waiters = 0;
};

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_REQUESTQUEUE_H
