//===- tests/daemon/RequestQueueTest.cpp -------------------------------------=//
//
// The admission gate that is pbt-serve's admission controller: the
// line of Predicts waiting for a slot is hard-bounded (enter() refuses
// at once, never grows the line), zero sizes clamp to one, and under a
// multi-thread hammer no more than Slots threads are ever inside and
// no entrant is lost. The hammer is the TSan target for the gate.
//
//===----------------------------------------------------------------------===//

#include "daemon/RequestQueue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace pbt::daemon;

TEST(RequestQueueTest, CapacityIsAHardBound) {
  AdmissionGate G(1, 3);
  EXPECT_EQ(G.capacity(), 3u);
  ASSERT_TRUE(G.enter().Admitted);

  std::atomic<int> Admitted{0};
  std::vector<std::thread> Waiters;
  for (int I = 0; I < 3; ++I)
    Waiters.emplace_back([&] {
      AdmissionGate::Entry E = G.enter();
      EXPECT_TRUE(E.Admitted);
      EXPECT_TRUE(E.Waited);
      Admitted.fetch_add(1);
      G.leave();
    });
  while (G.waiting() < 3)
    std::this_thread::yield();

  AdmissionGate::Entry Full = G.enter();
  EXPECT_FALSE(Full.Admitted) << "a full line must shed";
  EXPECT_EQ(Full.Waiting, 3u);
  EXPECT_EQ(Admitted.load(), 0);

  G.leave();
  for (std::thread &T : Waiters)
    T.join();
  EXPECT_EQ(Admitted.load(), 3);
  EXPECT_EQ(G.waiting(), 0u);
  AdmissionGate::Entry Again = G.enter();
  EXPECT_TRUE(Again.Admitted) << "a freed slot readmits";
  EXPECT_FALSE(Again.Waited);
  G.leave();
}

TEST(RequestQueueTest, ZeroCapacityClampsToOne) {
  AdmissionGate G(0, 0);
  EXPECT_EQ(G.slots(), 1u);
  EXPECT_EQ(G.capacity(), 1u);
  ASSERT_TRUE(G.enter().Admitted);
  std::thread Waiter([&] {
    EXPECT_TRUE(G.enter().Admitted);
    G.leave();
  });
  while (G.waiting() < 1)
    std::this_thread::yield();
  AdmissionGate::Entry E = G.enter();
  EXPECT_FALSE(E.Admitted);
  EXPECT_EQ(E.Waiting, 1u);
  G.leave();
  Waiter.join();
}

TEST(RequestQueueTest, MpmcNoLossNoDuplication) {
  // Many threads enter and leave at once, retrying on shed like a
  // client would: never more than Slots inside, every refusal reports a
  // full line, and every entrant is admitted exactly once.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  constexpr int kSlots = 3;
  AdmissionGate G(kSlots, 2);

  std::atomic<int> Inside{0}, MaxInside{0}, Admitted{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < kPerThread; ++I) {
        AdmissionGate::Entry E;
        while (!(E = G.enter()).Admitted) {
          EXPECT_EQ(E.Waiting, 2u);
          std::this_thread::yield();
        }
        int Now = Inside.fetch_add(1) + 1;
        int Max = MaxInside.load();
        while (Now > Max && !MaxInside.compare_exchange_weak(Max, Now)) {
        }
        std::this_thread::yield();
        Inside.fetch_sub(1);
        G.leave();
        Admitted.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Admitted.load(), kThreads * kPerThread);
  EXPECT_LE(MaxInside.load(), kSlots);
  EXPECT_GT(MaxInside.load(), 0);
  EXPECT_EQ(G.waiting(), 0u);
}
