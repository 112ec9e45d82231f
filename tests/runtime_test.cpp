//===--- runtime_test.cpp - KMP runtime unit tests --------------*- C++ -*-===//
//
// The miniature libomp as a unit, independent of the compiler pipeline:
// hot-team reuse across repeated fork/join, sense-reversing barrier
// correctness from 1 up to 2x hardware_concurrency threads, exactly-once
// chunk coverage for every dispatcher schedule under contention, and the
// serial-dispatch context restoration. Designed to run clean under
// -DMCC_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//
#include "runtime/KMPRuntime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

using namespace mcc::rt;

#if defined(__SANITIZE_THREAD__)
#define MCC_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MCC_UNDER_TSAN 1
#endif
#endif

namespace {

/// Quiesce the pool and zero counters so each test sees exact numbers.
OpenMPRuntime &freshRuntime() {
  OpenMPRuntime &RT = OpenMPRuntime::get();
  RT.shutdown();
  RT.resetStats();
  RT.setHotTeamsEnabled(true);
  RT.setSpinCount(-1);
  return RT;
}

unsigned hwThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// True when a team of \p N threads cannot run truly concurrently here.
/// Exact spin/sleep wake counters are timing-dependent in that regime
/// (a waiter may observe the flipped sense before ever parking, or
/// exhaust its spin budget while descheduled), so tests only assert them
/// on machines with enough cores — completion and coverage invariants
/// still hold everywhere.
bool oversubscribed(unsigned TeamSize) { return TeamSize > hwThreads(); }

/// Runs \p Body on a separate thread and aborts the whole binary with a
/// diagnostic if it does not finish within \p Limit. A barrier or
/// dispatcher bug would otherwise hang the suite until the global CTest
/// timeout with no indication of the culprit. The deadline is generous —
/// it bounds the spin-wait stress tests, it does not race them.
template <typename Fn>
void withDeadline(const char *What, std::chrono::seconds Limit, Fn &&Body) {
#ifdef MCC_UNDER_TSAN
  Limit *= 20; // TSan serializes and instruments everything
#endif
  std::packaged_task<void()> Task(std::forward<Fn>(Body));
  std::future<void> Done = Task.get_future();
  std::thread Runner(std::move(Task));
  if (Done.wait_for(Limit) == std::future_status::timeout) {
    std::fprintf(stderr,
                 "runtime_test: '%s' exceeded its %llds deadline — "
                 "aborting to unhang the suite\n",
                 What, static_cast<long long>(Limit.count()));
    std::abort();
  }
  Runner.join();
}

TEST(HotTeamTest, ReusesWorkersAcrossRepeatedForkJoin) {
  OpenMPRuntime &RT = freshRuntime();
  constexpr int Forks = 16;
  std::atomic<int> Sum{0};
  for (int I = 0; I < Forks; ++I)
    RT.forkCall([&](int Tid) { Sum.fetch_add(Tid + 1); }, 4);
  EXPECT_EQ(Sum.load(), Forks * (1 + 2 + 3 + 4));

  OpenMPRuntime::StatsSnapshot S = RT.statsSnapshot();
  EXPECT_EQ(S.NumForkJoins, static_cast<std::uint64_t>(Forks));
  EXPECT_EQ(S.NumHotTeamForks, static_cast<std::uint64_t>(Forks));
  EXPECT_EQ(S.NumTransientForks, 0u);
  // Workers are created once, then re-dispatched.
  EXPECT_EQ(S.NumPoolThreadsSpawned, 3u);
  EXPECT_EQ(S.NumTransientThreadsSpawned, 0u);
  EXPECT_EQ(S.NumTeamReuses, static_cast<std::uint64_t>(Forks - 1));
}

TEST(HotTeamTest, PoolGrowsLazilyToWidestTeam) {
  OpenMPRuntime &RT = freshRuntime();
  for (int N : {2, 4, 3, 8, 8}) {
    std::atomic<int> Count{0};
    RT.forkCall([&](int) { Count.fetch_add(1); }, N);
    EXPECT_EQ(Count.load(), N);
  }
  OpenMPRuntime::StatsSnapshot S = RT.statsSnapshot();
  // 1 + 2 + 0 + 4 + 0 new workers; the widest team needs 7.
  EXPECT_EQ(S.NumPoolThreadsSpawned, 7u);
  // Only the repeated 8-wide team could recycle its ThreadTeam.
  EXPECT_EQ(S.NumTeamReuses, 1u);
}

TEST(HotTeamTest, NestedRegionsFallBackToTransientWorkers) {
  OpenMPRuntime &RT = freshRuntime();
  std::atomic<int> Count{0};
  RT.forkCall(
      [&](int) { RT.forkCall([&](int) { Count.fetch_add(1); }, 3); }, 2);
  EXPECT_EQ(Count.load(), 6);

  OpenMPRuntime::StatsSnapshot S = RT.statsSnapshot();
  EXPECT_EQ(S.NumForkJoins, 3u); // outer + two inner
  EXPECT_EQ(S.NumHotTeamForks, 1u);
  EXPECT_EQ(S.NumTransientForks, 2u);
  EXPECT_EQ(S.NumTransientThreadsSpawned, 4u); // 2 inner regions x 2
}

TEST(HotTeamTest, ConcurrentTopLevelForksStayCorrect) {
  OpenMPRuntime &RT = freshRuntime();
  // Two application threads forking simultaneously: one may win the pool,
  // the other must fall back transiently — both must run all work.
  std::atomic<int> Sum{0};
  std::vector<std::thread> Apps;
  for (int A = 0; A < 2; ++A)
    Apps.emplace_back([&] {
      for (int I = 0; I < 8; ++I)
        RT.forkCall([&](int) { Sum.fetch_add(1); }, 4);
    });
  for (std::thread &T : Apps)
    T.join();
  EXPECT_EQ(Sum.load(), 2 * 8 * 4);
  OpenMPRuntime::StatsSnapshot S = RT.statsSnapshot();
  EXPECT_EQ(S.NumHotTeamForks + S.NumTransientForks, 16u);
}

TEST(HotTeamTest, HotTeamsCanBeDisabled) {
  OpenMPRuntime &RT = freshRuntime();
  RT.setHotTeamsEnabled(false);
  std::atomic<int> Count{0};
  RT.forkCall([&](int) { Count.fetch_add(1); }, 4);
  RT.forkCall([&](int) { Count.fetch_add(1); }, 4);
  EXPECT_EQ(Count.load(), 8);
  OpenMPRuntime::StatsSnapshot S = RT.statsSnapshot();
  EXPECT_EQ(S.NumHotTeamForks, 0u);
  EXPECT_EQ(S.NumTransientForks, 2u);
  EXPECT_EQ(S.NumTransientThreadsSpawned, 6u);
  RT.setHotTeamsEnabled(true);
}

TEST(HotTeamTest, ShutdownIsIdempotentAndPoolRespawns) {
  OpenMPRuntime &RT = freshRuntime();
  std::atomic<int> Count{0};
  RT.forkCall([&](int) { Count.fetch_add(1); }, 4);
  RT.shutdown();
  RT.shutdown(); // idempotent
  RT.forkCall([&](int) { Count.fetch_add(1); }, 4);
  EXPECT_EQ(Count.load(), 8);
  // Pool was rebuilt after the shutdown.
  EXPECT_EQ(RT.statsSnapshot().NumPoolThreadsSpawned, 6u);
  RT.shutdown();
}

TEST(BarrierTest, SynchronizesAllPhases) {
  OpenMPRuntime &RT = freshRuntime();
  const int HW = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> Sizes = {1, 2, 3, HW, 2 * HW};
  Sizes.push_back(8); // a definitely-oversubscribed team on small boxes
  for (int N : Sizes) {
    constexpr int Rounds = 20;
    std::vector<std::atomic<int>> Phase(static_cast<std::size_t>(N));
    for (auto &P : Phase)
      P.store(0);
    std::atomic<bool> Violation{false};
    withDeadline("BarrierTest.SynchronizesAllPhases",
                 std::chrono::seconds(60), [&] {
                   RT.forkCall(
                       [&](int Tid) {
                         for (int R = 0; R < Rounds; ++R) {
                           Phase[static_cast<std::size_t>(Tid)].store(R + 1);
                           RT.barrier();
                           // After the barrier every teammate must have
                           // finished round R.
                           for (int T = 0; T < N; ++T)
                             if (Phase[static_cast<std::size_t>(T)].load() <
                                 R + 1)
                               Violation = true;
                           RT.barrier();
                         }
                       },
                       N);
                 });
    EXPECT_FALSE(Violation.load()) << "team size " << N;
  }
}

TEST(BarrierTest, SpinAndSleepPathsBothComplete) {
  OpenMPRuntime &RT = freshRuntime();
  std::atomic<int> Count{0};
  // Force the sleep path: zero spin budget.
  RT.setSpinCount(0);
  withDeadline("BarrierTest sleep path", std::chrono::seconds(30), [&] {
    RT.forkCall(
        [&](int) {
          Count.fetch_add(1);
          RT.barrier();
        },
        4);
  });
  OpenMPRuntime::StatsSnapshot Slept = RT.statsSnapshot();
  EXPECT_EQ(Slept.BarrierSpinWakes, 0u);

  // Force the spin path: effectively unbounded budget. (Backoff yields,
  // so this terminates even when the team oversubscribes the hardware.)
  RT.setSpinCount(1 << 30);
  withDeadline("BarrierTest spin path", std::chrono::seconds(30), [&] {
    RT.forkCall(
        [&](int) {
          Count.fetch_add(1);
          RT.barrier();
        },
        4);
  });
  OpenMPRuntime::StatsSnapshot Spun = RT.statsSnapshot();
  EXPECT_EQ(Count.load(), 8);
  RT.setSpinCount(-1);

  // Wake-path accounting is only exact when all four threads can truly
  // run at once: under oversubscription the runtime clamps the spin
  // budget to zero (spinning while descheduled wastes the core the
  // release needs), so the "forced spin" fork legitimately sleeps.
  if (oversubscribed(4)) {
    GTEST_SKIP() << "team of 4 oversubscribes " << hwThreads()
                 << " hardware threads; skipping exact wake-path counters";
  }
  EXPECT_GE(Slept.BarrierSleepWakes, 3u);
  EXPECT_GE(Spun.BarrierSpinWakes, 3u);
  EXPECT_EQ(Spun.BarrierSleepWakes, Slept.BarrierSleepWakes);
}

TEST(DispatchTest, ExactlyOnceCoverageUnderContention) {
  OpenMPRuntime &RT = freshRuntime();
  // Both waiting policies, all dispatcher schedules, uneven chunking.
  for (int Spin : {0, 1 << 30}) {
    RT.setSpinCount(Spin);
    for (std::int32_t Sched :
         {SchedDynamic, SchedGuided, SchedStaticChunked}) {
      constexpr std::int64_t Trip = 2000;
      std::vector<std::atomic<int>> Hits(Trip);
      for (auto &H : Hits)
        H.store(0);
      withDeadline("DispatchTest.ExactlyOnceCoverageUnderContention",
                   std::chrono::seconds(60), [&] {
                     RT.forkCall(
                         [&](int) {
                           RT.dispatchInit(Sched, 0, Trip - 1, 7);
                           std::int32_t Last;
                           std::int64_t Lb, Ub;
                           while (RT.dispatchNext(&Last, &Lb, &Ub))
                             for (std::int64_t I = Lb; I <= Ub; ++I)
                               Hits[static_cast<std::size_t>(I)].fetch_add(1);
                         },
                         4);
                   });
      for (std::int64_t I = 0; I < Trip; ++I)
        ASSERT_EQ(Hits[static_cast<std::size_t>(I)].load(), 1)
            << "spin=" << Spin << " sched=" << Sched << " i=" << I;
    }
  }
  RT.setSpinCount(-1);
  OpenMPRuntime::StatsSnapshot S = RT.statsSnapshot();
  EXPECT_GT(S.NumChunksDynamic, 0u);
  EXPECT_GT(S.NumChunksGuided, 0u);
  EXPECT_GT(S.NumChunksStaticChunked, 0u);
}

TEST(DispatchTest, GuidedChunksShrinkAndRespectMinimum) {
  OpenMPRuntime &RT = freshRuntime();
  constexpr std::int64_t Trip = 10000;
  std::mutex Mx;
  std::vector<std::int64_t> Sizes;
  RT.forkCall(
      [&](int) {
        RT.dispatchInit(SchedGuided, 0, Trip - 1, 4);
        std::int32_t Last;
        std::int64_t Lb, Ub;
        while (RT.dispatchNext(&Last, &Lb, &Ub)) {
          std::lock_guard<std::mutex> Lock(Mx);
          Sizes.push_back(Ub - Lb + 1);
        }
      },
      4);
  std::int64_t Total = 0;
  for (std::int64_t Sz : Sizes) {
    EXPECT_GE(Sz, 1);
    Total += Sz;
  }
  EXPECT_EQ(Total, Trip);
  // The first claimed chunk is proportional (trip / 2T), far above the
  // minimum; the tail collapses to the minimum chunk size.
  EXPECT_GT(*std::max_element(Sizes.begin(), Sizes.end()), 4);
}

TEST(DispatchTest, SerialDispatchRestoresOutsideContext) {
  OpenMPRuntime &RT = freshRuntime();
  ASSERT_EQ(RT.getCurrentTeam(), nullptr);
  RT.dispatchInit(SchedDynamic, 0, 9, 4);
  // Mid-loop the serial team is current...
  EXPECT_NE(RT.getCurrentTeam(), nullptr);
  EXPECT_EQ(RT.getNumThreads(), 1);
  std::int32_t Last;
  std::int64_t Lb, Ub;
  std::int64_t Seen = 0;
  while (RT.dispatchNext(&Last, &Lb, &Ub))
    Seen += Ub - Lb + 1;
  EXPECT_EQ(Seen, 10);
  // ...but once it drains the outside-parallel context is restored.
  EXPECT_EQ(RT.getCurrentTeam(), nullptr);

  // dispatchFini is an alternative (early) release point.
  RT.dispatchInit(SchedDynamic, 0, 9, 4);
  EXPECT_NE(RT.getCurrentTeam(), nullptr);
  RT.dispatchFini();
  EXPECT_EQ(RT.getCurrentTeam(), nullptr);
}

TEST(DispatchTest, StaticInitCountsChunkStats) {
  OpenMPRuntime &RT = freshRuntime();
  RT.forkCall(
      [&](int) {
        std::int32_t Last = 0;
        std::int64_t Lb = 0, Ub = 99, Stride = 1;
        RT.forStaticInit(SchedStatic, &Last, &Lb, &Ub, &Stride, 1, 0);
      },
      4);
  EXPECT_EQ(RT.statsSnapshot().NumChunksStatic, 4u);
}

// Death tests fork, which TSan dislikes; skip only there.
#ifndef MCC_UNDER_TSAN
TEST(DispatchTest, StaticInitRejectsNonStaticSchedules) {
  OpenMPRuntime &RT = freshRuntime();
  std::int32_t Last = 0;
  std::int64_t Lb = 0, Ub = 99, Stride = 1;
  EXPECT_DEATH(
      RT.forStaticInit(SchedDynamic, &Last, &Lb, &Ub, &Stride, 1, 0),
      "unsupported schedule");
}
#endif

TEST(StatsTest, WorkerWakePolicyIsObservable) {
  OpenMPRuntime &RT = freshRuntime();
  // First fork spawns the workers (no wake); subsequent forks re-dispatch
  // parked workers through the chosen waiting policy.
  RT.setSpinCount(0); // park = sleep immediately
  RT.forkCall([](int) {}, 4);
  RT.forkCall([](int) {}, 4);
  RT.forkCall([](int) {}, 4);
  OpenMPRuntime::StatsSnapshot S = RT.statsSnapshot();
  EXPECT_EQ(S.NumTeamReuses, 2u);
  EXPECT_GE(S.WorkerSleepWakes + S.WorkerSpinWakes, 6u);
  // Whether a parked worker is woken through the sleep or the spin path
  // depends on it reaching the park point before the next dispatch; only
  // guaranteed when the team fits the hardware.
  if (!oversubscribed(4)) {
    EXPECT_GE(S.WorkerSleepWakes, 1u);
  }
  RT.setSpinCount(-1);
}

TEST(StatsTest, RenderStatsMentionsEveryCounterGroup) {
  OpenMPRuntime &RT = freshRuntime();
  RT.forkCall([](int) {}, 2);
  std::string Text =
      mcc::stats::render({statsComponent(RT.statsSnapshot())},
                         mcc::stats::Format::Text);
  for (const char *Needle :
       {"forks:", "threads:", "chunks:", "barriers:", "workers:", "hot="})
    EXPECT_NE(Text.find(Needle), std::string::npos) << Needle;
}

} // namespace
