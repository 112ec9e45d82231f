//===--- KMPRuntime.h - Miniature OpenMP runtime ----------------*- C++ -*-===//
//
// The runtime the "early outlining" lowering targets (paper Section 1):
// generated IR contains no OpenMP constructs, only calls to these entry
// points. A miniature libomp built on std::thread:
//
//   * fork/join thread teams (__kmpc_fork_call) served by a persistent
//     "hot team" worker pool — workers are created once and re-dispatched
//     across consecutive parallel regions instead of being respawned,
//   * static worksharing-loop chunking (__kmpc_for_static_init),
//   * dynamic / guided / static-chunked dispatching (__kmpc_dispatch_*),
//     lock-free in the steady state,
//   * sense-reversing spin-then-block barriers and critical sections.
//
// All loop bookkeeping operates on the *logical iteration space* as i64
// bounds, matching the paper's normalized-iteration-counter design.
//
// Waiting policy: every wait site (worker parking, fork/join, barrier)
// first spins on a std::atomic with exponential backoff, then falls back
// to a mutex+condvar sleep. The spin budget adapts to the machine — a
// team that oversubscribes the hardware blocks immediately, because a
// spinning waiter would only steal cycles from the thread it waits for.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_RUNTIME_KMPRUNTIME_H
#define MCC_RUNTIME_KMPRUNTIME_H

#include "support/Stats.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace mcc::rt {

/// Alignment used to keep per-thread hot state on distinct cache lines.
inline constexpr std::size_t CacheLineBytes = 64;

/// Schedule identifiers shared with OpenMPIRBuilder (libomp-flavored).
enum ScheduleType : std::int32_t {
  SchedStaticChunked = 33,
  SchedStatic = 34,
  SchedDynamic = 35,
  SchedGuided = 36,
};

/// One fork/join region's team of threads.
///
/// Hot teams are owned by OpenMPRuntime and reused across consecutive
/// parallel regions of the same width; transient (nested/oversubscribed)
/// regions build a short-lived team on the stack.
class ThreadTeam {
public:
  explicit ThreadTeam(int NumThreads);

  [[nodiscard]] int getNumThreads() const { return NumThreads; }

  /// Sense-reversing spin-then-block barrier (reusable). The "sense" is a
  /// monotonically increasing generation word rather than a flipped bool,
  /// which keeps consecutive phases ABA-safe for sleepers that wake late.
  void barrier();

  // --- Dispatcher state (one worksharing loop at a time per team) ---
  void dispatchInit(int Tid, std::int32_t Sched, std::int64_t Lb,
                    std::int64_t Ub, std::int64_t Chunk);
  /// Fetches the next chunk for \p Tid; returns false when exhausted.
  /// Lock-free: dynamic uses fetch_add, guided a compare-exchange loop,
  /// static-chunked per-thread (cache-line-padded) indices.
  bool dispatchNext(int Tid, std::int32_t *PLast, std::int64_t *PLower,
                    std::int64_t *PUpper);
  void dispatchFini(int Tid);

  std::mutex CriticalMutex;

private:
  int NumThreads;

  // Barrier: arrival counter + generation ("sense") word on separate cache
  // lines, with a condvar fallback for waiters that exhaust their spin.
  alignas(CacheLineBytes) std::atomic<int> BarrierArrived{0};
  alignas(CacheLineBytes) std::atomic<std::uint64_t> BarrierSense{0};
  std::mutex BarrierMutex;
  std::condition_variable BarrierCV;

  // Dispatch. Bounds/schedule are written once per epoch under
  // DispatchMutex (the only remaining lock, init-path only); the hot
  // per-chunk path touches only Next / PerThreadIndex.
  struct alignas(CacheLineBytes) PaddedIndex {
    std::int64_t Value = 0;
  };
  struct DispatchState {
    std::int32_t Sched = SchedDynamic;
    std::int64_t Lb = 0, Ub = -1, Chunk = 1;
    alignas(CacheLineBytes) std::atomic<std::int64_t> Next{0};
    // Per-thread chunk index for static-chunked round-robin, padded to
    // cache-line granularity so neighbours do not false-share.
    std::vector<PaddedIndex> PerThreadIndex;
  };
  std::mutex DispatchMutex; // guards epoch initialization only
  DispatchState Dispatch;
  int DispatchInitCount = 0; // counts arrivals so init runs once per epoch
};

/// Process-wide runtime: owns default settings, the hot-team worker pool,
/// observability counters, and the per-thread context.
class OpenMPRuntime {
public:
  /// Observability counters, one atomic per row of RuntimeStats.def.
  struct Stats {
#define RUNTIME_STAT(Group, Name, Field) std::atomic<std::uint64_t> Field{0};
#include "runtime/RuntimeStats.def"
  };

  /// Plain (non-atomic) copy of Stats for assertions and printing.
  struct StatsSnapshot {
#define RUNTIME_STAT(Group, Name, Field) std::uint64_t Field = 0;
#include "runtime/RuntimeStats.def"
  };

  static OpenMPRuntime &get();
  ~OpenMPRuntime();

  void setDefaultNumThreads(int N) {
    DefaultNumThreads.store(N, std::memory_order_relaxed);
  }
  [[nodiscard]] int getDefaultNumThreads() const {
    return DefaultNumThreads.load(std::memory_order_relaxed);
  }

  /// Hot teams on (default): top-level regions reuse pooled workers.
  /// Off: every fork spawns transient threads (the pre-pool behaviour,
  /// kept selectable for A/B measurement in bench_runtime_overhead).
  void setHotTeamsEnabled(bool On) {
    HotTeamsEnabled.store(On, std::memory_order_relaxed);
  }
  [[nodiscard]] bool hotTeamsEnabled() const {
    return HotTeamsEnabled.load(std::memory_order_relaxed);
  }

  /// Spin budget before a waiter blocks. Negative (default) = adaptive:
  /// ~8k spins when the team fits the hardware, 0 when oversubscribed.
  /// 0 forces immediate sleep; large values force the spin path (tests).
  void setSpinCount(int N) {
    SpinCountOverride.store(N, std::memory_order_relaxed);
  }
  [[nodiscard]] int spinCount() const {
    return SpinCountOverride.load(std::memory_order_relaxed);
  }

  /// The runtime's environment knobs: MCC_RT_SPIN (a whole decimal int,
  /// as setSpinCount takes) and MCC_RT_HOT_TEAMS (0 or 1). An unset or bad
  /// variable leaves its field empty; a bad one also sets \p Error.
  struct EnvKnobs {
    std::optional<int> SpinCount;
    std::optional<bool> HotTeams;
  };
  static EnvKnobs readEnvKnobs(std::string *Error = nullptr);

  /// Resolved spin budget for a wait involving \p Waiters runnable
  /// threads (team size for barriers, team size for fork/join parking).
  [[nodiscard]] int effectiveSpinCount(int Waiters) const;

  /// Executes \p Outlined on a team of \p NumThreads (<= 0 selects the
  /// default). Thread 0 runs on the calling thread; the call returns after
  /// the join (fork/join semantics of "#pragma omp parallel"). Top-level
  /// regions are served by the persistent pool; nested regions — and
  /// concurrent top-level forks that find the pool busy — fall back to
  /// transient std::threads.
  void forkCall(const std::function<void(int Tid)> &Outlined,
                int NumThreads);

  // --- Entry points used while inside (or outside) a team ---
  [[nodiscard]] int getThreadNum() const;
  [[nodiscard]] int getNumThreads() const;
  [[nodiscard]] ThreadTeam *getCurrentTeam() const;

  void forStaticInit(std::int32_t Sched, std::int32_t *PLast,
                     std::int64_t *PLower, std::int64_t *PUpper,
                     std::int64_t *PStride, std::int64_t Incr,
                     std::int64_t Chunk) const;
  void forStaticFini() const {}

  void dispatchInit(std::int32_t Sched, std::int64_t Lb, std::int64_t Ub,
                    std::int64_t Chunk) const;
  bool dispatchNext(std::int32_t *PLast, std::int64_t *PLower,
                    std::int64_t *PUpper) const;
  void dispatchFini() const;

  void barrier() const;
  void critical() const;
  void endCritical() const;

  // --- Observability & lifecycle ---
  Stats &stats() { return Counters; }
  [[nodiscard]] StatsSnapshot statsSnapshot() const;
  void resetStats();

  /// Joins and destroys all pooled workers and drops the cached hot team.
  /// Safe to call repeatedly; the pool respawns lazily on the next fork.
  /// Tests call this for deterministic counters and TSan-clean exits.
  void shutdown();

private:
  OpenMPRuntime();

  // One pooled worker. Each slot owns its park/wake state so the master
  // wakes exactly the workers a region needs; slots live in a deque for
  // stable addresses across lazy pool growth.
  struct alignas(CacheLineBytes) WorkerSlot {
    std::atomic<std::uint64_t> GoEpoch{0}; // master bumps to dispatch
    std::atomic<bool> Sleeping{false};
    std::atomic<bool> Exit{false};
    std::mutex SleepMutex;
    std::condition_variable SleepCV;
    std::thread Thread;
    std::uint64_t SeenEpoch = 0; // worker-local
  };

  /// What the currently dispatched region runs. Written by the master
  /// before the GoEpoch release-store, read by workers after the acquire.
  struct RegionDesc {
    const std::function<void(int)> *Outlined = nullptr;
    ThreadTeam *Team = nullptr;
    int NumWorkers = 0;
  };

  void workerLoop(WorkerSlot &Slot, int PoolIndex);
  void ensurePoolSize(int NumWorkers);
  void runHotRegion(const std::function<void(int)> &Outlined, int N);
  void runTransientRegion(const std::function<void(int)> &Outlined, int N);

  // Config knobs are atomic: parked pool workers consult the spin budget
  // concurrently with tests/benchmarks mutating it.
  std::atomic<int> DefaultNumThreads{4};
  std::atomic<bool> HotTeamsEnabled{true};
  std::atomic<int> SpinCountOverride{-1};

  // Pool state; ForkMutex serializes top-level pool users (a concurrent
  // top-level fork that fails the try_lock goes transient instead).
  std::mutex ForkMutex;
  std::deque<WorkerSlot> Pool;
  std::unique_ptr<ThreadTeam> HotTeam;
  RegionDesc CurrentRegion;
  std::uint64_t PoolEpoch = 0;

  // Fork/join completion: workers count in, the master spin-then-blocks.
  alignas(CacheLineBytes) std::atomic<int> JoinCount{0};
  std::mutex JoinMutex;
  std::condition_variable JoinCV;

  Stats Counters;
};

/// The runtime's rows for the stats writer (support/Stats.h).
stats::Component statsComponent(const OpenMPRuntime::StatsSnapshot &S);

} // namespace mcc::rt

#endif // MCC_RUNTIME_KMPRUNTIME_H
