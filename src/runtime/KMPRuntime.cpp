#include "runtime/KMPRuntime.h"

#include "support/StrictParse.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mcc::rt {

namespace {

struct ThreadContext {
  ThreadTeam *Team = nullptr;
  int Tid = 0;
  // Set while a serial (outside-parallel) worksharing loop borrows the
  // thread-local serial team; cleared when the loop drains so the team
  // pointer does not leak past the loop.
  bool SerialDispatch = false;
};
thread_local ThreadContext CurrentContext;

/// One spin-wait step with exponential backoff: the pause burst doubles
/// until it saturates, after which the waiter yields its timeslice.
struct Backoff {
  int Burst = 1;
  void pause() {
    for (int I = 0; I < Burst; ++I) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("isb" ::: "memory");
#else
      std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
    }
    if (Burst < 64)
      Burst <<= 1;
    else
      std::this_thread::yield();
  }
};

/// Spin on \p Done until it returns true or the budget runs out.
/// Returns true when the condition was met while spinning.
template <typename Pred> bool spinUntil(Pred Done, int SpinBudget) {
  Backoff BO;
  for (int I = 0; I < SpinBudget; ++I) {
    if (Done())
      return true;
    BO.pause();
  }
  return false;
}

} // namespace

// ===--------------------------- ThreadTeam ---------------------------=== //

ThreadTeam::ThreadTeam(int NumThreads) : NumThreads(NumThreads) {
  Dispatch.PerThreadIndex.resize(static_cast<std::size_t>(NumThreads));
}

void ThreadTeam::barrier() {
  if (NumThreads <= 1)
    return;
  OpenMPRuntime &RT = OpenMPRuntime::get();
  std::uint64_t Sense = BarrierSense.load(std::memory_order_acquire);
  if (BarrierArrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      NumThreads) {
    // Last arriver: reset the counter for the next phase *before* flipping
    // the sense, then wake sleepers. Taking the mutex around notify_all
    // pairs with the waiter's locked predicate check (no lost wakeups).
    BarrierArrived.store(0, std::memory_order_relaxed);
    BarrierSense.store(Sense + 1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> Lock(BarrierMutex);
      BarrierCV.notify_all();
    }
    return;
  }
  auto Released = [&] {
    return BarrierSense.load(std::memory_order_acquire) != Sense;
  };
  if (spinUntil(Released, RT.effectiveSpinCount(NumThreads))) {
    RT.stats().BarrierSpinWakes.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    std::unique_lock<std::mutex> Lock(BarrierMutex);
    BarrierCV.wait(Lock, Released);
  }
  RT.stats().BarrierSleepWakes.fetch_add(1, std::memory_order_relaxed);
}

void ThreadTeam::dispatchInit(int Tid, std::int32_t Sched, std::int64_t Lb,
                              std::int64_t Ub, std::int64_t Chunk) {
  (void)Tid;
  // Every team member calls dispatch_init; the first arrival of an epoch
  // initializes the shared state. This is the only lock on the dispatch
  // path — the per-chunk fast path below is lock-free.
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  if (DispatchInitCount == 0) {
    Dispatch.Sched = Sched;
    Dispatch.Lb = Lb;
    Dispatch.Ub = Ub;
    Dispatch.Chunk = std::max<std::int64_t>(Chunk, 1);
    Dispatch.Next.store(Lb, std::memory_order_relaxed);
    for (PaddedIndex &PI : Dispatch.PerThreadIndex)
      PI.Value = 0;
  }
  DispatchInitCount = (DispatchInitCount + 1) % NumThreads;
}

bool ThreadTeam::dispatchNext(int Tid, std::int32_t *PLast,
                              std::int64_t *PLower, std::int64_t *PUpper) {
  OpenMPRuntime::Stats &S = OpenMPRuntime::get().stats();
  switch (Dispatch.Sched) {
  case SchedStaticChunked: {
    // Deterministic round-robin: thread t takes chunks t, t+T, t+2T, ...
    // PerThreadIndex entries are cache-line-padded, so this touches no
    // shared line.
    std::int64_t ChunkIndex =
        Dispatch.PerThreadIndex[static_cast<std::size_t>(Tid)].Value;
    std::int64_t Start =
        Dispatch.Lb + (ChunkIndex * NumThreads + Tid) * Dispatch.Chunk;
    if (Start > Dispatch.Ub)
      return false;
    Dispatch.PerThreadIndex[static_cast<std::size_t>(Tid)].Value =
        ChunkIndex + 1;
    std::int64_t End = std::min(Start + Dispatch.Chunk - 1, Dispatch.Ub);
    *PLower = Start;
    *PUpper = End;
    *PLast = End == Dispatch.Ub;
    S.NumChunksStaticChunked.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  case SchedGuided: {
    // Lock-free guided: claim a proportional chunk with a CAS loop on
    // Next. Losing the race reloads and recomputes from the fresh value.
    std::int64_t Next = Dispatch.Next.load(std::memory_order_relaxed);
    std::int64_t Size;
    do {
      if (Next > Dispatch.Ub)
        return false;
      std::int64_t Remaining = Dispatch.Ub - Next + 1;
      // Guided: proportional chunks, never below the minimum chunk size.
      Size = std::max<std::int64_t>(Remaining / (2 * NumThreads),
                                    Dispatch.Chunk);
      Size = std::min(Size, Remaining);
    } while (!Dispatch.Next.compare_exchange_weak(
        Next, Next + Size, std::memory_order_relaxed,
        std::memory_order_relaxed));
    *PLower = Next;
    *PUpper = Next + Size - 1;
    *PLast = *PUpper == Dispatch.Ub;
    S.NumChunksGuided.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  case SchedDynamic:
  default: {
    std::int64_t Start =
        Dispatch.Next.fetch_add(Dispatch.Chunk, std::memory_order_relaxed);
    if (Start > Dispatch.Ub)
      return false;
    std::int64_t End = std::min(Start + Dispatch.Chunk - 1, Dispatch.Ub);
    *PLower = Start;
    *PUpper = End;
    *PLast = End == Dispatch.Ub;
    S.NumChunksDynamic.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  }
}

void ThreadTeam::dispatchFini(int Tid) { (void)Tid; }

// ===-------------------------- OpenMPRuntime -------------------------=== //

OpenMPRuntime &OpenMPRuntime::get() {
  static OpenMPRuntime Instance;
  return Instance;
}

OpenMPRuntime::EnvKnobs OpenMPRuntime::readEnvKnobs(std::string *Error) {
  EnvKnobs K;
  K.SpinCount = readEnv<int>(
      "MCC_RT_SPIN",
      [](std::string_view V, int &Out) {
        const char *End = V.data() + V.size();
        auto [Ptr, Ec] = std::from_chars(V.data(), End, Out);
        return Ec == std::errc() && Ptr == End;
      },
      "a whole decimal int", Error);
  K.HotTeams = readEnv<bool>("MCC_RT_HOT_TEAMS", parseBit, "0 or 1", Error);
  return K;
}

OpenMPRuntime::OpenMPRuntime() {
  EnvKnobs K = readEnvKnobs();
  if (K.SpinCount)
    setSpinCount(*K.SpinCount);
  if (K.HotTeams)
    setHotTeamsEnabled(*K.HotTeams);
}

OpenMPRuntime::~OpenMPRuntime() { shutdown(); }

int OpenMPRuntime::effectiveSpinCount(int Waiters) const {
  int Override = SpinCountOverride.load(std::memory_order_relaxed);
  if (Override >= 0)
    return Override;
  static const int HW = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  // Oversubscribed: a spinning waiter steals the timeslice of the very
  // thread it is waiting for — block immediately (libomp's blocktime=0).
  if (Waiters > HW)
    return 0;
  return 8192;
}

int OpenMPRuntime::getThreadNum() const { return CurrentContext.Tid; }

int OpenMPRuntime::getNumThreads() const {
  return CurrentContext.Team ? CurrentContext.Team->getNumThreads() : 1;
}

ThreadTeam *OpenMPRuntime::getCurrentTeam() const {
  return CurrentContext.Team;
}

void OpenMPRuntime::workerLoop(WorkerSlot &Slot, int PoolIndex) {
  const int Tid = PoolIndex + 1;
  for (;;) {
    auto Dispatched = [&] {
      return Slot.GoEpoch.load(std::memory_order_acquire) != Slot.SeenEpoch;
    };
    // Budget by this worker's own slot: if it is dispatched at all, the
    // team has at least PoolIndex + 2 threads. (CurrentRegion cannot be
    // consulted here — the master may be rewriting it for a region this
    // worker is not part of.)
    bool Spun = spinUntil(Dispatched, effectiveSpinCount(PoolIndex + 2));
    if (!Spun) {
      // Publish intent to sleep, then recheck under the slot mutex. The
      // master's GoEpoch store is sequenced before its Sleeping load, so
      // either it sees Sleeping and notifies under the lock, or this
      // thread's locked predicate check sees the new epoch.
      Slot.Sleeping.store(true, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> Lock(Slot.SleepMutex);
        Slot.SleepCV.wait(Lock, Dispatched);
      }
      Slot.Sleeping.store(false, std::memory_order_relaxed);
    }
    if (Slot.Exit.load(std::memory_order_relaxed))
      return;
    Slot.SeenEpoch = Slot.GoEpoch.load(std::memory_order_acquire);
    (Spun ? Counters.WorkerSpinWakes : Counters.WorkerSleepWakes)
        .fetch_add(1, std::memory_order_relaxed);

    // The master wrote the region before bumping GoEpoch and will not
    // rewrite it until every dispatched worker checked in below.
    RegionDesc Region = CurrentRegion;
    CurrentContext.Team = Region.Team;
    CurrentContext.Tid = Tid;
    (*Region.Outlined)(Tid);
    CurrentContext = ThreadContext{};

    if (JoinCount.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        Region.NumWorkers) {
      std::lock_guard<std::mutex> Lock(JoinMutex);
      JoinCV.notify_one();
    }
  }
}

void OpenMPRuntime::ensurePoolSize(int NumWorkers) {
  while (static_cast<int>(Pool.size()) < NumWorkers) {
    int PoolIndex = static_cast<int>(Pool.size());
    WorkerSlot &Slot = Pool.emplace_back();
    Slot.Thread =
        std::thread([this, &Slot, PoolIndex] { workerLoop(Slot, PoolIndex); });
    Counters.NumPoolThreadsSpawned.fetch_add(1, std::memory_order_relaxed);
  }
}

void OpenMPRuntime::runHotRegion(const std::function<void(int)> &Outlined,
                                 int N) {
  Counters.NumHotTeamForks.fetch_add(1, std::memory_order_relaxed);
  if (HotTeam && HotTeam->getNumThreads() == N)
    Counters.NumTeamReuses.fetch_add(1, std::memory_order_relaxed);
  else
    HotTeam = std::make_unique<ThreadTeam>(N);
  ensurePoolSize(N - 1);

  JoinCount.store(0, std::memory_order_relaxed);
  CurrentRegion.Outlined = &Outlined;
  CurrentRegion.Team = HotTeam.get();
  CurrentRegion.NumWorkers = N - 1;
  ++PoolEpoch;
  for (int I = 0; I < N - 1; ++I) {
    WorkerSlot &Slot = Pool[static_cast<std::size_t>(I)];
    Slot.GoEpoch.store(PoolEpoch, std::memory_order_seq_cst);
    if (Slot.Sleeping.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> Lock(Slot.SleepMutex);
      Slot.SleepCV.notify_one();
    }
  }

  // The encountering thread becomes thread 0 of the team.
  ThreadContext SavedContext = CurrentContext;
  CurrentContext.Team = HotTeam.get();
  CurrentContext.Tid = 0;
  CurrentContext.SerialDispatch = false;
  std::exception_ptr MasterError;
  try {
    Outlined(0);
  } catch (...) {
    MasterError = std::current_exception();
  }
  CurrentContext = SavedContext;

  // Join: wait for every dispatched worker to check in, spinning first so
  // short regions never pay a futex round-trip.
  const int Need = N - 1;
  auto Joined = [&] {
    return JoinCount.load(std::memory_order_acquire) == Need;
  };
  if (!spinUntil(Joined, effectiveSpinCount(N))) {
    std::unique_lock<std::mutex> Lock(JoinMutex);
    JoinCV.wait(Lock, Joined);
  }
  if (MasterError)
    std::rethrow_exception(MasterError);
}

void OpenMPRuntime::runTransientRegion(
    const std::function<void(int)> &Outlined, int N) {
  Counters.NumTransientForks.fetch_add(1, std::memory_order_relaxed);
  ThreadTeam Team(N);
  ThreadContext SavedContext = CurrentContext;

  std::vector<std::thread> Workers;
  Workers.reserve(static_cast<std::size_t>(N - 1));
  for (int Tid = 1; Tid < N; ++Tid) {
    Workers.emplace_back([&Team, &Outlined, Tid] {
      CurrentContext.Team = &Team;
      CurrentContext.Tid = Tid;
      Outlined(Tid);
      CurrentContext = ThreadContext{};
    });
    Counters.NumTransientThreadsSpawned.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  // The encountering thread becomes thread 0 of the team.
  CurrentContext.Team = &Team;
  CurrentContext.Tid = 0;
  CurrentContext.SerialDispatch = false;
  std::exception_ptr MasterError;
  try {
    Outlined(0);
  } catch (...) {
    MasterError = std::current_exception();
  }
  CurrentContext = SavedContext;

  for (std::thread &W : Workers)
    W.join();
  if (MasterError)
    std::rethrow_exception(MasterError);
}

void OpenMPRuntime::forkCall(const std::function<void(int)> &Outlined,
                             int NumThreads) {
  int N = NumThreads > 0 ? NumThreads : getDefaultNumThreads();
  Counters.NumForkJoins.fetch_add(1, std::memory_order_relaxed);

  // Hot path: a top-level region whose pool is free. Nested regions (and
  // concurrent top-level forks from other application threads) go
  // transient so pooled workers are never re-entered recursively.
  if (hotTeamsEnabled() && CurrentContext.Team == nullptr) {
    std::unique_lock<std::mutex> PoolLock(ForkMutex, std::try_to_lock);
    if (PoolLock.owns_lock()) {
      runHotRegion(Outlined, N);
      return;
    }
  }
  runTransientRegion(Outlined, N);
}

void OpenMPRuntime::forStaticInit(std::int32_t Sched, std::int32_t *PLast,
                                  std::int64_t *PLower, std::int64_t *PUpper,
                                  std::int64_t *PStride, std::int64_t Incr,
                                  std::int64_t Chunk) const {
  // Only the unchunked static schedule lowers through for_static_init
  // (chunked/dynamic schedules go through the dispatcher). Fail loudly —
  // not via assert, which vanishes in release builds — so a future
  // static-chunked lowering cannot silently receive wrong bounds.
  if (Sched != SchedStatic) {
    std::fprintf(stderr,
                 "KMPRuntime: __kmpc_for_static_init called with "
                 "unsupported schedule %d (only %d/static is lowered "
                 "through for_static_init; chunked and dynamic schedules "
                 "use __kmpc_dispatch_*)\n",
                 Sched, SchedStatic);
    std::abort();
  }
  (void)Chunk;
  assert(Incr == 1 && "logical iteration space uses unit increments");
  (void)Incr;
  OpenMPRuntime::get().Counters.NumChunksStatic.fetch_add(
      1, std::memory_order_relaxed);
  int NumThreads = getNumThreads();
  int Tid = getThreadNum();
  std::int64_t Lb = *PLower;
  std::int64_t Ub = *PUpper;
  std::int64_t Total = Ub >= Lb ? Ub - Lb + 1 : 0;

  // schedule(static) without a chunk: one balanced contiguous chunk per
  // thread, the first (Total % NumThreads) threads get one extra item.
  std::int64_t Base = Total / NumThreads;
  std::int64_t Extra = Total % NumThreads;
  std::int64_t MyCount = Base + (Tid < Extra ? 1 : 0);
  std::int64_t MyStart =
      Lb + Tid * Base + std::min<std::int64_t>(Tid, Extra);
  if (MyCount == 0) {
    // Empty range: lb > ub signals no iterations.
    *PLower = 1;
    *PUpper = 0;
    *PLast = 0;
  } else {
    *PLower = MyStart;
    *PUpper = MyStart + MyCount - 1;
    *PLast = (*PUpper == Ub) ? 1 : 0;
  }
  *PStride = Total;
}

void OpenMPRuntime::dispatchInit(std::int32_t Sched, std::int64_t Lb,
                                 std::int64_t Ub, std::int64_t Chunk) const {
  ThreadTeam *Team = getCurrentTeam();
  if (Team) {
    Team->dispatchInit(getThreadNum(), Sched, Lb, Ub, Chunk);
    return;
  }
  // Outside a parallel region: serial team of one, released again when
  // the loop drains (dispatchNext -> false) or dispatchFini runs.
  static thread_local ThreadTeam SerialTeam(1);
  CurrentContext.Team = &SerialTeam;
  CurrentContext.SerialDispatch = true;
  SerialTeam.dispatchInit(0, Sched, Lb, Ub, Chunk);
}

bool OpenMPRuntime::dispatchNext(std::int32_t *PLast, std::int64_t *PLower,
                                 std::int64_t *PUpper) const {
  ThreadTeam *Team = getCurrentTeam();
  assert(Team && "dispatch_next outside a worksharing loop");
  bool More = Team->dispatchNext(getThreadNum(), PLast, PLower, PUpper);
  if (!More && CurrentContext.SerialDispatch) {
    // The serial worksharing loop drained: restore the outside-parallel
    // context instead of leaking the serial team pointer.
    CurrentContext.Team = nullptr;
    CurrentContext.SerialDispatch = false;
  }
  return More;
}

void OpenMPRuntime::dispatchFini() const {
  if (ThreadTeam *Team = getCurrentTeam())
    Team->dispatchFini(getThreadNum());
  if (CurrentContext.SerialDispatch) {
    CurrentContext.Team = nullptr;
    CurrentContext.SerialDispatch = false;
  }
}

void OpenMPRuntime::barrier() const {
  if (ThreadTeam *Team = getCurrentTeam())
    Team->barrier();
}

void OpenMPRuntime::critical() const {
  if (ThreadTeam *Team = getCurrentTeam())
    Team->CriticalMutex.lock();
}

void OpenMPRuntime::endCritical() const {
  if (ThreadTeam *Team = getCurrentTeam())
    Team->CriticalMutex.unlock();
}

OpenMPRuntime::StatsSnapshot OpenMPRuntime::statsSnapshot() const {
  StatsSnapshot S;
#define RUNTIME_STAT(Group, Name, Field)                                       \
  S.Field = Counters.Field.load(std::memory_order_relaxed);
#include "runtime/RuntimeStats.def"
  return S;
}

void OpenMPRuntime::resetStats() {
#define RUNTIME_STAT(Group, Name, Field)                                       \
  Counters.Field.store(0, std::memory_order_relaxed);
#include "runtime/RuntimeStats.def"
}

stats::Component statsComponent(const OpenMPRuntime::StatsSnapshot &S) {
  stats::Component C{"runtime", {}};
#define RUNTIME_STAT(Group, Name, Field) C.add(#Group, #Name, S.Field);
#include "runtime/RuntimeStats.def"
  return C;
}

void OpenMPRuntime::shutdown() {
  std::lock_guard<std::mutex> PoolLock(ForkMutex);
  for (WorkerSlot &Slot : Pool) {
    Slot.Exit.store(true, std::memory_order_relaxed);
    Slot.GoEpoch.fetch_add(1, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> Lock(Slot.SleepMutex);
      Slot.SleepCV.notify_one();
    }
    Slot.Thread.join();
  }
  Pool.clear();
  HotTeam.reset();
  CurrentRegion = RegionDesc{};
  PoolEpoch = 0;
}

} // namespace mcc::rt
