//===--- Server.cpp - Multi-tenant compile daemon --------------------------===//
#include "net/Server.h"

#include "service/JobSpec.h"

#include <algorithm>
#include <chrono>

#include <unistd.h>

namespace mcc::net {

Server::Server(svc::CompileService &Service, ServerOptions O)
    : Service(Service), Opts(std::move(O)) {}

Server::~Server() { shutdown(); }

unsigned Server::dispatchCap() const {
  if (Opts.MaxDispatched)
    return Opts.MaxDispatched;
  return 2 * std::max(1u, Service.getOptions().NumWorkers);
}

bool Server::start(std::string &Error) {
  Listener = Socket::listenUnix(Opts.SocketPath, /*Backlog=*/64, Error);
  if (!Listener.valid())
    return false;
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

//===----------------------------------------------------------------------===//
// Accept / read
//===----------------------------------------------------------------------===//

void Server::acceptLoop() {
  while (!StopAccepting.load(std::memory_order_acquire)) {
    // Short poll so a shutdown request is observed promptly even with no
    // connection traffic.
    if (!Listener.pollReadable(/*TimeoutMs=*/100))
      continue;
    Socket Conn = Listener.accept();
    if (!Conn.valid())
      continue;
    auto C = std::make_shared<Connection>();
    C->Sock = std::move(Conn);
    Counters.Connections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(M);
    C->Reader = std::thread([this, C] { readerLoop(C); });
    Connections.push_back(C);
  }
}

void Server::readerLoop(const std::shared_ptr<Connection> &C) {
  FrameDecoder Decoder;
  char Buf[64 << 10];
  for (;;) {
    long N = C->Sock.recvSome(Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Decoder.append(Buf, static_cast<std::size_t>(N));
    std::string Error;
    while (auto F = Decoder.next(Error))
      handleFrame(C, std::move(*F));
    if (!Error.empty())
      break; // protocol violation: drop the connection
  }
  // Client gone: abandon its queued jobs (results have nowhere to go).
  // Jobs already in the pool complete; onJobDone sees Open=false and
  // discards the result.
  std::lock_guard<std::mutex> Lock(M);
  C->Open = false;
  TotalPending -= static_cast<unsigned>(C->Pending.size());
  C->InFlight -= static_cast<unsigned>(C->Pending.size());
  C->Pending.clear();
  if (TotalPending == 0 && TotalDispatched == 0)
    DrainCV.notify_all();
}

//===----------------------------------------------------------------------===//
// Frame handling
//===----------------------------------------------------------------------===//

void Server::sendFrame(const std::shared_ptr<Connection> &C, MsgType Type,
                       std::uint64_t JobId, std::string Payload) {
  Frame F;
  F.Type = Type;
  F.JobId = JobId;
  F.Payload = std::move(Payload);
  std::string Bytes = encodeFrame(F);
  std::lock_guard<std::mutex> Lock(C->WriteMutex);
  C->Sock.sendAll(Bytes.data(), Bytes.size());
}

void Server::handleFrame(const std::shared_ptr<Connection> &C, Frame F) {
  switch (F.Type) {
  case MsgType::Submit:
    handleSubmit(C, std::move(F));
    return;
  case MsgType::Cancel:
    handleCancel(C, F.JobId);
    return;
  case MsgType::Stats: {
    StatsMsg S;
    bool JSON = decodeStats(F.Payload, S) && S.JSON;
    sendFrame(C, MsgType::StatsReply, F.JobId,
              encodeStatsReply(stats::render(
                  statsComponents(),
                  JSON ? stats::Format::JSON : stats::Format::Text)));
    return;
  }
  case MsgType::Shutdown:
    sendFrame(C, MsgType::ShutdownAck, F.JobId, std::string());
    requestShutdown();
    return;
  default:
    // Server-to-client types arriving at the server: ignore rather than
    // kill the connection (a lenient reader keeps version skew debuggable).
    return;
  }
}

void Server::handleSubmit(const std::shared_ptr<Connection> &C, Frame F) {
  auto Reject = [&](RejectCode Code, std::uint32_t RetryMs,
                    std::string Msg) {
    RejectMsg R;
    R.Code = Code;
    R.RetryAfterMs = RetryMs;
    R.Message = std::move(Msg);
    sendFrame(C, MsgType::Reject, F.JobId, encodeReject(R));
  };

  SubmitMsg Sub;
  if (!decodeSubmit(F.Payload, Sub)) {
    Counters.RejectedMalformed.fetch_add(1, std::memory_order_relaxed);
    Reject(RejectCode::Malformed, 0, "undecodable submit payload");
    return;
  }
  svc::CompileJob Job;
  Job.Path = Sub.Path.empty() ? "input.c" : Sub.Path;
  Job.Source = std::move(Sub.Source);
  for (const std::string &W : svc::splitJobWords(Sub.Flags)) {
    std::string Error;
    if (!svc::parseJobFlagWord(W, Job, Error)) {
      Counters.RejectedMalformed.fetch_add(1, std::memory_order_relaxed);
      Reject(RejectCode::Malformed, 0, Error);
      return;
    }
  }

  {
    std::lock_guard<std::mutex> Lock(M);
    if (Draining) {
      Counters.RejectedShutdown.fetch_add(1, std::memory_order_relaxed);
      Reject(RejectCode::ShuttingDown, 0, "daemon is draining");
      return;
    }
    if (C->Dispatched.count(F.JobId) ||
        std::any_of(C->Pending.begin(), C->Pending.end(),
                    [&](const PendingJob &P) { return P.JobId == F.JobId; })) {
      Counters.RejectedMalformed.fetch_add(1, std::memory_order_relaxed);
      Reject(RejectCode::Malformed, 0, "duplicate job id in flight");
      return;
    }
    if (C->InFlight >= Opts.PerClientInFlight) {
      Counters.RejectedQuota.fetch_add(1, std::memory_order_relaxed);
      Reject(RejectCode::Quota, Opts.RetryAfterMs,
             "per-client in-flight quota (" +
                 std::to_string(Opts.PerClientInFlight) + ") exceeded");
      return;
    }
    if (TotalPending >= Opts.MaxPendingJobs) {
      Counters.RejectedBusy.fetch_add(1, std::memory_order_relaxed);
      Reject(RejectCode::Busy, Opts.RetryAfterMs,
             "admission queue full (" + std::to_string(Opts.MaxPendingJobs) +
                 " jobs)");
      return;
    }
    C->Pending.push_back({F.JobId, std::move(Job)});
    ++C->InFlight;
    ++TotalPending;
    Counters.Accepted.fetch_add(1, std::memory_order_relaxed);
    pumpLocked();
  }
}

void Server::handleCancel(const std::shared_ptr<Connection> &C,
                          std::uint64_t JobId) {
  bool SendCancelled = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = std::find_if(C->Pending.begin(), C->Pending.end(),
                           [&](const PendingJob &P) { return P.JobId == JobId; });
    if (It != C->Pending.end()) {
      // Not yet dispatched: the job simply never runs.
      C->Pending.erase(It);
      --C->InFlight;
      --TotalPending;
      SendCancelled = true;
      Counters.Cancelled.fetch_add(1, std::memory_order_relaxed);
      if (TotalPending == 0 && TotalDispatched == 0)
        DrainCV.notify_all();
    } else if (C->Dispatched.count(JobId)) {
      // Already compiling: the compile completes (it is shared, cached
      // work), but this client's result is reported Cancelled.
      C->CancelledInFlight.insert(JobId);
      Counters.Cancelled.fetch_add(1, std::memory_order_relaxed);
    }
    // Unknown/already-completed ids are ignored: the result (or nothing)
    // was already sent and a late Cancel must not confuse the stream.
  }
  if (SendCancelled) {
    ResultMsg R;
    R.Status = ResultStatus::Cancelled;
    sendFrame(C, MsgType::Result, JobId, encodeResult(R));
  }
}

//===----------------------------------------------------------------------===//
// Dispatch (fair round-robin) and completion
//===----------------------------------------------------------------------===//

void Server::pumpLocked() {
  const unsigned Cap = dispatchCap();
  while (TotalDispatched < Cap && TotalPending > 0 && !Connections.empty()) {
    // One job per client per turn: the cursor remembers whose turn it is
    // across pump calls, so bursts from one client interleave with
    // everyone else's queue.
    std::size_t Scanned = 0;
    std::shared_ptr<Connection> Next;
    while (Scanned < Connections.size()) {
      std::shared_ptr<Connection> &Cand =
          Connections[RRCursor % Connections.size()];
      RRCursor = (RRCursor + 1) % std::max<std::size_t>(1, Connections.size());
      ++Scanned;
      if (Cand->Open && !Cand->Pending.empty()) {
        Next = Cand;
        break;
      }
    }
    if (!Next)
      return; // pending jobs all belong to closed connections (impossible
              // by invariant, but keep the loop safe)
    PendingJob PJ = std::move(Next->Pending.front());
    Next->Pending.pop_front();
    --TotalPending;
    ++TotalDispatched;
    Next->Dispatched.insert(PJ.JobId);
    const std::uint64_t JobId = PJ.JobId;
    Service.enqueueAsync(std::move(PJ.Job),
                         [this, Next, JobId](const svc::CompileResult &R) {
                           onJobDone(Next, JobId, R);
                         });
  }
}

void Server::onJobDone(const std::shared_ptr<Connection> &C,
                       std::uint64_t JobId, const svc::CompileResult &R) {
  bool Deliver = false;
  bool Cancelled = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    --TotalDispatched;
    C->Dispatched.erase(JobId);
    --C->InFlight;
    Cancelled = C->CancelledInFlight.erase(JobId) > 0;
    Deliver = C->Open;
    Counters.Completed.fetch_add(1, std::memory_order_relaxed);
    pumpLocked();
    if (TotalPending == 0 && TotalDispatched == 0)
      DrainCV.notify_all();
  }
  if (!Deliver)
    return;
  ResultMsg Msg;
  if (Cancelled)
    Msg.Status = ResultStatus::Cancelled;
  else
    Msg.Status = R.Succeeded ? ResultStatus::Ok : ResultStatus::CompileFail;
  Msg.Executed = R.Executed;
  Msg.ExitValue = R.ExitValue;
  Msg.Diagnostics = R.Diagnostics;
  if (R.Trace.DiskHit)
    Msg.Trace = TraceLevel::Disk;
  else if (R.Trace.L3Hit)
    Msg.Trace = TraceLevel::L3;
  else if (R.Trace.L2Hit)
    Msg.Trace = TraceLevel::L2;
  else if (R.Trace.L1Hit)
    Msg.Trace = TraceLevel::L1;
  else
    Msg.Trace = TraceLevel::Cold;
  sendFrame(C, MsgType::Result, JobId, encodeResult(Msg));
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

void Server::requestShutdown() {
  ShutdownFlag.store(true, std::memory_order_release);
  ShutdownCV.notify_all();
}

bool Server::waitForShutdownRequest(int TimeoutMs) {
  std::unique_lock<std::mutex> Lock(ShutdownMutex);
  auto Requested = [this] { return shutdownRequested(); };
  if (TimeoutMs < 0)
    ShutdownCV.wait(Lock, Requested);
  else
    ShutdownCV.wait_for(Lock, std::chrono::milliseconds(TimeoutMs), Requested);
  return shutdownRequested();
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(ShutdownMutex);
    if (ShutdownDone)
      return;
    ShutdownDone = true;
  }
  requestShutdown();

  // 1. No new connections. Unlink the socket path too: a stale file would
  //    make a restarting daemon's clients poll a dead socket (ECONNREFUSED)
  //    instead of waiting for the new bind.
  StopAccepting.store(true, std::memory_order_release);
  if (AcceptThread.joinable())
    AcceptThread.join();
  Listener.close();
  ::unlink(Opts.SocketPath.c_str());

  // 2. No new admissions; drain what was admitted. Readers stay alive so
  //    clients receive their remaining results (and cancels/stats still
  //    work during the drain).
  std::vector<std::shared_ptr<Connection>> Conns;
  {
    std::unique_lock<std::mutex> Lock(M);
    Draining = true;
    pumpLocked();
    DrainCV.wait(Lock, [this] {
      return TotalPending == 0 && TotalDispatched == 0;
    });
    Conns = Connections;
  }

  // 3. Close connections and join their readers.
  for (auto &C : Conns)
    C->Sock.shutdownBoth();
  for (auto &C : Conns)
    if (C->Reader.joinable())
      C->Reader.join();
  {
    std::lock_guard<std::mutex> Lock(M);
    Connections.clear();
  }
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

ServerStatsSnapshot Server::statsSnapshot() const {
  ServerStatsSnapshot S;
#define SERVER_COUNTER(Group, Name, Field)                                     \
  S.Field = Counters.Field.load(std::memory_order_relaxed);
#include "net/ServerStats.def"
  std::lock_guard<std::mutex> Lock(M);
  S.PendingNow = TotalPending;
  S.DispatchedNow = TotalDispatched;
  return S;
}

stats::Component statsComponent(const ServerStatsSnapshot &S) {
  stats::Component C{"daemon", {}};
#define SERVER_COUNTER(Group, Name, Field) C.add(#Group, #Name, S.Field);
#define SERVER_GAUGE(Group, Name, Field) C.add(#Group, #Name, S.Field);
#include "net/ServerStats.def"
  return C;
}

std::vector<stats::Component> Server::statsComponents() const {
  return {svc::statsComponent(Service.statsSnapshot()),
          statsComponent(statsSnapshot())};
}

} // namespace mcc::net
