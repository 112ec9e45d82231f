//===--- Server.h - Multi-tenant compile daemon ----------------*- C++ -*-===//
//
// The socket front end over a CompileService: accepts Unix-domain
// connections, speaks the framed protocol (net/Protocol.h), and stands
// between greedy clients and the shared worker pool with three layers of
// admission control:
//
//  * Bounded accept queue. At most MaxPendingJobs admitted-but-undis-
//    patched jobs exist across all clients; past that, submits are
//    rejected with a typed Busy + retry-after hint instead of queueing
//    unboundedly (backpressure the client can act on).
//
//  * Per-client in-flight quota. A single connection may have at most
//    PerClientInFlight jobs pending+running; the quota rejects (typed
//    Quota) rather than silently serializing, so a misbehaving client
//    sees its own misbehaviour.
//
//  * Fair round-robin draining. Admitted jobs sit in per-connection
//    queues; a cursor hands them to the service pool one per client per
//    turn, so one client with 200 queued jobs cannot starve a client
//    with 1. The number of jobs released into the pool at once is capped
//    (2x workers) — fairness is enforced here, not in the pool's FIFO.
//
// Threading: one accept thread, one reader thread per connection, and
// completion callbacks on the service's worker threads. ServerMutex
// guards admission state; socket writes serialize on a per-connection
// mutex and never happen under ServerMutex.
//
// Graceful shutdown (SIGINT/SIGTERM or the shutdown verb): new submits
// are rejected ShuttingDown, already-admitted jobs drain through the
// pool and their results are delivered, then connections close. The
// caller (minicc-serve) then shuts the service down — which flushes the
// disk store index — and prints final stats.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_NET_SERVER_H
#define MCC_NET_SERVER_H

#include "net/Protocol.h"
#include "net/Socket.h"
#include "service/CompileService.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace mcc::net {

struct ServerOptions {
  std::string SocketPath;
  /// Bounded accept queue: max admitted-but-undispatched jobs, total.
  unsigned MaxPendingJobs = 256;
  /// Per-connection in-flight (pending + dispatched) quota.
  unsigned PerClientInFlight = 32;
  /// Retry hint attached to Busy rejections.
  unsigned RetryAfterMs = 20;
  /// Jobs released into the service pool at once; 0 = 2x service workers.
  unsigned MaxDispatched = 0;
};

/// The daemon's counters and gauges, one field per row of ServerStats.def.
struct ServerStatsSnapshot {
#define SERVER_COUNTER(Group, Name, Field) std::uint64_t Field = 0;
#define SERVER_GAUGE(Group, Name, Field) std::uint64_t Field = 0;
#include "net/ServerStats.def"
};

/// The daemon's rows for the stats writer (support/Stats.h).
stats::Component statsComponent(const ServerStatsSnapshot &S);

class Server {
public:
  Server(svc::CompileService &Service, ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts the accept thread.
  bool start(std::string &Error);

  /// Begins a graceful drain (idempotent, thread-safe; also triggered by
  /// the protocol's shutdown verb).
  void requestShutdown();
  [[nodiscard]] bool shutdownRequested() const {
    return ShutdownFlag.load(std::memory_order_acquire);
  }
  /// Blocks until requestShutdown() (from any source) or \p TimeoutMs.
  /// Returns shutdownRequested().
  bool waitForShutdownRequest(int TimeoutMs = -1);

  /// Drains admitted jobs, delivers their results, closes connections and
  /// joins all threads. Idempotent; also run by the destructor.
  void shutdown();

  [[nodiscard]] ServerStatsSnapshot statsSnapshot() const;
  /// The service's and the daemon's rows: what the stats verb renders.
  [[nodiscard]] std::vector<stats::Component> statsComponents() const;

  [[nodiscard]] const ServerOptions &getOptions() const { return Opts; }

private:
  struct PendingJob {
    std::uint64_t JobId;
    svc::CompileJob Job;
  };

  struct Connection {
    Socket Sock;
    std::mutex WriteMutex;
    std::thread Reader;
    // --- guarded by Server::M ---
    std::deque<PendingJob> Pending;
    std::unordered_set<std::uint64_t> Dispatched;
    std::unordered_set<std::uint64_t> CancelledInFlight;
    unsigned InFlight = 0; ///< Pending.size() + Dispatched.size()
    bool Open = true;
  };

  void acceptLoop();
  void readerLoop(const std::shared_ptr<Connection> &C);
  void handleFrame(const std::shared_ptr<Connection> &C, Frame F);
  void handleSubmit(const std::shared_ptr<Connection> &C, Frame F);
  void handleCancel(const std::shared_ptr<Connection> &C, std::uint64_t JobId);
  /// Releases pending jobs into the pool, round-robin across connections,
  /// until the dispatch cap is reached. Caller holds M.
  void pumpLocked();
  void onJobDone(const std::shared_ptr<Connection> &C, std::uint64_t JobId,
                 const svc::CompileResult &R);
  void sendFrame(const std::shared_ptr<Connection> &C, MsgType Type,
                 std::uint64_t JobId, std::string Payload);
  unsigned dispatchCap() const;

  svc::CompileService &Service;
  ServerOptions Opts;

  Socket Listener;
  std::thread AcceptThread;
  std::atomic<bool> StopAccepting{false};
  std::atomic<bool> ShutdownFlag{false};
  std::mutex ShutdownMutex;
  std::condition_variable ShutdownCV;
  bool ShutdownDone = false; ///< guarded by ShutdownMutex

  mutable std::mutex M;
  std::vector<std::shared_ptr<Connection>> Connections;
  std::size_t RRCursor = 0;
  unsigned TotalPending = 0;
  unsigned TotalDispatched = 0;
  std::condition_variable DrainCV;
  bool Draining = false; ///< submits rejected; guarded by M

  /// One atomic per SERVER_COUNTER row of ServerStats.def.
  struct {
#define SERVER_COUNTER(Group, Name, Field) std::atomic<std::uint64_t> Field{0};
#include "net/ServerStats.def"
  } Counters;
};

} // namespace mcc::net

#endif // MCC_NET_SERVER_H
