//===--- net_test.cpp - Compile daemon integration --------------------------===//
//
// Exercises the socket front end end-to-end, in process: a real Server
// over a real Unix-domain socket, driven by real Client connections.
// Covers the framed protocol round-trip, concurrent multi-client load
// (zero dropped jobs), cancellation mid-batch, observable admission
// control (typed Busy/Quota/Malformed rejections), the stats and
// shutdown verbs, drain-on-shutdown delivery guarantees, and
// warm-from-disk restarts answering byte-identically over the wire.
//
//===----------------------------------------------------------------------===//
#include "net/Client.h"
#include "net/Server.h"
#include "service/CompileService.h"

#include "gtest/gtest.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mcc;

namespace {

const char *const OkProgram = "int main(void) { return 7; }\n";
const char *const BadProgram = "int main(void) { return nope; }\n";
/// Slow enough under the walker interpreter to hold a worker for a while
/// (the window the cancellation/backpressure tests need), fast enough not
/// to dominate the suite.
const char *const HeavyProgram = "int main(void) {\n"
                                 "  int s = 0;\n"
                                 "  for (int i = 0; i < 2000000; i = i + 1)\n"
                                 "    s += i;\n"
                                 "  return s & 255;\n"
                                 "}\n";

class NetTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Unix socket paths are capped near 108 bytes: keep it short and
    // unique per test process.
    SockPath = "/tmp/mcc_net_" + std::to_string(::getpid()) + "_" +
               std::to_string(++Seq) + ".sock";
  }
  void TearDown() override {
    if (Server)
      Server->shutdown();
    if (Service)
      Service->shutdown();
    ::unlink(SockPath.c_str());
  }

  void startServer(svc::ServiceOptions SO, net::ServerOptions NO) {
    Service = std::make_unique<svc::CompileService>(SO);
    NO.SocketPath = SockPath;
    Server = std::make_unique<net::Server>(*Service, NO);
    std::string Error;
    ASSERT_TRUE(Server->start(Error)) << Error;
  }

  net::Client makeClient() {
    net::Client C;
    std::string Error;
    EXPECT_TRUE(C.connect(SockPath, Error)) << Error;
    return C;
  }

  static net::ClientEvent nextEvent(net::Client &C) {
    net::ClientEvent Ev;
    std::string Error;
    EXPECT_TRUE(C.next(Ev, Error)) << Error;
    return Ev;
  }

  std::string SockPath;
  std::unique_ptr<svc::CompileService> Service;
  std::unique_ptr<net::Server> Server;
  static unsigned Seq;
};

unsigned NetTest::Seq = 0;

} // namespace

TEST_F(NetTest, SubmitRoundTripMatchesInProcessCompile) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 2;
  startServer(SO, {});

  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "ok.c", "", OkProgram));
  ASSERT_TRUE(C.submit(2, "bad.c", "", BadProgram));
  ASSERT_TRUE(C.submit(3, "run.c", "-run", OkProgram));

  bool SawOk = false, SawFail = false, SawRun = false;
  std::string WireDiag;
  for (int K = 0; K < 3; ++K) {
    net::ClientEvent Ev = nextEvent(C);
    ASSERT_EQ(Ev.Type, net::MsgType::Result);
    switch (Ev.JobId) {
    case 1:
      EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
      EXPECT_FALSE(Ev.Result.Executed);
      SawOk = true;
      break;
    case 2:
      EXPECT_EQ(Ev.Result.Status, net::ResultStatus::CompileFail);
      EXPECT_FALSE(Ev.Result.Diagnostics.empty());
      WireDiag = Ev.Result.Diagnostics;
      SawFail = true;
      break;
    case 3:
      EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
      EXPECT_TRUE(Ev.Result.Executed);
      EXPECT_EQ(Ev.Result.ExitValue, 7);
      SawRun = true;
      break;
    default:
      FAIL() << "unexpected job id " << Ev.JobId;
    }
  }
  EXPECT_TRUE(SawOk && SawFail && SawRun);

  // The socket path serves the same bytes the in-process path produces.
  svc::CompileJob Job;
  Job.Path = "bad.c";
  Job.Source = BadProgram;
  EXPECT_EQ(Service->compile(Job).Diagnostics, WireDiag);
}

TEST_F(NetTest, ConcurrentClientsZeroDroppedJobs) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 4;
  net::ServerOptions NO;
  NO.PerClientInFlight = 64; // this test wants load, not rejections
  startServer(SO, NO);

  const unsigned Clients = 6, JobsEach = 8;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> OkCount{0};
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      net::Client C = makeClient();
      for (unsigned J = 0; J < JobsEach; ++J) {
        // Unique program per (client, job): every compile is real work.
        std::string Src = "int main(void) { return " +
                          std::to_string(T * 100 + J) + "; }\n";
        ASSERT_TRUE(C.submit(J + 1, "c.c", "-run", Src));
      }
      for (unsigned J = 0; J < JobsEach; ++J) {
        net::ClientEvent Ev = nextEvent(C);
        ASSERT_EQ(Ev.Type, net::MsgType::Result);
        ASSERT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
        // Verify the result is *this* job's, not a cross-wired one.
        EXPECT_EQ(Ev.Result.ExitValue,
                  static_cast<std::int64_t>(T * 100 + (Ev.JobId - 1)));
        OkCount.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(OkCount.load(), Clients * JobsEach);
  net::ServerStatsSnapshot S = Server->statsSnapshot();
  EXPECT_EQ(S.Accepted, Clients * JobsEach);
  EXPECT_EQ(S.Completed, Clients * JobsEach);
  EXPECT_EQ(S.PendingNow, 0u);
  EXPECT_EQ(S.DispatchedNow, 0u);
}

TEST_F(NetTest, CancellationMidBatch) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  net::ServerOptions NO;
  NO.MaxDispatched = 1; // jobs behind the heavy one stay pending
  startServer(SO, NO);

  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "heavy.c", "-run", HeavyProgram));
  ASSERT_TRUE(C.submit(2, "a.c", "", OkProgram));
  ASSERT_TRUE(C.submit(3, "b.c", "", "int main(void) { return 3; }\n"));
  ASSERT_TRUE(C.submit(4, "c.c", "", "int main(void) { return 4; }\n"));
  // Jobs 3 and 4 are pending behind the dispatched heavy job: cancelling
  // them must drop them before they ever reach the pool.
  ASSERT_TRUE(C.cancel(3));
  ASSERT_TRUE(C.cancel(4));

  unsigned Cancelled = 0, Completed = 0;
  for (int K = 0; K < 4; ++K) {
    net::ClientEvent Ev = nextEvent(C);
    ASSERT_EQ(Ev.Type, net::MsgType::Result);
    if (Ev.Result.Status == net::ResultStatus::Cancelled) {
      EXPECT_TRUE(Ev.JobId == 3 || Ev.JobId == 4);
      ++Cancelled;
    } else {
      EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
      EXPECT_TRUE(Ev.JobId == 1 || Ev.JobId == 2);
      ++Completed;
    }
  }
  EXPECT_EQ(Cancelled, 2u);
  EXPECT_EQ(Completed, 2u);
  EXPECT_EQ(Server->statsSnapshot().Cancelled, 2u);

  // Cancelled job ids are reusable afterwards.
  ASSERT_TRUE(C.submit(3, "b.c", "", "int main(void) { return 3; }\n"));
  net::ClientEvent Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Result);
  EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
}

TEST_F(NetTest, QuotaRejectionIsObservableAndTyped) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  net::ServerOptions NO;
  NO.MaxDispatched = 1;
  NO.PerClientInFlight = 2;
  NO.RetryAfterMs = 15;
  startServer(SO, NO);

  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "heavy.c", "-run", HeavyProgram));
  ASSERT_TRUE(C.submit(2, "a.c", "", OkProgram));
  ASSERT_TRUE(C.submit(3, "b.c", "", OkProgram)); // over quota
  ASSERT_TRUE(C.submit(4, "c.c", "", OkProgram)); // over quota

  unsigned QuotaRejects = 0, Results = 0;
  for (int K = 0; K < 4; ++K) {
    net::ClientEvent Ev = nextEvent(C);
    if (Ev.Type == net::MsgType::Reject) {
      EXPECT_EQ(Ev.Reject.Code, net::RejectCode::Quota);
      EXPECT_EQ(Ev.Reject.RetryAfterMs, 15u);
      EXPECT_TRUE(Ev.JobId == 3 || Ev.JobId == 4);
      ++QuotaRejects;
    } else {
      ASSERT_EQ(Ev.Type, net::MsgType::Result);
      ++Results;
    }
  }
  EXPECT_EQ(QuotaRejects, 2u);
  EXPECT_EQ(Results, 2u);
  EXPECT_EQ(Server->statsSnapshot().RejectedQuota, 2u);

  // After the batch drains, the same client is admitted again (the quota
  // is an in-flight gauge, not a strike count).
  ASSERT_TRUE(C.submit(5, "d.c", "", OkProgram));
  net::ClientEvent Ev = nextEvent(C);
  EXPECT_EQ(Ev.Type, net::MsgType::Result);
}

TEST_F(NetTest, BusyRejectionWhenAdmissionQueueIsFull) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  net::ServerOptions NO;
  NO.MaxDispatched = 1;
  NO.MaxPendingJobs = 1;
  NO.PerClientInFlight = 100;
  startServer(SO, NO);

  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "heavy.c", "-run", HeavyProgram)); // dispatched
  ASSERT_TRUE(C.submit(2, "a.c", "", OkProgram));            // fills the queue
  ASSERT_TRUE(C.submit(3, "b.c", "", OkProgram));            // bounced

  unsigned Busy = 0, Results = 0;
  for (int K = 0; K < 3; ++K) {
    net::ClientEvent Ev = nextEvent(C);
    if (Ev.Type == net::MsgType::Reject) {
      EXPECT_EQ(Ev.Reject.Code, net::RejectCode::Busy);
      EXPECT_GT(Ev.Reject.RetryAfterMs, 0u);
      EXPECT_EQ(Ev.JobId, 3u);
      ++Busy;
    } else {
      ASSERT_EQ(Ev.Type, net::MsgType::Result);
      ++Results;
    }
  }
  EXPECT_EQ(Busy, 1u);
  EXPECT_EQ(Results, 2u);
  EXPECT_EQ(Server->statsSnapshot().RejectedBusy, 1u);
}

TEST_F(NetTest, MalformedSubmitsAreRejectedNotFatal) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  startServer(SO, {});

  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "x.c", "-frobnicate", OkProgram));
  net::ClientEvent Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Reject);
  EXPECT_EQ(Ev.Reject.Code, net::RejectCode::Malformed);
  EXPECT_FALSE(Ev.Reject.Message.empty());

  // The connection survives a malformed submit: valid work still flows.
  ASSERT_TRUE(C.submit(2, "x.c", "-O1", OkProgram));
  Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Result);
  EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
  EXPECT_EQ(Server->statsSnapshot().RejectedMalformed, 1u);
}

TEST_F(NetTest, ZeroThreadRunIsRejectedAndTheDaemonKeepsServing) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  startServer(SO, {});
  const char *Parallel = "int a[8];\n"
                         "int main(void) {\n"
                         "  #pragma omp parallel for\n"
                         "  for (int i = 0; i < 8; i = i + 1)\n"
                         "    a[i] = i;\n"
                         "  return a[7];\n"
                         "}\n";

  // A team of zero threads would divide by zero in the runtime and take
  // the daemon down with it; the grammar refuses the job instead.
  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "par.c", "-num-threads=0 -run", Parallel));
  net::ClientEvent Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Reject);
  EXPECT_EQ(Ev.Reject.Code, net::RejectCode::Malformed);

  ASSERT_TRUE(C.submit(2, "par.c", "-num-threads=2 -run", Parallel));
  Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Result);
  EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
  EXPECT_EQ(Ev.Result.ExitValue, 7);
}

TEST_F(NetTest, DuplicateActiveJobIdIsMalformed) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  net::ServerOptions NO;
  NO.MaxDispatched = 1;
  startServer(SO, NO);

  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "heavy.c", "-run", HeavyProgram));
  ASSERT_TRUE(C.submit(1, "dup.c", "", OkProgram)); // id 1 still active

  net::ClientEvent Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Reject);
  EXPECT_EQ(Ev.Reject.Code, net::RejectCode::Malformed);
  Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Result); // the original still completes
  EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
}

TEST_F(NetTest, StatsVerbTextAndJSON) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 1;
  startServer(SO, {});

  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "x.c", "", OkProgram));
  net::ClientEvent Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::Result);

  ASSERT_TRUE(C.requestStats(/*JSON=*/false));
  Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::StatsReply);
  EXPECT_NE(Ev.Text.find("== service =="), std::string::npos);
  EXPECT_NE(Ev.Text.find("== daemon =="), std::string::npos);
  EXPECT_NE(Ev.Text.find("accepted=1"), std::string::npos);

  ASSERT_TRUE(C.requestStats(/*JSON=*/true));
  Ev = nextEvent(C);
  ASSERT_EQ(Ev.Type, net::MsgType::StatsReply);
  EXPECT_EQ(Ev.Text.front(), '{');
  EXPECT_NE(Ev.Text.find("\"service\""), std::string::npos);
  EXPECT_NE(Ev.Text.find("\"daemon\""), std::string::npos);
  EXPECT_NE(Ev.Text.find("\"accepted\":1"), std::string::npos);
}

TEST_F(NetTest, ShutdownVerbDrainsAdmittedJobs) {
  svc::ServiceOptions SO;
  SO.NumWorkers = 2;
  startServer(SO, {});

  net::Client C = makeClient();
  for (std::uint64_t J = 1; J <= 4; ++J)
    ASSERT_TRUE(C.submit(J, "x.c", "-run",
                         "int main(void) { return " + std::to_string(J) +
                             "; }\n"));
  ASSERT_TRUE(C.requestShutdown());

  // Drain guarantee: every admitted job's result arrives, plus the ack —
  // in any interleaving.
  unsigned Results = 0;
  bool Acked = false;
  for (int K = 0; K < 5; ++K) {
    net::ClientEvent Ev = nextEvent(C);
    if (Ev.Type == net::MsgType::ShutdownAck)
      Acked = true;
    else {
      ASSERT_EQ(Ev.Type, net::MsgType::Result);
      ASSERT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
      EXPECT_EQ(Ev.Result.ExitValue, static_cast<std::int64_t>(Ev.JobId));
      ++Results;
    }
  }
  EXPECT_TRUE(Acked);
  EXPECT_EQ(Results, 4u);

  EXPECT_TRUE(Server->waitForShutdownRequest(/*TimeoutMs=*/5000));
  Server->shutdown();
  net::ServerStatsSnapshot S = Server->statsSnapshot();
  EXPECT_EQ(S.Accepted, 4u);
  EXPECT_EQ(S.Completed, 4u);
  EXPECT_EQ(S.PendingNow, 0u);
  EXPECT_EQ(S.DispatchedNow, 0u);
}

TEST_F(NetTest, WarmFromDiskRestartAnswersByteIdenticallyOverTheWire) {
  std::string Root = ::testing::TempDir() + "mcc_net_store_" +
                     std::to_string(::getpid());
  std::filesystem::remove_all(Root);
  svc::ServiceOptions SO;
  SO.NumWorkers = 2;
  SO.DiskStorePath = Root;

  std::string ColdDiag;
  {
    startServer(SO, {});
    net::Client C = makeClient();
    ASSERT_TRUE(C.submit(1, "ok.c", "-O1", OkProgram));
    ASSERT_TRUE(C.submit(2, "bad.c", "", BadProgram));
    for (int K = 0; K < 2; ++K) {
      net::ClientEvent Ev = nextEvent(C);
      ASSERT_EQ(Ev.Type, net::MsgType::Result);
      EXPECT_EQ(Ev.Result.Trace, net::TraceLevel::Cold);
      if (Ev.JobId == 2)
        ColdDiag = Ev.Result.Diagnostics;
    }
    Server->shutdown();
    Service->shutdown(); // flush the store index
    Server.reset();
    Service.reset();
  }

  // "Restart": a fresh service + server on the same store root. The same
  // submissions come back as disk hits with byte-identical outcomes.
  startServer(SO, {});
  net::Client C = makeClient();
  ASSERT_TRUE(C.submit(1, "ok.c", "-O1", OkProgram));
  ASSERT_TRUE(C.submit(2, "bad.c", "", BadProgram));
  for (int K = 0; K < 2; ++K) {
    net::ClientEvent Ev = nextEvent(C);
    ASSERT_EQ(Ev.Type, net::MsgType::Result);
    EXPECT_EQ(Ev.Result.Trace, net::TraceLevel::Disk);
    if (Ev.JobId == 1)
      EXPECT_EQ(Ev.Result.Status, net::ResultStatus::Ok);
    else {
      EXPECT_EQ(Ev.Result.Status, net::ResultStatus::CompileFail);
      EXPECT_EQ(Ev.Result.Diagnostics, ColdDiag);
    }
  }
  std::filesystem::remove_all(Root);
}
