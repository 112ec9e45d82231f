//===--- minicc-serve.cpp - Compile-service driver -------------------------===//
//
// Front door for the CompileService (src/service) in three modes:
//
//  * Inline (default): reads newline-delimited job specs from a file or
//    stdin, fans them out over an in-process worker pool, prints one
//    verdict line per job. Repeated or identical jobs are answered from
//    the content-addressed cache (and, with --disk-store, from previous
//    processes' runs).
//
//  * Daemon (--serve): binds a Unix-domain socket and serves the framed
//    protocol (src/net) to any number of concurrent clients, with
//    admission control (bounded queue, per-client quotas, fair
//    round-robin). SIGINT/SIGTERM or the protocol's shutdown verb drain
//    in-flight jobs, flush the disk store index, and print final stats.
//
//  * Client (--client): submits a job file to a running daemon over the
//    socket, keeping a bounded window in flight, retrying typed
//    Busy/Quota rejections after the daemon's retry-after hint, and
//    printing verdict lines byte-identical to the inline mode's.
//
//   minicc-serve [options] [jobfile]
//     --jobs=N                worker threads (default 4)
//     --cache-mb=N            total in-memory cache budget MiB (default 256)
//     --disk-store=DIR        on-disk artifact store root (persistence)
//     --disk-mb=N             disk store budget in MiB (default 1024)
//     --repeat=N              submit the whole job list N times (default 1)
//     --service-stats[=json]  print service statistics after the run
//     --quiet                 verdict lines only on failure
//   daemon mode:
//     --serve --socket=PATH   serve the framed protocol on PATH
//     --max-pending=N         admission queue bound (default 256)
//     --per-client-inflight=N per-connection job quota (default 32)
//     --max-dispatched=N      jobs in the pool at once (default 2x workers)
//   client mode:
//     --client --socket=PATH [jobfile]
//     --window=N              max jobs in flight (default 16)
//     --stats[=json]          fetch daemon statistics after the batch
//     --shutdown              ask the daemon to drain and exit
//
// Job spec grammar (one job per line; '#' starts a comment):
//   [flags...] <file>
// with minicc's compile flags (service/JobSpec.h, printed by --help). A
// job reads no file but its own source: an #include fails as not found.
//
//===----------------------------------------------------------------------===//
#include "net/Client.h"
#include "net/Server.h"
#include "service/CompileService.h"
#include "service/JobSpec.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace mcc;

namespace {

volatile std::sig_atomic_t GSignal = 0;
void onSignal(int) { GSignal = 1; }

void printUsage() {
  std::fprintf(
      stderr,
      "usage: minicc-serve [options] [jobfile]\n"
      "  --jobs=N                worker threads (default 4)\n"
      "  --cache-mb=N            in-memory cache budget MiB (default 256)\n"
      "  --disk-store=DIR        on-disk artifact store root\n"
      "  --disk-mb=N             disk store budget MiB (default 1024)\n"
      "  --repeat=N              submit the job list N times (default 1)\n"
      "  --service-stats[=json]  print service statistics after the run\n"
      "  --quiet                 only print failing jobs\n"
      "daemon mode:\n"
      "  --serve --socket=PATH   serve the framed protocol on PATH\n"
      "  --max-pending=N         admission queue bound (default 256)\n"
      "  --per-client-inflight=N per-connection quota (default 32)\n"
      "  --max-dispatched=N      pool release cap (default 2x workers)\n"
      "client mode:\n"
      "  --client --socket=PATH [jobfile]\n"
      "  --window=N              max jobs in flight (default 16)\n"
      "  --stats[=json]          fetch daemon statistics after the batch\n"
      "  --shutdown              ask the daemon to drain and exit\n"
      "job spec: one per line: [flags...] <file>\n"
      "%s",
      svc::jobFlagHelp().c_str());
}

bool parseU64(const std::string &Arg, const char *Prefix, std::uint64_t &Out) {
  std::size_t Len = std::strlen(Prefix);
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = std::strtoull(Arg.c_str() + Len, nullptr, 10);
  return true;
}

/// Parses one job-spec line and loads the file operand's bytes. Returns
/// false with a message on a malformed line; empty/comment lines yield
/// false with an empty message.
bool loadJobLine(const std::string &Line, svc::CompileJob &Job,
                 std::string &Error) {
  std::string File;
  if (!svc::parseJobSpecLine(Line, Job, File, Error))
    return false;
  std::ifstream Src(File, std::ios::binary);
  if (!Src) {
    Error = "cannot read " + File;
    return false;
  }
  std::ostringstream SS;
  SS << Src.rdbuf();
  Job.Path = File;
  Job.Source = SS.str();
  return true;
}

const char *traceSpelling(const svc::CacheTrace &T) {
  if (T.DiskHit)
    return "disk hit";
  if (T.L3Hit)
    return "L3 hit";
  if (T.L2Hit)
    return "L2 hit";
  if (T.L1Hit)
    return "L1 hit";
  return "cold";
}

struct Options {
  svc::ServiceOptions Svc;
  net::ServerOptions Net;
  std::uint64_t Repeat = 1;
  std::uint64_t Window = 16;
  bool ShowStats = false;
  bool StatsJSON = false;
  bool Quiet = false;
  bool Serve = false;
  bool ClientMode = false;
  bool ClientStats = false;
  bool ClientStatsJSON = false;
  bool ClientShutdown = false;
  std::string JobFile;
};

/// Reads the job list (file or stdin). Returns false after printing a
/// diagnostic for a malformed line.
bool readJobList(const std::string &JobFile,
                 std::vector<svc::CompileJob> &JobList) {
  std::istream *In = &std::cin;
  std::ifstream FileIn;
  if (!JobFile.empty()) {
    FileIn.open(JobFile);
    if (!FileIn) {
      std::fprintf(stderr, "minicc-serve: cannot read job file '%s'\n",
                   JobFile.c_str());
      return false;
    }
    In = &FileIn;
  }
  unsigned LineNo = 0;
  for (std::string Line; std::getline(*In, Line);) {
    ++LineNo;
    svc::CompileJob Job;
    std::string Error;
    if (loadJobLine(Line, Job, Error))
      JobList.push_back(std::move(Job));
    else if (!Error.empty()) {
      std::fprintf(stderr, "minicc-serve: line %u: %s\n", LineNo,
                   Error.c_str());
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Inline mode (the original minicc-serve behaviour)
//===----------------------------------------------------------------------===//

int runInline(const Options &O) {
  std::vector<svc::CompileJob> JobList;
  if (!readJobList(O.JobFile, JobList))
    return 1;
  if (JobList.empty()) {
    std::fprintf(stderr, "minicc-serve: no jobs\n");
    return 1;
  }

  svc::CompileService Service(O.Svc);
  std::vector<std::future<svc::CompileResult>> Futures;
  Futures.reserve(JobList.size() * O.Repeat);
  for (std::uint64_t R = 0; R < std::max<std::uint64_t>(1, O.Repeat); ++R)
    for (const svc::CompileJob &Job : JobList)
      Futures.push_back(Service.enqueue(Job));

  unsigned Failures = 0;
  for (std::size_t K = 0; K < Futures.size(); ++K) {
    svc::CompileResult Res = Futures[K].get();
    const svc::CompileJob &Job = JobList[K % JobList.size()];
    if (!Res.Succeeded) {
      ++Failures;
      std::printf("[%zu] FAIL %s (%s)\n", K, Job.Path.c_str(),
                  traceSpelling(Res.Trace));
      std::fputs(Res.Diagnostics.c_str(), stderr);
    } else if (!O.Quiet) {
      if (Res.Executed)
        std::printf("[%zu] OK %s (%s) main=%lld\n", K, Job.Path.c_str(),
                    traceSpelling(Res.Trace),
                    static_cast<long long>(Res.ExitValue));
      else
        std::printf("[%zu] OK %s (%s)\n", K, Job.Path.c_str(),
                    traceSpelling(Res.Trace));
      std::fputs(Res.Diagnostics.c_str(), stderr); // warnings, remarks
    }
  }

  Service.shutdown();
  if (O.ShowStats)
    std::fputs((O.StatsJSON ? Service.renderStatsJSON() : Service.renderStats())
                   .c_str(),
               stdout);
  return Failures == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Daemon mode
//===----------------------------------------------------------------------===//

int runDaemon(const Options &O) {
  svc::CompileService Service(O.Svc);
  net::Server Server(Service, O.Net);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "minicc-serve: %s\n", Error.c_str());
    return 1;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::fprintf(stderr,
               "minicc-serve: listening on %s (workers=%u pending<=%u "
               "per-client<=%u disk=%s)\n",
               O.Net.SocketPath.c_str(), O.Svc.NumWorkers,
               O.Net.MaxPendingJobs, O.Net.PerClientInFlight,
               O.Svc.DiskStorePath.empty() ? "off"
                                           : O.Svc.DiskStorePath.c_str());
  // The signal handler only flips a flag (async-signal-safe); the wait
  // loop notices it and begins the drain from a normal thread.
  for (;;) {
    if (Server.waitForShutdownRequest(/*TimeoutMs=*/200))
      break;
    if (GSignal) {
      Server.requestShutdown();
      break;
    }
  }
  std::fprintf(stderr, "minicc-serve: draining...\n");
  Server.shutdown();
  Service.shutdown(); // flushes the disk store index
  std::fputs(Server.renderStats(O.StatsJSON).c_str(), stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Client mode
//===----------------------------------------------------------------------===//

struct WireJob {
  std::string Path;
  std::string Flags;
  std::string Source;
};

struct Verdict {
  std::string Line;
  std::string Diag;
  bool Failed = false;
  bool Quietable = false; ///< an OK line, suppressed under --quiet
};

int runClient(const Options &O) {
  // Unlike inline mode, stdin is never a job source here: a bare
  // `--client --stats` must not block on the terminal.
  std::vector<WireJob> List;
  if (!O.JobFile.empty()) {
    std::vector<svc::CompileJob> Jobs;
    if (!readJobList(O.JobFile, Jobs))
      return 1;
    for (svc::CompileJob &J : Jobs) {
      WireJob W;
      W.Path = J.Path;
      W.Flags = svc::renderJobFlags(J);
      W.Source = std::move(J.Source);
      List.push_back(std::move(W));
    }
  }

  net::Client Client;
  std::string Error;
  if (!Client.connect(O.Net.SocketPath, Error)) {
    std::fprintf(stderr, "minicc-serve: %s\n", Error.c_str());
    return 1;
  }

  const std::size_t Total =
      List.size() * static_cast<std::size_t>(std::max<std::uint64_t>(1, O.Repeat));
  std::size_t NextSubmit = 0, Completed = 0, NextPrint = 0;
  unsigned Failures = 0;
  std::unordered_map<std::uint64_t, std::size_t> Active; // job id -> index
  std::map<std::size_t, Verdict> Ready; // out-of-order results, print in order

  auto submitIndex = [&](std::size_t Idx) -> bool {
    const WireJob &J = List[Idx % List.size()];
    if (!Client.submit(Idx + 1, J.Path, J.Flags, J.Source)) {
      std::fprintf(stderr, "minicc-serve: lost connection to daemon\n");
      return false;
    }
    Active.emplace(Idx + 1, Idx);
    return true;
  };
  auto flushReady = [&] {
    while (true) {
      auto It = Ready.find(NextPrint);
      if (It == Ready.end())
        break;
      const Verdict &V = It->second;
      if (V.Failed || !(O.Quiet && V.Quietable)) {
        std::printf("%s\n", V.Line.c_str());
        std::fputs(V.Diag.c_str(), stderr);
      }
      Ready.erase(It);
      ++NextPrint;
    }
  };

  while (Completed < Total) {
    while (NextSubmit < Total && Active.size() < O.Window)
      if (!submitIndex(NextSubmit++))
        return 1;
    net::ClientEvent Ev;
    if (!Client.next(Ev, Error)) {
      std::fprintf(stderr, "minicc-serve: %s\n",
                   Error.empty() ? "daemon closed the connection"
                                 : Error.c_str());
      return 1;
    }
    auto It = Active.find(Ev.JobId);
    if (It == Active.end())
      continue; // stale frame for an id we no longer track
    const std::size_t Idx = It->second;
    const WireJob &J = List[Idx % List.size()];

    if (Ev.Type == net::MsgType::Result) {
      Active.erase(It);
      ++Completed;
      Verdict V;
      switch (Ev.Result.Status) {
      case net::ResultStatus::Ok:
        V.Quietable = true;
        V.Line = "[" + std::to_string(Idx) + "] OK " + J.Path + " (" +
                 net::traceLevelName(Ev.Result.Trace) + ")";
        if (Ev.Result.Executed)
          V.Line += " main=" + std::to_string(
                                   static_cast<long long>(Ev.Result.ExitValue));
        V.Diag = Ev.Result.Diagnostics; // warnings, remarks
        break;
      case net::ResultStatus::CompileFail:
        V.Failed = true;
        ++Failures;
        V.Line = "[" + std::to_string(Idx) + "] FAIL " + J.Path + " (" +
                 net::traceLevelName(Ev.Result.Trace) + ")";
        V.Diag = Ev.Result.Diagnostics;
        break;
      case net::ResultStatus::Cancelled:
        V.Line = "[" + std::to_string(Idx) + "] CANCELLED " + J.Path;
        break;
      case net::ResultStatus::InternalError:
        V.Failed = true;
        ++Failures;
        V.Line = "[" + std::to_string(Idx) + "] ERROR " + J.Path;
        V.Diag = Ev.Result.Diagnostics;
        break;
      }
      Ready.emplace(Idx, std::move(V));
      flushReady();
      continue;
    }

    if (Ev.Type == net::MsgType::Reject) {
      Active.erase(It);
      if (Ev.Reject.Code == net::RejectCode::Busy ||
          Ev.Reject.Code == net::RejectCode::Quota) {
        // Backpressure: honour the daemon's retry hint, then resubmit the
        // same job (same id; the daemon no longer tracks it).
        unsigned Ms = Ev.Reject.RetryAfterMs ? Ev.Reject.RetryAfterMs : 20;
        std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
        if (!submitIndex(Idx))
          return 1;
      } else {
        ++Completed;
        ++Failures;
        Verdict V;
        V.Failed = true;
        V.Line = "[" + std::to_string(Idx) + "] REJECTED " + J.Path + " (" +
                 net::rejectCodeName(Ev.Reject.Code) + ")";
        V.Diag = "minicc-serve: " + Ev.Reject.Message + "\n";
        Ready.emplace(Idx, std::move(V));
        flushReady();
      }
      continue;
    }
  }

  if (O.ClientStats) {
    if (!Client.requestStats(O.ClientStatsJSON)) {
      std::fprintf(stderr, "minicc-serve: lost connection to daemon\n");
      return 1;
    }
    net::ClientEvent Ev;
    while (Client.next(Ev, Error)) {
      if (Ev.Type == net::MsgType::StatsReply) {
        std::fputs(Ev.Text.c_str(), stdout);
        break;
      }
    }
    if (!Error.empty()) {
      std::fprintf(stderr, "minicc-serve: %s\n", Error.c_str());
      return 1;
    }
  }

  if (O.ClientShutdown) {
    if (!Client.requestShutdown()) {
      std::fprintf(stderr, "minicc-serve: lost connection to daemon\n");
      return 1;
    }
    net::ClientEvent Ev;
    while (Client.next(Ev, Error))
      if (Ev.Type == net::MsgType::ShutdownAck)
        break;
  }

  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options O;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::uint64_t N = 0;
    if (parseU64(Arg, "--jobs=", N))
      O.Svc.NumWorkers = static_cast<unsigned>(N);
    else if (parseU64(Arg, "--cache-mb=", N))
      O.Svc.CacheBudgetBytes = static_cast<std::size_t>(N) << 20;
    else if (parseU64(Arg, "--disk-mb=", N))
      O.Svc.DiskBudgetBytes = static_cast<std::size_t>(N) << 20;
    else if (Arg.rfind("--disk-store=", 0) == 0)
      O.Svc.DiskStorePath = Arg.substr(std::strlen("--disk-store="));
    else if (parseU64(Arg, "--repeat=", O.Repeat) ||
             parseU64(Arg, "--window=", O.Window))
      ;
    else if (parseU64(Arg, "--max-pending=", N))
      O.Net.MaxPendingJobs = static_cast<unsigned>(N);
    else if (parseU64(Arg, "--per-client-inflight=", N))
      O.Net.PerClientInFlight = static_cast<unsigned>(N);
    else if (parseU64(Arg, "--max-dispatched=", N))
      O.Net.MaxDispatched = static_cast<unsigned>(N);
    else if (Arg.rfind("--socket=", 0) == 0)
      O.Net.SocketPath = Arg.substr(std::strlen("--socket="));
    else if (Arg == "--serve")
      O.Serve = true;
    else if (Arg == "--client")
      O.ClientMode = true;
    else if (Arg == "--service-stats")
      O.ShowStats = true;
    else if (Arg == "--service-stats=json") {
      O.ShowStats = true;
      O.StatsJSON = true;
    } else if (Arg == "--stats")
      O.ClientStats = true;
    else if (Arg == "--stats=json") {
      O.ClientStats = true;
      O.ClientStatsJSON = true;
    } else if (Arg == "--shutdown")
      O.ClientShutdown = true;
    else if (Arg == "--quiet")
      O.Quiet = true;
    else if (Arg == "-h" || Arg == "--help") {
      printUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "minicc-serve: unknown argument: '%s'\n",
                   Arg.c_str());
      printUsage();
      return 1;
    } else
      O.JobFile = Arg;
  }

  if (O.Serve && O.ClientMode) {
    std::fprintf(stderr, "minicc-serve: --serve and --client are exclusive\n");
    return 1;
  }
  if ((O.Serve || O.ClientMode) && O.Net.SocketPath.empty()) {
    std::fprintf(stderr, "minicc-serve: %s requires --socket=PATH\n",
                 O.Serve ? "--serve" : "--client");
    return 1;
  }

  if (!O.ClientMode) {
    if (std::string EnvErr = interp::execEngineEnvError(); !EnvErr.empty()) {
      std::fprintf(stderr, "minicc-serve: %s\n", EnvErr.c_str());
      return 1;
    }
    if (std::string EnvErr = interp::jitEnvError(); !EnvErr.empty()) {
      std::fprintf(stderr, "minicc-serve: %s\n", EnvErr.c_str());
      return 1;
    }
  }

  if (O.Serve)
    return runDaemon(O);
  if (O.ClientMode)
    return runClient(O);
  return runInline(O);
}
