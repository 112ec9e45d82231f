//===--- stats_test.cpp - The stats writer and its JSON schema ------------===//
//
// Every component renders its counters through support/Stats.h. These
// tests pin the writer's text and JSON layout, and pin the JSON keys and
// nesting of `minicc --stats=json` (midend, exec, runtime) and of the
// daemon's stats verb (service, daemon) against golden files. The
// snapshots get fixed values, one distinct number per field in .def
// order, because live wake counts vary from run to run.
//
// To regenerate after an intentional schema change:
//   MCC_REGEN_GOLDEN=1 ./stats_test
// then review the diff like any other source change.
//
//===----------------------------------------------------------------------===//
#include "GoldenTestHelper.h"
#include "net/Server.h"
#include "runtime/KMPRuntime.h"

#include <gtest/gtest.h>

#include <string>

using namespace mcc;
using test::compareWithGolden;

namespace {

TEST(StatsWriterTest, TextAndJSONShareNames) {
  stats::Component C{"demo", {}};
  C.addLabel("engine", "kind", "bytecode");
  C.add("execute", "frames", 3);
  C.add("execute", "calls", 0);
  stats::Component Empty{"empty", {}};

  EXPECT_EQ(stats::render({C, Empty}, stats::Format::Text),
            "== demo ==\n"
            "engine: kind=bytecode\n"
            "execute: frames=3 calls=0\n"
            "== empty ==\n");
  EXPECT_EQ(stats::render({C, Empty}, stats::Format::JSON),
            "{\"demo\":{\"engine\":{\"kind\":\"bytecode\"},"
            "\"execute\":{\"frames\":3,\"calls\":0}},\"empty\":{}}\n");
  EXPECT_EQ(stats::render({}, stats::Format::JSON), "{}\n");
}

TEST(StatsWriterTest, MiniccSchema) {
  std::uint64_t V = 0;
  midend::PipelineStats Midend;
#define UNROLL_STAT(Group, Name, Field) Midend.Unroll.Field = ++V;
#define MIDEND_STAT(Group, Name, Field) Midend.Field = ++V;
#include "midend/PipelineStats.def"
  interp::ExecStats Exec;
  Exec.Engine = interp::ExecEngineKind::Tiered;
  Exec.Dispatch = "template-jit";
  Exec.TranslatedHere = true;
#define EXEC_GAUGE(Group, Name, Field) Exec.Field = ++V;
#define EXEC_COUNTER(Group, Name, Field) Exec.Field = ++V;
#include "interp/ExecStats.def"
  rt::OpenMPRuntime::StatsSnapshot Runtime;
#define RUNTIME_STAT(Group, Name, Field) Runtime.Field = ++V;
#include "runtime/RuntimeStats.def"

  compareWithGolden("stats_minicc",
                    stats::render({midend::statsComponent(Midend),
                                   interp::statsComponent(Exec),
                                   rt::statsComponent(Runtime)},
                                  stats::Format::JSON));
}

TEST(StatsWriterTest, DaemonSchema) {
  std::uint64_t V = 0;
  svc::ServiceStatsSnapshot Service;
#define SERVICE_STAT(Group, Name, Field) Service.Field = ++V;
#include "service/ServiceStats.def"
  Service.Workers = ++V;
  for (svc::CacheLevelSnapshot *L : {&Service.L1, &Service.L2, &Service.L3}) {
#define CACHE_STAT(Name, Field) L->Field = ++V;
#include "service/ServiceStats.def"
  }
  Service.Disk.emplace();
#define DISK_STAT(Group, Name, Field) Service.Disk->Field = ++V;
#include "service/ServiceStats.def"
  net::ServerStatsSnapshot Daemon;
#define SERVER_COUNTER(Group, Name, Field) Daemon.Field = ++V;
#define SERVER_GAUGE(Group, Name, Field) Daemon.Field = ++V;
#include "net/ServerStats.def"

  const std::string JSON = stats::render(
      {svc::statsComponent(Service), net::statsComponent(Daemon)},
      stats::Format::JSON);
  compareWithGolden("stats_daemon", JSON);

  // perfbench reads the cache hit ratios by matching these bytes in the
  // stats reply and reads 0 when one is missing: each level must appear
  // once, with its counters inside.
  for (const char *Level :
       {"\"l1_tokens\":{", "\"l2_ast\":{", "\"l3_module\":{", "\"disk\":{"}) {
    const std::size_t At = JSON.find(Level);
    ASSERT_NE(At, std::string::npos) << Level;
    EXPECT_EQ(JSON.find(Level, At + 1), std::string::npos) << Level;
    const std::string Body = JSON.substr(At, JSON.find('}', At) - At);
    for (const char *Field : {"\"hits\":", "\"misses\":", "\"evictions\":"})
      EXPECT_NE(Body.find(Field), std::string::npos) << Level << Field;
  }
}

} // namespace
