//===- SandboxTest.cpp - Process-isolation sandbox tests ---------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers src/sandbox: forked workers serving MVEC/1 over socketpairs,
/// the supervisor's failure taxonomy (crash, OOM kill, watchdog timeout,
/// external SIGKILL), respawn with backoff, the crash-loop breaker,
/// input quarantine with reproducer headers, the result tiers of a
/// process-isolated daemon (its shard services serve every hit and own
/// the store; workers only evaluate misses), the daemon's
/// isolation=process routing and hot reload between isolation modes, and
/// the shared EINTR/partial-I/O helpers in support/Io.h.
///
/// Crash inputs are injected with the `%!sandbox-*` test hooks (see
/// Worker.cpp), which only exist when ShardConfig::SandboxTestHooks is set.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "daemon/DiskStore.h"
#include "sandbox/Quarantine.h"
#include "sandbox/SandboxPool.h"
#include "support/ContentHash.h"
#include "support/Io.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::sandbox;

namespace {

namespace fs = std::filesystem;

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    Dir = fs::temp_directory_path() /
          ("mvec_sandbox_test_" + Tag + "_" + std::to_string(::getpid()));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string path() const { return Dir.string(); }

private:
  fs::path Dir;
};

/// A small annotated script that genuinely vectorizes; \p Tag makes
/// distinct content keys.
std::string script(int Tag) {
  return "% s" + std::to_string(Tag) +
         "\nn = 8; x = rand(1,n); z = zeros(1,n);\n"
         "%! x(1,*) z(1,*) n(1)\n"
         "for i=1:n\n  z(i) = 3*x(i);\nend\n";
}

daemon::Request vecRequest(const std::string &Body) {
  daemon::Request R;
  R.V = daemon::Verb::Vec;
  R.Name = "sandbox-test.m";
  R.Body = Body;
  return R;
}

/// A pool config sized for tests: fast heartbeats, fast respawn, a
/// scratch quarantine directory, test hooks armed.
SandboxConfig testConfig(const std::string &QuarantineDir,
                         unsigned Workers = 1) {
  SandboxConfig C;
  C.Shard.WorkersPerShard = Workers;
  C.Shard.HeartbeatIntervalMs = 50;
  C.Shard.HeartbeatTimeoutMs = 1000;
  C.Shard.QuarantineDir = QuarantineDir;
  C.Shard.SandboxTestHooks = true;
  C.Respawn = RetryPolicy{3, std::chrono::milliseconds(10), 2.0, 0.5,
                          std::chrono::milliseconds(200)};
  return C;
}

/// A daemon config with `isolation = process`, fast heartbeats and the
/// given quarantine and store directories (an empty store = none).
daemon::DaemonConfig processDaemonConfig(const std::string &QuarantineDir,
                                         const std::string &StoreDir,
                                         unsigned Shards = 1,
                                         unsigned Workers = 1) {
  daemon::DaemonConfig C;
  C.Shards = Shards;
  C.WorkersPerShard = Workers;
  C.Isolation = "process";
  C.QuarantineDir = QuarantineDir;
  C.StoreDir = StoreDir;
  C.HeartbeatIntervalMs = 50;
  // No address-space cap: these tests are about serving, not limits.
  C.WorkerMemoryMB = 0;
  return C;
}

/// The counter \p Key of the `disk_store` object in a STATS document.
uint64_t diskStoreStat(const std::string &Json, const std::string &Key) {
  size_t Obj = Json.find("\"disk_store\":{");
  std::string Needle = "\"";
  Needle += Key;
  Needle += "\":";
  size_t At = Json.find(Needle, Obj);
  EXPECT_NE(At, std::string::npos) << Json;
  return At == std::string::npos
             ? 0
             : std::strtoull(Json.c_str() + At + Needle.size(), nullptr, 10);
}

/// Total size of the entry files under a DiskStore directory.
uint64_t storeFileBytes(const std::string &Dir, size_t &Files) {
  uint64_t Bytes = 0;
  Files = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir)) {
    if (!E.is_regular_file() || E.path().extension() != ".mvr")
      continue;
    Bytes += E.file_size();
    ++Files;
  }
  return Bytes;
}

/// Polls \p Pred for up to \p BudgetMs.
bool eventually(unsigned BudgetMs, const std::function<bool()> &Pred) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(BudgetMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Pred();
}

/// Retries valid requests until one succeeds (the pool may be
/// mid-respawn or half-open); returns true on a succeeded response.
bool eventuallyServes(SandboxPool &Pool, const std::string &Body,
                      unsigned BudgetMs) {
  return eventually(BudgetMs, [&] {
    daemon::Response Out;
    std::string Why;
    return Pool.handle(vecRequest(Body), fnv1aHash(Body), Out, Why) &&
           Out.Status == "succeeded";
  });
}

//===----------------------------------------------------------------------===//
// support/Io helpers
//===----------------------------------------------------------------------===//

TEST(Io, SendFullAndRecvSomeRoundTripOverSocketpair) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  std::string Msg(100000, 'a'); // Bigger than one socket buffer.
  std::thread Writer([&] {
    EXPECT_TRUE(io::sendFull(Sv[0], Msg.data(), Msg.size(), 5000));
    ::close(Sv[0]);
  });
  std::string Got;
  char Buf[4096];
  ssize_t N;
  while ((N = io::recvSome(Sv[1], Buf, sizeof(Buf))) > 0)
    Got.append(Buf, static_cast<size_t>(N));
  Writer.join();
  ::close(Sv[1]);
  EXPECT_EQ(Got, Msg);
}

TEST(Io, SendFullHonorsItsBudgetAgainstAStalledPeer) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  // Nobody reads Sv[1]: the send must fill the buffers, stall, and give
  // up within (roughly) its budget instead of blocking forever.
  std::string Big(8 << 20, 'b');
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(io::sendFull(Sv[0], Big.data(), Big.size(), 200));
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
  EXPECT_LT(Elapsed, 5000) << "the budget must bound the stall";
  ::close(Sv[0]);
  ::close(Sv[1]);
}

TEST(Io, PollForTimesOutAndSeesReadiness) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  EXPECT_EQ(io::pollFor(Sv[1], POLLIN, 50), 0) << "nothing to read yet";
  ASSERT_EQ(::send(Sv[0], "x", 1, 0), 1);
  EXPECT_GT(io::pollFor(Sv[1], POLLIN, 1000), 0);
  ::close(Sv[0]);
  ::close(Sv[1]);
}

//===----------------------------------------------------------------------===//
// SandboxPool: the happy path
//===----------------------------------------------------------------------===//

TEST(SandboxPool, ServesVecThroughAForkedWorker) {
  ScratchDir Quarantine("happy");
  SandboxPool Pool(testConfig(Quarantine.path()));
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));
  std::vector<pid_t> Pids = Pool.workerPids();
  ASSERT_EQ(Pids.size(), 1u);
  EXPECT_NE(Pids[0], ::getpid()) << "the worker is a separate process";

  std::string Body = script(1);
  daemon::Response Out;
  std::string Why;
  ASSERT_TRUE(Pool.handle(vecRequest(Body), fnv1aHash(Body), Out, Why))
      << Why;
  EXPECT_EQ(Out.Code, 200);
  EXPECT_EQ(Out.Status, "succeeded");
  EXPECT_FALSE(Out.Body.empty());

  // Workers keep no result tier: the repeat is evaluated again, and the
  // pool records no job counters of its own.
  ASSERT_TRUE(Pool.handle(vecRequest(Body), fnv1aHash(Body), Out, Why));
  EXPECT_EQ(Out.Status, "succeeded");
  EXPECT_EQ(Out.CacheTier, "none");
  EXPECT_EQ(Pool.metrics().JobsSubmitted.load(), 0u);
  EXPECT_EQ(Pool.metrics().SandboxCrashes.load(), 0u);

  // Hits belong to the daemon's shard service: it answers the repeat from
  // memory without a worker and counts both jobs in the shard's STATS.
  ScratchDir DaemonQuarantine("happyd");
  daemon::Daemon D(processDaemonConfig(DaemonQuarantine.path(), ""));
  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));
  EXPECT_EQ(D.handle(vecRequest(Body)).CacheTier, "none");
  daemon::Response Hit = D.handle(vecRequest(Body));
  EXPECT_EQ(Hit.Status, "succeeded");
  EXPECT_EQ(Hit.CacheTier, "memory");
  EXPECT_EQ(Hit.Body, Out.Body);
  std::string Json = D.metricsJson();
  EXPECT_NE(Json.find("\"jobs\":{\"submitted\":2,\"succeeded\":2,"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"cache\":{\"hits\":1,\"misses\":1,"),
            std::string::npos)
      << Json;
}

//===----------------------------------------------------------------------===//
// Crash containment + quarantine
//===----------------------------------------------------------------------===//

TEST(SandboxPool, CrashIsContainedQuarantinedAndClassified) {
  ScratchDir Quarantine("crash");
  SandboxPool Pool(testConfig(Quarantine.path()));
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));

  std::string Body = "%!sandbox-crash\n% reproducer body\nx = 1;\n";
  uint64_t Key = fnv1aHash(Body);
  daemon::Response Out;
  std::string Why;
  EXPECT_FALSE(Pool.handle(vecRequest(Body), Key, Out, Why));
  EXPECT_NE(Why.find("crash"), std::string::npos) << Why;
  EXPECT_EQ(Pool.metrics().SandboxCrashes.load(), 1u);
  EXPECT_EQ(Pool.metrics().SandboxQuarantined.load(), 1u);

  // The reproducer file: a loadable MATLAB script whose comment header
  // records everything needed to replay the crash.
  std::string Path = quarantinePath(Quarantine.path(), Key);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(All.rfind("% mvec-quarantine v1\n", 0), 0u) << All;
  EXPECT_NE(All.find("% key: " + contentHexKey(Key)), std::string::npos);
  EXPECT_NE(All.find("% cause: crash"), std::string::npos) << All;
  EXPECT_NE(All.find("% signal: " + std::to_string(SIGABRT)),
            std::string::npos)
      << All;
  EXPECT_NE(All.find("% engine: ast"), std::string::npos);
  EXPECT_NE(All.find("% isa: "), std::string::npos);
  EXPECT_EQ(All.substr(All.size() - Body.size()), Body)
      << "the body must be stored verbatim";

  // First reproducer wins: the same input crashing again neither
  // rewrites the file nor double-counts.
  ASSERT_TRUE(eventually(5000, [&] { return Pool.liveWorkers() == 1; }));
  EXPECT_FALSE(Pool.handle(vecRequest(Body), Key, Out, Why));
  EXPECT_EQ(Pool.metrics().SandboxQuarantined.load(), 1u);
  size_t Files = 0;
  for (const auto &E : fs::directory_iterator(Quarantine.path()))
    Files += E.path().extension() == ".m";
  EXPECT_EQ(Files, 1u) << "quarantined counter must match the file count";
}

TEST(SandboxPool, WorkerRespawnsAfterCrashAndKeepsServing) {
  ScratchDir Quarantine("respawn");
  SandboxPool Pool(testConfig(Quarantine.path()));
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));
  pid_t Before = Pool.workerPids()[0];

  std::string Crash = "%!sandbox-crash\nx = 1;\n";
  daemon::Response Out;
  std::string Why;
  EXPECT_FALSE(Pool.handle(vecRequest(Crash), fnv1aHash(Crash), Out, Why));

  EXPECT_TRUE(eventuallyServes(Pool, script(2), 5000))
      << "the pool must recover after the crash";
  EXPECT_GE(Pool.metrics().SandboxRespawns.load(), 1u);
  ASSERT_EQ(Pool.workerPids().size(), 1u);
  EXPECT_NE(Pool.workerPids()[0], Before) << "a fresh process, not a zombie";
}

TEST(SandboxPool, OomKilledWorkerIsContainedAndClassified) {
  ScratchDir Quarantine("oom");
  SandboxConfig C = testConfig(Quarantine.path());
  // Keep the hook's doomed allocation spree small.
  C.Shard.WorkerMemoryMB = 256;
  SandboxPool Pool(C);
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));

  std::string Body = "%!sandbox-oom\nx = 1;\n";
  daemon::Response Out;
  std::string Why;
  EXPECT_FALSE(Pool.handle(vecRequest(Body), fnv1aHash(Body), Out, Why));
  EXPECT_NE(Why.find("oom-kill"), std::string::npos) << Why;
  std::ifstream In(quarantinePath(Quarantine.path(), fnv1aHash(Body)));
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(All.find("% cause: oom-kill"), std::string::npos) << All;
}

TEST(SandboxPool, WatchdogKillsAWedgedWorker) {
  ScratchDir Quarantine("wedge");
  SandboxConfig C = testConfig(Quarantine.path());
  C.Shard.HeartbeatTimeoutMs = 300; // Short grace: the test stays fast.
  SandboxPool Pool(C);
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));

  daemon::Request R = vecRequest("%!sandbox-spin\nx = 1;\n");
  R.DeadlineMs = 200;
  daemon::Response Out;
  std::string Why;
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(Pool.handle(R, fnv1aHash(R.Body), Out, Why));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_NE(Why.find("watchdog-timeout"), std::string::npos) << Why;
  EXPECT_EQ(Pool.metrics().SandboxWatchdogKills.load(), 1u);
  EXPECT_LT(Ms, 5000) << "deadline + grace bounds the watchdog kill";
}

TEST(SandboxPool, ExternalSigkillOfIdleWorkerIsReapedAndRespawned) {
  ScratchDir Quarantine("extkill");
  SandboxPool Pool(testConfig(Quarantine.path()));
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));
  pid_t Victim = Pool.workerPids()[0];
  ASSERT_EQ(::kill(Victim, SIGKILL), 0);

  // The supervisor notices on its own (no request traffic needed),
  // counts the death, and respawns the slot.
  EXPECT_TRUE(eventually(5000, [&] {
    return Pool.metrics().SandboxCrashes.load() >= 1 &&
           Pool.liveWorkers() == 1 && Pool.workerPids()[0] != Victim;
  }));
  EXPECT_GE(Pool.metrics().SandboxRespawns.load(), 1u);
  EXPECT_TRUE(eventuallyServes(Pool, script(3), 5000));
}

TEST(SandboxPool, CrashLoopBreakerShedsThenRecovers) {
  ScratchDir Quarantine("breaker");
  SandboxConfig C = testConfig(Quarantine.path());
  C.CrashLoop = BreakerConfig{/*FailureThreshold=*/2,
                              /*Cooldown=*/std::chrono::milliseconds(300),
                              /*HalfOpenProbes=*/1};
  SandboxPool Pool(C);
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));

  daemon::Response Out;
  std::string Why;
  for (int I = 0; I != 2; ++I) {
    std::string Crash = "%!sandbox-crash\n% round " + std::to_string(I) +
                        "\nx = 1;\n";
    ASSERT_TRUE(eventually(5000, [&] { return Pool.liveWorkers() == 1; }));
    EXPECT_FALSE(Pool.handle(vecRequest(Crash), fnv1aHash(Crash), Out, Why));
  }
  // Two consecutive worker deaths tripped the breaker: requests are now
  // shed without touching a worker.
  std::string Valid = script(4);
  EXPECT_FALSE(Pool.handle(vecRequest(Valid), fnv1aHash(Valid), Out, Why));
  EXPECT_NE(Why.find("breaker"), std::string::npos) << Why;
  EXPECT_GE(Pool.metrics().SandboxBreakerShed.load(), 1u);

  // After the cooldown a half-open probe goes through, succeeds, and
  // closes the breaker again.
  EXPECT_TRUE(eventuallyServes(Pool, Valid, 8000));
}

//===----------------------------------------------------------------------===//
// The result tiers of a process-isolated daemon
//===----------------------------------------------------------------------===//

// SIGKILL workers continuously while the daemon churns write-throughs
// into its store: only the daemon writes entries, so whatever survives on
// disk must be entirely servable — a dead worker costs at most the job it
// was evaluating, never a torn entry.
TEST(SandboxPool, KillMidStoreWriteNeverCorruptsTheStore) {
  ScratchDir Quarantine("storekillq");
  ScratchDir StoreDir("storekill");
  {
    daemon::Daemon D(processDaemonConfig(Quarantine.path(), StoreDir.path(),
                                         /*Shards=*/1, /*Workers=*/2));
    ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));

    std::atomic<bool> Stop{false};
    std::thread Killer([&] {
      while (!Stop.load()) {
        for (pid_t P : D.workerPids())
          ::kill(P, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
    });
    for (int I = 0; I != 60; ++I) {
      daemon::Request R = vecRequest(script(100 + I));
      R.DeadlineMs = 2000;
      // Degraded answers are expected (the killer is merciless);
      // corruption is not.
      EXPECT_EQ(D.handle(R).Code, 200);
    }
    Stop.store(true);
    Killer.join();
  }
  // Reopen the directory the way a restarted daemon would: the boot scan
  // sweeps orphaned tmps, and every surviving entry must load cleanly.
  daemon::DiskStore Store(daemon::DiskStoreConfig{StoreDir.path(), 0});
  // The content keys are internal to the service, so walk the sharded
  // entry files (<dir>/<hh>/<hexkey>.mvr) instead.
  size_t Loaded = 0;
  for (const auto &E : fs::recursive_directory_iterator(StoreDir.path())) {
    if (!E.is_regular_file() || E.path().extension() != ".mvr")
      continue;
    uint64_t Key = 0;
    ASSERT_TRUE(parseContentHexKey(E.path().stem().string(), Key))
        << E.path();
    if (Store.load(Key))
      ++Loaded;
  }
  EXPECT_EQ(Store.corruptDropped(), 0u)
      << "a kill mid-write must never leave a torn entry";
  EXPECT_EQ(Loaded, Store.entries());
}

// The shard service in the daemon owns the store in both isolation
// modes, so STATS sees a process-isolated shard's write-through.
TEST(DaemonSandbox, ProcessIsolatedShardWritesTheDaemonsStore) {
  ScratchDir Quarantine("statsq");
  ScratchDir StoreDir("stats");
  daemon::Daemon D(processDaemonConfig(Quarantine.path(), StoreDir.path()));
  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));

  std::string Body = script(7);
  daemon::Response First = D.handle(vecRequest(Body));
  ASSERT_EQ(First.Status, "succeeded") << First.Message;
  daemon::Response Second = D.handle(vecRequest(Body));
  EXPECT_EQ(Second.Status, "succeeded");
  EXPECT_EQ(Second.CacheTier, "memory");

  std::string Json = D.metricsJson();
  EXPECT_GE(diskStoreStat(Json, "puts"), 1u) << Json;
  EXPECT_GE(diskStoreStat(Json, "entries"), 1u) << Json;
}

// A worker keeps nothing worth losing: after every worker is killed and
// respawned, the daemon still answers the script from memory.
TEST(DaemonSandbox, RespawnedWorkersDoNotColdTheShard) {
  ScratchDir Quarantine("respawnwarmq");
  ScratchDir StoreDir("respawnwarm");
  daemon::Daemon D(processDaemonConfig(Quarantine.path(), StoreDir.path(),
                                       /*Shards=*/1, /*Workers=*/2));
  ASSERT_TRUE(eventually(3000, [&] { return D.workerPids().size() == 2; }));

  std::string Body = script(8);
  ASSERT_EQ(D.handle(vecRequest(Body)).Status, "succeeded");

  std::vector<pid_t> Killed = D.workerPids();
  for (pid_t P : Killed)
    ASSERT_EQ(::kill(P, SIGKILL), 0);
  ASSERT_TRUE(eventually(5000, [&] {
    std::vector<pid_t> Now = D.workerPids();
    if (Now.size() != Killed.size())
      return false;
    for (pid_t P : Now)
      if (std::find(Killed.begin(), Killed.end(), P) != Killed.end())
        return false;
    return true;
  })) << "both workers must respawn";

  daemon::Response Again = D.handle(vecRequest(Body));
  EXPECT_EQ(Again.Status, "succeeded");
  EXPECT_EQ(Again.CacheTier, "memory");
}

// One store handle counts every put against store_max_bytes, so the
// directory stays within budget however many workers evaluate misses.
TEST(DaemonSandbox, StoreStaysWithinItsByteBudget) {
  ScratchDir Quarantine("budgetq");
  ScratchDir StoreDir("budget");
  daemon::DaemonConfig C = processDaemonConfig(
      Quarantine.path(), StoreDir.path(), /*Shards=*/2, /*Workers=*/2);
  C.StoreMaxBytes = 2048;
  daemon::Daemon D(C);
  ASSERT_TRUE(eventually(3000, [&] { return D.workerPids().size() == 4; }));

  for (int I = 0; I != 40; ++I)
    ASSERT_EQ(D.handle(vecRequest(script(200 + I))).Status, "succeeded");

  size_t Files = 0;
  uint64_t Bytes = storeFileBytes(StoreDir.path(), Files);
  EXPECT_GE(Files, 1u);
  EXPECT_LE(Bytes, C.StoreMaxBytes)
      << "the directory outgrew store_max_bytes across " << Files
      << " entries";
  std::string Json = D.metricsJson();
  EXPECT_EQ(diskStoreStat(Json, "payload_bytes"), Bytes) << Json;
  EXPECT_EQ(diskStoreStat(Json, "entries"), Files) << Json;
}

//===----------------------------------------------------------------------===//
// Daemon integration: isolation=process end to end + hot reload
//===----------------------------------------------------------------------===//

TEST(DaemonSandbox, ProcessIsolationServesAndDegradesOnCrash) {
  ScratchDir Quarantine("daemonq");
  daemon::DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  C.Isolation = "process";
  C.SandboxTestHooks = true;
  C.QuarantineDir = Quarantine.path();
  C.HeartbeatIntervalMs = 50;
  daemon::Daemon D(C);

  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));

  daemon::Response Good = D.handle(vecRequest(script(5)));
  EXPECT_EQ(Good.Code, 200);
  EXPECT_EQ(Good.Status, "succeeded");

  // A crash-inducing input costs one worker; the client still gets the
  // no-protocol-error contract: 200, degraded, byte-exact passthrough.
  std::string Crash = "%!sandbox-crash\nx = 1;\n";
  daemon::Response Bad = D.handle(vecRequest(Crash));
  EXPECT_EQ(Bad.Code, 200);
  EXPECT_EQ(Bad.Status, "degraded");
  EXPECT_EQ(Bad.Body, Crash) << "byte-exact passthrough";

  std::string Json = D.metricsJson();
  EXPECT_NE(Json.find("\"isolation\":\"process\""), std::string::npos);
  EXPECT_NE(Json.find("\"worker_pids\":["), std::string::npos);
  EXPECT_NE(Json.find("\"sandbox\":{\"crashes\":"), std::string::npos);
}

TEST(DaemonSandbox, WorkersRunTheShardsEngineAndCostModel) {
  ScratchDir Quarantine("shardcfgq");
  daemon::DaemonConfig C;
  C.Isolation = "process";
  C.Engine = "vm";
  C.CostModel = "on";
  C.QuarantineDir = Quarantine.path();
  // No address-space cap: this test is about the service, not limits.
  C.WorkerMemoryMB = 0;
  // The pool one shard of a daemon with this config runs (as
  // Daemon::makeFleet builds it), narrowed to one worker so the STATS
  // frame below reaches the worker that served the request.
  SandboxConfig SC;
  SC.Shard = C;
  SC.Shard.WorkersPerShard = 1;
  SandboxPool Pool(SC);
  ASSERT_TRUE(eventually(3000, [&] { return Pool.liveWorkers() == 1; }));

  // A tiny-trip nest under a hot shell: legal to vectorize, but the cost
  // model keeps it in loop form.
  std::string Body = "%! w(1,*) acc(1,*)\n"
                     "w = rand(1,2);\nacc = zeros(1,2);\n"
                     "for r = 1:100000\n"
                     "  for j = 1:2\n"
                     "    acc(j) = acc(j)*0.999 + w(j);\n"
                     "  end\n"
                     "end\n";
  daemon::Response Out;
  std::string Why;
  ASSERT_TRUE(Pool.handle(vecRequest(Body), fnv1aHash(Body), Out, Why))
      << Why;
  ASSERT_EQ(Out.Status, "succeeded") << Out.Message;

  daemon::Request Stats;
  Stats.V = daemon::Verb::Stats;
  ASSERT_TRUE(Pool.handle(Stats, 0, Out, Why)) << Why;
  const std::string &Json = Out.Body;
  // The validation run lowered the script to bytecode (engine = vm) ...
  EXPECT_NE(Json.find("\"code_cache_misses\":"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"code_cache_misses\":0}"), std::string::npos) << Json;
  // ... and the vectorizer consulted the cost model (cost_model = on).
  EXPECT_NE(Json.find("\"nests_kept_loop\":"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"nests_kept_loop\":0,"), std::string::npos) << Json;
}

TEST(DaemonSandbox, IsolationModeHotReloadsBothWays) {
  ScratchDir Quarantine("reloadq");
  daemon::DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  C.Isolation = "inproc";
  C.QuarantineDir = Quarantine.path();
  daemon::Daemon D(C);
  EXPECT_TRUE(D.workerPids().empty()) << "inproc mode has no worker pids";
  ASSERT_EQ(D.handle(vecRequest(script(6))).Status, "succeeded");

  // inproc -> process: the fleet is rebuilt around sandbox pools.
  daemon::DaemonConfig New = D.config();
  New.Isolation = "process";
  New.HeartbeatIntervalMs = 50;
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  ASSERT_TRUE(eventually(3000, [&] { return !D.workerPids().empty(); }));
  EXPECT_EQ(D.handle(vecRequest(script(6))).Status, "succeeded");
  EXPECT_NE(D.metricsJson().find("\"isolation\":\"process\""),
            std::string::npos);

  // process -> inproc: workers are torn down, service comes back inline.
  New = D.config();
  New.Isolation = "inproc";
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  EXPECT_TRUE(D.workerPids().empty());
  EXPECT_EQ(D.handle(vecRequest(script(6))).Status, "succeeded");
}

} // namespace
