//===- mvec_crashrun.cpp - Sandbox crash-campaign driver ---------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash campaign: soaks an in-process Daemon configured with
/// `isolation = process` while actively killing its sandbox workers —
/// external SIGKILL/SIGABRT from a killer thread, plus (with --hooks)
/// crash/OOM/wedge-inducing request bodies — and asserts the
/// crash-containment contract held:
///
///   * zero daemon deaths (the campaign completing IS the check: every
///     kill lands in a worker process, never the driver),
///   * every request answered 200 — vectorized, or degraded byte-exact
///     passthrough while workers were down — never a protocol error,
///   * every degraded response body is byte-identical to its request,
///   * workers respawned (respawns > 0 in the final STATS),
///   * with --hooks, every crash-inducing input was quarantined, the
///     quarantine files parse, and their count matches the STATS
///     `quarantined` counter.
///
///   mvec_crashrun [options]
///
/// Options:
///   --seconds N      soak duration (default 5)
///   --shards N       daemon shards (default 2; 1-256, the `shards` key)
///   --workers N      sandbox workers per shard (default 2; 1-256, the
///                    `workers_per_shard` key)
///   --clients N      driver threads (default 4)
///   --kill-every-ms N  killer thread period (default 40; 0 disables)
///   --hooks          also inject %!sandbox-crash / -oom / -spin bodies
///   --store DIR      disk store directory (default: private temp dir)
///   --json           machine-readable summary on stdout
///
/// A malformed or out-of-range flag value exits 2 (src/service/Flags.h).
///
/// Exit status: 0 when every invariant held, 1 on any violation, 2 on
/// usage errors.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "sandbox/Quarantine.h"
#include "service/Flags.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::daemon;

namespace {

namespace fs = std::filesystem;

std::string corpusScript(unsigned Tag) {
  std::string T = std::to_string(Tag % 64);
  return "% crashrun corpus " + T + "\n"
         "n = 64;\n"
         "a = zeros(1, n);\n"
         "b = zeros(1, n);\n"
         "for i = 1:n\n"
         "  a(i) = i * " + T + ";\n"
         "end\n"
         "%!vec\n"
         "for i = 1:n\n"
         "  b(i) = a(i) * 2 + " + T + ";\n"
         "end\n"
         "s = sum(b);\ndisp(s);\n";
}

struct Tally {
  std::atomic<uint64_t> Sent{0};
  std::atomic<uint64_t> Ok200{0};
  std::atomic<uint64_t> Non200{0};
  std::atomic<uint64_t> Succeeded{0};
  std::atomic<uint64_t> Degraded{0};
  std::atomic<uint64_t> Other{0};
  std::atomic<uint64_t> DegradedMismatch{0};
  std::atomic<uint64_t> HookInputs{0};
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--seconds N] [--shards N] [--workers N]\n"
               "       [--clients N] [--kill-every-ms N] [--hooks]\n"
               "       [--store DIR] [--json]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Seconds = 5, Clients = 4;
  unsigned KillEveryMs = 40;
  bool Hooks = false, Json = false;
  std::string StoreDir;
  // --shards/--workers go through the daemon's own config validators.
  std::string Overrides;

  FlagReader F(Argc, Argv);
  std::string Value;
  while (F.next()) {
    if (F.read("--seconds", Seconds) || F.read("--clients", Clients, 1) ||
        F.read("--kill-every-ms", KillEveryMs) || F.read("--store", StoreDir) ||
        F.flag("--hooks", Hooks) || F.flag("--json", Json))
      continue;
    if (F.read("--shards", Value))
      Overrides += "shards = " + Value + "\n";
    else if (F.read("--workers", Value))
      Overrides += "workers_per_shard = " + Value + "\n";
    else
      return usage(Argv[0]);
  }

  DaemonConfig Config;
  std::string Error;
  if (!parseDaemonConfig(Overrides, Config, Error)) {
    std::fprintf(stderr, "mvec_crashrun: %s\n", Error.c_str());
    return usage(Argv[0]);
  }

  std::string Scratch = "/tmp/mvec_crashrun." + std::to_string(::getpid());
  if (StoreDir.empty())
    StoreDir = Scratch + "/store";
  std::string QuarantineDir = Scratch + "/quarantine";
  fs::create_directories(StoreDir);

  Config.Isolation = "process";
  Config.StoreDir = StoreDir;
  Config.DeadlineMs = 4000;
  Config.HeartbeatIntervalMs = 100;
  Config.HeartbeatTimeoutMs = 800;
  Config.QuarantineDir = QuarantineDir;
  Config.SandboxTestHooks = Hooks;
  Config.WorkerMemoryMB = 512;

  Tally T;
  std::atomic<bool> Stop{false};

  std::fprintf(stderr,
               "crashrun: %u shard(s) x %u worker(s), %u client(s), "
               "kill every %u ms, hooks %s, %u s soak\n",
               Config.Shards, Config.WorkersPerShard, Clients, KillEveryMs,
               Hooks ? "on" : "off", Seconds);

  {
    Daemon D(Config);

    // The killer: SIGKILL / SIGABRT a random live worker on a timer —
    // the external half of the campaign (kernel OOM killer, operator
    // kill -9, a chaos monkey).
    std::thread Killer;
    if (KillEveryMs) {
      Killer = std::thread([&] {
        std::mt19937 Rng(0xC0FFEE);
        bool UseAbort = false;
        while (!Stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(KillEveryMs));
          std::vector<pid_t> Pids = D.workerPids();
          if (Pids.empty())
            continue;
          pid_t Victim = Pids[Rng() % Pids.size()];
          ::kill(Victim, UseAbort ? SIGABRT : SIGKILL);
          UseAbort = !UseAbort;
        }
      });
    }

    // The drivers: normal corpus traffic, plus (with --hooks) inputs
    // that make the serving worker abort, OOM, or wedge from inside.
    std::vector<std::thread> Drivers;
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(Seconds);
    for (unsigned C = 0; C != Clients; ++C) {
      Drivers.emplace_back([&, C] {
        std::mt19937 Rng(0x5EED + C);
        unsigned N = 0;
        while (std::chrono::steady_clock::now() < Deadline) {
          Request R;
          R.V = Verb::Vec;
          R.Name = "crashrun-" + std::to_string(C) + "-" + std::to_string(N);
          unsigned Roll = Rng() % 100;
          if (Hooks && Roll < 6) {
            const char *Marker = Roll < 2   ? "%!sandbox-crash\n"
                                 : Roll < 4 ? "%!sandbox-oom\n"
                                            : "%!sandbox-spin\n";
            // Unique tail per hook input so each quarantines separately.
            R.Body = std::string(Marker) + "% hook " + std::to_string(C) +
                     "-" + std::to_string(N) + "\nx = 1;\n";
            R.DeadlineMs = 1500; // Keep spin-hook watchdog kills quick.
            T.HookInputs.fetch_add(1, std::memory_order_relaxed);
          } else {
            R.Body = corpusScript(Rng() % 64);
          }
          ++N;
          T.Sent.fetch_add(1, std::memory_order_relaxed);
          Response Resp = D.handle(R);
          if (Resp.Code != 200) {
            T.Non200.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          T.Ok200.fetch_add(1, std::memory_order_relaxed);
          if (Resp.Status == "succeeded") {
            T.Succeeded.fetch_add(1, std::memory_order_relaxed);
          } else if (Resp.Status == "degraded") {
            T.Degraded.fetch_add(1, std::memory_order_relaxed);
            if (Resp.Body != R.Body)
              T.DegradedMismatch.fetch_add(1, std::memory_order_relaxed);
          } else {
            T.Other.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto &Th : Drivers)
      Th.join();
    Stop.store(true, std::memory_order_relaxed);
    if (Killer.joinable())
      Killer.join();

    // Pull the final counters out of STATS before the daemon dies.
    Request StatsReq;
    StatsReq.V = Verb::Stats;
    Response Stats = D.handle(StatsReq);

    // Aggregate the sandbox counters across shards straight from the
    // fleet (the JSON is for humans; the pids API gives us the pools).
    uint64_t Crashes = 0, Respawns = 0, WatchdogKills = 0, Quarantined = 0;
    {
      // STATS carries per-shard "sandbox":{...} objects; sum them.
      const std::string &J = Stats.Body;
      auto SumKey = [&](const char *Key) {
        uint64_t Total = 0;
        std::string Needle = std::string("\"") + Key + "\":";
        // The sandbox object is the only place these keys exist.
        for (size_t Pos = J.find("\"sandbox\":{"); Pos != std::string::npos;
             Pos = J.find("\"sandbox\":{", Pos + 1)) {
          size_t End = J.find('}', Pos);
          size_t K = J.find(Needle, Pos);
          if (K == std::string::npos || K > End)
            continue;
          size_t From = K + Needle.size();
          uint64_t V = 0;
          size_t To = J.find_first_of(",}", From);
          if (parseNumber(J.substr(From, To - From), V))
            Total += V;
        }
        return Total;
      };
      Crashes = SumKey("crashes");
      Respawns = SumKey("respawns");
      WatchdogKills = SumKey("watchdog_kills");
      Quarantined = SumKey("quarantined");
    }

    // Count and sanity-check quarantine files.
    uint64_t QuarantineFiles = 0, QuarantineBad = 0;
    std::error_code EC;
    if (fs::is_directory(QuarantineDir, EC)) {
      for (const auto &E : fs::directory_iterator(QuarantineDir, EC)) {
        if (!E.is_regular_file() || E.path().extension() != ".m")
          continue;
        ++QuarantineFiles;
        std::ifstream In(E.path());
        std::string First;
        std::getline(In, First);
        if (First != "% mvec-quarantine v1")
          ++QuarantineBad;
      }
    }

    bool Violations = false;
    auto Check = [&](bool Ok, const char *What) {
      if (!Ok) {
        Violations = true;
        std::fprintf(stderr, "crashrun: VIOLATION: %s\n", What);
      }
    };
    Check(T.Non200.load() == 0, "non-200 response to a valid request");
    Check(T.DegradedMismatch.load() == 0,
          "degraded response body was not byte-exact passthrough");
    Check(T.Ok200.load() == T.Sent.load(), "not every request answered");
    Check(T.Succeeded.load() > 0, "no request succeeded at all");
    if (KillEveryMs && Seconds >= 2) {
      Check(Crashes > 0, "killer ran but STATS shows zero crashes");
      Check(Respawns > 0, "workers died but never respawned");
    }
    if (Hooks && T.HookInputs.load() > 0) {
      Check(Quarantined > 0, "hook inputs crashed workers but none were "
                             "quarantined");
      Check(QuarantineFiles == Quarantined,
            "quarantine file count does not match the STATS counter");
      Check(QuarantineBad == 0, "a quarantine file lacks the v1 header");
      // The watchdog only reliably wins the race to a wedged worker when
      // the external killer is off (otherwise a SIGKILL usually lands
      // first and the death classifies as a crash instead).
      if (!KillEveryMs)
        Check(WatchdogKills > 0, "spin hooks ran but no watchdog kill");
    }

    std::fprintf(stderr,
                 "crashrun: sent=%llu ok200=%llu succeeded=%llu "
                 "degraded=%llu other=%llu\n"
                 "crashrun: crashes=%llu respawns=%llu watchdog_kills=%llu "
                 "quarantined=%llu (files=%llu)\n",
                 (unsigned long long)T.Sent.load(),
                 (unsigned long long)T.Ok200.load(),
                 (unsigned long long)T.Succeeded.load(),
                 (unsigned long long)T.Degraded.load(),
                 (unsigned long long)T.Other.load(),
                 (unsigned long long)Crashes, (unsigned long long)Respawns,
                 (unsigned long long)WatchdogKills,
                 (unsigned long long)Quarantined,
                 (unsigned long long)QuarantineFiles);
    if (Json) {
      std::printf(
          "{\"sent\":%llu,\"ok200\":%llu,\"succeeded\":%llu,"
          "\"degraded\":%llu,\"other\":%llu,\"crashes\":%llu,"
          "\"respawns\":%llu,\"watchdog_kills\":%llu,\"quarantined\":%llu,"
          "\"quarantine_files\":%llu,\"violations\":%s}\n",
          (unsigned long long)T.Sent.load(),
          (unsigned long long)T.Ok200.load(),
          (unsigned long long)T.Succeeded.load(),
          (unsigned long long)T.Degraded.load(),
          (unsigned long long)T.Other.load(), (unsigned long long)Crashes,
          (unsigned long long)Respawns, (unsigned long long)WatchdogKills,
          (unsigned long long)Quarantined,
          (unsigned long long)QuarantineFiles,
          Violations ? "true" : "false");
    }

    if (Violations)
      return 1;
    // Reaching here at all demonstrates containment: every SIGKILL,
    // SIGABRT, OOM and wedge landed in a worker process.
  }
  fs::remove_all(Scratch);
  std::fprintf(stderr, "crashrun: PASS (zero daemon deaths, all-200)\n");
  return 0;
}
