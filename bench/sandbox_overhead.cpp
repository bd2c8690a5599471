//===- sandbox_overhead.cpp - Process-isolation overhead benchmark -----------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies what `isolation = process` costs. The warm soak (the same
/// in-process soak as daemon_throughput, 32 repeated scripts) runs twice
/// — once with isolation=inproc and once with isolation=process, where
/// the shard services still serve every hit in the daemon. The cold
/// phases send distinct scripts, so every request is a miss: vectorized
/// and validated inline, or in a sandbox worker across the socketpair
/// hop. A chaos phase repeats the process-isolated cold soak while a
/// killer thread SIGKILLs live workers continuously, so kills land on
/// workers that are evaluating misses.
///
/// Emits BENCH_sandbox.json: QPS and p50/p99/p999 per phase, the warm and
/// cold overhead ratios inproc/process, and the chaos phase's supervision
/// counters (crashes, respawns, cache misses; degraded serves must be the
/// ONLY casualty: every request still answers 200).
///
/// Usage: sandbox_overhead [--quick] [output.json]
///   --quick   10k warm / 1k cold requests per phase instead of 200k / 20k
///             (CI smoke); the chaos phase sends 20k distinct scripts
///             either way
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

using namespace mvec::daemon;

namespace {

constexpr unsigned NumScripts = 32;

std::string syntheticScript(unsigned Tag) {
  std::string S = "% sandbox soak script " + std::to_string(Tag) + "\n";
  S += "n = " + std::to_string(8 + Tag % 8) +
       "; x = rand(1,n); y = rand(1,n); z = zeros(1,n);\n"
       "%! x(1,*) y(1,*) z(1,*) n(1)\n"
       "for i=1:n\n  z(i) = 2*x(i)+y(i)^2;\nend\n";
  return S;
}

struct PhaseStats {
  uint64_t Requests = 0;
  double ElapsedSec = 0;
  uint64_t Ok200 = 0, Degraded = 0, Other = 0;
  double P50Ms = 0, P99Ms = 0, P999Ms = 0;
  double qps() const {
    return ElapsedSec > 0 ? static_cast<double>(Requests) / ElapsedSec : 0;
  }
};

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

PhaseStats runPhase(Daemon &D, uint64_t Requests, unsigned Threads,
                    const std::vector<std::string> &Scripts) {
  std::vector<std::vector<double>> Latencies(Threads);
  std::vector<PhaseStats> Partial(Threads);
  std::atomic<uint64_t> Next{0};
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T) {
    Pool.emplace_back([&, T] {
      Latencies[T].reserve(Requests / Threads + 1);
      for (;;) {
        uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= Requests)
          break;
        Request Req;
        Req.V = Verb::Vec;
        Req.Tenant = "soak-" + std::to_string(T % 4);
        Req.Name = "req" + std::to_string(I);
        Req.Body = Scripts[I % Scripts.size()];
        auto T0 = std::chrono::steady_clock::now();
        Response Resp = D.handle(Req);
        auto T1 = std::chrono::steady_clock::now();
        Latencies[T].push_back(
            std::chrono::duration<double, std::milli>(T1 - T0).count());
        PhaseStats &S = Partial[T];
        ++S.Requests;
        if (Resp.Code == 200)
          ++S.Ok200;
        if (Resp.Status == "degraded")
          ++S.Degraded;
        else if (Resp.Status != "succeeded")
          ++S.Other;
      }
    });
  }
  for (std::thread &T : Pool)
    T.join();

  PhaseStats S;
  S.ElapsedSec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  std::vector<double> All;
  for (unsigned T = 0; T != Threads; ++T) {
    S.Requests += Partial[T].Requests;
    S.Ok200 += Partial[T].Ok200;
    S.Degraded += Partial[T].Degraded;
    S.Other += Partial[T].Other;
    All.insert(All.end(), Latencies[T].begin(), Latencies[T].end());
  }
  std::sort(All.begin(), All.end());
  S.P50Ms = percentile(All, 0.50);
  S.P99Ms = percentile(All, 0.99);
  S.P999Ms = percentile(All, 0.999);
  return S;
}

void printPhase(std::ofstream &Out, const char *Name, const PhaseStats &S) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"name\":\"%s\",\"requests\":%llu,\"elapsed_s\":%.3f,"
      "\"qps\":%.1f,\"ok200\":%llu,\"degraded\":%llu,\"other\":%llu,"
      "\"latency_ms\":{\"p50\":%.4f,\"p99\":%.4f,\"p999\":%.4f}}",
      Name, static_cast<unsigned long long>(S.Requests), S.ElapsedSec,
      S.qps(), static_cast<unsigned long long>(S.Ok200),
      static_cast<unsigned long long>(S.Degraded),
      static_cast<unsigned long long>(S.Other), S.P50Ms, S.P99Ms, S.P999Ms);
  Out << Buf;
  std::printf("%-16s %8llu req  %9.1f req/s  p50=%.4fms p99=%.4fms "
              "degraded=%llu\n",
              Name, static_cast<unsigned long long>(S.Requests), S.qps(),
              S.P50Ms, S.P99Ms,
              static_cast<unsigned long long>(S.Degraded));
}

/// Sums counter \p Key across the per-shard \p Object objects (e.g.
/// "sandbox" or "cache") in a STATS document.
uint64_t sumCounter(const std::string &Json, const char *Object,
                    const char *Key) {
  uint64_t Total = 0;
  std::string Open = std::string("\"") + Object + "\":{";
  std::string Needle = std::string("\"") + Key + "\":";
  for (size_t Pos = Json.find(Open); Pos != std::string::npos;
       Pos = Json.find(Open, Pos + 1)) {
    size_t End = Json.find('}', Pos);
    size_t K = Json.find(Needle, Pos);
    if (K == std::string::npos || K > End)
      continue;
    Total += std::strtoull(Json.c_str() + K + Needle.size(), nullptr, 10);
  }
  return Total;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t PerPhase = 200000;
  std::string OutPath = "BENCH_sandbox.json";
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--quick")
      PerPhase = 10000;
    else
      OutPath = Arg;
  }
  uint64_t PerColdPhase = PerPhase / 10;
  unsigned Threads = std::max(2u, std::thread::hardware_concurrency());

  std::vector<std::string> Scripts;
  for (unsigned I = 0; I != NumScripts; ++I)
    Scripts.push_back(syntheticScript(I));

  DaemonConfig Base;
  Base.Shards = 4;
  Base.WorkersPerShard = std::max(1u, Threads / 4);
  Base.MaxQueueDepth = 4096;
  Base.QuarantineDir = ""; // Nothing here should be quarantined.

  // Phase 1: the baseline — shards serve inline.
  PhaseStats Inproc;
  {
    DaemonConfig C = Base;
    C.Isolation = "inproc";
    Daemon D(C);
    Inproc = runPhase(D, PerPhase, Threads, Scripts);
  }

  // Phase 2: identical traffic through forked sandbox workers.
  PhaseStats Process;
  {
    DaemonConfig C = Base;
    C.Isolation = "process";
    Daemon D(C);
    Process = runPhase(D, PerPhase, Threads, Scripts);
  }

  // Cold phases: one distinct script per request, so every request is a
  // miss — the path where isolation still costs a socketpair round trip.
  // The chaos phase below takes its misses from the same list.
  uint64_t PerChaosPhase = std::max<uint64_t>(PerPhase / 10, 20000);
  std::vector<std::string> Distinct;
  for (uint64_t I = 0; I != std::max(PerColdPhase, PerChaosPhase); ++I)
    Distinct.push_back(syntheticScript(NumScripts + static_cast<unsigned>(I)));
  auto ColdPhase = [&](const char *Isolation) {
    DaemonConfig C = Base;
    C.Isolation = Isolation;
    Daemon D(C);
    return runPhase(D, PerColdPhase, Threads, Distinct);
  };
  PhaseStats InprocCold = ColdPhase("inproc");
  PhaseStats ProcessCold = ColdPhase("process");

  // Phase 3: a process-isolated cold soak while workers are being
  // SIGKILLed out from under it. Every request is a distinct script, so
  // each one is a miss a worker must evaluate: the kills land on busy
  // workers. Throughput dips and degraded serves appear; protocol errors
  // and daemon deaths must not. Requests carry a short deadline so a
  // freshly-killed shard sheds instead of parking the driver for the
  // default 10 s.
  PhaseStats Chaos;
  uint64_t Crashes = 0, Respawns = 0, ChaosMisses = 0;
  {
    DaemonConfig C = Base;
    C.Isolation = "process";
    C.HeartbeatIntervalMs = 100;
    C.DeadlineMs = 1000;
    Daemon D(C);
    std::atomic<bool> Stop{false};
    std::thread Killer([&] {
      unsigned Tick = 0;
      // First kill lands early so even a fast phase sees at least one.
      unsigned DelayMs = 50;
      while (!Stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
        DelayMs = 250;
        std::vector<pid_t> Pids = D.workerPids();
        if (!Pids.empty())
          ::kill(Pids[Tick++ % Pids.size()], SIGKILL);
      }
    });
    Chaos = runPhase(D, PerChaosPhase, Threads, Distinct);
    Stop.store(true);
    Killer.join();
    Request Stats;
    Stats.V = Verb::Stats;
    std::string Json = D.handle(Stats).Body;
    Crashes = sumCounter(Json, "sandbox", "crashes");
    Respawns = sumCounter(Json, "sandbox", "respawns");
    ChaosMisses = sumCounter(Json, "cache", "misses");
  }

  double Overhead = Process.qps() > 0 ? Inproc.qps() / Process.qps() : 0;
  double ColdOverhead =
      ProcessCold.qps() > 0 ? InprocCold.qps() / ProcessCold.qps() : 0;

  std::ofstream Out(OutPath, std::ios::trunc);
  Out << "{\"bench\":\"sandbox_overhead\",\"requests_per_phase\":" << PerPhase
      << ",\"threads\":" << Threads << ",\"shards\":" << Base.Shards
      << ",\"phases\":[";
  printPhase(Out, "inproc", Inproc);
  Out << ",";
  printPhase(Out, "process", Process);
  Out << ",";
  printPhase(Out, "inproc-cold", InprocCold);
  Out << ",";
  printPhase(Out, "process-cold", ProcessCold);
  Out << ",";
  printPhase(Out, "process-chaos", Chaos);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "],\"isolation_overhead_x\":%.2f,"
                "\"cold_isolation_overhead_x\":%.2f,"
                "\"chaos\":{\"crashes\":%llu,\"respawns\":%llu,"
                "\"misses\":%llu}}\n",
                Overhead, ColdOverhead,
                static_cast<unsigned long long>(Crashes),
                static_cast<unsigned long long>(Respawns),
                static_cast<unsigned long long>(ChaosMisses));
  Out << Buf;
  Out.close();

  std::printf("isolation overhead: warm %.2fx (inproc %.0f req/s vs "
              "process %.0f req/s), cold %.2fx (%.0f vs %.0f req/s); chaos: "
              "%llu crash(es), %llu respawn(s), %llu miss(es)\n",
              Overhead, Inproc.qps(), Process.qps(), ColdOverhead,
              InprocCold.qps(), ProcessCold.qps(),
              static_cast<unsigned long long>(Crashes),
              static_cast<unsigned long long>(Respawns),
              static_cast<unsigned long long>(ChaosMisses));
  std::printf("wrote %s\n", OutPath.c_str());

  // The containment contract, benchmarked: every request in every phase
  // got a 200, even with workers dying mid-soak.
  if (Inproc.Ok200 != Inproc.Requests || Process.Ok200 != Process.Requests ||
      InprocCold.Ok200 != InprocCold.Requests ||
      ProcessCold.Ok200 != ProcessCold.Requests ||
      Chaos.Ok200 != Chaos.Requests) {
    std::fprintf(stderr, "FAIL: a request did not answer 200\n");
    return 1;
  }
  if (Inproc.Degraded + Inproc.Other + Process.Degraded + Process.Other +
          InprocCold.Degraded + InprocCold.Other + ProcessCold.Degraded +
          ProcessCold.Other !=
      0) {
    std::fprintf(stderr,
                 "FAIL: calm phases saw non-succeeded responses\n");
    return 1;
  }
  return 0;
}
