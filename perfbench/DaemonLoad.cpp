//===- DaemonLoad.cpp - cold-miss and warm-hit through mvecd --------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two serving workloads. Both run the real mvecd (2 shards x 2
/// workers, isolation = process, a disk store inside the work directory)
/// and drive it over loopback TCP from this process: a closed loop of two
/// connections for throughput, then an open loop at a fixed arrival rate
/// for latency, timed from when each request was due.
///
///  - cold-miss: every request is a distinct script (half seeded generator
///    programs, half edited resubmits of recent ones), so every request
///    pays the whole compile + validate path, the sandbox hop and a store
///    write; the edited half is where the nest cache can hit.
///  - warm-hit: Zipf-skewed repeats over a few hundred small scripts that
///    set-up filled into the caches, so requests read the memory tier.
///
//===----------------------------------------------------------------------===//

#include "Client.h"
#include "Layers.h"
#include "Workloads.h"

#include "driver/Pipeline.h"
#include "fuzz/Generator.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_set>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::daemon;

namespace perfbench {

namespace {

/// Checks \p Source the way a validating service job would and fills the
/// expected body. False (with \p Why) when the job would not succeed.
bool admitScript(const std::string &Source, std::string &Expected,
                 std::string &Why);

/// warm-hit population: generated scripts plus the repository's
/// examples/matlab and corpus/ scripts under \p Root.
ScriptSet warmScripts(uint64_t Seed, const std::string &Root);

/// Zipf(1.0) popularity over a seeded permutation of [0, N).
class ZipfPicker {
public:
  ZipfPicker(size_t N, uint64_t Seed);
  /// Maps a uniform draw in [0, 1) to a population index.
  size_t pick(double U) const;

private:
  std::vector<double> Cdf;
  std::vector<size_t> Perm;
};

/// Open-loop arrival rates (requests/s): about a quarter of each
/// workload's closed-loop throughput in a quiet phase of the 4-core
/// reference host. At half, the host's contended phases (which cut
/// warm-hit's capacity up to 3x) push the daemon into saturation; at an
/// eighth, more requests find the vCPUs idle, and latency then measures
/// the host's wake-ups (warm-hit p50 rose from about 0.12 to 0.19 ms and
/// its spread doubled).
constexpr double ColdOpenRate = 800;
constexpr double WarmOpenRate = 5000;

constexpr size_t NoScript = std::numeric_limits<size_t>::max();

/// Requests sent (untimed) before a cold-miss measurement, so worker
/// processes are past their first-request page faults.
constexpr size_t ColdWarmup = 200;
/// Closed-loop requests per second the cold-miss pool is sized for; the
/// closed loop stops early (and says so) if the daemon outruns it.
constexpr double ColdClosedCapRps = 8000;

/// Uniform double in [0, 1) for request \p K of phase \p Phase.
double uniformFor(uint64_t Seed, uint64_t Phase, uint64_t K) {
  uint64_t Bits = fuzz::Rng::deriveSeed(Seed ^ (Phase * 0x9e3779b97f4a7c15ull),
                                        K + 1);
  return static_cast<double>(Bits >> 11) * 0x1.0p-53;
}

void parallelFor(size_t N, const std::function<void(size_t)> &Body) {
  unsigned T = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != T; ++I)
    Threads.emplace_back([&] {
      for (size_t K = Next++; K < N; K = Next++)
        Body(K);
    });
  for (std::thread &Th : Threads)
    Th.join();
}

/// \p Count distinct admitted generator programs, in a seed-determined
/// order. Candidates are generated in parallel, de-duplicated (the small
/// grammars repeat themselves) before the costly admission check, and
/// admitted in parallel; \p Dropped counts what was skipped and why.
std::vector<Script> generatedScripts(uint64_t Seed, size_t Count,
                                     std::map<std::string, unsigned> &Dropped) {
  std::vector<Script> Out;
  std::unordered_set<std::string> Seen;
  for (uint64_t Base = 0; Out.size() < Count; Base += 2 * Count + 64) {
    size_t Batch = 2 * (Count - Out.size()) + 64;
    std::vector<fuzz::GenProgram> Cand(Batch);
    parallelFor(Batch, [&](size_t I) {
      Cand[I] = fuzz::Generator(fuzz::Rng::deriveSeed(Seed, Base + I)).next();
    });
    std::vector<size_t> Unique;
    for (size_t I = 0; I != Batch; ++I) {
      if (Seen.insert(Cand[I].Source).second)
        Unique.push_back(I);
      else
        ++Dropped["duplicate source"];
    }
    std::vector<Script> Admitted(Unique.size());
    std::vector<std::string> Why(Unique.size());
    parallelFor(Unique.size(), [&](size_t U) {
      const fuzz::GenProgram &P = Cand[Unique[U]];
      if (admitScript(P.Source, Admitted[U].Expected, Why[U])) {
        Admitted[U].Name =
            "gen-" + std::to_string(Base + Unique[U]) + "-" + P.Family;
        Admitted[U].Source = P.Source;
      }
    });
    for (size_t U = 0; U != Unique.size() && Out.size() < Count; ++U) {
      if (Admitted[U].Source.empty())
        ++Dropped[Cand[Unique[U]].Family + ": " + Why[U]];
      else
        Out.push_back(std::move(Admitted[U]));
    }
  }
  return Out;
}

/// The untraced run repeats cycles of: a closed-loop slice, an open-loop
/// slice, a slice of the run-time probe. Interleaving makes every metric
/// sample the whole window, so host drift during a run moves them alike.
constexpr double ClosedSliceSecs = 0.5;
constexpr double OpenSliceSecs = 1.0;
constexpr double ProbeSliceSecs = 0.15;
constexpr double LoopbackSliceSecs = 0.1; // twice: ping-pong, paced

size_t cycles(unsigned Seconds) {
  return static_cast<size_t>(
             Seconds / (ClosedSliceSecs + OpenSliceSecs + ProbeSliceSecs +
                        2 * LoopbackSliceSecs)) +
         2;
}

size_t coldCount(unsigned Seconds, bool Trace) {
  if (Trace)
    return ColdWarmup + 2 * static_cast<size_t>(0.3 * Seconds * ColdOpenRate *
                                                    1.2 +
                                                50);
  return ColdWarmup + cycles(Seconds) * static_cast<size_t>(
                                            ClosedSliceSecs * ColdClosedCapRps +
                                            OpenSliceSecs * ColdOpenRate + 50);
}

//===----------------------------------------------------------------------===//
// Load generation
//===----------------------------------------------------------------------===//

struct LoadSpec {
  uint16_t Port = 0;
  const std::vector<Script> *Scripts = nullptr;
  const std::vector<std::string> *Wires = nullptr;
  /// Global request number -> script index (NoScript ends the phase).
  std::function<size_t(uint64_t)> Pick;
  /// Global number of this run's first request (SlicedLoad continues one
  /// phase across several runs).
  uint64_t FirstRequest = 0;
  unsigned Connections = 2;
  double Seconds = 1;
  /// Arrivals per second; 0 runs a closed loop.
  double Rate = 0;
  /// Fail any response not served from a cache tier.
  bool RequireWarm = false;
};

struct LoadResult {
  uint64_t Sent = 0, Ok = 0, Bad = 0;
  uint64_t Memory = 0, Disk = 0, Compiled = 0;
  /// Latency per request (closed: round trip; open: from due time).
  std::vector<double> LatMs;
  /// Open loop: how late the generator sent requests it was idle for.
  std::vector<double> LateMs;
  /// Open loop: requests whose connection was still busy at their due
  /// time (server backlog, counted in their latency).
  uint64_t Backlogged = 0;
  /// Request numbers handed out (some may go unsent at the deadline).
  uint64_t Claimed = 0;
  /// SlicedLoad: each slice's p90 latency and completions per second.
  std::vector<double> SliceP50Ms, SliceP90Ms, SliceRps;
  double Secs = 0;
  bool Exhausted = false;
  std::string FirstError;
};

bool checkResponse(const Response &Resp, const Script &S, bool RequireWarm,
                   std::string &Why) {
  if (Resp.Code != 200)
    Why = "code " + std::to_string(Resp.Code);
  else if (Resp.Status != "succeeded")
    Why = "status " + Resp.Status + " (" + Resp.Message + ")";
  else if (Resp.Body != S.Expected)
    Why = "body differs from vectorizeSource";
  else if (RequireWarm && Resp.CacheTier == "none")
    Why = "cold miss after the fill";
  else
    return true;
  Why = S.Name + ": " + Why;
  return false;
}

LoadResult runLoad(const LoadSpec &Spec) {
  LoadResult Total;
  std::mutex Mutex;
  std::atomic<uint64_t> Next{0};
  std::atomic<bool> Exhausted{false};
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(2);
  Clock::time_point End =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Spec.Seconds));
  auto DueOf = [&](uint64_t K) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(K / Spec.Rate));
  };

  auto Worker = [&] {
    // Timer slack of 1 ns: wake-ups land on the due time, not up to 50 us
    // after it.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    LoadResult Mine;
    Connection C;
    std::string Error;
    if (!C.connect(Spec.Port, Error)) {
      Mine.Bad = 1;
      Mine.FirstError = Error;
    } else {
      std::this_thread::sleep_until(Start);
      for (;;) {
        uint64_t K = Next.fetch_add(1, std::memory_order_relaxed);
        Clock::time_point Due = Clock::now();
        if (Spec.Rate > 0) {
          Due = DueOf(K);
          if (Due >= End)
            break;
        } else if (Due >= End) {
          break;
        }
        size_t Idx = Spec.Pick(Spec.FirstRequest + K);
        if (Idx == NoScript) {
          Exhausted = true;
          break;
        }
        bool Waited = false;
        if (Spec.Rate > 0 && Clock::now() < Due) {
          std::this_thread::sleep_until(Due);
          Waited = true;
        }
        trace::Scope Request("client.request", K + 1);
        Clock::time_point Sent = Clock::now();
        if (Waited)
          Mine.LateMs.push_back(msBetween(Due, Sent));
        else if (Spec.Rate > 0)
          ++Mine.Backlogged;
        Response Resp;
        bool Transport;
        {
          trace::Scope RoundTrip("daemon.roundtrip");
          Transport = C.send((*Spec.Wires)[Idx], Error) &&
                      C.receive(Resp, Error);
        }
        Clock::time_point Done = Clock::now();
        ++Mine.Sent;
        if (!Transport) {
          ++Mine.Bad;
          if (Mine.FirstError.empty())
            Mine.FirstError = (*Spec.Scripts)[Idx].Name + ": " + Error;
          break;
        }
        Mine.LatMs.push_back(msBetween(Spec.Rate > 0 ? Due : Sent, Done));
        std::string Why;
        if (checkResponse(Resp, (*Spec.Scripts)[Idx], Spec.RequireWarm,
                          Why)) {
          ++Mine.Ok;
        } else {
          ++Mine.Bad;
          if (Mine.FirstError.empty())
            Mine.FirstError = Why;
        }
        if (Resp.CacheTier == "memory")
          ++Mine.Memory;
        else if (Resp.CacheTier == "disk")
          ++Mine.Disk;
        else
          ++Mine.Compiled;
        if (trace::enabled())
          trace::count("client.tier." + Resp.CacheTier);
      }
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    Total.Sent += Mine.Sent;
    Total.Ok += Mine.Ok;
    Total.Bad += Mine.Bad;
    Total.Memory += Mine.Memory;
    Total.Disk += Mine.Disk;
    Total.Compiled += Mine.Compiled;
    Total.Backlogged += Mine.Backlogged;
    Total.LatMs.insert(Total.LatMs.end(), Mine.LatMs.begin(),
                       Mine.LatMs.end());
    Total.LateMs.insert(Total.LateMs.end(), Mine.LateMs.begin(),
                        Mine.LateMs.end());
    if (Total.FirstError.empty())
      Total.FirstError = Mine.FirstError;
  };

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Spec.Connections; ++I)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
  Total.Secs = secondsBetween(Start, std::min(Clock::now(), End));
  if (Spec.Rate == 0 || Exhausted)
    Total.Secs = secondsBetween(Start, Clock::now());
  Total.Exhausted = Exhausted;
  Total.Claimed = Next.load();
  return Total;
}

/// Keeps every vCPU busy while mvecd is timed: one SCHED_IDLE thread per
/// CPU, spinning. A woken thread pre-empts such a spinner at once, so the
/// daemon's wake-ups cost an in-guest context switch instead of waking a
/// halted vCPU through the hypervisor, whose latency follows the host's
/// load (the idle=poll technique). On the reference host, over five seeds
/// interleaved with and without, warm-hit's req_ms_p50 spread 0.08 with
/// spinners and 0.34 without; throughput fell 4%. The daemon's boots run
/// without them: under spinners a boot took 5-20 ms instead of 2-4 ms, in
/// runs that switched between the two for good part-way through.
class IdleSpinners {
public:
  IdleSpinners() {
    unsigned N = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned I = 0; I != N; ++I)
      Threads.emplace_back([this] {
        sched_param P{};
        if (::sched_setscheduler(0, SCHED_IDLE, &P) != 0)
          return; // never spin at normal priority
        while (!Stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
  }
  ~IdleSpinners() {
    Stop = true;
    for (std::thread &T : Threads)
      T.join();
  }
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

/// Pins the calling thread to \p Cpu (ignored when it cannot).
void pinToCpu(unsigned Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  ::sched_setaffinity(0, sizeof(Set), &Set);
}

/// Host-speed reference for request metrics, measured between two threads
/// of this process over a loopback TCP connection, 64-byte messages, for
/// \p Secs: with \p PacedRate 0 the round trips per second of a ping-pong
/// (Rps), otherwise the round-trip times (ms, from when each was due) of
/// messages sent at \p PacedRate per second (PacedMs). No mvec code runs in it, so a change to the
/// program does not move it; it pays what a request through mvecd pays
/// most of (loopback TCP, system calls, wake-ups across vCPUs; paced, a
/// timer wake-up as well), so it follows the host's contended phases,
/// which on the reference host move warm-hit throughput and latency by up
/// to 2x between runs. The threads are pinned to \p CpuA and \p CpuB: a
/// free pair lands on one vCPU or on two from one sample to the next, and
/// the rates of the two differ 2x.
struct LoopbackSample {
  double Rps = 0;
  std::vector<double> PacedMs;
};
bool loopbackProbe(double Secs, unsigned CpuA, unsigned CpuB,
                   double PacedRate, LoopbackSample &Out) {
  int Listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Listener < 0)
    return false;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  int Client = -1, Server = -1;
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
          0 &&
      ::listen(Listener, 1) == 0 &&
      ::getsockname(Listener, reinterpret_cast<sockaddr *>(&Addr), &Len) ==
          0) {
    Client = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Client >= 0 &&
        ::connect(Client, reinterpret_cast<sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      Server = ::accept(Listener, nullptr, nullptr);
  }
  ::close(Listener);
  if (Server < 0) {
    if (Client >= 0)
      ::close(Client);
    return false;
  }
  int One = 1;
  ::setsockopt(Client, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  ::setsockopt(Server, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  constexpr size_t Msg = 64;
  // Sends or receives exactly Msg bytes; false on EOF or error.
  auto Transfer = [](int Fd, char *Buf, bool Send) {
    for (size_t Done = 0; Done != Msg;) {
      ssize_t N = Send ? ::send(Fd, Buf + Done, Msg - Done, MSG_NOSIGNAL)
                       : ::recv(Fd, Buf + Done, Msg - Done, 0);
      if (N <= 0)
        return false;
      Done += static_cast<size_t>(N);
    }
    return true;
  };
  std::thread Echo([&] {
    pinToCpu(CpuB);
    char Buf[Msg];
    while (Transfer(Server, Buf, false) && Transfer(Server, Buf, true)) {
    }
  });
  bool Ok = true;
  std::thread Ping([&] {
    pinToCpu(CpuA);
    ::prctl(PR_SET_TIMERSLACK, 1UL); // as the load generator's threads
    char Buf[Msg] = {};
    uint64_t Trips = 0;
    Clock::time_point Start = Clock::now();
    double Spent = 0;
    while (PacedRate == 0 && Ok && Spent < Secs) {
      for (int K = 0; K != 32 && Ok; ++K, ++Trips)
        Ok = Transfer(Client, Buf, true) && Transfer(Client, Buf, false);
      Spent = secondsBetween(Start, Clock::now());
      Out.Rps = Trips / Spent;
    }
    for (uint64_t K = 0; PacedRate > 0 && Ok; ++K) {
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(K / PacedRate));
      if (secondsBetween(Start, Due) >= Secs)
        break;
      std::this_thread::sleep_until(Due);
      Ok = Transfer(Client, Buf, true) && Transfer(Client, Buf, false);
      Out.PacedMs.push_back(msBetween(Due, Clock::now()));
    }
    ::shutdown(Client, SHUT_RDWR);
  });
  Ping.join();
  Echo.join();
  ::close(Client);
  ::close(Server);
  return Ok;
}

/// loopbackProbe's figures on the reference host in a quiet phase. Each
/// load slice is reported at this host speed: its throughput * reference
/// rate / the ping-pong rate right after it, its latency * reference round
/// trip / the median paced round trip right after it.
constexpr double LoopbackReferenceRps = 65000;
constexpr double LoopbackReferenceMs = 0.03;

/// Milliseconds to fork, exec and reap mvec_bench_spawn (the program beside
/// this one, SpawnProbe.cpp); a negative value when it cannot be run.
double spawnProbeMs() {
  static const std::string Path = [] {
    char Self[4096];
    ssize_t N = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
    std::string Dir = N > 0 ? std::string(Self, static_cast<size_t>(N)) : "";
    return Dir.substr(0, Dir.rfind('/') + 1) + "mvec_bench_spawn";
  }();
  const char *Exe = Path.c_str();
  Clock::time_point T0 = Clock::now();
  pid_t Pid = ::vfork(); // as MvecdProcess::start
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    ::execl(Exe, Exe, static_cast<char *>(nullptr));
    ::_exit(127);
  }
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  double Ms = msBetween(T0, Clock::now());
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? Ms : -1;
}

/// spawnProbeMs on the reference host in a quiet phase. The daemon's boot
/// is reported at this host speed: boot * reference / median probe now.
constexpr double SpawnReferenceMs = 1.0;

/// One load phase run as a series of slices (step()), keeping per-slice
/// figures so that a host stall moves one slice's figure instead of the
/// run's.
struct SlicedLoad {
  LoadSpec Spec;
  LoadResult Total;

  /// Runs one slice of Spec.Seconds; false once the phase cannot go on
  /// (inputs exhausted or a request failed).
  bool step() {
    if (Total.Exhausted || Total.Bad)
      return false;
    LoadResult L = runLoad(Spec);
    Spec.FirstRequest += L.Claimed;
    Total.Sent += L.Sent;
    Total.Ok += L.Ok;
    Total.Bad += L.Bad;
    Total.Memory += L.Memory;
    Total.Disk += L.Disk;
    Total.Compiled += L.Compiled;
    Total.Backlogged += L.Backlogged;
    Total.Claimed += L.Claimed;
    Total.Secs += L.Secs;
    Total.Exhausted = L.Exhausted;
    Total.LatMs.insert(Total.LatMs.end(), L.LatMs.begin(), L.LatMs.end());
    Total.LateMs.insert(Total.LateMs.end(), L.LateMs.begin(), L.LateMs.end());
    Total.SliceP50Ms.push_back(quantile(L.LatMs, 0.5));
    Total.SliceP90Ms.push_back(quantile(L.LatMs, 0.9));
    Total.SliceRps.push_back(L.Ok / L.Secs);
    if (Total.FirstError.empty())
      Total.FirstError = L.FirstError;
    return !L.Exhausted && !L.Bad;
  }
};

/// Counts a phase into the report; returns false when anything failed.
bool account(Report &R, const char *Phase, const LoadResult &L) {
  R.Attempted += L.Sent;
  if (L.Bad == 0)
    return true;
  R.fail(std::string(Phase) + ": " + std::to_string(L.Bad) +
         " failed request(s), first: " + L.FirstError);
  R.Failed += L.Bad - 1; // fail() counted one
  return false;
}

/// warm-hit fill: one sequential pass (compiles and stores every script),
/// then passes from two connections in seeded orders so both workers of
/// each shard hold the population in memory.
bool fill(Report &R, uint16_t Port, const std::vector<Script> &Scripts,
          const std::vector<std::string> &Wires, uint64_t Seed) {
  for (unsigned Pass = 0; Pass != 4; ++Pass) {
    std::vector<size_t> Order(Scripts.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    if (Pass != 0) {
      fuzz::Rng Rng(fuzz::Rng::deriveSeed(Seed, 1000 + Pass));
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Rng.next() % I]);
    }
    LoadSpec Spec;
    Spec.Port = Port;
    Spec.Scripts = &Scripts;
    Spec.Wires = &Wires;
    Spec.Connections = Pass == 0 ? 1 : 2;
    Spec.Seconds = 120;
    Spec.Pick = [&](uint64_t K) { return K < Order.size() ? Order[K] : NoScript; };
    if (!account(R, "fill", runLoad(Spec)))
      return false;
  }
  return true;
}

/// The daemon plus the sandbox workers it forked, by VmHWM.
double servingRssMb(const MvecdProcess &D, const std::string &Stats) {
  double Mb = peakRssMb(D.pid());
  for (long Pid : jsonIntArrays(Stats, "worker_pids"))
    Mb += peakRssMb(static_cast<int>(Pid));
  return Mb;
}

/// Whole-script KernelCases for loop_run_ms/vec_run_ms and the kernel
/// probes: up to \p N of the fresh generated scripts of \p Set, in a
/// seed-drawn order (the repository scripts of warm-hit run for
/// milliseconds and would swamp the geometric mean). warm-hit has fewer
/// than \p N, so it times all of them: the figure then varies with the
/// seed's population, not with which few scripts a seed happened to draw.
std::vector<std::unique_ptr<KernelCase>>
sampleCases(const ScriptSet &Set, uint64_t Seed, size_t N, Report &R) {
  std::vector<size_t> Order(Set.Scripts.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  fuzz::Rng Rng(fuzz::Rng::deriveSeed(Seed, 77));
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.next() % I]);
  std::vector<std::unique_ptr<KernelCase>> Out;
  for (size_t I : Order) {
    if (Out.size() == N)
      break;
    const Script &S = Set.Scripts[I];
    if (S.Edited || S.Name.rfind("gen-", 0) != 0)
      continue;
    auto K = std::make_unique<KernelCase>();
    std::string Error;
    if (!prepareKernel(S.Name, "", S.Source, 12345, *K, Error)) {
      R.fail(Error);
      continue;
    }
    Out.push_back(std::move(K));
  }
  return Out;
}

void noteLoad(Report &R, const char *Phase, const LoadResult &L) {
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "%s: %llu sent in %.2f s (%.0f/s), p50 %.3f ms, p99 %.3f ms, "
                "tiers memory/disk/compiled %llu/%llu/%llu%s",
                Phase, static_cast<unsigned long long>(L.Sent), L.Secs,
                L.Sent / std::max(L.Secs, 1e-9), quantile(L.LatMs, 0.5),
                quantile(L.LatMs, 0.99),
                static_cast<unsigned long long>(L.Memory),
                static_cast<unsigned long long>(L.Disk),
                static_cast<unsigned long long>(L.Compiled),
                L.Exhausted ? " (input pool exhausted)" : "");
  R.note(Buf);
  if (!L.LateMs.empty() || L.Backlogged) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s: generator lateness p99 %.3f ms over %zu idle sends; "
                  "%llu sends queued behind a busy connection",
                  Phase, quantile(L.LateMs, 0.99), L.LateMs.size(),
                  static_cast<unsigned long long>(L.Backlogged));
    R.note(Buf);
  }
}

/// The open-loop generator is behind its schedule when, with a connection
/// free, it still sent 1% of its requests this late.
constexpr double MaxGeneratorLateMs = 5.0;

/// Marks the run invalid (host record and report) when the generator fell
/// behind its schedule: the arrivals were then not the configured process,
/// and the latency figures measure a host that stalls threads for
/// milliseconds. Outputs are still checked as usual.
void checkGenerator(Report &R, const LoadResult &L) {
  double Late = quantile(L.LateMs, 0.99);
  bool Valid = Late <= MaxGeneratorLateMs;
  R.host("valid", Valid ? "true" : "false");
  if (!Valid)
    R.note("run INVALID: the load generator fell behind its schedule "
           "(lateness p99 " + formatDouble(Late) + " ms > " +
           formatDouble(MaxGeneratorLateMs) + " ms)");
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

bool admitScript(const std::string &Source, std::string &Expected,
                 std::string &Why) {
  PipelineResult P = vectorizeSource(Source);
  if (!P.succeeded()) {
    Why = "does not vectorize";
    return false;
  }
  // The validating service job's check (same tolerance and seed), bounded
  // so a slow script is dropped rather than stalling set-up.
  RunLimits Limits;
  Limits.MaxSteps = 2000000;
  Limits.Deadline = Clock::now() + std::chrono::seconds(2);
  DiffOutcome D = diffRunLimited(Source, P.VectorizedSource, Limits);
  switch (D.Status) {
  case DiffStatus::Match:
    Expected = std::move(P.VectorizedSource);
    return true;
  case DiffStatus::Mismatch:
    // A divergence is a vectorizer defect, not a bad input: say so.
    std::fprintf(stderr, "mvec_bench: finding: validation mismatch: %s\n",
                 D.Message.c_str());
    Why = "validation mismatch";
    return false;
  case DiffStatus::Error:
    Why = "runtime error";
    return false;
  case DiffStatus::TimedOut:
  case DiffStatus::Cancelled:
    Why = "too slow to validate";
    return false;
  }
  return false;
}

ScriptSet warmScripts(uint64_t Seed, const std::string &Root) {
  std::map<std::string, unsigned> Dropped;
  ScriptSet Set;
  Set.Scripts = generatedScripts(Seed ^ 0x3a3a3aull, 280, Dropped);
  for (const char *Dir : {"examples/matlab", "corpus"}) {
    for (auto &[Name, Text] : readScripts(Root + "/" + Dir)) {
      Script S;
      S.Name = std::string(Dir) + "/" + Name;
      S.Source = Text;
      std::string Why;
      if (admitScript(S.Source, S.Expected, Why))
        Set.Scripts.push_back(std::move(S));
      else
        ++Dropped[S.Name + ": " + Why];
    }
  }
  Set.Dropped.assign(Dropped.begin(), Dropped.end());
  return Set;
}

ZipfPicker::ZipfPicker(size_t N, uint64_t Seed) : Cdf(N), Perm(N) {
  double Sum = 0;
  for (size_t R = 0; R != N; ++R) {
    Sum += 1.0 / static_cast<double>(R + 1);
    Cdf[R] = Sum;
    Perm[R] = R;
  }
  for (double &C : Cdf)
    C /= Sum;
  fuzz::Rng Rng(fuzz::Rng::deriveSeed(Seed, 0x21ff));
  for (size_t I = N; I > 1; --I)
    std::swap(Perm[I - 1], Perm[Rng.next() % I]);
}

size_t ZipfPicker::pick(double U) const {
  size_t R = static_cast<size_t>(
      std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  return Perm[std::min(R, Perm.size() - 1)];
}

} // namespace

Request requestFor(const Script &S, bool Validate) {
  Request Req;
  Req.V = Verb::Vec;
  Req.Tenant = "bench";
  Req.Name = S.Name;
  Req.Validate = Validate;
  Req.Body = S.Source;
  return Req;
}

uint64_t ScriptSet::hash() const {
  uint64_t H = fnv1a("mvec_bench scripts");
  for (const Script &S : Scripts)
    H = fnv1a(S.Source, fnv1a(S.Name, H));
  return H;
}

ScriptSet coldScripts(uint64_t Seed, size_t Count) {
  std::map<std::string, unsigned> Dropped;
  std::vector<Script> Fresh = generatedScripts(Seed, (Count + 1) / 2, Dropped);
  // Even slots: the fresh programs in order. Odd slots: one of the last 64
  // fresh programs sent, with one statement appended after its nests (a
  // new content key, the same nests).
  ScriptSet Set;
  Set.Scripts.resize(Count);
  std::vector<std::string> Why(Count);
  parallelFor(Count, [&](size_t Slot) {
    size_t Half = Slot / 2;
    if (Slot % 2 == 0) {
      Set.Scripts[Slot] = Fresh[Half];
      return;
    }
    fuzz::Rng Rng(fuzz::Rng::deriveSeed(Seed ^ 0xed17ull, Slot));
    const Script &Base =
        Fresh[Half - Rng.next() % std::min<size_t>(64, Half + 1)];
    Script &S = Set.Scripts[Slot];
    S.Name = Base.Name + "+edit-" + std::to_string(Slot);
    S.Source = Base.Source;
    if (!S.Source.empty() && S.Source.back() != '\n')
      S.Source += '\n';
    S.Source += "bench_edit = " + std::to_string(Slot) + ";\n";
    S.Edited = true;
    if (!admitScript(S.Source, S.Expected, Why[Slot]))
      S = Script();
  });
  for (size_t Slot = 0; Slot != Count; ++Slot)
    if (Set.Scripts[Slot].Source.empty())
      ++Dropped["edited: " + Why[Slot]];
  Set.Scripts.erase(std::remove_if(Set.Scripts.begin(), Set.Scripts.end(),
                                   [](const Script &S) {
                                     return S.Source.empty();
                                   }),
                    Set.Scripts.end());
  Set.Dropped.assign(Dropped.begin(), Dropped.end());
  return Set;
}

std::string writeDaemonConfig(const std::string &Work, bool Store) {
  std::string Path = Work + "/mvecd.conf";
  std::ofstream Out(Path);
  Out << "# mvec_bench: defaults (2 shards x 2 workers) except these\n"
      << "isolation = process\n"
      << "quarantine_dir = " << Work << "/quarantine\n";
  if (Store)
    Out << "store_dir = " << Work << "/store\n";
  return Path;
}

uint64_t inputsHash(const Options &O, size_t &Count) {
  if (O.Workload == "paper-kernels") {
    uint64_t H = fnv1a("mvec_bench paper " + std::to_string(O.Seed));
    Count = 0;
    for (const PaperProgram &P : paperPrograms()) {
      H = fnv1a(P.Setup + P.Kernel, H);
      ++Count;
    }
    return H;
  }
  ScriptSet Set = O.Workload == "warm-hit"
                      ? warmScripts(O.Seed, O.Root)
                      : coldScripts(O.Seed, coldCount(O.Seconds, O.Trace));
  Count = Set.Scripts.size();
  return Set.hash();
}

//===----------------------------------------------------------------------===//
// The workload
//===----------------------------------------------------------------------===//

void runDaemonWorkload(const Options &O, Report &R, bool Warm) {
  Clock::time_point GenStart = Clock::now();
  ScriptSet Set = Warm ? warmScripts(O.Seed, O.Root)
                       : coldScripts(O.Seed, coldCount(O.Seconds, O.Trace));
  const std::vector<Script> &Scripts = Set.Scripts;
  if (Scripts.size() < (Warm ? 100 : ColdWarmup + 100)) {
    R.fail("too few admitted input scripts: " +
           std::to_string(Scripts.size()));
    return;
  }
  std::vector<std::string> Wires(Scripts.size());
  for (size_t I = 0; I != Scripts.size(); ++I)
    Wires[I] = serializeRequest(requestFor(Scripts[I], true));
  size_t Edited = std::count_if(Scripts.begin(), Scripts.end(),
                                [](const Script &S) { return S.Edited; });
  R.note("inputs: " + std::to_string(Scripts.size()) + " scripts (" +
         std::to_string(Edited) + " edited resubmits), hash " +
         hex64(Set.hash()) + ", generated and checked in " +
         std::to_string(secondsBetween(GenStart, Clock::now())) + " s");
  for (const auto &[Why, N] : Set.Dropped)
    R.note("  dropped " + std::to_string(N) + " candidate(s): " + Why);
  std::vector<std::unique_ptr<KernelCase>> Cases =
      sampleCases(Set, O.Seed, 256, R);
  ZipfPicker Zipf(Scripts.size(), O.Seed);

  // cold-miss runs without the disk store: the store lives inside the
  // checkout, and a per-request fsync there measures the device (ext4 on
  // the reference host), not mvec. warm-hit keeps it: it writes only
  // during the fill, and serves a worker's first miss of a script.
  std::string ConfigPath = writeDaemonConfig(O.Work, Warm);
  std::string LogPath = O.Work + "/mvecd.log";
  MvecdProcess D;
  // setup_s is the daemon's boot (process start, sandbox workers forked,
  // first PING answered): the median of 30 boots, scaled by the median of
  // 30 spawnProbeMs() runs, one just before each boot. A boot is mostly
  // process start (fork, exec, page faults), which the host's contended
  // phases slow about 2x; the allocation churn hostFactor() calibrates
  // slows more. The boots run without IdleSpinners (see there). The
  // warm-hit fill is not part of it: it writes every script through the
  // disk store, one fsync per save, which times the device.
  std::vector<double> BootMs, SpawnMs;
  const int SetupReps = O.Trace ? 1 : 30;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    freshDir(O.Work + "/store");
    freshDir(O.Work + "/quarantine");
    SpawnMs.push_back(spawnProbeMs());
    if (SpawnMs.back() <= 0) {
      R.fail("mvec_bench_spawn did not run");
      return;
    }
    std::string Error;
    Clock::time_point T0 = Clock::now();
    bool Started = D.start(O.Mvecd, ConfigPath, LogPath, Error);
    BootMs.push_back(msBetween(T0, Clock::now()));
    if (!Started) {
      R.fail(Error);
      return;
    }
    if (Rep + 1 != SetupReps && !D.stop())
      R.fail("mvecd did not shut down cleanly");
  }
  double SetupS = median(BootMs) / 1e3 * SpawnReferenceMs / median(SpawnMs);
  if (Warm) {
    Clock::time_point T0 = Clock::now();
    if (!fill(R, D.port(), Scripts, Wires, O.Seed))
      return;
    R.note("fill (not gated: disk-store writes time the device): " +
           std::to_string(Scripts.size()) + " scripts, 4 passes in " +
           formatDouble(secondsBetween(T0, Clock::now())) + " s");
  }

  LoadSpec Base;
  Base.Port = D.port();
  Base.Scripts = &Scripts;
  Base.Wires = &Wires;
  Base.RequireWarm = Warm;
  // cold-miss consumes the pool front to back in disjoint slices; warm-hit
  // draws request K of phase P from the Zipf population.
  size_t Cursor = 0;
  auto Slice = [&](size_t Len) {
    size_t Begin = Cursor, End = std::min(Scripts.size(), Cursor + Len);
    Cursor = End;
    return std::function<size_t(uint64_t)>([Begin, End](uint64_t K) {
      return Begin + K < End ? Begin + K : NoScript;
    });
  };
  auto ZipfPhase = [&](uint64_t Phase) {
    return std::function<size_t(uint64_t)>([&, Phase](uint64_t K) {
      return Zipf.pick(uniformFor(O.Seed, Phase, K));
    });
  };
  if (!Warm) {
    LoadSpec Warmup = Base;
    Warmup.Seconds = 120;
    Warmup.Pick = Slice(ColdWarmup);
    if (!account(R, "warm-up", runLoad(Warmup)))
      return;
  }
  const double Rate = Warm ? WarmOpenRate : ColdOpenRate;
  R.host("open_loop_rps", formatDouble(Rate));
  R.host("connections", "{\"closed\":2,\"open\":4}");

  if (!O.Trace) {
    SlicedLoad Closed{Base, {}};
    Closed.Spec.Seconds = ClosedSliceSecs;
    Closed.Spec.Pick =
        Warm ? ZipfPhase(1)
             : Slice(cycles(O.Seconds) *
                     static_cast<size_t>(ClosedSliceSecs * ColdClosedCapRps));
    SlicedLoad Open{Base, {}};
    Open.Spec.Connections = 4;
    Open.Spec.Rate = Rate;
    Open.Spec.Seconds = OpenSliceSecs;
    Open.Spec.Pick = Warm ? ZipfPhase(2) : Slice(Scripts.size());

    // Run time of the workload's programs, loop form vs vectorized form
    // (in this process, host-normalised).
    std::vector<std::vector<double>> LoopMs(Cases.size()),
        VecMs(Cases.size()), LoopRaw(Cases.size()), VecRaw(Cases.size());
    Interpreter I;
    auto Probe = [&] {
      Clock::time_point PStart = Clock::now();
      do {
        // These scripts run in microseconds: a sample is the mean of
        // ProbeReps runs.
        constexpr int ProbeReps = 8;
        double F = hostFactor();
        for (size_t C = 0; C != Cases.size(); ++C) {
          double L = 0, V = 0;
          for (int Rep = 0; Rep != ProbeReps; ++Rep) {
            double LR = runCase(*Cases[C], false, I, 12345);
            double VR = runCase(*Cases[C], true, I, 12345);
            R.Attempted += 2;
            if (LR < 0 || VR < 0)
              R.fail(Cases[C]->Name + ": run failed");
            L += LR;
            V += VR;
          }
          LoopRaw[C].push_back(L / ProbeReps);
          VecRaw[C].push_back(V / ProbeReps);
          LoopMs[C].push_back(LoopRaw[C].back() * F);
          VecMs[C].push_back(VecRaw[C].back() * F);
        }
      } while (secondsBetween(PStart, Clock::now()) < ProbeSliceSecs);
    };

    // The loopback reference, measured in every cycle under the same
    // spinners as the load, the ping-pong right after the closed-loop
    // slice and the paced probe right after the open-loop slice (see
    // loopbackProbe): each slice is scaled by the host speed of its own
    // moment, so a stall of a few seconds moves a few slices.
    std::vector<double> NetRps, NetMs, RpsAtRef, P50AtRef;
    Clock::time_point Start = Clock::now();
    for (;;) {
      bool More, NetOk;
      {
        IdleSpinners Spin;
        // Each cycle pins the pair to the next two vCPUs, so the run
        // covers every vCPU the daemon runs on.
        unsigned Cpus = std::max(1u, std::thread::hardware_concurrency());
        unsigned Cpu = static_cast<unsigned>(NetRps.size()) % Cpus;
        LoopbackSample Ping, Paced;
        Closed.step();
        NetOk = loopbackProbe(LoopbackSliceSecs, Cpu, (Cpu + 1) % Cpus, 0,
                              Ping);
        More = Open.step();
        NetOk = NetOk && loopbackProbe(LoopbackSliceSecs, Cpu,
                                       (Cpu + 1) % Cpus, Rate, Paced);
        if (NetOk) {
          NetRps.push_back(Ping.Rps);
          NetMs.push_back(median(Paced.PacedMs));
          RpsAtRef.push_back(Closed.Total.SliceRps.back() *
                             LoopbackReferenceRps / NetRps.back());
          P50AtRef.push_back(Open.Total.SliceP50Ms.back() *
                             LoopbackReferenceMs / NetMs.back());
        }
      }
      if (!NetOk) {
        R.fail("loopback reference: socket error");
        break;
      }
      if (!More)
        break;
      Probe();
      if (secondsBetween(Start, Clock::now()) >= O.Seconds)
        break;
    }
    const LoadResult &CL = Closed.Total, &OL = Open.Total;
    account(R, "closed loop", CL);
    noteLoad(R, "closed loop", CL);
    account(R, "open loop", OL);
    noteLoad(R, "open loop", OL);
    checkGenerator(R, OL);
    if (OL.Exhausted)
      R.fail("open loop ran out of input scripts");
    // The tail is printed, not gated: on the reference host it measures
    // hypervisor stalls (per-second p99 swings 0.8-13 ms within a run).
    char Buf[400];
    std::snprintf(Buf, sizeof(Buf),
                  "open loop: %zu latency samples in %zu one-second slices; "
                  "req_ms_p90 %.3f ms (median of slice p90s), req_ms_p99 "
                  "%.3f ms, p99.9 %.3f ms",
                  OL.LatMs.size(), OL.SliceP90Ms.size(),
                  median(OL.SliceP90Ms), quantile(OL.LatMs, 0.99),
                  quantile(OL.LatMs, 0.999));
    R.note(Buf);
    std::vector<double> LoopMed, VecMed, LoopRawMed, VecRawMed;
    for (size_t C = 0; C != Cases.size(); ++C) {
      LoopMed.push_back(median(LoopMs[C]));
      VecMed.push_back(median(VecMs[C]));
      LoopRawMed.push_back(median(LoopRaw[C]));
      VecRawMed.push_back(median(VecRaw[C]));
    }
    std::snprintf(Buf, sizeof(Buf),
                  "raw (not host-normalised): boot %.3f ms (spawn probe "
                  "%.3f ms, reference %.1f), loop_run_ms "
                  "%.5f ms, vec_run_ms %.5f ms, throughput_rps %.1f 1/s, "
                  "req_ms_p50 %.5f ms (medians over slices); loopback %.0f "
                  "round trips/s "
                  "(reference %.0f), paced round trip %.5f ms (reference "
                  "%.3f)",
                  median(BootMs), median(SpawnMs), SpawnReferenceMs,
                  geomean(LoopRawMed), geomean(VecRawMed), median(CL.SliceRps),
                  median(OL.SliceP50Ms), median(NetRps), LoopbackReferenceRps, median(NetMs),
                  LoopbackReferenceMs);
    R.note(Buf);
    R.host("loopback", "{\"rps\":" + formatDouble(median(NetRps)) +
                           ",\"rps_reference\":" +
                           formatDouble(LoopbackReferenceRps) +
                           ",\"paced_ms\":" + formatDouble(median(NetMs)) +
                           ",\"paced_ms_reference\":" +
                           formatDouble(LoopbackReferenceMs) + "}");

    std::string Stats, Error;
    if (!fetchStats(D.port(), Stats, Error)) {
      R.fail("STATS: " + Error);
    } else {
      double Crashes = sumJsonKey(Stats, "crashes");
      if (Crashes != 0)
        R.fail("sandbox crashes: " + std::to_string(Crashes));
      R.note("daemon: shed " +
             std::to_string(jsonNumber(Stats, "shed_qos") +
                            jsonNumber(Stats, "shed_queue")) +
             ", degraded " + std::to_string(sumJsonKey(Stats, "degraded")) +
             ", sandbox crashes " + std::to_string(Crashes));
    }
    double Rss = servingRssMb(D, Stats);
    if (!D.stop())
      R.fail("mvecd did not shut down cleanly");

    uint64_t Attempted = CL.Sent + OL.Sent;
    uint64_t Failed = CL.Bad + OL.Bad;
    R.note("failed_ratio (ratio): " +
           formatDouble(Attempted ? double(Failed) / Attempted : 0) +
           " of " + std::to_string(Attempted) + " requests");
    R.add("setup_s", SetupS, "s");
    R.add("loop_run_ms", geomean(LoopMed), "ms");
    R.add("vec_run_ms", geomean(VecMed), "ms");
    // Completions per second of each half-second closed-loop slice, and
    // the median latency of each one-second open-loop slice, at the
    // reference host speed; each the median over slices.
    R.add("throughput_rps", median(RpsAtRef), "1/s");
    R.add("req_ms_p50", median(P50AtRef), "ms");
    R.add("peak_rss_mb", Rss, "MB");
    return;
  }

  // Traced run: the open loop untraced, then traced (the difference is
  // the tracing overhead), then every layer probe on this workload's
  // inputs with the live daemon for the transport and its counters.
  // Untraced and traced one-second slices alternate.
  double PhaseSecs = 0.3 * O.Seconds;
  size_t SliceLen = static_cast<size_t>(PhaseSecs * Rate * 1.2 + 50);
  SlicedLoad UntracedLoad{Base, {}}, TracedLoad{Base, {}};
  for (SlicedLoad *L : {&UntracedLoad, &TracedLoad}) {
    L->Spec.Connections = 4;
    L->Spec.Rate = Rate;
    L->Spec.Seconds = OpenSliceSecs;
  }
  UntracedLoad.Spec.Pick = Warm ? ZipfPhase(3) : Slice(SliceLen);
  TracedLoad.Spec.Pick = Warm ? ZipfPhase(4) : Slice(SliceLen);
  {
    IdleSpinners Spin;
    for (double Spent = 0; Spent < PhaseSecs; Spent += OpenSliceSecs) {
      if (!UntracedLoad.step())
        break;
      trace::setEnabled(true);
      bool More = TracedLoad.step();
      trace::setEnabled(false);
      if (!More)
        break;
    }
  }
  const LoadResult &Untraced = UntracedLoad.Total, &Traced = TracedLoad.Total;
  account(R, "open loop (untraced)", Untraced);
  noteLoad(R, "open loop (untraced)", Untraced);
  account(R, "open loop (traced)", Traced);
  noteLoad(R, "open loop (traced)", Traced);
  checkGenerator(R, Traced);

  std::vector<std::unique_ptr<KernelCase>> Paper;
  std::string Error;
  if (!preparePaper(O.Seed, Paper, Error))
    R.fail(Error);
  LayerInputs In;
  In.Kernels = &Cases;
  In.Paper = &Paper;
  In.Seed = O.Seed;
  In.Work = O.Work;
  In.Mvecd = O.Mvecd;
  In.LivePort = D.port();
  if (Warm) {
    In.Replay = Scripts;
    In.ColdReplay = coldScripts(O.Seed, ColdReplayScripts).Scripts;
    In.FillFirst = true;
    In.Store = true;
    for (uint64_t K = 0; K != 2000; ++K)
      In.Sequence.push_back(Zipf.pick(uniformFor(O.Seed, 5, K)));
  } else {
    In.Replay.assign(Scripts.begin() + ColdWarmup,
                     Scripts.begin() +
                         std::min(Scripts.size(), ColdWarmup + 300));
    for (size_t I = 0; I != In.Replay.size(); ++I)
      In.Sequence.push_back(I);
    In.ColdReplay = In.Replay;
  }
  runLayerProbes(In, R);
  if (!D.stop())
    R.fail("mvecd did not shut down cleanly");

  double E = quantile(Untraced.LatMs, 0.5);
  double ET = quantile(Traced.LatMs, 0.5);
  double Path = R.value("protocol.codec_us") / 1000 +
                R.value("daemon.tcp_ms") + R.value("daemon.handle_ms");
  R.note("reconciliation: req_ms_p50 " + formatDouble(E) +
         " ms vs blocking path (codec + tcp + handle[process]) " +
         formatDouble(Path) + " ms; client self time per request " +
         formatDouble(median(trace::selfTimesMs("client.request"))) + " ms");
  R.add("loadgen.late_ms_p99", quantile(Traced.LateMs, 0.99), "ms");
  R.add("trace.overhead_ratio", (ET - E) / E, "ratio");
  R.add("trace.unaccounted_ratio", (E - Path) / E, "ratio");
}

} // namespace perfbench
