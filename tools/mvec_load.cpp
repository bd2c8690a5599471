//===- mvec_load.cpp - mvecd load generator ----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a running mvecd with a configurable workload and reports
/// latency/throughput, doubling as the protocol's reference client:
///
///   mvec_load --port N [--host ADDR] --corpus DIR [options]
///
/// Options:
///   --host ADDR        daemon address (default 127.0.0.1)
///   --port N           daemon port (required)
///   --corpus DIR       population of .m scripts (repeatable)
///   --clients N        concurrent connections (default 4)
///   --tenants N        distinct tenant ids, round-robin (default 2)
///   --duration SECONDS wall-clock budget (default 10; 0 = no limit)
///   --requests N       stop after N requests total (0 = no limit)
///   --rate R           target requests/sec across all clients (0 = max)
///   --skew S           zipf exponent for key popularity (default 1.0;
///                      0 = uniform over the corpus)
///   --deadline-ms N    per-request deadline header (0 = daemon default)
///   --no-validate      ask the daemon to skip differential validation
///   --seed N           RNG seed for key/tenant choice (default 1)
///   --stats            fetch daemon metrics (STATS) after the run
///   --json             machine-readable summary on stdout
///
/// A malformed or out-of-range flag value exits 2 (src/service/Flags.h).
///
/// Exit status: 0 when every request was answered with code 200; 1 when
/// any request failed at the protocol/transport level; 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"
#include "service/Flags.h"
#include "support/Io.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mvec::daemon;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --port N --corpus DIR [--corpus DIR]...\n"
               "       %*s [--host ADDR] [--clients N] [--tenants N]\n"
               "       %*s [--duration SECONDS] [--requests N] [--rate R]\n"
               "       %*s [--skew S] [--deadline-ms N] [--no-validate]\n"
               "       %*s [--seed N] [--stats] [--json]\n",
               Argv0, static_cast<int>(std::strlen(Argv0)), "",
               static_cast<int>(std::strlen(Argv0)), "",
               static_cast<int>(std::strlen(Argv0)), "",
               static_cast<int>(std::strlen(Argv0)), "");
  return 2;
}

struct LoadOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  std::vector<std::string> CorpusDirs;
  unsigned Clients = 4;
  unsigned Tenants = 2;
  unsigned DurationSeconds = 10;
  uint64_t MaxRequests = 0;
  double Rate = 0;
  double Skew = 1.0;
  unsigned DeadlineMs = 0;
  bool Validate = true;
  uint64_t Seed = 1;
  bool Stats = false;
  bool Json = false;
};

/// A blocking protocol client over one TCP connection.
class Client {
public:
  bool connect(const std::string &Host, uint16_t Port, std::string &Error) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
      Error = "invalid address '" + Host + "'";
      return false;
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      Error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return true;
  }

  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Sends \p Req and blocks for its response. False on any transport or
  /// framing error.
  bool roundTrip(const Request &Req, Response &Resp, std::string &Error) {
    std::string Wire = serializeRequest(Req);
    size_t Off = 0;
    while (Off < Wire.size()) {
      ssize_t N = ::send(Fd, Wire.data() + Off, Wire.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0) {
        Error = std::string("send: ") + std::strerror(errno);
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    char Buf[64 * 1024];
    for (;;) {
      FrameReader::Frame Frame;
      FrameReader::Result R = Reader.next(Frame, Error);
      if (R == FrameReader::Result::Ready)
        return responseFromFrame(Frame, Resp, Error);
      if (R == FrameReader::Result::Malformed)
        return false;
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0) {
        Error = N == 0 ? "connection closed by daemon"
                       : std::string("recv: ") + std::strerror(errno);
        return false;
      }
      Reader.feed(Buf, static_cast<size_t>(N));
    }
  }

private:
  int Fd = -1;
  FrameReader Reader;
};

/// Per-thread tally, merged after the run.
struct Tally {
  std::vector<double> LatenciesMs;
  uint64_t Sent = 0, Ok200 = 0, TransportErrors = 0;
  uint64_t Succeeded = 0, Degraded = 0, OtherStatus = 0;
  uint64_t MemoryHits = 0, DiskHits = 0, NoTier = 0;
  std::string FirstError;
};

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

} // namespace

int main(int Argc, char **Argv) {
  LoadOptions Opt;
  mvec::FlagReader F(Argc, Argv);
  std::string CorpusDir;
  while (F.next()) {
    if (F.read("--host", Opt.Host) || F.read("--port", Opt.Port) ||
        F.read("--clients", Opt.Clients, 1) ||
        F.read("--tenants", Opt.Tenants, 1) ||
        F.read("--duration", Opt.DurationSeconds) ||
        F.read("--requests", Opt.MaxRequests) || F.read("--rate", Opt.Rate) ||
        F.read("--skew", Opt.Skew) ||
        F.read("--deadline-ms", Opt.DeadlineMs) ||
        F.read("--seed", Opt.Seed) ||
        F.flag("--no-validate", Opt.Validate, false) ||
        F.flag("--stats", Opt.Stats) || F.flag("--json", Opt.Json))
      continue;
    if (F.read("--corpus", CorpusDir))
      Opt.CorpusDirs.push_back(CorpusDir);
    else
      return usage(Argv[0]);
  }
  if (Opt.Port == 0 || Opt.CorpusDirs.empty())
    return usage(Argv[0]);

  std::vector<std::pair<std::string, std::string>> Scripts;
  for (const std::string &Dir : Opt.CorpusDirs) {
    if (!mvec::io::readScripts(Dir, Scripts)) {
      std::fprintf(stderr, "error: cannot read corpus '%s'\n", Dir.c_str());
      return 2;
    }
  }
  if (Scripts.empty()) {
    std::fprintf(stderr, "error: no .m files under the given corpora\n");
    return 2;
  }

  // Zipf popularity over the (sorted) corpus: cumulative weights once,
  // then each draw is one binary search. Skew 0 degenerates to uniform.
  std::vector<double> Cumulative(Scripts.size());
  double Total = 0;
  for (size_t I = 0; I != Scripts.size(); ++I) {
    Total += 1.0 / std::pow(static_cast<double>(I + 1), Opt.Skew);
    Cumulative[I] = Total;
  }

  std::atomic<uint64_t> GlobalSent{0};
  std::atomic<bool> StopFlag{false};
  auto Start = std::chrono::steady_clock::now();
  auto Deadline = Start + std::chrono::seconds(Opt.DurationSeconds);

  // Each client paces itself to its share of the aggregate target rate.
  double PerClientRate =
      Opt.Rate > 0 ? Opt.Rate / static_cast<double>(Opt.Clients) : 0;

  std::vector<Tally> Tallies(Opt.Clients);
  std::vector<std::thread> Threads;
  Threads.reserve(Opt.Clients);
  for (unsigned C = 0; C != Opt.Clients; ++C) {
    Threads.emplace_back([&, C] {
      Tally &T = Tallies[C];
      Client Conn;
      std::string Error;
      if (!Conn.connect(Opt.Host, Opt.Port, Error)) {
        T.TransportErrors = 1;
        T.FirstError = Error;
        return;
      }
      std::mt19937_64 Rng(Opt.Seed * 0x9E3779B97F4A7C15ull + C);
      std::uniform_real_distribution<double> Uniform(0, Total);
      auto NextSend = std::chrono::steady_clock::now();
      while (!StopFlag.load(std::memory_order_relaxed)) {
        if (Opt.DurationSeconds != 0 &&
            std::chrono::steady_clock::now() >= Deadline)
          break;
        if (Opt.MaxRequests != 0 &&
            GlobalSent.fetch_add(1, std::memory_order_relaxed) >=
                Opt.MaxRequests)
          break;
        if (PerClientRate > 0) {
          std::this_thread::sleep_until(NextSend);
          NextSend += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(1.0 / PerClientRate));
        }
        size_t Idx = static_cast<size_t>(
            std::lower_bound(Cumulative.begin(), Cumulative.end(),
                             Uniform(Rng)) -
            Cumulative.begin());
        Idx = std::min(Idx, Scripts.size() - 1);

        Request Req;
        Req.V = Verb::Vec;
        Req.Tenant = "tenant-" + std::to_string(Rng() % Opt.Tenants);
        Req.Name = Scripts[Idx].first;
        Req.Validate = Opt.Validate;
        Req.DeadlineMs = Opt.DeadlineMs;
        Req.Body = Scripts[Idx].second;

        Response Resp;
        auto T0 = std::chrono::steady_clock::now();
        if (!Conn.roundTrip(Req, Resp, Error)) {
          ++T.TransportErrors;
          if (T.FirstError.empty())
            T.FirstError = Error;
          break; // The connection is unusable; this client is done.
        }
        auto T1 = std::chrono::steady_clock::now();
        ++T.Sent;
        T.LatenciesMs.push_back(
            std::chrono::duration<double, std::milli>(T1 - T0).count());
        if (Resp.Code == 200)
          ++T.Ok200;
        if (Resp.Status == "succeeded")
          ++T.Succeeded;
        else if (Resp.Status == "degraded")
          ++T.Degraded;
        else
          ++T.OtherStatus;
        if (Resp.CacheTier == "memory")
          ++T.MemoryHits;
        else if (Resp.CacheTier == "disk")
          ++T.DiskHits;
        else
          ++T.NoTier;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double ElapsedSec = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Start)
                          .count();

  Tally Sum;
  for (const Tally &T : Tallies) {
    Sum.Sent += T.Sent;
    Sum.Ok200 += T.Ok200;
    Sum.TransportErrors += T.TransportErrors;
    Sum.Succeeded += T.Succeeded;
    Sum.Degraded += T.Degraded;
    Sum.OtherStatus += T.OtherStatus;
    Sum.MemoryHits += T.MemoryHits;
    Sum.DiskHits += T.DiskHits;
    Sum.NoTier += T.NoTier;
    Sum.LatenciesMs.insert(Sum.LatenciesMs.end(), T.LatenciesMs.begin(),
                           T.LatenciesMs.end());
    if (Sum.FirstError.empty())
      Sum.FirstError = T.FirstError;
  }
  std::sort(Sum.LatenciesMs.begin(), Sum.LatenciesMs.end());
  double P50 = percentile(Sum.LatenciesMs, 0.50);
  double P90 = percentile(Sum.LatenciesMs, 0.90);
  double P99 = percentile(Sum.LatenciesMs, 0.99);
  double P999 = percentile(Sum.LatenciesMs, 0.999);
  double Qps = ElapsedSec > 0 ? static_cast<double>(Sum.Sent) / ElapsedSec
                              : 0;

  std::string DaemonStats;
  if (Opt.Stats) {
    Client Conn;
    std::string Error;
    Request Req;
    Req.V = Verb::Stats;
    Response Resp;
    if (Conn.connect(Opt.Host, Opt.Port, Error) &&
        Conn.roundTrip(Req, Resp, Error))
      DaemonStats = Resp.Body;
  }

  if (Opt.Json) {
    std::printf("{\"requests\":%llu,\"elapsed_s\":%.3f,\"qps\":%.1f,"
                "\"ok_200\":%llu,\"transport_errors\":%llu,"
                "\"succeeded\":%llu,\"degraded\":%llu,\"other\":%llu,"
                "\"cache\":{\"memory\":%llu,\"disk\":%llu,\"none\":%llu},"
                "\"latency_ms\":{\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,"
                "\"p999\":%.3f}",
                static_cast<unsigned long long>(Sum.Sent), ElapsedSec, Qps,
                static_cast<unsigned long long>(Sum.Ok200),
                static_cast<unsigned long long>(Sum.TransportErrors),
                static_cast<unsigned long long>(Sum.Succeeded),
                static_cast<unsigned long long>(Sum.Degraded),
                static_cast<unsigned long long>(Sum.OtherStatus),
                static_cast<unsigned long long>(Sum.MemoryHits),
                static_cast<unsigned long long>(Sum.DiskHits),
                static_cast<unsigned long long>(Sum.NoTier), P50, P90, P99,
                P999);
    if (!DaemonStats.empty())
      std::printf(",\"daemon\":%s", DaemonStats.c_str());
    std::printf("}\n");
  } else {
    std::printf("%llu requests in %.1fs (%.1f/s), %u client(s) x %u "
                "tenant(s) over %zu script(s)\n",
                static_cast<unsigned long long>(Sum.Sent), ElapsedSec, Qps,
                Opt.Clients, Opt.Tenants, Scripts.size());
    std::printf("outcomes: %llu succeeded, %llu degraded, %llu other, "
                "%llu transport error(s)\n",
                static_cast<unsigned long long>(Sum.Succeeded),
                static_cast<unsigned long long>(Sum.Degraded),
                static_cast<unsigned long long>(Sum.OtherStatus),
                static_cast<unsigned long long>(Sum.TransportErrors));
    std::printf("cache tiers: %llu memory, %llu disk, %llu cold\n",
                static_cast<unsigned long long>(Sum.MemoryHits),
                static_cast<unsigned long long>(Sum.DiskHits),
                static_cast<unsigned long long>(Sum.NoTier));
    std::printf("latency ms: p50=%.3f p90=%.3f p99=%.3f p999=%.3f\n", P50,
                P90, P99, P999);
    if (!DaemonStats.empty())
      std::printf("daemon: %s\n", DaemonStats.c_str());
    if (!Sum.FirstError.empty())
      std::printf("first error: %s\n", Sum.FirstError.c_str());
  }
  return Sum.TransportErrors == 0 && Sum.Sent == Sum.Ok200 ? 0 : 1;
}
