//===- Common.cpp - Shared pieces of the mvec benchmark -------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "interp/simd/SimdDispatch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory_resource>
#include <cstdlib>
#include <sstream>
#include <thread>

#include <sys/mman.h>
#include <sys/statfs.h>
#include <unistd.h>

namespace perfbench {

void Report::fail(const std::string &Why) {
  Correct = false;
  ++Failed;
  std::fprintf(stderr, "mvec_bench: check failed: %s\n", Why.c_str());
}

double Report::value(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

uint64_t fnv1a(const std::string &Data, uint64_t Hash) {
  for (unsigned char C : Data) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

std::string hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string formatDouble(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double peakRssMb(int Pid) {
  std::string Status;
  if (!readFile("/proc/" + std::to_string(Pid) + "/status", Status))
    return 0;
  size_t At = Status.find("VmHWM:");
  if (At == std::string::npos)
    return 0;
  return std::strtod(Status.c_str() + At + 6, nullptr) / 1024.0;
}

std::string filesystemType(const std::string &Path) {
  struct statfs S {};
  if (::statfs(Path.c_str(), &S) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(S.f_type)) {
  case 0x01021994:
    return "tmpfs";
  case 0xEF53:
    return "ext4";
  case 0x9123683E:
    return "btrfs";
  case 0x58465342:
    return "xfs";
  case 0x794c7630:
    return "overlayfs";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(S.f_type));
    return Buf;
  }
  }
}

double calibrationMs() {
  // Allocation churn, the cost that dominates interpreted MATLAB here
  // (values, AST nodes, frames), served by a pool of the benchmark's own
  // over a private arena mapped once: no malloc state is shared with the
  // program, and the churn's footprint stays in the near caches.
  static void *const Arena = [] {
    void *P = ::mmap(nullptr, ArenaBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      std::abort();
    // Touched whole, so its resident size is exactly ArenaBytes.
    std::memset(P, 0, ArenaBytes);
    return P;
  }();
  std::pmr::monotonic_buffer_resource Upstream(
      Arena, ArenaBytes, std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource Pool(&Upstream);
  constexpr int Blocks = 2000;
  void *Ptr[Blocks];
  Clock::time_point T0 = Clock::now();
  for (int Round = 0; Round != 20; ++Round) {
    for (int I = 0; I != Blocks; ++I)
      Ptr[I] = Pool.allocate(16 + (I * 37) % 400);
    for (int I = 0; I != Blocks; ++I)
      Pool.deallocate(Ptr[I], 16 + (I * 37) % 400);
  }
  return msBetween(T0, Clock::now());
}

double hostFactor() {
  // One untimed run first: what ran before (the program) may have evicted
  // the arena, and that must not move the factor.
  calibrationMs();
  std::vector<double> Ms;
  for (int I = 0; I != 5; ++I)
    Ms.push_back(calibrationMs());
  return CalibrationReferenceMs / median(Ms);
}

double streamMs() {
  constexpr size_t Words = StreamBytes / sizeof(double);
  static double *const Buf = [] {
    void *P = ::mmap(nullptr, StreamBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      std::abort();
    auto *D = static_cast<double *>(P);
    for (size_t I = 0; I != Words; ++I)
      D[I] = 1.0;
    return D;
  }();
  Clock::time_point T0 = Clock::now();
  double Sum = 0;
  for (size_t I = 0; I != Words; ++I)
    Sum += Buf[I];
  volatile double Sink = Sum;
  (void)Sink;
  return msBetween(T0, Clock::now());
}

double kernelHostFactor(double InterpFactor) {
  streamMs();
  std::vector<double> Ms;
  for (int I = 0; I != 5; ++I)
    Ms.push_back(streamMs());
  return 2 / (1 / InterpFactor + median(Ms) / StreamReferenceMs);
}

double ownPeakRssMb() {
  return peakRssMb(::getpid()) -
         static_cast<double>(ArenaBytes + StreamBytes) / (1 << 20);
}

void recordHost(Report &R, const Options &O) {
  R.host("nproc", std::to_string(std::thread::hardware_concurrency()));
  R.host("simd_level",
         jsonString(mvec::simd::levelName(mvec::simd::activeLevel())));
  R.host("store_fs", jsonString(filesystemType(O.Work)));
  std::vector<double> Cal, Stream;
  for (int I = 0; I != 15; ++I) {
    Cal.push_back(calibrationMs());
    Stream.push_back(streamMs());
  }
  R.host("calibration_ms", "{\"churn\":" + formatDouble(median(Cal)) +
                               ",\"churn_reference\":" +
                               formatDouble(CalibrationReferenceMs) +
                               ",\"stream\":" + formatDouble(median(Stream)) +
                               ",\"stream_reference\":" +
                               formatDouble(StreamReferenceMs) + "}");
  R.host("workload", jsonString(O.Workload));
  R.host("seed", std::to_string(O.Seed));
  R.host("seconds", std::to_string(O.Seconds));
  R.host("trace", O.Trace ? "1" : "0");
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<std::pair<std::string, std::string>>
readScripts(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC))
    if (It->is_regular_file() && It->path().extension() == ".m")
      Paths.push_back(It->path().string());
  std::sort(Paths.begin(), Paths.end());
  std::vector<std::pair<std::string, std::string>> Out;
  for (const std::string &P : Paths) {
    std::string Text;
    if (readFile(P, Text))
      Out.emplace_back(fs::path(P).filename().string(), Text);
  }
  return Out;
}

void freshDir(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir, EC);
}

} // namespace perfbench
