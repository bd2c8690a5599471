//===- Common.h - Shared pieces of the mvec benchmark -----------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, clocks, order statistics, the metric report and the host record
/// shared by every workload of mvec_bench (see README.md in this directory
/// for what each workload measures and why).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_PERFBENCH_COMMON_H
#define MVEC_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return secondsBetween(A, B) * 1e3;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Path of the mvecd binary built beside this one.
  std::string Mvecd;
  /// Root of the checkout (examples/matlab and corpus/ are read from it).
  std::string Root = ".";
  /// Scratch directory for stores, quarantine and trace output.
  std::string Work;
  /// Print the generated-input hash and exit (seed-discipline checks).
  bool InputsHashOnly = false;
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run produced: the final result line plus everything the
/// human-readable report prints beside it.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Host record fields (name, JSON-encoded value).
  std::vector<std::pair<std::string, std::string>> Host;
  /// Free-form lines printed before the metric table.
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void host(const std::string &Name, const std::string &JsonValue) {
    Host.emplace_back(Name, JsonValue);
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Records a failed correctness check; the run exits nonzero.
  void fail(const std::string &Why);
  /// Value of the metric \p Name added so far (0 when absent).
  double value(const std::string &Name) const;
};

/// Order statistics over a copy of \p V (0 for an empty sample).
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double geomean(const std::vector<double> &V);

/// 64-bit FNV-1a, the benchmark's own (independent of the program's
/// content hash so pinned values check the output, not the hasher).
uint64_t fnv1a(const std::string &Data, uint64_t Hash = 0xcbf29ce484222325ull);
std::string hex64(uint64_t V);

std::string jsonString(const std::string &S);
std::string formatDouble(double V);

/// Peak resident set (VmHWM) of \p Pid in MiB; 0 when unreadable.
double peakRssMb(int Pid);
/// Filesystem type name of the filesystem holding \p Path.
std::string filesystemType(const std::string &Path);
/// Host-speed normalisation. The reference host (a 4-vCPU VM shared with
/// other tenants) drifts, for seconds at a time, between an undisturbed
/// state and contended ones where the interpreter runs up to 1.6x slower.
/// Timings taken in this process are therefore also reported scaled by a
/// factor measured right beside them: raw * reference / calibration time
/// now. The calibration workload (calibrationMs) contains no mvec code and
/// shares no heap or allocator state with it, so a change to the program,
/// its heap layout included, does not move the factor; both commits of a
/// comparison run the same calibration, so the scaling cancels host
/// state, not program speed. The reference is this host's undisturbed
/// calibration time. Raw figures are printed beside every normalised one.
/// Requests through mvecd are normalised by a loopback TCP ping-pong
/// instead (DaemonLoad.cpp), the daemon's boot not at all.
constexpr double CalibrationReferenceMs = 1.15;
/// One run of the calibration workload, in ms: allocation churn (the
/// interpreter's dominant cost) through a std::pmr pool over a private
/// arena of ArenaBytes mapped outside the allocator.
constexpr size_t ArenaBytes = size_t(4) << 20;
double calibrationMs();
/// CalibrationReferenceMs over the median of five calibration runs (after
/// one untimed run). For interpreted work (loop code, compile stages).
double hostFactor();
/// One pass over a private buffer of StreamBytes, mapped outside the
/// allocator: the memory side that vectorized kernels lean on, in ms. (A
/// 4 MiB pass did not move with the host's contended phases; 16 MiB does.)
constexpr size_t StreamBytes = size_t(16) << 20;
constexpr double StreamReferenceMs = 1.4;
double streamMs();
/// For vectorized kernels, slowed less than interpreted code by the host's
/// contended phases: the harmonic mean of \p InterpFactor (hostFactor())
/// and StreamReferenceMs over the median of five streaming passes (after
/// one untimed pass).
double kernelHostFactor(double InterpFactor);
/// Peak resident set of this process in MiB, less the calibration
/// buffers (resident from start-up, the same on every run).
double ownPeakRssMb();
/// Fills the host fields shared by every workload.
void recordHost(Report &R, const Options &O);

bool readFile(const std::string &Path, std::string &Out);
/// Every `.m` file under \p Dir, sorted by path (empty when missing).
std::vector<std::pair<std::string, std::string>>
readScripts(const std::string &Dir);
/// Removes \p Dir recursively (ignoring errors) and recreates it.
void freshDir(const std::string &Dir);

} // namespace perfbench

#endif // MVEC_PERFBENCH_COMMON_H
