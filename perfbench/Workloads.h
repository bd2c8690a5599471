//===- Workloads.h - The benchmark's workloads and layer probes -*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads (paper-kernels, cold-miss,
/// warm-hit), the input generators they share, and the per-layer probes
/// the traced run replays.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_PERFBENCH_WORKLOADS_H
#define MVEC_PERFBENCH_WORKLOADS_H

#include "Common.h"

#include "daemon/Protocol.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Interpreter-level programs (loop form vs vectorized form)
//===----------------------------------------------------------------------===//

/// One program in both forms, parsed and validated during set-up. Paper
/// kernels run their body repeatedly in a workspace prepared by Setup;
/// whole scripts (Setup empty) run in a fresh interpreter each time.
struct KernelCase {
  std::string Name;
  std::string Size;       ///< problem size as run (paper kernels)
  std::string FullSource; ///< annotated setup + loop code
  std::string VectorizedSource;
  mvec::ParseResult Setup;
  mvec::ParseResult Loop;
  mvec::ParseResult VecFull;
  /// The vectorized statements standing for Loop (the tail of VecFull
  /// after the setup statements; all of VecFull for whole scripts).
  mvec::Program VecBody;
  /// For-loop index variables of Loop (absent from vectorized state).
  std::vector<std::string> IndexVars;
  bool wholeScript() const { return Setup.Prog.Stmts.empty(); }
};

/// Builds a KernelCase: vectorizes \p SetupSrc + \p LoopSrc, validates the
/// result with diffRun under \p Seed and parses every piece. False with
/// \p Error set when any step fails.
bool prepareKernel(const std::string &Name, const std::string &SetupSrc,
                   const std::string &LoopSrc, uint64_t Seed, KernelCase &K,
                   std::string &Error);

/// A workspace with \p K's setup executed under \p Seed (an empty
/// interpreter for whole scripts).
bool makeWorkspace(const KernelCase &K, uint64_t Seed,
                   mvec::Interpreter &Out, std::string &Error);

/// Runs the loop form (\p Vectorized false) or the vectorized form once.
/// For whole scripts \p I is reset to a fresh seeded interpreter first.
/// Returns the wall time in ms, or a negative value on a runtime error.
double runCase(const KernelCase &K, bool Vectorized, mvec::Interpreter &I,
               uint64_t Seed);

/// Compares the vectorized workspace \p V against the loop workspace \p L
/// (loop index variables excluded). Empty when they agree.
std::string compareStates(const KernelCase &K, const mvec::Interpreter &L,
                          const mvec::Interpreter &V);

/// The five paper programs at the sizes this benchmark runs them.
struct PaperProgram {
  std::string Name;
  std::string Size;
  std::string Setup;
  std::string Kernel;
  /// Pinned FNV-1a (perfbench::fnv1a) of the vectorized full program.
  uint64_t PinnedHash;
};
std::vector<PaperProgram> paperPrograms();

/// Prepares every paper program; false (with \p Error) on any failure.
bool preparePaper(uint64_t Seed, std::vector<std::unique_ptr<KernelCase>> &Out,
                  std::string &Error);

//===----------------------------------------------------------------------===//
// Scripts of the serving workloads
//===----------------------------------------------------------------------===//

struct Script {
  std::string Name;
  std::string Source;
  /// vectorizeSource(Source).VectorizedSource, computed in set-up: every
  /// 200 body must equal it byte for byte.
  std::string Expected;
  /// An edited resubmit: an earlier script with one statement appended
  /// after its loop nests (new content key, same nests).
  bool Edited = false;
};

/// The VEC request the benchmark sends for \p S (tenant "bench").
mvec::daemon::Request requestFor(const Script &S, bool Validate);

struct ScriptSet {
  std::vector<Script> Scripts;
  /// Candidates dropped because the service would not report them
  /// succeeded (reason -> count). Inputs are chosen so no request fails.
  std::vector<std::pair<std::string, unsigned>> Dropped;
  uint64_t hash() const;
};

/// cold-miss traffic: \p Count distinct scripts in send order, half fresh
/// generator programs, half edited resubmits of recent earlier ones.
ScriptSet coldScripts(uint64_t Seed, size_t Count);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runPaperKernels(const Options &O, Report &R);
/// cold-miss (\p Warm false) or warm-hit (\p Warm true).
void runDaemonWorkload(const Options &O, Report &R, bool Warm);

/// Writes the mvecd config the serving workloads run (defaults except
/// isolation = process, quarantine under \p Work and, with \p Store, a
/// disk store under \p Work); returns its path.
std::string writeDaemonConfig(const std::string &Work, bool Store);

/// Hash of every generated input of the workload (seed discipline).
uint64_t inputsHash(const Options &O, size_t &Count);

} // namespace perfbench

#endif // MVEC_PERFBENCH_WORKLOADS_H
