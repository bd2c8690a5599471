//===- Oracle.h - Differential fuzzing oracle -------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict machinery of the fuzzing subsystem. A candidate program is
/// pushed through vectorizeSource + diffRunLimited and classified:
///
///   Ok        the transformation preserved semantics (or left the
///             program alone) — the paper's Sec. 4 property held;
///   Rejected  the *input* was at fault (parse/annotation error, the
///             original program itself crashed or overran its budget) —
///             expected for mutated candidates, never a finding;
///   Finding   the *pipeline* is at fault: it crashed, produced a
///             program that fails to parse or run, diverged from the
///             original, or ran away (hang).
///
/// Findings carry a bucket signature — a short, stable string derived
/// from the failure point (crash text / first divergent variable /
/// normalized runtime error) — used to deduplicate the stream and to key
/// the corpus. Batch classification fans out over
/// mvec::service::VectorizationService workers with per-job deadlines
/// and step budgets, so a hang becomes a finding instead of a stall.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_FUZZ_ORACLE_H
#define MVEC_FUZZ_ORACLE_H

#include "fuzz/Generator.h"
#include "service/Flags.h"
#include "service/VectorizationService.h"
#include "vectorizer/Options.h"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace mvec {
namespace fuzz {

enum class FindingKind {
  Crash,              ///< the pipeline threw while vectorizing
  TransformedRunError,///< vectorized program fails to parse or to run
  Mismatch,           ///< both ran; final workspaces or output diverge
  Hang,               ///< transformed run (or the vectorizer) overran
  EngineDivergence,   ///< tree-walker and bytecode VM disagree on a program
  CostDivergence,     ///< cost-model-on output diverges from cost-model-off
};

/// Display name for \p Kind ("crash", "mismatch", ...).
const char *findingKindName(FindingKind Kind);

/// One defect the oracle observed.
struct Finding {
  FindingKind Kind = FindingKind::Mismatch;
  /// Dedup signature: "mismatch:var:s", "trun:<normalized error>", ...
  std::string Bucket;
  /// Full failure description (divergent values, diagnostics, ...).
  std::string Message;
  /// The offending program.
  std::string Source;
  /// Provenance: generator family or mutation trace.
  std::string Family;
};

/// Classification of one candidate.
struct Verdict {
  enum class State { Ok, Rejected, Finding };
  State S = State::Ok;
  /// Valid only when S == Finding.
  Finding F;

  bool ok() const { return S == State::Ok; }
  bool rejected() const { return S == State::Rejected; }
  bool isFinding() const { return S == State::Finding; }
};

struct OracleConfig {
  /// Service workers for checkBatch.
  unsigned Jobs = 4;
  /// Result-cache entries (mutants repeat; identical candidates are
  /// served without re-running).
  size_t CacheCapacity = 256;
  /// Wall-clock budget per candidate; hangs become findings.
  std::chrono::milliseconds Deadline{2000};
  /// Deterministic per-run statement budget for the differential runs.
  uint64_t MaxSteps = 2000000;
  /// Workspace comparison tolerance (reductions reorder FP sums).
  double Tol = 1e-7;
  /// Tier(s) and cost-model participation; under Both a divergence is an
  /// EngineDivergence or CostDivergence finding.
  EngineMode Engine = EngineMode::Ast;
  CostMode Cost = CostMode::Off;
  /// Model used under CostMode::On/Both (null = the built-in conservative
  /// profile). Must outlive the oracle.
  const cost::CostModel *Model = nullptr;
  VectorizerOptions Opts;
};

class Oracle {
public:
  explicit Oracle(OracleConfig Config = {});
  ~Oracle();

  Oracle(const Oracle &) = delete;
  Oracle &operator=(const Oracle &) = delete;

  /// Classifies one candidate synchronously in the calling thread (used
  /// by the reducer's predicate and by corpus replay). Applies the same
  /// budgets and produces the same buckets as checkBatch.
  Verdict check(const std::string &Source,
                const std::string &Family = std::string()) const;

  /// Cross-checks the tree-walker and bytecode VM on \p Source under the
  /// oracle's budgets (see engineDiffRun): Ok when behaviour is
  /// byte-identical (or the comparison is inconclusive because a
  /// wall-clock interrupt fired), Rejected when the program does not
  /// parse, an EngineDivergence finding otherwise. check()/checkBatch()
  /// run this automatically under EngineMode::Both.
  Verdict engineCheck(const std::string &Source,
                      const std::string &Family = std::string()) const;

  /// Classifies many candidates in parallel on the service's workers.
  /// Results are in candidate order.
  std::vector<Verdict> checkBatch(const std::vector<GenProgram> &Candidates);

  /// Maps a service JobResult onto a verdict — the single classification
  /// point for the batch path. Exposed for unit tests.
  static Verdict classifyJob(const JobResult &R);

  /// Bucket-normalizes \p Message: digit runs become '#', whitespace is
  /// collapsed, the result is truncated. Keeps buckets stable across
  /// varying sizes, values and locations.
  static std::string normalizeForBucket(const std::string &Message);

  const OracleConfig &config() const { return Config; }
  ServiceMetrics &metrics();

private:
  /// The differential (original vs transformed) classification under one
  /// specific options configuration; fills \p TransformedOut with the
  /// vectorized source when the pipeline produced one.
  Verdict checkImpl(const std::string &Source, const std::string &Family,
                    const VectorizerOptions &Opts,
                    std::string *TransformedOut) const;
  /// The model consulted under CostMode::On/Both.
  const cost::CostModel *costModel() const;
  /// Compares the model-off and model-on transformed programs; returns a
  /// CostDivergence finding when their behaviour differs.
  Verdict crossCheckCost(const std::string &Source, const std::string &Family,
                         const std::string &OffOut,
                         const std::string &OnOut) const;

  OracleConfig Config;
  std::unique_ptr<VectorizationService> Service;
};

} // namespace fuzz
} // namespace mvec

#endif // MVEC_FUZZ_ORACLE_H
