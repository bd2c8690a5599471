//===- Layers.h - Per-layer probes of the traced run ------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run replays a workload's own inputs through each layer's
/// public functions, one layer at a time, inside benchmark spans:
/// interp/simd/vm on its programs, the compile stages
/// (frontend/shape/deps/vectorizer/print) and validation (driver) on its
/// scripts, an in-process VectorizationService, in-process Daemons (inproc
/// and process isolation), the MVEC/1 codec, a DiskStore, and the real
/// mvecd for the transport and its STATS counters.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_PERFBENCH_LAYERS_H
#define MVEC_PERFBENCH_LAYERS_H

#include "Trace.h"
#include "Workloads.h"

namespace perfbench {

/// Scripts in LayerInputs::ColdReplay on the workloads that do not send
/// cold traffic themselves.
constexpr size_t ColdReplayScripts = 300;

struct LayerInputs {
  /// Programs for the interp/simd/vm probes.
  const std::vector<std::unique_ptr<KernelCase>> *Kernels = nullptr;
  /// The prepared paper programs (paper.<prog>.* metrics).
  const std::vector<std::unique_ptr<KernelCase>> *Paper = nullptr;
  /// Scripts replayed through the compile stages, service, daemon, codec
  /// and store.
  std::vector<Script> Replay;
  /// Request order over Replay for the service/daemon/codec replays.
  std::vector<size_t> Sequence;
  /// Distinct validated scripts (fresh and edited resubmits, as cold-miss
  /// sends them) replayed in order, validation on, through a fresh
  /// service for its cold-path figures (queue, vectorize, validate, total,
  /// worker busy, nest-cache hits) on every workload.
  std::vector<Script> ColdReplay;
  /// Submit every Replay script once, untimed, before the Sequence (the
  /// warm-hit fill).
  bool FillFirst = false;
  /// Ask the service and daemons for differential validation.
  bool Validate = true;
  /// Give the in-process daemons a disk store (as the workload's mvecd).
  bool Store = false;
  uint64_t Seed = 1;
  std::string Work;
  std::string Mvecd;
  /// Port of an mvecd the workload already runs (0: start one).
  uint16_t LivePort = 0;
};

/// Emits every per-layer metric except loadgen.late_ms_p99,
/// trace.overhead_ratio and trace.unaccounted_ratio, which need the
/// workload's own end-to-end reference.
void runLayerProbes(const LayerInputs &In, Report &R);

} // namespace perfbench

#endif // MVEC_PERFBENCH_LAYERS_H
