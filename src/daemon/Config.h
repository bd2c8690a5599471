//===- Config.h - mvecd configuration ---------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's tunables and the trivial `key = value` file format they
/// are loaded from (and hot-reloaded from on SIGHUP or a CONFIG frame):
///
///   # mvecd.conf
///   shards = 4
///   workers_per_shard = 2
///   cache_capacity = 512
///   tenant_rate = 200
///   tenant_burst = 64
///
/// Reload semantics are defined by Daemon::reload(): QoS limits and
/// deadline apply instantly; a change to the shard count, the store or
/// any ShardConfig field (engine, cost model, isolation, sandbox limits,
/// ...) swaps in a fresh shard fleet while every in-flight job completes
/// on the old one (nothing is dropped).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DAEMON_CONFIG_H
#define MVEC_DAEMON_CONFIG_H

#include "cost/CostModel.h"
#include "service/VectorizationService.h"

#include <cstddef>
#include <memory>
#include <string>

namespace mvec {
struct FaultPlan;
namespace daemon {

/// The fields one shard is built from: its VectorizationService (in the
/// daemon) and, with isolation = process, the worker processes it sends
/// misses to. DaemonConfig extends it with the daemon-wide fields, and
/// Daemon::reload() rebuilds the fleet exactly when this base, the shard
/// count or the store changes.
struct ShardConfig {
  /// Vectorization workers per shard (threads, or sandbox processes).
  unsigned WorkersPerShard = 2;
  /// In-memory result-cache entries per shard.
  size_t CacheCapacity = 512;
  /// Per-shard nest-cache entries.
  size_t NestCacheCapacity = 1024;
  /// In-flight requests per shard beyond which new arrivals are shed as
  /// degraded passthrough instead of queueing; also sizes the service
  /// queue beyond that gate.
  size_t MaxQueueDepth = 96;
  /// Execution tier for differential validation: "ast" (tree-walker) or
  /// "vm" (register bytecode; compiled programs are cached in memory per
  /// shard service and never persisted).
  std::string Engine = "ast";
  /// Profitability cost model: "off" vectorizes whenever legal, "on"
  /// consults the model (built-in conservative profile unless
  /// cost_profile names a calibrated costs.mvec.json). The profile
  /// fingerprint salts every cache tier.
  std::string CostModel = "off";
  /// Path to a calibrated cost profile (empty = built-in defaults). A
  /// malformed or stale file falls back to the defaults with a logged
  /// diagnostic; it never prevents startup.
  std::string CostProfile;
  /// Where a shard evaluates cache misses: "inproc" in its service's own
  /// threads (fastest); "process" in forked sandbox worker processes
  /// behind socketpairs (see src/sandbox/), so a worker crash, OOM kill,
  /// or wedge never takes the daemon down. Hits are served in the daemon
  /// either way.
  std::string Isolation = "inproc";
  /// Address-space headroom per sandbox worker in MiB (0 = unlimited;
  /// process isolation only): RLIMIT_AS is the worker's size right after
  /// fork plus this, so a sanitizer's shadow reservations do not count.
  /// Exhaustion surfaces as bad_alloc inside the worker; the kernel OOM
  /// killer's SIGKILL is classified oom-kill.
  size_t WorkerMemoryMB = 512;
  /// RLIMIT_CPU per sandbox worker in seconds, cumulative over the
  /// worker's lifetime (0 = unlimited; process isolation only).
  /// Exceeding it delivers SIGXCPU.
  unsigned WorkerCpuSeconds = 0;
  /// How often the sandbox supervisor PINGs idle workers.
  unsigned HeartbeatIntervalMs = 250;
  /// Silence budget before an idle worker is SIGKILLed; also the grace
  /// added to a request's deadline before a busy worker counts as stuck.
  unsigned HeartbeatTimeoutMs = 2000;
  /// Where crash-inducing inputs are quarantined (empty disables).
  std::string QuarantineDir = "corpus/quarantine";
  /// Honor %!sandbox-* crash markers in request bodies (crash-campaign
  /// hook; never enable in production).
  bool SandboxTestHooks = false;
  /// Fault-injection plan armed in every shard service (test hook; not
  /// settable from a config file). Must outlive the daemon.
  const FaultPlan *Faults = nullptr;

  bool operator==(const ShardConfig &) const = default;
};

/// Everything mvecd is configured with: the shard fields plus the
/// daemon-wide ones. Each field is one `key = value` entry (see
/// daemonConfigText for the key names) except Faults.
struct DaemonConfig : ShardConfig {
  /// Worker shards; a request's content key picks its shard (key % N), so
  /// identical scripts always land on the same shard's caches.
  unsigned Shards = 2;
  /// Disk-store directory (empty = memory tiers only, nothing survives a
  /// restart).
  std::string StoreDir;
  /// Disk-store soft byte budget (0 = unbounded).
  size_t StoreMaxBytes = size_t(256) << 20;
  /// Per-tenant admission rate, requests/second (0 = unlimited).
  double TenantRate = 0;
  /// Per-tenant burst ceiling.
  double TenantBurst = 64;
  /// Default per-request deadline in ms (0 = none).
  unsigned DeadlineMs = 10000;
  /// Transport frame-size ceiling: a request whose content-length
  /// exceeds this is answered 400 and disconnected before its body is
  /// buffered. Applied per connection at accept time (not retroactive
  /// to connections already open across a reload).
  size_t MaxFrameBytes = size_t(4) << 20;

  /// The inherited operator would compare only the ShardConfig fields.
  bool operator==(const DaemonConfig &) const = delete;
};

/// What a shard's VectorizationService is constructed from. Config.Cost
/// points into Cost, so keep the two together.
struct ShardService {
  std::unique_ptr<cost::CostModel> Cost; ///< null with cost_model = off
  ServiceConfig Config;
};

/// Builds the service of shard \p S: WorkersPerShard threads, results cached
/// through \p Store (may be null), and the cost model S names. A cost
/// profile that fails to load falls back to the defaults with a
/// diagnostic on stderr, prefixed by \p LogTag.
ShardService makeShardService(const ShardConfig &S, ResultStore *Store,
                              const std::string &LogTag);

/// Parses `key = value` \p Text into \p Out (starting from \p Out's
/// current values, so a partial file only overrides what it names).
/// Returns false with \p Error set on an unknown key or a bad value; \p
/// Out is untouched on failure. Each key has exactly one validator, which
/// mvecd's command-line overrides go through as well.
bool parseDaemonConfig(const std::string &Text, DaemonConfig &Out,
                       std::string &Error);

/// Reads \p Path and parses it. Returns false on I/O or parse errors.
bool loadDaemonConfigFile(const std::string &Path, DaemonConfig &Out,
                          std::string &Error);

/// The config rendered back in the file format (used as the CONFIG
/// response body, so a client can read back what is now in force).
std::string daemonConfigText(const DaemonConfig &Config);

} // namespace daemon
} // namespace mvec

#endif // MVEC_DAEMON_CONFIG_H
