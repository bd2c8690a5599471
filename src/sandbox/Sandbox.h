//===- Sandbox.h - Process-isolation types ----------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types for `mvec::sandbox`, the daemon's crash-containment
/// layer. With `isolation = process`, each shard's VectorizationService
/// still runs in the daemon and owns every result tier (memory cache and
/// DiskStore); only its cache misses, the sole untrusted evaluations,
/// are forwarded to forked worker processes behind AF_UNIX socketpairs
/// speaking the ordinary MVEC/1 frame protocol. A supervisor
/// (SandboxPool) forwards those jobs, watches heartbeats, classifies
/// deaths, quarantines crash-inducing inputs, and respawns workers with
/// jittered backoff. A genuine SIGSEGV, OOM kill, or infinite loop then
/// costs one worker process — never the daemon, and never a cached
/// result.
///
/// A worker builds its service from the shard's daemon::ShardConfig
/// through daemon::makeShardService, the same path the shard's own
/// service takes, minus the result tiers; SandboxConfig adds only the
/// supervisor's respawn and crash-loop policy.
///
/// Failure taxonomy (WorkerFailure): every way a worker can stop serving
/// is classified so metrics, quarantine headers, and logs agree on
/// vocabulary:
///
///   clean-exit        exited 0 (EOF from the parent, SHUTDOWN frame)
///   exit-error        exited nonzero (unexpected; treated as a crash)
///   crash             died on a signal other than SIGKILL (SIGSEGV,
///                     SIGABRT from an assert or unhandled exception,
///                     SIGXCPU past RLIMIT_CPU, ...)
///   oom-kill          died on SIGKILL: the kernel OOM killer, or an
///                     operator/chaos campaign. Indistinguishable from
///                     the parent's side — both mean "gone, not my
///                     doing" — so they share a class.
///   watchdog-timeout  the parent SIGKILLed it: a request exceeded its
///                     deadline + grace, or an idle worker stopped
///                     answering PINGs
///   protocol-error    the worker wrote bytes that do not parse as a
///                     MVEC/1 response (memory corruption survived long
///                     enough to babble); killed and respawned
///   spawn-failed      fork/socketpair failed; retried with backoff
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SANDBOX_SANDBOX_H
#define MVEC_SANDBOX_SANDBOX_H

#include "daemon/Config.h"
#include "resilience/Backoff.h"
#include "resilience/CircuitBreaker.h"

namespace mvec {
namespace sandbox {

enum class WorkerFailure {
  CleanExit,
  ExitError,
  Crash,
  OomKill,
  WatchdogTimeout,
  ProtocolError,
  SpawnFailed,
};

const char *workerFailureName(WorkerFailure F);

/// One shard's worker pool: how many workers, what each one is built
/// from, and how the supervisor respawns them.
struct SandboxConfig {
  /// The pool size (WorkersPerShard, clamped >= 1) and each worker's
  /// service and limits: the fields (and makeShardService) the shard's own
  /// service is built from, so the two cannot drift apart.
  daemon::ShardConfig Shard;
  /// Backoff between respawn attempts of one worker slot; the retry
  /// number is the slot's consecutive-failure streak, so a crash-looping
  /// slot backs off exponentially while a one-off crash respawns almost
  /// immediately.
  RetryPolicy Respawn{/*MaxAttempts=*/3,
                      /*InitialBackoff=*/std::chrono::milliseconds(20),
                      /*Multiplier=*/2.0, /*Jitter=*/0.5,
                      /*MaxBackoff=*/std::chrono::milliseconds(2000)};
  /// Crash-loop breaker: consecutive worker deaths trip it Open and the
  /// pool sheds jobs (they degrade to passthrough)
  /// until the cooldown elapses. FailureThreshold 0 disables.
  BreakerConfig CrashLoop{/*FailureThreshold=*/8,
                          /*Cooldown=*/std::chrono::milliseconds(2000),
                          /*HalfOpenProbes=*/1};
};

} // namespace sandbox
} // namespace mvec

#endif // MVEC_SANDBOX_SANDBOX_H
