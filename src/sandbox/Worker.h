//===- Worker.h - Forked sandbox worker process -----------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One sandboxed worker: a fork()ed child (no exec — the vectorizer is
/// already in this binary) serving MVEC/1 frames on its half of an
/// AF_UNIX socketpair. The child applies its rlimits, drops every
/// inherited descriptor except its socket, builds a fresh single-thread
/// VectorizationService with no result tier (no result cache, no store;
/// only the nest and code caches that serve the evaluation itself), and
/// loops: read frame, serve, write frame, until EOF — at which point it
/// _exit(0)s. It only ever sees misses: the daemon's shard service owns
/// every cached result and keeps what the worker sends back, so a
/// respawned worker loses nothing. It never touches parent state: the
/// daemon's fleet, sockets, and locks are dead weight in the child's
/// address-space copy.
///
/// Fork safety: the parent is multithreaded, so the child may only call
/// into state that is either freshly constructed after the fork or
/// async-signal-safe until its own service exists. glibc reinitializes
/// its allocator across fork, and the child builds everything else from
/// scratch, so the only inherited mutable state the child reads is the
/// SandboxConfig value it was handed (copied pre-fork).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SANDBOX_WORKER_H
#define MVEC_SANDBOX_WORKER_H

#include "sandbox/Sandbox.h"

#include <string>
#include <sys/types.h>

namespace mvec {
namespace sandbox {

/// Parent-side handle to one live worker.
struct WorkerProcess {
  pid_t Pid = -1;
  int Fd = -1; ///< Parent half of the socketpair.
  bool valid() const { return Pid > 0 && Fd >= 0; }
};

/// socketpair + fork. On success \p Out holds the child's pid and the
/// parent-side fd (the child never returns from this call). Returns
/// false with \p Error set when the kernel refuses.
bool spawnWorker(const SandboxConfig &Config, WorkerProcess &Out,
                 std::string &Error);

/// The child's entire life: serve frames on \p Fd until EOF or a fatal
/// condition, then _exit. Exposed for tests that want to run the serve
/// loop over an arbitrary socket without forking.
[[noreturn]] void workerChildMain(int Fd, const SandboxConfig &Config);

} // namespace sandbox
} // namespace mvec

#endif // MVEC_SANDBOX_WORKER_H
