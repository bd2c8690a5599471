//===- Io.h - EINTR-safe fd I/O helpers -------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small retrying wrappers around read/recv/send/poll shared by every
/// file-descriptor path in the tree (the daemon's TCP transport and the
/// sandbox's parent<->worker socketpairs). They exist because the bare
/// syscalls have three sharp edges that every call site used to handle —
/// or mishandle — independently:
///
///   * EINTR: any of them can return early when a signal lands (SIGCHLD
///     from a reaped worker, SIGHUP reload). All helpers retry.
///   * Partial transfer: send/write may move fewer bytes than asked;
///     sendFull/writeFull loop until done.
///   * Wedged peers: a peer that stops reading would block a send
///     forever; sendFull takes an overall wall-clock budget enforced
///     with poll(POLLOUT), after which the transfer fails and the caller
///     tears the connection down.
///
/// All send paths use MSG_NOSIGNAL so a dead peer yields EPIPE instead
/// of a process-killing SIGPIPE, independent of the caller's signal
/// setup.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SUPPORT_IO_H
#define MVEC_SUPPORT_IO_H

#include <cstddef>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace mvec {
namespace io {

/// poll(2) for \p Events on \p Fd, retrying EINTR against a fixed
/// wall-clock deadline. Returns >0 when ready, 0 on timeout, <0 on a
/// non-retryable poll error. \p TimeoutMs < 0 waits forever.
int pollFor(int Fd, short Events, int TimeoutMs);

/// recv(2) retrying EINTR. Returns the byte count (0 = orderly EOF) or
/// -1 with errno set (including EAGAIN/EWOULDBLOCK from SO_RCVTIMEO
/// ticks, which callers use as a stop-flag poll point).
ssize_t recvSome(int Fd, void *Buf, size_t Len);

/// read(2) retrying EINTR (for non-socket fds).
ssize_t readSome(int Fd, void *Buf, size_t Len);

/// Sends all \p Len bytes with MSG_NOSIGNAL, retrying EINTR and partial
/// transfers, spending at most \p TimeoutMs wall-clock overall (< 0 =
/// no limit). A bounded send uses MSG_DONTWAIT + poll(POLLOUT) so the
/// budget holds even on a blocking fd. Returns false when the peer died
/// or the budget ran out; the stream position is then indeterminate and
/// the fd should be closed.
bool sendFull(int Fd, const void *Buf, size_t Len, int TimeoutMs = -1);

/// write(2) analogue of sendFull for non-socket fds (no timeout; pipes
/// to dead readers fail with EPIPE only if SIGPIPE is ignored —
/// callers on pipes must arrange that themselves).
bool writeFull(int Fd, const void *Buf, size_t Len);

/// The whole file \p Path, read as bytes; false when it cannot be read.
bool readFile(const std::string &Path, std::string &Out);

/// Appends every `.m` file under \p Dir (recursively), sorted by path,
/// as (path, contents) to \p Out; false when the directory or a file
/// cannot be read.
bool readScripts(const std::string &Dir,
                 std::vector<std::pair<std::string, std::string>> &Out);

} // namespace io
} // namespace mvec

#endif // MVEC_SUPPORT_IO_H
