//===- Io.cpp - EINTR-safe fd I/O helpers -----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Io.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mvec;
using Clock = std::chrono::steady_clock;

namespace {

/// Milliseconds left until \p Deadline, clamped at zero. INT_MAX-safe
/// for the poll() argument.
int remainingMs(Clock::time_point Deadline) {
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  if (Left <= 0)
    return 0;
  if (Left > 3600'000)
    return 3600'000;
  return static_cast<int>(Left);
}

} // namespace

int io::pollFor(int Fd, short Events, int TimeoutMs) {
  bool Bounded = TimeoutMs >= 0;
  Clock::time_point Deadline =
      Bounded ? Clock::now() + std::chrono::milliseconds(TimeoutMs)
              : Clock::time_point();
  for (;;) {
    pollfd P{};
    P.fd = Fd;
    P.events = Events;
    int N = ::poll(&P, 1, Bounded ? remainingMs(Deadline) : -1);
    if (N > 0)
      return N;
    if (N == 0) {
      if (Bounded && remainingMs(Deadline) == 0)
        return 0;
      continue;
    }
    if (errno == EINTR)
      continue;
    return -1;
  }
}

ssize_t io::recvSome(int Fd, void *Buf, size_t Len) {
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, Len, 0);
    if (N >= 0 || errno != EINTR)
      return N;
  }
}

ssize_t io::readSome(int Fd, void *Buf, size_t Len) {
  for (;;) {
    ssize_t N = ::read(Fd, Buf, Len);
    if (N >= 0 || errno != EINTR)
      return N;
  }
}

bool io::sendFull(int Fd, const void *Buf, size_t Len, int TimeoutMs) {
  const uint8_t *P = static_cast<const uint8_t *>(Buf);
  bool Bounded = TimeoutMs >= 0;
  Clock::time_point Deadline =
      Bounded ? Clock::now() + std::chrono::milliseconds(TimeoutMs)
              : Clock::time_point();
  // With a budget, send non-blocking: a blocking fd would otherwise park
  // this thread in send() indefinitely (never reaching EAGAIN) and the
  // deadline below could never fire. Unbounded sends keep the fd's own
  // blocking behavior.
  int Flags = MSG_NOSIGNAL | (Bounded ? MSG_DONTWAIT : 0);
  while (Len > 0) {
    ssize_t N = ::send(Fd, P, Len, Flags);
    if (N > 0) {
      P += N;
      Len -= static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full (slow reader, or an SO_SNDTIMEO tick fired).
      // Wait for writability within the remaining budget, then retry.
      int Left = Bounded ? remainingMs(Deadline) : -1;
      if (Bounded && Left == 0)
        return false;
      int R = io::pollFor(Fd, POLLOUT, Left);
      if (R > 0)
        continue;
      return false;
    }
    return false; // EPIPE/ECONNRESET/zero-length send: peer is gone.
  }
  return true;
}

bool io::writeFull(int Fd, const void *Buf, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Buf);
  while (Len > 0) {
    ssize_t N = ::write(Fd, P, Len);
    if (N > 0) {
      P += N;
      Len -= static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

bool io::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool io::readScripts(const std::string &Dir,
                     std::vector<std::pair<std::string, std::string>> &Out) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Paths;
  for (fs::recursive_directory_iterator It(Dir, EC), End; It != End;
       It.increment(EC)) {
    if (EC)
      return false;
    if (It->is_regular_file() && It->path().extension() == ".m")
      Paths.push_back(It->path().string());
  }
  if (EC)
    return false;
  std::sort(Paths.begin(), Paths.end());
  for (const std::string &Path : Paths)
    if (!readFile(Path, Out.emplace_back(Path, "").second))
      return false;
  return true;
}
