//===- Client.h - mvecd process control and MVEC/1 client -------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the real daemon from outside: it spawns the mvecd
/// binary built from the same checkout, talks MVEC/1 to it over loopback
/// TCP, and stops it (and every sandbox worker it forked) before exiting.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_PERFBENCH_CLIENT_H
#define MVEC_PERFBENCH_CLIENT_H

#include "daemon/Protocol.h"

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// A blocking MVEC/1 client over one TCP connection.
class Connection {
public:
  Connection() = default;
  ~Connection();
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  bool connect(uint16_t Port, std::string &Error);
  /// Sends an already-serialized request frame.
  bool send(const std::string &Wire, std::string &Error);
  /// Blocks for the next response frame and parses it.
  bool receive(mvec::daemon::Response &Out, std::string &Error);
  bool roundTrip(const mvec::daemon::Request &R, mvec::daemon::Response &Out,
                 std::string &Error) {
    return send(mvec::daemon::serializeRequest(R), Error) &&
           receive(Out, Error);
  }

private:
  int Fd = -1;
  mvec::daemon::FrameReader Reader;
};

/// One mvecd child process (in its own process group, so its sandbox
/// workers can be stopped with it).
class MvecdProcess {
public:
  MvecdProcess() = default;
  ~MvecdProcess() { stop(); }
  MvecdProcess(const MvecdProcess &) = delete;
  MvecdProcess &operator=(const MvecdProcess &) = delete;

  /// Spawns `Binary --port 0 --config ConfigPath` and waits until it
  /// announces its port and answers PING. stderr goes to \p LogPath.
  bool start(const std::string &Binary, const std::string &ConfigPath,
             const std::string &LogPath, std::string &Error);
  /// SIGTERM (drain), wait, then SIGKILL whatever is left of the process
  /// group and reap it. Idempotent. False when the daemon had to be killed
  /// or exited nonzero.
  bool stop();

  bool running() const { return Pid > 0; }
  pid_t pid() const { return Pid; }
  uint16_t port() const { return Port; }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
};

/// Fetches the daemon's STATS document.
bool fetchStats(uint16_t Port, std::string &Json, std::string &Error);

/// Sums every numeric value stored under \p Key ("crashes", ...) anywhere
/// in the STATS document.
double sumJsonKey(const std::string &Json, const std::string &Key);
/// The first number stored under \p Key (the daemon-level field of keys
/// that shards repeat).
double jsonNumber(const std::string &Json, const std::string &Key);
/// Every integer in the array stored under \p Key ("worker_pids").
std::vector<long> jsonIntArrays(const std::string &Json,
                                const std::string &Key);

} // namespace perfbench

#endif // MVEC_PERFBENCH_CLIENT_H
