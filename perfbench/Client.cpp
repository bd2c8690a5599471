//===- Client.cpp - mvecd process control and MVEC/1 client ---------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Client.h"

#include "Common.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mvec::daemon;

namespace perfbench {

Connection::~Connection() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Connection::connect(uint16_t Port, std::string &Error) {
  Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return true;
}

bool Connection::send(const std::string &Wire, std::string &Error) {
  size_t Off = 0;
  while (Off < Wire.size()) {
    ssize_t N =
        ::send(Fd, Wire.data() + Off, Wire.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool Connection::receive(Response &Out, std::string &Error) {
  char Buf[64 * 1024];
  for (;;) {
    FrameReader::Frame Frame;
    FrameReader::Result R = Reader.next(Frame, Error);
    if (R == FrameReader::Result::Ready)
      return responseFromFrame(Frame, Out, Error);
    if (R == FrameReader::Result::Malformed)
      return false;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Error = N == 0 ? "connection closed by daemon"
                     : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    Reader.feed(Buf, static_cast<size_t>(N));
  }
}

bool MvecdProcess::start(const std::string &Binary,
                         const std::string &ConfigPath,
                         const std::string &LogPath, std::string &Error) {
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  pid_t Parent = ::getpid();
  const char *Exe = Binary.c_str(), *Config = ConfigPath.c_str(),
             *Log = LogPath.c_str();
  // vfork: the child borrows this process's memory until exec instead of
  // copying its page tables, so a boot times mvecd's start, not a copy of
  // the benchmark's address space. The child makes system calls only.
  Pid = ::vfork();
  if (Pid < 0) {
    Error = std::string("vfork: ") + std::strerror(errno);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return false;
  }
  if (Pid == 0) {
    // Child: its own process group (the sandbox workers inherit it), and
    // death with the benchmark should the benchmark die first.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    ::dup2(Pipe[1], STDOUT_FILENO);
    int LogFd = ::open(Log, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (LogFd >= 0)
      ::dup2(LogFd, STDERR_FILENO);
    ::execl(Exe, Exe, "--port", "0", "--config", Config,
            static_cast<char *>(nullptr));
    ::_exit(127);
  }
  ::setpgid(Pid, Pid); // race-free either way: whichever runs first wins
  ::close(Pipe[1]);
  OutFd = Pipe[0];

  // Wait for "mvecd: listening on ADDR:PORT".
  std::string Out;
  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(30);
  const std::string Marker = "listening on ";
  for (;;) {
    size_t At = Out.find(Marker);
    size_t Eol = At == std::string::npos ? At : Out.find('\n', At);
    if (Eol != std::string::npos) {
      std::string Addr = Out.substr(At + Marker.size(),
                                    Eol - At - Marker.size());
      Port = static_cast<uint16_t>(
          std::strtoul(Addr.substr(Addr.rfind(':') + 1).c_str(), nullptr,
                       10));
      break;
    }
    int LeftMs = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline -
                                                              Clock::now())
            .count());
    pollfd P{OutFd, POLLIN, 0};
    if (LeftMs <= 0 || ::poll(&P, 1, LeftMs) <= 0) {
      Error = "mvecd did not announce its port (see " + LogPath + ")";
      stop();
      return false;
    }
    char Buf[512];
    ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
    if (N <= 0) {
      Error = "mvecd exited during boot (see " + LogPath + ")";
      stop();
      return false;
    }
    Out.append(Buf, static_cast<size_t>(N));
  }

  Connection C;
  Request Ping;
  Ping.V = Verb::Ping;
  Response Pong;
  if (!C.connect(Port, Error) || !C.roundTrip(Ping, Pong, Error) ||
      Pong.Code != 200) {
    Error = "mvecd does not answer PING: " + Error;
    stop();
    return false;
  }
  return true;
}

bool MvecdProcess::stop() {
  if (Pid <= 0)
    return true;
  bool Clean = false;
  ::kill(Pid, SIGTERM);
  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(30);
  int Status = 0;
  for (;;) {
    pid_t W = ::waitpid(Pid, &Status, WNOHANG);
    if (W == Pid) {
      Clean = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      break;
    }
    if (W < 0 || Clock::now() > Deadline) {
      ::kill(-Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Anything left in the group (a worker mid-exit) goes too; the
  // benchmark is a child subreaper, so orphans are reaped by
  // reapOrphans() in main.
  ::kill(-Pid, SIGKILL);
  if (OutFd >= 0)
    ::close(OutFd);
  OutFd = -1;
  Pid = -1;
  return Clean;
}

bool fetchStats(uint16_t Port, std::string &Json, std::string &Error) {
  Connection C;
  Request R;
  R.V = Verb::Stats;
  Response Resp;
  if (!C.connect(Port, Error) || !C.roundTrip(R, Resp, Error))
    return false;
  Json = Resp.Body;
  return Resp.Code == 200;
}

double sumJsonKey(const std::string &Json, const std::string &Key) {
  const std::string Needle = "\"" + Key + "\":";
  double Sum = 0;
  for (size_t At = Json.find(Needle); At != std::string::npos;
       At = Json.find(Needle, At + Needle.size())) {
    const char *Start = Json.c_str() + At + Needle.size();
    char *End = nullptr;
    double V = std::strtod(Start, &End);
    if (End != Start)
      Sum += V;
  }
  return Sum;
}

double jsonNumber(const std::string &Json, const std::string &Key) {
  size_t At = Json.find("\"" + Key + "\":");
  return At == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + At + Key.size() + 3, nullptr);
}

std::vector<long> jsonIntArrays(const std::string &Json,
                                const std::string &Key) {
  const std::string Needle = "\"" + Key + "\":[";
  std::vector<long> Out;
  for (size_t At = Json.find(Needle); At != std::string::npos;
       At = Json.find(Needle, At + Needle.size())) {
    const char *P = Json.c_str() + At + Needle.size();
    while (*P && *P != ']') {
      char *End = nullptr;
      long V = std::strtol(P, &End, 10);
      if (End == P)
        break;
      Out.push_back(V);
      P = End;
      if (*P == ',')
        ++P;
    }
  }
  return Out;
}

} // namespace perfbench
