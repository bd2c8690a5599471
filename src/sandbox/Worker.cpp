//===- Worker.cpp - Forked sandbox worker process ---------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sandbox/Worker.h"

#include "daemon/Protocol.h"
#include "service/VectorizationService.h"
#include "support/Io.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

using namespace mvec;
using namespace mvec::sandbox;
using namespace mvec::daemon;

const char *mvec::sandbox::workerFailureName(WorkerFailure F) {
  switch (F) {
  case WorkerFailure::CleanExit:
    return "clean-exit";
  case WorkerFailure::ExitError:
    return "exit-error";
  case WorkerFailure::Crash:
    return "crash";
  case WorkerFailure::OomKill:
    return "oom-kill";
  case WorkerFailure::WatchdogTimeout:
    return "watchdog-timeout";
  case WorkerFailure::ProtocolError:
    return "protocol-error";
  case WorkerFailure::SpawnFailed:
    return "spawn-failed";
  }
  return "crash";
}

namespace {

/// Closes every descriptor except std{in,out,err} and \p Keep: the child
/// inherits the daemon's listening socket, client connections, sibling
/// worker sockets, and store fds, and must hold a reference to none of
/// them (a client whose connection the parent closes must see EOF, not a
/// half-dead socket pinned by a worker).
void closeAllFdsExcept(int Keep) {
  bool Scanned = false;
  if (DIR *D = ::opendir("/proc/self/fd")) {
    Scanned = true;
    std::vector<int> Victims;
    while (dirent *E = ::readdir(D)) {
      char *End = nullptr;
      long Fd = std::strtol(E->d_name, &End, 10);
      if (End == E->d_name || *End != '\0')
        continue;
      if (Fd > 2 && Fd != Keep && Fd != ::dirfd(D))
        Victims.push_back(static_cast<int>(Fd));
    }
    ::closedir(D);
    for (int Fd : Victims)
      ::close(Fd);
  }
  if (!Scanned) {
    long Max = ::sysconf(_SC_OPEN_MAX);
    if (Max <= 0 || Max > 65536)
      Max = 65536;
    for (int Fd = 3; Fd < Max; ++Fd)
      if (Fd != Keep)
        ::close(Fd);
  }
}

void applyLimit(int Resource, rlim_t Limit) {
  rlimit L{Limit, Limit};
  ::setrlimit(Resource, &L); // Best-effort; containment, not correctness.
}

/// This process's address-space size in bytes (0 when /proc/self/statm
/// cannot be read). Raw read(2): an iostream would grow an idle worker's
/// resident set by its locale setup.
rlim_t addressSpaceBytes() {
  char Buf[32] = {};
  int Fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return 0;
  ssize_t N = io::readSome(Fd, Buf, sizeof(Buf) - 1);
  ::close(Fd);
  return N > 0 ? std::strtoull(Buf, nullptr, 10) * ::sysconf(_SC_PAGESIZE)
               : 0;
}

/// Crash-campaign hooks: markers in a request body that make this worker
/// misbehave in a specific classified way. Gated behind
/// ShardConfig::SandboxTestHooks; in production the markers are inert MATLAB
/// comments.
[[noreturn]] void runTestHook(const std::string &Marker) {
  if (Marker == "crash")
    ::abort(); // SIGABRT -> classified `crash`.
  if (Marker == "exit")
    ::_exit(7); // -> `exit-error`.
  if (Marker == "oom") {
    // Map-and-touch (a sanitizer aborts on allocator failure) until the
    // address space runs out, then emulate the kernel OOM killer's SIGKILL
    // so the parent exercises a real OOM's classification path; one chunk
    // goes back so a sanitizer runtime has room to deliver the kill.
    constexpr size_t Chunk = 16 << 20;
    void *Last = nullptr;
    for (;;) {
      void *P = ::mmap(nullptr, Chunk, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (P == MAP_FAILED)
        break;
      std::memset(P, 0x5a, Chunk);
      Last = P;
    }
    if (Last)
      ::munmap(Last, Chunk);
    ::raise(SIGKILL);
  }
  // "spin": wedge without burning a full core so RLIMIT_CPU does not
  // race the watchdog in tests.
  for (;;)
    ::usleep(1000);
}

bool findTestHook(const std::string &Body, std::string &Marker) {
  size_t Pos = Body.find("%!sandbox-");
  if (Pos == std::string::npos)
    return false;
  size_t Start = Pos + std::strlen("%!sandbox-");
  size_t End = Start;
  while (End < Body.size() && std::isalpha(static_cast<unsigned char>(Body[End])))
    ++End;
  Marker = Body.substr(Start, End - Start);
  return true;
}

} // namespace

bool mvec::sandbox::spawnWorker(const SandboxConfig &Config,
                                WorkerProcess &Out, std::string &Error) {
  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0) {
    Error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Error = std::string("fork: ") + std::strerror(errno);
    ::close(Sv[0]);
    ::close(Sv[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Sv[0]);
    workerChildMain(Sv[1], Config); // noreturn
  }
  ::close(Sv[1]);
  Out.Pid = Pid;
  Out.Fd = Sv[0];
  return true;
}

void mvec::sandbox::workerChildMain(int Fd, const SandboxConfig &Config) {
  // Shed the parent's signal dispositions: the daemon's SIGINT/SIGTERM
  // handlers flip parent-side flags that mean nothing here, and the
  // watchdog's SIGKILL must behave exactly like an external kill.
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGHUP, SIG_DFL);
  ::signal(SIGPIPE, SIG_IGN);
#if defined(__linux__)
  // If the daemon itself dies, take the workers with it — no orphans.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  closeAllFdsExcept(Fd);
  const ShardConfig &Shard = Config.Shard;
  // Headroom above the forked image (see ShardConfig::WorkerMemoryMB).
  if (Shard.WorkerMemoryMB)
    applyLimit(RLIMIT_AS,
               addressSpaceBytes() + (rlim_t(Shard.WorkerMemoryMB) << 20));
  if (Shard.WorkerCpuSeconds)
    applyLimit(RLIMIT_CPU, Shard.WorkerCpuSeconds);

  // Everything below is freshly constructed. No result tier: the
  // daemon's shard service owns every cached result.
  ShardService Built = makeShardService(
      Shard, nullptr, "mvec-worker[" + std::to_string(::getpid()) + "]");
  Built.Config.Workers = 1; // One request in flight per worker process.
  Built.Config.QueueCapacity = 4;
  Built.Config.CacheCapacity = 0;
  VectorizationService Service(Built.Config);

  FrameReader Reader;
  char Buf[16 << 10];
  for (;;) {
    FrameReader::Frame Frame;
    std::string Error;
    FrameReader::Result R = Reader.next(Frame, Error);
    if (R == FrameReader::Result::NeedMore) {
      ssize_t N = io::recvSome(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        ::_exit(0); // Parent closed (or died): clean exit.
      Reader.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (R == FrameReader::Result::Malformed) {
      // The only peer is our own parent; garbage here is a supervisor
      // bug, not a client. Answer 400 for the record and bail.
      std::string Wire = badRequestResponse(Error);
      io::sendFull(Fd, Wire.data(), Wire.size(), 1000);
      ::_exit(3);
    }

    Request Req;
    Response Resp;
    if (!requestFromFrame(Frame, Req, Error)) {
      std::string Wire = badRequestResponse(Error);
      io::sendFull(Fd, Wire.data(), Wire.size(), 1000);
      ::_exit(3);
    }
    switch (Req.V) {
    case Verb::Ping:
      Resp.Message = "pong";
      break;
    case Verb::Stats:
      Resp.Body = Service.metrics().json();
      break;
    case Verb::Shutdown: {
      std::string Wire = serializeResponse(Resp);
      io::sendFull(Fd, Wire.data(), Wire.size(), 1000);
      ::_exit(0);
    }
    case Verb::Config:
      Resp.Status = jobStatusName(JobStatus::Failed);
      Resp.ErrorClass = errorClassName(ErrorClass::Input);
      Resp.Message = "workers take their config at spawn time";
      break;
    case Verb::Vec: {
      std::string Marker;
      if (Shard.SandboxTestHooks && findTestHook(Req.Body, Marker))
        runTestHook(Marker); // noreturn
      JobResult Result = Service.submit(jobSpecFromRequest(Req)).get();
      VectorizeStats Stats = Result.Stats;
      Resp = responseFromResult(std::move(Result));
      Resp.Stats = Stats;
      break;
    }
    }
    std::string Wire = serializeResponse(Resp);
    if (!io::sendFull(Fd, Wire.data(), Wire.size(), 10000))
      ::_exit(0); // Parent gone mid-response.
  }
}
