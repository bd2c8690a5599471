//===- mvecd.cpp - The mvec vectorization daemon ------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standalone server binary: a sharded vectorization daemon with a
/// persistent content-addressed result store.
///
///   mvecd [--port N] [--bind ADDR] [--config FILE] [--store DIR] ...
///
/// Options:
///   --port N            TCP port (default 4871; 0 = ephemeral)
///   --bind ADDR         bind address (default 127.0.0.1)
///   --config FILE       daemon config file (key = value lines); also the
///                       file re-read on SIGHUP
///   --store DIR         disk store directory (store_dir)
///   --shards N          shard count, 1-256 (shards)
///   --workers N         worker threads per shard, 1-256
///                       (workers_per_shard)
///   --isolation MODE    inproc | process (isolation): process runs each
///                       shard's workers as forked, rlimit-capped,
///                       supervised sandbox processes
///   --print-config      dump the effective config and exit
///
/// The four overrides stand for the config keys in parentheses: they are
/// applied over --config through the same validators, so a value the
/// file would reject is a usage error here too (exit 2).
///
/// On boot the effective port is announced on stdout as
///   mvecd: listening on <addr>:<port>
/// (CI and scripts parse this line — keep it stable).
///
/// Signals:
///   SIGHUP              re-read --config and hot-reload (in-flight jobs
///                       finish on the old fleet; the disk store persists)
///   SIGINT / SIGTERM    clean shutdown: stop accepting, drain in-flight
///                       requests, flush counters to stderr, exit 0
///
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"
#include "service/Flags.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

using namespace mvec::daemon;

namespace {

volatile std::sig_atomic_t StopRequested = 0;
volatile std::sig_atomic_t ReloadRequested = 0;

void onStopSignal(int) { StopRequested = 1; }
void onHupSignal(int) { ReloadRequested = 1; }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--bind ADDR] [--config FILE]\n"
               "       %*s [--store DIR] [--shards N] [--workers N]\n"
               "       %*s [--isolation inproc|process] [--print-config]\n",
               Argv0, static_cast<int>(std::strlen(Argv0)), "",
               static_cast<int>(std::strlen(Argv0)), "");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  uint16_t Port = 4871;
  std::string Bind = "127.0.0.1";
  std::string ConfigFile;
  std::string Overrides; // Config lines the override flags stand for.
  bool PrintConfig = false;

  mvec::FlagReader F(Argc, Argv);
  std::string Value;
  auto overrideKey = [&](const char *Flag, const char *Key) {
    if (!F.read(Flag, Value))
      return false;
    Overrides += std::string(Key) + " = " + Value + "\n";
    return true;
  };
  while (F.next()) {
    if (F.read("--port", Port) || F.read("--bind", Bind) ||
        F.read("--config", ConfigFile) || overrideKey("--shards", "shards") ||
        overrideKey("--workers", "workers_per_shard") ||
        overrideKey("--isolation", "isolation") ||
        F.flag("--print-config", PrintConfig))
      continue;
    if (F.read("--store", Value)) {
      if (!Value.empty()) // An empty --store keeps the file's store_dir.
        Overrides += "store_dir = " + Value + "\n";
    } else
      return usage(Argv[0]);
  }

  DaemonConfig Config;
  std::string Error;
  if (!ConfigFile.empty() && !loadDaemonConfigFile(ConfigFile, Config, Error)) {
    std::fprintf(stderr, "mvecd: %s\n", Error.c_str());
    return 2;
  }
  if (!parseDaemonConfig(Overrides, Config, Error)) {
    std::fprintf(stderr, "mvecd: command-line override %s\n", Error.c_str());
    return usage(Argv[0]);
  }

  if (PrintConfig) {
    std::fputs(daemonConfigText(Config).c_str(), stdout);
    return 0;
  }

  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGHUP, onHupSignal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    Daemon D(Config);
    ServerConfig SC;
    SC.BindAddress = Bind;
    SC.Port = Port;
    SC.MaxFrameBytes = Config.MaxFrameBytes;
    Server S(D, SC);
    std::string Error;
    if (!S.start(Error)) {
      std::fprintf(stderr, "mvecd: %s\n", Error.c_str());
      return 1;
    }
    // CI parses this line; keep its shape stable.
    std::printf("mvecd: listening on %s:%u\n", Bind.c_str(), S.port());
    std::printf("mvecd: %u shard(s) x %u worker(s), isolation %s, store %s\n",
                D.shardCount(), Config.WorkersPerShard,
                Config.Isolation.c_str(),
                Config.StoreDir.empty() ? "(none)"
                                        : Config.StoreDir.c_str());
    std::fflush(stdout);

    S.setIdleCallback([&] {
      if (StopRequested)
        S.stop();
      if (ReloadRequested) {
        ReloadRequested = 0;
        if (ConfigFile.empty()) {
          std::fprintf(stderr,
                       "mvecd: SIGHUP ignored (no --config file)\n");
          return;
        }
        DaemonConfig Fresh = D.config();
        std::string ReloadError;
        if (!loadDaemonConfigFile(ConfigFile, Fresh, ReloadError) ||
            !D.reload(Fresh, ReloadError))
          std::fprintf(stderr, "mvecd: reload failed: %s\n",
                       ReloadError.c_str());
        else
          std::fprintf(stderr, "mvecd: config reloaded from %s\n",
                       ConfigFile.c_str());
      }
    });

    S.run(); // Returns once draining finished; all responses were sent.

    // Flush final state where an operator (or the smoke job) can see it.
    std::fprintf(stderr, "mvecd: shutdown: %s\n", D.metricsJson().c_str());
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "mvecd: fatal: %s\n", E.what());
    return 1;
  }
}
