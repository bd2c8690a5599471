//===- main.cpp - mvec_bench: the repository benchmark --------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   mvec_bench --workload W --seed N --seconds S --trace 0|1
///              --mvecd PATH [--root DIR] [--work DIR] [--inputs-hash]
///
/// Runs one workload (paper-kernels, cold-miss, warm-hit), checks every
/// output, and prints a report whose last line is one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
/// end-to-end metrics; --trace 1 replays the workload layer by layer and
/// reports the per-layer metrics. Exit status 0 only when every check
/// passed. --inputs-hash prints the hash of the generated inputs and
/// exits (seed discipline: same seed, same inputs).
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>

#include <sys/prctl.h>
#include <sys/wait.h>

using namespace perfbench;

namespace {

const char *const EndToEnd[] = {"setup_s",        "loop_run_ms", "vec_run_ms",
                                "throughput_rps", "req_ms_p50",  "peak_rss_mb"};

std::set<std::string> perLayerNames() {
  std::set<std::string> Out;
  for (const PaperProgram &P : paperPrograms()) {
    Out.insert("paper." + P.Name + ".loop_run_ms");
    Out.insert("paper." + P.Name + ".vec_run_ms");
  }
  for (const char *Stage :
       {"frontend.parse_ms", "shape.infer_ms", "deps.graph_ms",
        "vectorizer.vectorize_ms", "frontend.print_ms", "driver.validate_ms"}) {
    Out.insert(Stage);
    Out.insert(std::string(Stage) + ".sum");
  }
  for (const char *Name :
       {"interp.loop_ns_per_stmt", "interp.vec_ns_per_stmt",
        "simd.calls.elementwise", "simd.calls.fma", "simd.calls.matmul",
        "simd.calls.reduce", "simd.calls.cumsum", "simd.level",
        "vm.compile_ms", "vm.loop_run_ms", "vm.vec_run_ms",
        "vectorizer.stmts_vectorized", "vectorizer.ineligible_nests",
        "vectorizer.out_bytes", "service.queue_ms", "service.vectorize_ms",
        "service.validate_ms", "service.total_ms",
        "service.worker_busy_ratio", "service.nest_hit_ratio",
        "service.hit_ms", "service.memory_hit_ratio", "daemon.handle_ms",
        "daemon.handle_inproc_ms", "daemon.tcp_ms", "protocol.codec_us",
        "daemon.shed", "daemon.degraded", "sandbox.hop_ms", "sandbox.crashes",
        "sandbox.respawns", "store.save_ms", "store.load_ms", "store.puts",
        "loadgen.late_ms_p99", "trace.overhead_ratio",
        "trace.unaccounted_ratio"})
    Out.insert(Name);
  return Out;
}

int usage() {
  std::fprintf(stderr,
               "usage: mvec_bench --workload paper-kernels|cold-miss|warm-hit"
               " --seed N --seconds S --trace 0|1 --mvecd PATH\n"
               "                  [--root DIR] [--work DIR] [--inputs-hash]\n");
  return 2;
}

/// Sandbox workers orphaned by a daemon that died first are re-parented
/// here (the benchmark is a child subreaper): wait for all of them.
void reapOrphans() {
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }
}

void print(const Report &R) {
  for (const std::string &Line : R.Notes)
    std::printf("%s\n", Line.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("  %-32s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string Host = "{\"host\":{";
  for (size_t I = 0; I != R.Host.size(); ++I) {
    Host += I ? "," : "";
    Host += jsonString(R.Host[I].first);
    Host += ":";
    Host += R.Host[I].second;
  }
  std::printf("%s}}\n", Host.c_str());
  std::string Out = "{\"correct\":";
  Out += R.Correct ? "true" : "false";
  Out += ",\"attempted\":" + std::to_string(std::max<uint64_t>(1, R.Attempted));
  Out += ",\"failed\":" + std::to_string(R.Failed);
  Out += ",\"metrics\":{";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    Out += I ? "," : "";
    Out += jsonString(R.Metrics[I].Name);
    Out += ":{\"value\":";
    Out += formatDouble(R.Metrics[I].Value);
    Out += ",\"unit\":";
    Out += jsonString(R.Metrics[I].Unit);
    Out += "}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--inputs-hash") {
      O.InputsHashOnly = true;
      continue;
    }
    if (!(V = Value()))
      return usage();
    if (Arg == "--workload")
      O.Workload = V;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (Arg == "--trace")
      O.Trace = std::string(V) == "1";
    else if (Arg == "--mvecd")
      O.Mvecd = V;
    else if (Arg == "--root")
      O.Root = V;
    else if (Arg == "--work")
      O.Work = V;
    else
      return usage();
  }
  if (O.Workload != "paper-kernels" && O.Workload != "cold-miss" &&
      O.Workload != "warm-hit")
    return usage();
  if (O.Seconds == 0)
    O.Seconds = 1;
  if (O.Work.empty())
    O.Work = O.Root + "/.bench_build/work";
  std::error_code EC;
  std::filesystem::create_directories(O.Work, EC);
  O.Work = std::filesystem::absolute(O.Work).string();

  if (O.InputsHashOnly) {
    size_t Count = 0;
    uint64_t H = inputsHash(O, Count);
    std::printf("inputs %s %zu %s\n", O.Workload.c_str(), Count,
                hex64(H).c_str());
    return 0;
  }
  if (O.Mvecd.empty())
    return usage();
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  std::printf("mvec_bench: workload %s, seed %llu, %u s, trace %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  Report R;
  recordHost(R, O);
  if (O.Workload == "paper-kernels")
    runPaperKernels(O, R);
  else
    runDaemonWorkload(O, R, O.Workload == "warm-hit");
  reapOrphans();

  // Every run reports exactly its metric set, or it is not a valid run.
  std::set<std::string> Want =
      O.Trace ? perLayerNames()
              : std::set<std::string>(std::begin(EndToEnd), std::end(EndToEnd));
  std::set<std::string> Got;
  for (const Metric &M : R.Metrics)
    Got.insert(M.Name);
  if (R.Correct && Got != Want)
    R.fail("reported metrics differ from the declared set (" +
           std::to_string(Got.size()) + " reported, " +
           std::to_string(Want.size()) + " declared)");
  if (O.Trace) {
    std::string Path = O.Work + "/trace-" + O.Workload + "-" +
                       std::to_string(O.Seed) + ".json";
    if (trace::writeChromeTrace(Path))
      R.note("trace: " + std::to_string(trace::spanCount()) + " spans -> " +
             Path);
  }
  print(R);
  return R.Correct ? 0 : 1;
}
