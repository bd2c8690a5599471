//===- Layers.cpp - Per-layer probes of the traced run --------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Client.h"

#include "daemon/Daemon.h"
#include "daemon/DiskStore.h"
#include "deps/DepAnalysis.h"
#include "deps/LoopNest.h"
#include "driver/Pipeline.h"
#include "frontend/ASTPrinter.h"
#include "interp/simd/SimdDispatch.h"
#include "service/VectorizationService.h"
#include "shape/AnnotationParser.h"
#include "shape/ShapeInference.h"
#include "support/Casting.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

using namespace mvec;
using namespace mvec::daemon;

namespace perfbench {

namespace {

double ns(double Ms) { return Ms * 1e6; }

/// p50 and sum of the self times (ms) of the spans named \p Span, as
/// `<Metric>` and `<Metric>.sum`.
void addStage(Report &R, const char *Span, const std::string &Metric) {
  std::vector<double> Ms = trace::selfTimesMs(Span);
  double Sum = 0;
  for (double V : Ms)
    Sum += V;
  R.add(Metric, median(Ms), "ms");
  R.add(Metric + ".sum", Sum, "ms");
}

//===----------------------------------------------------------------------===//
// interp, interp/simd, vm
//===----------------------------------------------------------------------===//

void probeKernels(const LayerInputs &In, Report &R) {
  const auto &Cases = *In.Kernels;
  simd::DispatchCounters &DC = simd::dispatchCounters();
  uint64_t Calls[5] = {0, 0, 0, 0, 0};
  double LoopMs = 0, VecMs = 0;
  uint64_t LoopSteps = 0, VecSteps = 0;
  double CompileMs = 0;
  std::vector<double> VmLoop, VmVec;

  for (const auto &KP : Cases) {
    const KernelCase &K = *KP;
    uint64_t Seed = K.wholeScript() ? 12345 : In.Seed;
    // Whole scripts take microseconds: repeat them so the per-statement
    // figures are not one timer tick.
    const int Reps = K.wholeScript() ? 9 : 1;
    std::string Error;
    for (bool Vectorized : {false, true}) {
      std::vector<double> Times;
      uint64_t Steps = 0;
      for (int Rep = 0; Rep != Reps; ++Rep) {
        Interpreter I;
        if (!makeWorkspace(K, Seed, I, Error)) {
          R.fail(Error);
          return;
        }
        uint64_t Before[5] = {DC.Elementwise.load(), DC.FusedMulAdd.load(),
                              DC.MatMul.load(), DC.Reduce.load(),
                              DC.Cumsum.load()};
        double Ms;
        uint64_t S0 = I.stepsExecuted();
        {
          trace::Scope S(Vectorized ? "interp.vec" : "interp.loop");
          Clock::time_point T0 = Clock::now();
          bool Ok = I.run(Vectorized ? K.VecBody : K.Loop.Prog);
          Ms = msBetween(T0, Clock::now());
          ++R.Attempted;
          if (!Ok)
            R.fail(K.Name + ": interpreter run failed: " + I.errorMessage());
        }
        Steps = I.stepsExecuted() - S0;
        Times.push_back(Ms);
        if (Vectorized && Rep == 0) {
          Calls[0] += DC.Elementwise.load() - Before[0];
          Calls[1] += DC.FusedMulAdd.load() - Before[1];
          Calls[2] += DC.MatMul.load() - Before[2];
          Calls[3] += DC.Reduce.load() - Before[3];
          Calls[4] += DC.Cumsum.load() - Before[4];
        }
      }
      (Vectorized ? VecMs : LoopMs) += median(Times);
      (Vectorized ? VecSteps : LoopSteps) += Steps;
    }

    // The bytecode tier on the same two programs.
    for (bool Vectorized : {false, true}) {
      const Program &P = Vectorized ? K.VecBody : K.Loop.Prog;
      std::shared_ptr<vm::CompiledProgram> CP;
      {
        trace::Scope S("vm.compile");
        Clock::time_point T0 = Clock::now();
        CP = std::make_shared<vm::CompiledProgram>(vm::compileProgram(
            P, Vectorized ? K.VectorizedSource : K.FullSource));
        CompileMs += msBetween(T0, Clock::now());
      }
      std::vector<double> Times;
      for (int Rep = 0; Rep != Reps; ++Rep) {
        Interpreter I;
        if (!makeWorkspace(K, Seed, I, Error)) {
          R.fail(Error);
          return;
        }
        trace::Scope S(Vectorized ? "vm.vec" : "vm.loop");
        Clock::time_point T0 = Clock::now();
        bool Ok = vm::execute(*CP, I);
        Times.push_back(msBetween(T0, Clock::now()));
        ++R.Attempted;
        if (!Ok)
          R.fail(K.Name + ": vm run failed: " + I.errorMessage());
      }
      (Vectorized ? VmVec : VmLoop).push_back(median(Times));
    }
  }

  R.add("interp.loop_ns_per_stmt", ns(LoopMs) / std::max<uint64_t>(1, LoopSteps),
        "ns");
  R.add("interp.vec_ns_per_stmt", ns(VecMs) / std::max<uint64_t>(1, VecSteps),
        "ns");
  const char *Names[5] = {"elementwise", "fma", "matmul", "reduce", "cumsum"};
  for (int I = 0; I != 5; ++I)
    R.add(std::string("simd.calls.") + Names[I],
          static_cast<double>(Calls[I]), "count");
  R.add("simd.level", static_cast<double>(simd::activeLevel()), "level");
  R.add("vm.compile_ms", CompileMs, "ms");
  R.add("vm.loop_run_ms", geomean(VmLoop), "ms");
  R.add("vm.vec_run_ms", geomean(VmVec), "ms");
}

void probePaper(const LayerInputs &In, Report &R) {
  for (const auto &KP : *In.Paper) {
    const KernelCase &K = *KP;
    const char *LoopSpan = trace::intern("paper." + K.Name + ".loop");
    const char *VecSpan = trace::intern("paper." + K.Name + ".vec");
    // paper-kernels' own traced rounds already recorded these spans.
    if (trace::selfTimesMs(LoopSpan).empty()) {
      Interpreter L, V;
      std::string Error;
      if (!makeWorkspace(K, In.Seed, L, Error) ||
          !makeWorkspace(K, In.Seed, V, Error)) {
        R.fail(Error);
        continue;
      }
      // First runs grow outputs from empty: warm up untimed.
      runCase(K, false, L, In.Seed);
      runCase(K, true, V, In.Seed);
      {
        trace::Scope S(LoopSpan);
        R.Attempted += 1;
        if (runCase(K, false, L, In.Seed) < 0)
          R.fail("paper " + K.Name + ": loop kernel failed");
      }
      for (int Rep = 0; Rep != 5; ++Rep) {
        trace::Scope S(VecSpan);
        R.Attempted += 1;
        if (runCase(K, true, V, In.Seed) < 0)
          R.fail("paper " + K.Name + ": vectorized kernel failed");
      }
    }
    R.add("paper." + K.Name + ".loop_run_ms",
          median(trace::selfTimesMs(LoopSpan)), "ms");
    R.add("paper." + K.Name + ".vec_run_ms",
          median(trace::selfTimesMs(VecSpan)), "ms");
  }
}

//===----------------------------------------------------------------------===//
// frontend, shape, deps, vectorizer, driver
//===----------------------------------------------------------------------===//

/// Builds the dependence graph of every top-level loop nest (on clones:
/// normalization rewrites the tree).
void depGraphs(const Program &P, const ShapeEnv &Env) {
  for (const StmtPtr &S : P.Stmts) {
    const auto *F = dyn_cast<ForStmt>(S.get());
    if (!F)
      continue;
    StmtPtr Clone = F->clone();
    auto *Loop = cast<ForStmt>(Clone.get());
    normalizeLoopIndices(*Loop);
    std::string Reason;
    if (std::optional<LoopNest> Nest = buildLoopNest(*Loop, Reason))
      (void)buildDepGraph(*Nest, Env);
  }
}

void probeCompile(const LayerInputs &In, Report &R) {
  const PatternDatabase &DB = defaultPatternDatabase();
  double Stmts = 0, Ineligible = 0, OutBytes = 0;
  uint64_t Id = 0;
  for (const Script &Sc : In.Replay) {
    trace::Scope Root("compile.script", ++Id);
    DiagnosticEngine Diags;
    ParseResult Parsed;
    {
      trace::Scope S("frontend.parse");
      Parsed = parseMatlab(Sc.Source, Diags);
    }
    ShapeEnv Env;
    {
      trace::Scope S("shape.infer");
      Env = parseShapeAnnotations(Parsed.Annotations, Diags);
      inferProgramShapes(Parsed.Prog, Env);
    }
    {
      trace::Scope S("deps.graph");
      depGraphs(Parsed.Prog, Env);
    }
    VectorizeStats Stats;
    Program Vectorized;
    {
      trace::Scope S("vectorizer.vectorize");
      Vectorized = vectorizeProgram(Parsed.Prog, Env, DB, VectorizerOptions(),
                                    Diags, &Stats);
    }
    std::string Printed;
    {
      trace::Scope S("frontend.print");
      Printed = printProgram(Vectorized);
    }
    DiffOutcome D;
    {
      trace::Scope S("driver.validate");
      RunLimits Limits;
      Limits.Deadline = Clock::now() + std::chrono::seconds(30);
      D = diffRunLimited(Sc.Source, Printed, Limits);
    }
    ++R.Attempted;
    if (Diags.hasErrors() || Printed != Sc.Expected || !D.agreed())
      R.fail(Sc.Name + ": compile-stage replay differs from set-up");
    Stmts += Stats.StmtsVectorized;
    Ineligible += Stats.IneligibleNests;
    OutBytes += static_cast<double>(Printed.size());
  }
  addStage(R, "frontend.parse", "frontend.parse_ms");
  addStage(R, "shape.infer", "shape.infer_ms");
  addStage(R, "deps.graph", "deps.graph_ms");
  addStage(R, "vectorizer.vectorize", "vectorizer.vectorize_ms");
  addStage(R, "frontend.print", "frontend.print_ms");
  addStage(R, "driver.validate", "driver.validate_ms");
  R.add("vectorizer.stmts_vectorized", Stmts, "count");
  R.add("vectorizer.ineligible_nests", Ineligible, "count");
  R.add("vectorizer.out_bytes", OutBytes, "bytes");
}

//===----------------------------------------------------------------------===//
// service
//===----------------------------------------------------------------------===//

JobSpec specFor(const Script &S, bool Validate) {
  JobSpec Spec;
  Spec.Name = S.Name;
  Spec.Source = S.Source;
  Spec.Validate = Validate;
  Spec.Deadline = std::chrono::milliseconds(10000);
  return Spec;
}

/// What one replay through an in-process service returned.
struct ServiceReplay {
  std::vector<JobResult> Results;
  double WallSeconds = 0;
  uint64_t NestHits = 0, NestLookups = 0;
};

/// Replays \p Order over \p Scripts through \p Svc from two submitters,
/// each waiting for its job (the closed loop's shape).
ServiceReplay replayService(VectorizationService &Svc,
                            const std::vector<Script> &Scripts,
                            const std::vector<size_t> &Order, bool Validate,
                            const char *Phase, Report &R) {
  ServiceReplay Out;
  uint64_t NestHits0 = Svc.nestCache().hits();
  uint64_t NestMiss0 = Svc.nestCache().misses();
  std::mutex Mutex;
  std::atomic<size_t> Next{0};
  Clock::time_point Start = Clock::now();
  auto Submitter = [&] {
    for (size_t K = Next++; K < Order.size(); K = Next++) {
      const Script &S = Scripts[Order[K]];
      JobResult J;
      {
        trace::Scope Span("service.job", K + 1);
        J = Svc.submit(specFor(S, Validate)).get();
      }
      std::lock_guard<std::mutex> Lock(Mutex);
      ++R.Attempted;
      if (!J.succeeded() || J.VectorizedSource != S.Expected)
        R.fail(std::string(Phase) + ": " + S.Name + ": " + J.Message);
      Out.Results.push_back(std::move(J));
    }
  };
  std::thread A(Submitter), B(Submitter);
  A.join();
  B.join();
  Out.WallSeconds = secondsBetween(Start, Clock::now());
  Out.NestHits = Svc.nestCache().hits() - NestHits0;
  Out.NestLookups = Out.NestHits + Svc.nestCache().misses() - NestMiss0;
  return Out;
}

void probeService(const LayerInputs &In, Report &R) {
  // Shaped like one daemon shard: two workers, the daemon's cache sizes.
  ServiceConfig C;
  C.Workers = 2;
  C.CacheCapacity = 512;
  C.NestCacheCapacity = 1024;

  // The cold path: distinct scripts in send order, validation on, into an
  // empty service (the edited resubmits are where the nest cache hits).
  {
    VectorizationService Svc(C);
    std::vector<size_t> Order(In.ColdReplay.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    ServiceReplay Cold = replayService(Svc, In.ColdReplay, Order, true,
                                       "service cold replay", R);
    std::vector<double> Queue, Vec, Val, Total;
    double Busy = 0;
    for (const JobResult &J : Cold.Results) {
      Queue.push_back(J.QueueSeconds * 1e3);
      Total.push_back(J.TotalSeconds * 1e3);
      Vec.push_back(J.VectorizeSeconds * 1e3);
      Val.push_back(J.ValidateSeconds * 1e3);
      Busy += J.VectorizeSeconds + J.ValidateSeconds;
      if (J.CacheHit)
        R.fail("service cold replay: " + J.Name + " hit the result cache");
    }
    trace::count("service.nest_cache.hits", Cold.NestHits);
    trace::count("service.nest_cache.lookups", Cold.NestLookups);
    R.add("service.queue_ms", median(Queue), "ms");
    R.add("service.vectorize_ms", median(Vec), "ms");
    R.add("service.validate_ms", median(Val), "ms");
    R.add("service.total_ms", median(Total), "ms");
    R.add("service.worker_busy_ratio",
          Busy / (C.Workers * std::max(Cold.WallSeconds, 1e-9)), "ratio");
    R.add("service.nest_hit_ratio",
          Cold.NestLookups ? double(Cold.NestHits) / Cold.NestLookups : 0,
          "ratio");
  }

  // The hit path: the workload's own request sequence (after the fill on
  // warm-hit).
  VectorizationService Svc(C);
  if (In.FillFirst) {
    std::vector<JobSpec> Specs;
    for (const Script &S : In.Replay)
      Specs.push_back(specFor(S, In.Validate));
    for (const JobResult &J : Svc.runBatch(std::move(Specs)))
      if (!J.succeeded())
        R.fail("service fill: " + J.Name + ": " + J.Message);
  }
  ServiceReplay Own = replayService(Svc, In.Replay, In.Sequence, In.Validate,
                                    "service replay", R);
  std::vector<double> Hit;
  size_t MemoryHits = 0;
  for (const JobResult &J : Own.Results) {
    if (J.CacheHit) {
      Hit.push_back(J.TotalSeconds * 1e3);
      MemoryHits += !J.DiskHit;
    }
  }
  trace::count("service.result_cache.hits", Hit.size());
  R.add("service.hit_ms", median(Hit), "ms");
  R.add("service.memory_hit_ratio",
        Own.Results.empty() ? 0 : double(MemoryHits) / Own.Results.size(),
        "ratio");
}

//===----------------------------------------------------------------------===//
// daemon, sandbox
//===----------------------------------------------------------------------===//

/// p50 of Daemon::handle over the Sequence, on one thread.
double probeHandle(const LayerInputs &In, Report &R, bool Process) {
  DaemonConfig C;
  C.Isolation = Process ? "process" : "inproc";
  if (In.Store) {
    C.StoreDir = In.Work + (Process ? "/probe-store-process"
                                    : "/probe-store-inproc");
    freshDir(C.StoreDir);
  }
  C.QuarantineDir = In.Work + "/quarantine";
  const char *Span = Process ? "daemon.handle" : "daemon.handle_inproc";
  try {
    Daemon D(C);
    if (In.FillFirst)
      for (const Script &S : In.Replay)
        if (D.handle(requestFor(S, In.Validate)).Status != "succeeded")
          R.fail(std::string(Span) + " fill: " + S.Name);
    for (size_t K = 0; K != In.Sequence.size(); ++K) {
      const Script &S = In.Replay[In.Sequence[K]];
      Request Req = requestFor(S, In.Validate);
      Response Resp;
      {
        trace::Scope Scope(Span, K + 1);
        Resp = D.handle(Req);
      }
      ++R.Attempted;
      if (Resp.Status != "succeeded" || Resp.Body != S.Expected)
        R.fail(std::string(Span) + ": " + S.Name + ": " + Resp.Status + " " +
               Resp.Message);
    }
  } catch (const std::exception &E) {
    R.fail(std::string(Span) + ": " + E.what());
  }
  return median(trace::selfTimesMs(Span));
}

/// Serialize + parse of every request and its response, in microseconds.
void probeCodec(const LayerInputs &In, Report &R) {
  std::vector<double> Us;
  size_t Rounds = std::max<size_t>(1, 4000 / std::max<size_t>(1, In.Sequence.size()));
  for (size_t Round = 0; Round != Rounds; ++Round) {
    for (size_t Idx : In.Sequence) {
      const Script &S = In.Replay[Idx];
      Request Req = requestFor(S, In.Validate);
      Response Resp;
      Resp.Status = "succeeded";
      Resp.CacheTier = "memory";
      Resp.Body = S.Expected;
      std::string Error;
      trace::Scope Span("protocol.codec");
      Clock::time_point T0 = Clock::now();
      FrameReader In1, In2;
      In1.feed(serializeRequest(Req));
      In2.feed(serializeResponse(Resp));
      FrameReader::Frame F1, F2;
      Request ReqBack;
      Response RespBack;
      bool Ok = In1.next(F1, Error) == FrameReader::Result::Ready &&
                requestFromFrame(F1, ReqBack, Error) &&
                In2.next(F2, Error) == FrameReader::Result::Ready &&
                responseFromFrame(F2, RespBack, Error);
      Us.push_back(msBetween(T0, Clock::now()) * 1e3);
      ++R.Attempted;
      if (!Ok || ReqBack.Body != S.Source || RespBack.Body != S.Expected)
        R.fail("codec round trip: " + S.Name + ": " + Error);
    }
  }
  R.add("protocol.codec_us", median(Us), "us");
}

/// DiskStore save and load of every distinct replayed result.
void probeStore(const LayerInputs &In, Report &R) {
  std::string Dir = In.Work + "/probe-diskstore";
  freshDir(Dir);
  try {
    DiskStore Store(DiskStoreConfig{Dir, size_t(256) << 20, true});
    std::vector<uint64_t> Keys;
    for (const Script &S : In.Replay) {
      JobResult J;
      J.Status = JobStatus::Succeeded;
      J.Name = S.Name;
      J.VectorizedSource = S.Expected;
      uint64_t Key = fnv1a(S.Source);
      Keys.push_back(Key);
      trace::Scope Span("store.save");
      Store.store(Key, J);
    }
    for (size_t I = 0; I != Keys.size(); ++I) {
      std::optional<JobResult> J;
      {
        trace::Scope Span("store.load");
        J = Store.load(Keys[I]);
      }
      ++R.Attempted;
      if (!J || J->VectorizedSource != In.Replay[I].Expected)
        R.fail("store replay: " + In.Replay[I].Name + " did not load back");
    }
    R.add("store.save_ms", median(trace::selfTimesMs("store.save")), "ms");
    R.add("store.load_ms", median(trace::selfTimesMs("store.load")), "ms");
    R.add("store.puts", static_cast<double>(Store.puts()), "count");
    trace::count("store.puts", Store.puts());
    trace::count("store.hits", Store.hits());
    trace::count("store.misses", Store.misses());
  } catch (const std::exception &E) {
    R.fail(std::string("store replay: ") + E.what());
  }
}

/// Transport round trip (PING p50) and the counters of the real mvecd.
void probeMvecd(const LayerInputs &In, Report &R) {
  MvecdProcess Own;
  uint16_t Port = In.LivePort;
  if (!Port) {
    std::string Error;
    if (!Own.start(In.Mvecd, writeDaemonConfig(In.Work, false),
                   In.Work + "/mvecd.log", Error)) {
      R.fail(Error);
      return;
    }
    Port = Own.port();
  }
  Connection C;
  std::string Error;
  if (!C.connect(Port, Error)) {
    R.fail("mvecd: " + Error);
    return;
  }
  Request Ping;
  Ping.V = Verb::Ping;
  std::string Wire = serializeRequest(Ping);
  for (uint64_t K = 0; K != 1000; ++K) {
    Response Pong;
    trace::Scope Span("daemon.tcp", K + 1);
    if (!C.send(Wire, Error) || !C.receive(Pong, Error) || Pong.Code != 200) {
      R.fail("PING: " + Error);
      break;
    }
  }
  R.add("daemon.tcp_ms", median(trace::selfTimesMs("daemon.tcp")), "ms");

  std::string Stats;
  if (!fetchStats(Port, Stats, Error)) {
    R.fail("STATS: " + Error);
    return;
  }
  double Crashes = sumJsonKey(Stats, "crashes");
  if (Crashes != 0)
    R.fail("sandbox crashes: " + std::to_string(Crashes));
  R.add("daemon.shed",
        jsonNumber(Stats, "shed_qos") +
            jsonNumber(Stats, "shed_queue"),
        "count");
  R.add("daemon.degraded", sumJsonKey(Stats, "degraded"), "count");
  R.add("sandbox.crashes", Crashes, "count");
  R.add("sandbox.respawns", sumJsonKey(Stats, "respawns"), "count");
  for (const char *Key : {"crashes", "respawns", "watchdog_kills",
                          "quarantined", "degraded", "disk_hits"})
    trace::count(std::string("mvecd.") + Key,
                 static_cast<uint64_t>(sumJsonKey(Stats, Key)));
  if (Own.running() && !Own.stop())
    R.fail("mvecd did not shut down cleanly");
}

} // namespace

void runLayerProbes(const LayerInputs &In, Report &R) {
  trace::setEnabled(true);
  probePaper(In, R);
  probeKernels(In, R);
  probeCompile(In, R);
  probeService(In, R);
  double Proc = probeHandle(In, R, true);
  double Inproc = probeHandle(In, R, false);
  R.add("daemon.handle_ms", Proc, "ms");
  R.add("daemon.handle_inproc_ms", Inproc, "ms");
  R.add("sandbox.hop_ms", Proc - Inproc, "ms");
  probeCodec(In, R);
  probeStore(In, R);
  probeMvecd(In, R);
  trace::setEnabled(false);
}

} // namespace perfbench
