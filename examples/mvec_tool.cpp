//===- mvec_tool.cpp - The mvec command-line vectorizer ---------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A source-to-source command line tool around the library — the shape a
/// user of the paper's prototype would actually invoke:
///
///   mvec_tool [options] input.m           vectorize a file (or - = stdin)
///   mvec_tool --batch DIR [options]       vectorize every *.m file in DIR
///                                         concurrently via the service
///
/// Options:
///   -o FILE            write transformed source to FILE (default stdout)
///   --remarks          print optimization remarks to stderr
///   --validate         run both versions in the interpreter and verify
///                      identical final workspaces
///   --run              execute the transformed program and print output
///   --engine E         execution tier for --validate/--run and batch
///                      validation: ast (default, tree-walker), vm
///                      (register bytecode), or both (cross-check the two
///                      tiers for byte-identical behaviour; single-file
///                      mode only)
///   --plugin PATH      dlopen a pattern plugin (repeatable)
///   --cost-model M     profitability model: off (default, vectorize
///                      whenever legal) or on (keep loops the model
///                      prices cheaper than their vector form)
///   --cost-profile P   calibrated costs.mvec.json (default: built-in
///                      conservative profile; a rejected file falls back
///                      with a diagnostic)
///   --explain-cost     implies --cost-model on; prints one line per
///                      nest statement with the estimated vector/loop
///                      costs and the decision (single-file mode only)
///   --no-transposes / --no-patterns / --no-reductions /
///   --no-reassociation / --no-normalize
///                      disable individual mechanisms
///
/// Batch-mode options:
///   --batch DIR        process every *.m file under DIR (sorted order)
///   --jobs N           worker threads (default 4)
///   --cache N          result-cache entries (default 256; 0 disables)
///   --deadline-ms N    per-job deadline (default 10000; 0 = none)
///   --no-validate      skip differential validation of batch jobs
///   --stats            print the service metrics dump after the batch
///   --stats-json FILE  write the metrics as JSON to FILE
///
/// A malformed or out-of-range flag value exits 2 (src/service/Flags.h).
///
//===----------------------------------------------------------------------===//

#include "cost/CostModel.h"
#include "driver/Pipeline.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "interp/simd/SimdDispatch.h"
#include "patterns/PluginAPI.h"
#include "service/Flags.h"
#include "service/VectorizationService.h"
#include "support/Io.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

using namespace mvec;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [options] input.m\n"
               "       %s --batch DIR [--jobs N] [--cache N] "
               "[--deadline-ms N] [--no-validate] [--engine ast|vm] "
               "[--stats] [--stats-json FILE]\n"
               "  -o FILE, --remarks, --validate, --run, "
               "--engine ast|vm|both, --plugin PATH,\n"
               "  --cost-model off|on, --cost-profile FILE, --explain-cost,\n"
               "  --simd %s (or MVEC_SIMD env),\n"
               "  --no-transposes, --no-patterns, --no-reductions,\n"
               "  --no-reassociation, --no-normalize\n",
               Argv0, Argv0, simd::flagValues());
  return 2;
}

/// Vectorizes every *.m file under \p Dir through the service; returns the
/// process exit code (0 only when every job succeeded).
int runBatch(const std::string &Dir, const VectorizerOptions &Opts,
             ServiceConfig Config, bool Validate, bool Stats,
             const std::string &StatsJsonPath) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Paths;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir, EC))
    if (Entry.is_regular_file() && Entry.path().extension() == ".m")
      Paths.push_back(Entry.path().string());
  if (EC) {
    std::fprintf(stderr, "error: cannot read directory '%s': %s\n",
                 Dir.c_str(), EC.message().c_str());
    return 1;
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "error: no .m files under '%s'\n", Dir.c_str());
    return 1;
  }
  std::sort(Paths.begin(), Paths.end());

  std::vector<JobSpec> Specs;
  for (const std::string &Path : Paths) {
    JobSpec Spec;
    Spec.Name = Path;
    if (!io::readFile(Path, Spec.Source)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    Spec.Opts = Opts;
    Spec.Validate = Validate;
    Specs.push_back(std::move(Spec));
  }

  VectorizationService Service(Config);
  std::vector<JobResult> Results = Service.runBatch(std::move(Specs));

  size_t Succeeded = 0, Degraded = 0;
  for (const JobResult &R : Results) {
    if (R.succeeded())
      ++Succeeded;
    else if (R.Status == JobStatus::Degraded)
      ++Degraded;
    std::fprintf(stderr, "%-40s %-9s %s%6.1f ms  %u stmt(s) vectorized%s%s\n",
                 R.Name.c_str(), jobStatusName(R.Status),
                 R.CacheHit ? "[cache] " : "", R.TotalSeconds * 1e3,
                 R.Stats.StmtsVectorized, R.Message.empty() ? "" : "\n    ",
                 R.Message.c_str());
  }
  if (Degraded != 0)
    std::fprintf(stderr,
                 "batch: %zu/%zu job(s) succeeded, %zu degraded "
                 "(original source passed through)\n",
                 Succeeded, Results.size(), Degraded);
  else
    std::fprintf(stderr, "batch: %zu/%zu job(s) succeeded\n", Succeeded,
                 Results.size());
  if (Stats)
    std::fprintf(stderr, "%s", Service.metrics().text().c_str());
  if (!StatsJsonPath.empty()) {
    std::ofstream Out(StatsJsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   StatsJsonPath.c_str());
      return 1;
    }
    Out << Service.metrics().json() << "\n";
  }
  return Succeeded == Results.size() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  VectorizerOptions Opts;
  std::string InputPath;
  std::string OutputPath;
  std::vector<std::string> Plugins;
  bool Validate = false, Run = false;
  std::string BatchDir;
  ServiceConfig Batch; // --jobs 4 and --cache 256 are its defaults.
  Batch.DefaultDeadline = std::chrono::milliseconds(10000);
  bool NoValidate = false, Stats = false;
  std::string StatsJsonPath;
  EngineMode Engine = EngineMode::Ast;
  CostMode Cost = CostMode::Off;
  bool ExplainCost = false;
  std::string CostProfile;

  FlagReader F(argc, argv);
  std::string PluginPath;
  while (F.next()) {
    std::string Arg = F.arg();
    if (F.read("-o", OutputPath) || F.read("--batch", BatchDir) ||
        F.read("--jobs", Batch.Workers) ||
        F.read("--cache", Batch.CacheCapacity) ||
        F.read("--deadline-ms", Batch.DefaultDeadline) || F.engine(Engine) ||
        F.costModel(Cost) || F.costProfile(CostProfile) || F.simd() ||
        F.read("--stats-json", StatsJsonPath) ||
        F.flag("--remarks", Opts.EmitRemarks) ||
        F.flag("--validate", Validate) || F.flag("--run", Run) ||
        F.flag("--no-validate", NoValidate) ||
        F.flag("--explain-cost", ExplainCost) || F.flag("--stats", Stats) ||
        F.flag("--no-transposes", Opts.EnableTransposes, false) ||
        F.flag("--no-patterns", Opts.EnablePatterns, false) ||
        F.flag("--no-reductions", Opts.EnableReductions, false) ||
        F.flag("--no-reassociation", Opts.EnableReassociation, false) ||
        F.flag("--no-normalize", Opts.NormalizeLoops, false) ||
        F.flag("--distribute-transposes", Opts.DistributeTransposes))
      continue;
    if (F.read("--plugin", PluginPath))
      Plugins.push_back(PluginPath);
    else if (Arg == "-h" || Arg == "--help")
      return usage(argv[0]);
    else if (!Arg.empty() && Arg[0] == '-' && Arg != "-")
      return usage(argv[0]);
    else if (InputPath.empty())
      InputPath = Arg;
    else
      return usage(argv[0]);
  }
  if (BatchDir.empty() == InputPath.empty())
    return usage(argv[0]);
  // "both" fans one validation out into three runs; the batch path keeps
  // one engine per service instead.
  if (Engine == EngineMode::Both && !BatchDir.empty())
    return usage(argv[0]);
  // The decision log is a single-translation artifact; batch jobs go
  // through the (cost-fingerprinted) caches instead. A run vectorizes
  // under one cost mode ("both" is the fuzzer's differential).
  if ((ExplainCost && !BatchDir.empty()) || Cost == CostMode::Both)
    return usage(argv[0]);
  ExecEngine Exec = Engine == EngineMode::Vm ? ExecEngine::Vm : ExecEngine::Ast;
  Batch.Engine = Exec;

  std::unique_ptr<cost::CostModel> Model;
  if (Cost == CostMode::On || ExplainCost) {
    Model = loadCostModel(CostProfile, "warning");
    Opts.Cost = Model.get();
  }
  std::vector<cost::CostDecision> Decisions;
  if (ExplainCost)
    Opts.CostLog = &Decisions;

  // Assemble the pattern database.
  PatternDatabase DB = makeDefaultPatternDatabase();
  for (const std::string &Plugin : Plugins) {
    std::string Error;
    if (!loadPatternPlugin(Plugin, DB, Error)) {
      std::fprintf(stderr, "error: plugin '%s': %s\n", Plugin.c_str(),
                   Error.c_str());
      return 1;
    }
  }

  if (!BatchDir.empty()) {
    DB.freeze();
    Batch.DB = &DB;
    return runBatch(BatchDir, Opts, Batch, !NoValidate, Stats, StatsJsonPath);
  }

  // Read the input.
  std::string Source;
  if (InputPath == "-") {
    std::ostringstream Buf;
    Buf << std::cin.rdbuf();
    Source = Buf.str();
  } else if (!io::readFile(InputPath, Source)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", InputPath.c_str());
    return 1;
  }

  PipelineResult Result = vectorizeSource(Source, Opts, &DB);
  const std::string DisplayName = InputPath == "-" ? "<stdin>" : InputPath;
  if (Opts.EmitRemarks || !Result.succeeded())
    std::fprintf(stderr, "%s", Result.Diags.str(DisplayName).c_str());
  if (!Result.succeeded())
    return 1;

  std::fprintf(stderr,
               "%s: %u loop nest(s) seen, %u improved; %u statement(s) "
               "vectorized, %u left sequential\n",
               DisplayName.c_str(), Result.Stats.LoopNestsConsidered,
               Result.Stats.LoopNestsImproved, Result.Stats.StmtsVectorized,
               Result.Stats.StmtsSequential);
  if (ExplainCost) {
    if (Opts.Cost->profile().Calibrated)
      std::fprintf(stderr, "cost model: calibrated profile (simd %s)\n",
                   Opts.Cost->profile().SimdLevel.c_str());
    else
      std::fprintf(stderr, "cost model: built-in conservative profile\n");
    for (const cost::CostDecision &D : Decisions) {
      std::fprintf(stderr, "  line %u: %s\n", D.Line, D.Stmt.c_str());
      if (D.Vectorized)
        std::fprintf(stderr,
                     "    vectorized at level %u: vector ~%.0f ns vs loop "
                     "~%.0f ns%s (%s)\n",
                     D.ChosenLevel, D.VectorNs, D.LoopNs,
                     D.VariantOverride ? ", variant override" : "",
                     D.Detail.c_str());
      else
        std::fprintf(stderr,
                     "    kept loop form: vector ~%.0f ns vs loop ~%.0f ns "
                     "(%s)\n",
                     D.VectorNs, D.LoopNs, D.Detail.c_str());
    }
  }

  if (Validate) {
    RunLimits Limits;
    Limits.Engine = Exec;
    std::string Diff =
        diffRunLimited(Source, Result.VectorizedSource, Limits).Message;
    if (!Diff.empty()) {
      std::fprintf(stderr, "validation FAILED: %s\n", Diff.c_str());
      return 1;
    }
    std::fprintf(stderr, "validation: transformed program is semantically "
                         "equivalent\n");
  }
  if (Engine == EngineMode::Both) {
    // Cross-check the execution tiers on both programs: the tree-walker
    // and the bytecode VM must behave byte-identically.
    for (const auto &[What, Src] :
         {std::pair<const char *, const std::string &>{"original", Source},
          {"transformed", Result.VectorizedSource}}) {
      DiffOutcome Out = engineDiffRun(Src);
      if (Out.Status == DiffStatus::Mismatch) {
        std::fprintf(stderr, "engine cross-check FAILED on %s program: %s\n",
                     What, Out.Message.c_str());
        return 1;
      }
    }
    std::fprintf(stderr,
                 "engine cross-check: ast and vm tiers agree byte-for-byte\n");
  }

  if (OutputPath.empty()) {
    std::fputs(Result.VectorizedSource.c_str(), stdout);
  } else {
    std::ofstream Out(OutputPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", OutputPath.c_str());
      return 1;
    }
    Out << Result.VectorizedSource;
  }

  if (Run) {
    DiagnosticEngine Diags;
    ParseResult Parsed = parseMatlab(Result.VectorizedSource, Diags);
    Interpreter I;
    bool Ok;
    if (Exec == ExecEngine::Vm) {
      vm::CompiledProgram CP =
          vm::compileProgram(Parsed.Prog, Result.VectorizedSource);
      Ok = vm::execute(CP, I);
    } else {
      Ok = I.run(Parsed.Prog);
    }
    if (!Ok) {
      std::fprintf(stderr, "runtime error: %s\n", I.errorMessage().c_str());
      return 1;
    }
    std::fputs(I.output().c_str(), stdout);
  }
  return 0;
}
