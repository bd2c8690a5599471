//===- PaperKernels.cpp - The paper's loop-vs-vectorized experiments ------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// paper-kernels: the five programs of the paper's evaluation (histeq loop
/// portion, Sec. 5 / Fig. 3; the compound example, Fig. 4; Menon &
/// Pingali ex. 1-3, Table 3), each vectorized and validated once in
/// set-up, then timed as loop code and as vectorized code in prepared
/// interpreter workspaces, as the paper times them.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "driver/Pipeline.h"
#include "interp/simd/SimdDispatch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>


using namespace mvec;

namespace perfbench {

namespace {

std::string num(long V) { return std::to_string(V); }

/// Loop index variables introduced by `for NAME = ...` lines of \p Src.
std::vector<std::string> forIndexVars(const std::string &Src) {
  std::vector<std::string> Out;
  std::istringstream In(Src);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t At = Line.find_first_not_of(" \t");
    if (At == std::string::npos || Line.compare(At, 3, "for") != 0)
      continue;
    size_t Begin = Line.find_first_not_of(" \t", At + 3);
    size_t End = Line.find_first_of(" =", Begin);
    if (Begin != std::string::npos && End != std::string::npos)
      Out.push_back(Line.substr(Begin, End - Begin));
  }
  return Out;
}

} // namespace

std::vector<PaperProgram> paperPrograms() {
  std::vector<PaperProgram> Out;

  // Sec. 5 / Fig. 3, loop portion: the paper's 800x600 8-bit image.
  {
    int R = 800, C = 600;
    PaperProgram P;
    P.Name = "histeq";
    P.Size = "800x600 (paper size)";
    P.Setup = "%! im(*,*) im2(*,*) heq(1,*) h(1,*)\n"
              "im = mod(floor(reshape(0:" + num(R * C - 1) + ", " + num(R) +
              ", " + num(C) + ").^1.5/97), 256);\n"
              "h = hist(im(:),[0:255]);\n"
              "heq = 255*cumsum(h(:))/sum(h(:));\n";
    P.Kernel = "for i=1:size(im,1)\n"
               " for j=1:size(im,2)\n"
               "  im2(i,j) = heq(im(i,j)+1);\n"
               " end\n"
               "end\n";
    P.PinnedHash = 0x499af00ea1956aaaull;
    Out.push_back(P);
  }
  // Fig. 4: the paper's loops run i=2:2:1500 (7.9 s loop side here);
  // scaled to i=2:2:150.
  {
    int Half = 75, N = 2 * Half, M = 2 * Half + 1;
    PaperProgram P;
    P.Name = "fig4";
    P.Size = "150x151, ind=1:75 (paper: 1500x1501, ind=1:750)";
    P.Setup = "%! A(*,*) B(*,*) C(*,*) D(*,*) a(1,*) ind(1,*)\n"
              "A = rand(" + num(N) + "," + num(M) + ");\n"
              "B = rand(" + num(N) + "," + num(M) + ");\n"
              "C = rand(" + num(N) + "," + num(M) + ");\n"
              "D = rand(" + num(M) + "," + num(M) + ");\n"
              "a = rand(1," + num(2 * N) + ");\n"
              "ind = 1:" + num(Half) + ";\n";
    P.Kernel = "for i=2:2:" + num(N) + "\n"
               " B(i,1) = D(i,i)*A(i,i)+C(i,:)*D(:,i);\n"
               " for j=3:2:" + num(M) + "\n"
               "  A(i,j) = B(i,ind)*C(ind,j)+D(j,i)'-a(2*i-1);\n"
               " end\n"
               "end\n";
    P.PinnedHash = 0xc578b2c09a6f7672ull;
    Out.push_back(P);
  }
  // Table 3 ex. 1: paper i=500, p=5000 (1.1 s loop side here); scaled to
  // a quarter of the iterations.
  {
    int I = 250, Pn = 2500;
    PaperProgram P;
    P.Name = "ex1";
    P.Size = "i=250 p=2500 (paper: i=500 p=5000)";
    P.Setup = "%! X(*,*) L(*,*) i(1) p(1)\n"
              "i = " + num(I) + "; p = " + num(Pn) + ";\n"
              "X = rand(" + num(I) + "," + num(Pn) + ");\n"
              "L = rand(" + num(I) + "," + num(I) + ");\n";
    P.Kernel = "for k=1:p\n"
               " for j=1:(i-1)\n"
               "  X(i,k) = X(i,k) - L(i,j)*X(j,k);\n"
               " end\n"
               "end\n";
    P.PinnedHash = 0x49fd3709aed157a1ull;
    Out.push_back(P);
  }
  // Table 3 ex. 2: paper N=1000 (0.7 s loop side here); scaled to N=500.
  {
    int N = 500;
    PaperProgram P;
    P.Name = "ex2";
    P.Size = "N=500 (paper: N=1000)";
    P.Setup = "%! a(*,*) x_se(*,1) f(*,1) phi(1,*) N(1) k(1)\n"
              "N = " + num(N) + "; k = 1;\n"
              "a = rand(N,N);\nx_se = rand(N,1);\nf = rand(N,1);\n"
              "phi = zeros(1,4);\n";
    P.Kernel = "for i=1:N\n"
               " for j=1:N\n"
               "  phi(k) = phi(k) + a(i,j)*x_se(i)*f(j);\n"
               " end\n"
               "end\n";
    P.PinnedHash = 0xb9f2f4fc0631dbc8ull;
    Out.push_back(P);
  }
  // Table 3 ex. 3: paper n=40 (2.1 s loop side here); scaled to n=20.
  {
    int N = 20;
    PaperProgram P;
    P.Name = "ex3";
    P.Size = "n=20 (paper: n=40)";
    P.Setup = "%! x(*,1) A(*,*) B(*,*) C(*,*) y(*,1) n(1)\n"
              "n = " + num(N) + ";\n"
              "x = rand(n,1);\nA = rand(n,n);\nB = rand(n,n);\n"
              "C = rand(n,n);\ny = zeros(n,1);\n";
    P.Kernel = "for i=1:n\n for j=1:n\n  for k=1:n\n   for l=1:n\n"
               "    y(i) = y(i) + x(j)*A(i,k)*B(l,k)*C(l,j);\n"
               "   end\n  end\n end\nend\n";
    P.PinnedHash = 0xe57fb18e15671783ull;
    Out.push_back(P);
  }
  return Out;
}

bool prepareKernel(const std::string &Name, const std::string &SetupSrc,
                   const std::string &LoopSrc, uint64_t Seed, KernelCase &K,
                   std::string &Error) {
  K.Name = Name;
  K.FullSource = SetupSrc + LoopSrc;
  DiagnosticEngine Diags;
  if (!SetupSrc.empty())
    K.Setup = parseMatlab(SetupSrc, Diags);
  K.Loop = parseMatlab(SetupSrc.empty() ? K.FullSource : LoopSrc, Diags);
  if (Diags.hasErrors()) {
    Error = Name + ": does not parse: " + Diags.str();
    return false;
  }
  PipelineResult P = vectorizeSource(K.FullSource);
  if (!P.succeeded()) {
    Error = Name + ": vectorization failed: " + P.Diags.str();
    return false;
  }
  K.VectorizedSource = P.VectorizedSource;
  std::string Diff = diffRun(K.FullSource, K.VectorizedSource, 1e-9, Seed);
  if (!Diff.empty()) {
    Error = Name + ": loop and vectorized programs disagree: " + Diff;
    return false;
  }
  K.VecFull = parseMatlab(K.VectorizedSource, Diags);
  if (Diags.hasErrors()) {
    Error = Name + ": vectorized program does not parse: " + Diags.str();
    return false;
  }
  // The printer re-renders the setup statements one for one, so the
  // vectorized kernel is the tail past them.
  K.VecBody = Program();
  for (size_t S = K.Setup.Prog.Stmts.size(); S < K.VecFull.Prog.Stmts.size();
       ++S)
    K.VecBody.Stmts.push_back(K.VecFull.Prog.Stmts[S]->clone());
  K.IndexVars = forIndexVars(LoopSrc);
  return true;
}

bool makeWorkspace(const KernelCase &K, uint64_t Seed, Interpreter &Out,
                   std::string &Error) {
  Out = Interpreter();
  Out.seedRandom(Seed);
  if (!K.wholeScript() && !Out.run(K.Setup.Prog)) {
    Error = K.Name + ": setup failed: " + Out.errorMessage();
    return false;
  }
  return true;
}

double runCase(const KernelCase &K, bool Vectorized, Interpreter &I,
               uint64_t Seed) {
  if (K.wholeScript()) {
    I = Interpreter();
    I.seedRandom(Seed);
  }
  Clock::time_point T0 = Clock::now();
  bool Ok = I.run(Vectorized ? K.VecBody : K.Loop.Prog);
  double Ms = msBetween(T0, Clock::now());
  return Ok ? Ms : -1;
}

std::string compareStates(const KernelCase &K, const Interpreter &L,
                          const Interpreter &V) {
  std::map<std::string, Value> LoopVars = L.workspace();
  std::map<std::string, Value> VecVars = V.workspace();
  for (const auto &[Name, Val] : VecVars) {
    auto It = LoopVars.find(Name);
    if (It == LoopVars.end())
      return "variable '" + Name + "' only in the vectorized workspace";
    if (!It->second.equals(Val, 1e-9))
      return "variable '" + Name + "' differs";
  }
  for (const auto &[Name, Val] : LoopVars) {
    (void)Val;
    if (!VecVars.count(Name) &&
        std::find(K.IndexVars.begin(), K.IndexVars.end(), Name) ==
            K.IndexVars.end())
      return "variable '" + Name + "' only in the loop workspace";
  }
  return "";
}

bool preparePaper(uint64_t Seed, std::vector<std::unique_ptr<KernelCase>> &Out,
                  std::string &Error) {
  Out.clear();
  for (const PaperProgram &P : paperPrograms()) {
    auto K = std::make_unique<KernelCase>();
    if (!prepareKernel(P.Name, P.Setup, P.Kernel, Seed, *K, Error))
      return false;
    K->Size = P.Size;
    Out.push_back(std::move(K));
  }
  return true;
}

namespace {

/// The prepared paper programs with one loop and one vectorized workspace
/// each, and how often each workspace's kernel has run.
struct PaperBench {
  std::vector<std::unique_ptr<KernelCase>> Cases;
  std::vector<Interpreter> LoopWs, VecWs;
  std::vector<unsigned> LoopRuns;

  bool setUp(uint64_t Seed, std::string &Error) {
    if (!preparePaper(Seed, Cases, Error))
      return false;
    LoopWs.resize(Cases.size());
    VecWs.resize(Cases.size());
    LoopRuns.assign(Cases.size(), 0);
    for (size_t P = 0; P != Cases.size(); ++P)
      if (!makeWorkspace(*Cases[P], Seed, LoopWs[P], Error) ||
          !makeWorkspace(*Cases[P], Seed, VecWs[P], Error))
        return false;
    return true;
  }
};

} // namespace

void runPaperKernels(const Options &O, Report &R) {
  std::vector<PaperProgram> Programs = paperPrograms();

  // Set-up, several times: vectorize + validate every program and build
  // its workspaces. setup_s is the median.
  PaperBench B;
  std::vector<double> SetupS, SetupRaw;
  const int SetupReps = O.Trace ? 1 : 3;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    B = PaperBench();
    double F = hostFactor();
    Clock::time_point T0 = Clock::now();
    std::string Error;
    if (!B.setUp(O.Seed, Error)) {
      R.fail(Error);
      return;
    }
    SetupRaw.push_back(secondsBetween(T0, Clock::now()));
    SetupS.push_back(SetupRaw.back() * F);
  }
  ++R.Attempted;
  for (size_t P = 0; P != B.Cases.size(); ++P) {
    uint64_t H = fnv1a(B.Cases[P]->VectorizedSource);
    R.note("paper " + B.Cases[P]->Name + ": " + B.Cases[P]->Size +
           ", vectorized hash " + hex64(H));
    if (H != Programs[P].PinnedHash)
      R.fail("paper " + B.Cases[P]->Name + ": vectorized source hash " +
             hex64(H) + " != pinned " + hex64(Programs[P].PinnedHash));
  }

  // Warm-up (first runs grow outputs from empty), untimed.
  for (size_t P = 0; P != B.Cases.size(); ++P) {
    R.Attempted += 2;
    if (runCase(*B.Cases[P], false, B.LoopWs[P], O.Seed) < 0 ||
        runCase(*B.Cases[P], true, B.VecWs[P], O.Seed) < 0) {
      R.fail("paper " + B.Cases[P]->Name + ": warm-up run failed");
      return;
    }
    ++B.LoopRuns[P];
  }

  const size_t NP = B.Cases.size();
  // Per program: raw kernel times and the same times host-normalised.
  std::vector<std::vector<double>> LoopRaw(NP), VecRaw(NP), LoopMs(NP),
      VecMs(NP);
  // Runs one kernel inside its span (a no-op when not tracing) and returns
  // the wall time across the span, so a traced sample carries the span's
  // own cost; negative on a runtime error.
  auto Timed = [&](size_t P, bool Vectorized, bool Traced) {
    const KernelCase &K = *B.Cases[P];
    Interpreter &Ws = Vectorized ? B.VecWs[P] : B.LoopWs[P];
    Clock::time_point T0 = Clock::now();
    double Ms;
    {
      trace::Scope S(Traced ? trace::intern("paper." + K.Name +
                                            (Vectorized ? ".vec" : ".loop"))
                            : "");
      Ms = runCase(K, Vectorized, Ws, O.Seed);
    }
    return Ms < 0 ? Ms : msBetween(T0, Clock::now());
  };
  // One round: every loop kernel once, then its vectorized kernel until
  // it has run a tenth of the loop time (at least 5, at most 400 times).
  // Samples are host-normalised by a calibration just before them.
  auto Round = [&](bool Traced) {
    for (size_t P = 0; P != NP; ++P) {
      const KernelCase &K = *B.Cases[P];
      double F = hostFactor(), FK = kernelHostFactor(F);
      double L = Timed(P, false, Traced);
      ++R.Attempted;
      if (L < 0) {
        R.fail("paper " + K.Name + ": loop kernel failed");
        continue;
      }
      ++B.LoopRuns[P];
      LoopRaw[P].push_back(L);
      LoopMs[P].push_back(L * F);
      double Spent = 0;
      for (int Rep = 0; Rep != 400 && (Rep < 5 || Spent < 0.1 * L); ++Rep) {
        double V = Timed(P, true, Traced);
        ++R.Attempted;
        if (V < 0) {
          R.fail("paper " + K.Name + ": vectorized kernel failed");
          break;
        }
        VecRaw[P].push_back(V);
        VecMs[P].push_back(V * FK);
        Spent += V;
      }
    }
  };

  auto Medians = [&](const std::vector<std::vector<double>> &Samples) {
    std::vector<double> Out;
    for (const auto &S : Samples)
      Out.push_back(median(S));
    return Out;
  };

  if (O.Trace) {
    // Untraced and traced rounds, interleaved (raw wall times).
    std::vector<std::vector<double>> UL(NP), UV(NP), TL(NP), TV(NP);
    for (int Rep = 0; Rep != 3; ++Rep) {
      for (bool Traced : {false, true}) {
        for (size_t P = 0; P != NP; ++P) {
          LoopRaw[P].clear();
          VecRaw[P].clear();
        }
        trace::setEnabled(Traced);
        Round(Traced);
        trace::setEnabled(false);
        for (size_t P = 0; P != NP; ++P) {
          auto &DL = Traced ? TL[P] : UL[P];
          auto &DV = Traced ? TV[P] : UV[P];
          DL.insert(DL.end(), LoopRaw[P].begin(), LoopRaw[P].end());
          DV.insert(DV.end(), VecRaw[P].begin(), VecRaw[P].end());
        }
      }
    }
    // Kernel time untraced (E) and traced (T), and the layer self times
    // along a kernel run's blocking path (S): the interpreter call inside
    // each paper.<prog>.loop / .vec span.
    double E = 0, T = 0, S = 0;
    for (size_t P = 0; P != NP; ++P) {
      const std::string Name = "paper." + B.Cases[P]->Name;
      E += median(UL[P]) + median(UV[P]);
      T += median(TL[P]) + median(TV[P]);
      S += median(trace::selfTimesMs(Name + ".loop")) +
           median(trace::selfTimesMs(Name + ".vec"));
    }
    R.note("reconciliation: kernel time (sum over programs of loop + "
           "vectorized medians) untraced " + formatDouble(E) +
           " ms, traced " + formatDouble(T) + " ms; layer self times " +
           formatDouble(S) + " ms");
    LayerInputs In;
    In.Kernels = &B.Cases;
    In.Paper = &B.Cases;
    for (size_t P = 0; P != NP; ++P) {
      Script S;
      S.Name = B.Cases[P]->Name;
      S.Source = B.Cases[P]->FullSource;
      S.Expected = B.Cases[P]->VectorizedSource;
      In.Replay.push_back(S);
    }
    // Each paper program cold, then once more (a cache hit).
    for (size_t Pass = 0; Pass != 2; ++Pass)
      for (size_t P = 0; P != NP; ++P)
        In.Sequence.push_back(P);
    In.FillFirst = false;
    // The service and daemons replay these programs without validation:
    // set-up validated them already, and validating histeq at paper size
    // exceeds the service's default per-job memory budget (the job
    // degrades). The service's cold path is measured on generated scripts.
    In.Validate = false;
    In.ColdReplay = coldScripts(O.Seed, ColdReplayScripts).Scripts;
    In.Seed = O.Seed;
    In.Work = O.Work;
    In.Mvecd = O.Mvecd;
    runLayerProbes(In, R);
    R.add("trace.overhead_ratio", (T - E) / E, "ratio");
    R.add("trace.unaccounted_ratio", (E - S) / E, "ratio");
    R.add("loadgen.late_ms_p99", 0, "ms");
  } else {
    // Rounds of kernels, each followed by compile blocks for a fifth of
    // the round's time, until the window is spent (at least one round):
    // every metric samples the whole window. The in-process request of
    // this workload is one vectorizeSource call on a paper program
    // (closed loop, one thread), in blocks of 64 calls, each block
    // host-normalised by a calibration just before it.
    std::vector<double> CompileRaw, CompileMs;
    double CompileSecsRaw = 0, CompileSecs = 0;
    auto CompileBlocks = [&](double Budget) {
      Clock::time_point CStart = Clock::now();
      do {
        double F = hostFactor();
        Clock::time_point BStart = Clock::now();
        for (size_t I = 0; I != 64; ++I) {
          const KernelCase &K = *B.Cases[I % NP];
          Clock::time_point T0 = Clock::now();
          PipelineResult P = vectorizeSource(K.FullSource);
          CompileRaw.push_back(msBetween(T0, Clock::now()));
          CompileMs.push_back(CompileRaw.back() * F);
          ++R.Attempted;
          if (!P.succeeded() || P.VectorizedSource != K.VectorizedSource)
            R.fail("paper " + K.Name + ": vectorizeSource output changed");
        }
        CompileSecsRaw += secondsBetween(BStart, Clock::now());
        CompileSecs += secondsBetween(BStart, Clock::now()) * F;
      } while (secondsBetween(CStart, Clock::now()) < Budget);
    };
    Clock::time_point Start = Clock::now();
    do {
      Clock::time_point RStart = Clock::now();
      Round(false);
      CompileBlocks(0.25 * secondsBetween(RStart, Clock::now()));
    } while (secondsBetween(Start, Clock::now()) < O.Seconds);

    std::vector<double> LoopMed = Medians(LoopMs), VecMed = Medians(VecMs);
    std::vector<double> LoopRawMed = Medians(LoopRaw),
                        VecRawMed = Medians(VecRaw);
    std::vector<double> Speedups;
    for (size_t P = 0; P != NP; ++P) {
      Speedups.push_back(LoopRawMed[P] / VecRawMed[P]);
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "paper %-7s loop %9.3f ms (n=%zu)  vectorized %8.4f ms "
                    "(n=%zu)  speedup %7.1fx  (raw)",
                    B.Cases[P]->Name.c_str(), LoopRawMed[P], LoopRaw[P].size(),
                    VecRawMed[P], VecRaw[P].size(), Speedups.back());
      R.note(Buf);
    }
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "paper speedup (geomean, not gated): %.1fx; compile "
                  "samples %zu, p90 %.4f ms, p99 %.4f ms",
                  geomean(Speedups), CompileMs.size(),
                  quantile(CompileMs, 0.9), quantile(CompileMs, 0.99));
    R.note(Buf);
    std::snprintf(Buf, sizeof(Buf),
                  "raw (not host-normalised): setup_s %.4f s, loop_run_ms "
                  "%.4f ms, vec_run_ms %.5f ms, throughput_rps %.1f /s, "
                  "req_ms_p50 %.5f ms",
                  median(SetupRaw), geomean(LoopRawMed), geomean(VecRawMed),
                  static_cast<double>(CompileRaw.size()) / CompileSecsRaw,
                  quantile(CompileRaw, 0.5));
    R.note(Buf);

    R.add("setup_s", median(SetupS), "s");
    R.add("loop_run_ms", geomean(LoopMed), "ms");
    R.add("vec_run_ms", geomean(VecMed), "ms");
    R.add("throughput_rps",
          static_cast<double>(CompileMs.size()) / CompileSecs, "1/s");
    R.add("req_ms_p50", quantile(CompileMs, 0.5), "ms");
    R.add("peak_rss_mb", ownPeakRssMb(), "MB");
  }

  // The timed loop workspaces must agree with the vectorized kernel run
  // the same number of times from a fresh workspace.
  for (size_t P = 0; P != NP; ++P) {
    const KernelCase &K = *B.Cases[P];
    Interpreter Fresh;
    std::string Error;
    ++R.Attempted;
    if (!makeWorkspace(K, O.Seed, Fresh, Error)) {
      R.fail(Error);
      continue;
    }
    bool Ok = true;
    for (unsigned Run = 0; Run != B.LoopRuns[P] && Ok; ++Run)
      Ok = runCase(K, true, Fresh, O.Seed) >= 0;
    std::string Diff = Ok ? compareStates(K, B.LoopWs[P], Fresh)
                          : "vectorized kernel failed";
    if (!Diff.empty())
      R.fail("paper " + K.Name + ": loop and vectorized workspaces "
                                 "disagree after " +
             std::to_string(B.LoopRuns[P]) + " runs: " + Diff);
  }
}

} // namespace perfbench
