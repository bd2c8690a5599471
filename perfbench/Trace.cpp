//===- Trace.cpp - In-memory spans and counters for traced runs -----------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_set>

namespace perfbench {
namespace trace {

namespace {

struct SpanRec {
  const char *Name;
  uint64_t Request;
  int64_t StartNs;
  int64_t EndNs; ///< -1 while open
  int Parent;    ///< index in the same thread's buffer, -1 for roots
};

/// One thread's spans. Written only by its thread; read by aggregation,
/// which runs after the traced threads have been joined.
struct ThreadBuf {
  unsigned Tid = 0;
  std::vector<SpanRec> Spans;
  std::vector<int> Open;
};

std::atomic<bool> Enabled{false};
std::mutex Mutex; // guards Buffers, Names, Counters
std::vector<std::unique_ptr<ThreadBuf>> Buffers;
std::unordered_set<std::string> Names;
std::map<std::string, uint64_t> Counters;
const Clock::time_point Epoch = Clock::now();

ThreadBuf &mine() {
  thread_local ThreadBuf *Buf = nullptr;
  if (!Buf) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::make_unique<ThreadBuf>());
    Buf = Buffers.back().get();
    Buf->Tid = static_cast<unsigned>(Buffers.size());
    Buf->Spans.reserve(1 << 14);
  }
  return *Buf;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

} // namespace

void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool enabled() { return Enabled.load(std::memory_order_relaxed); }

int begin(const char *Name, uint64_t Request) {
  ThreadBuf &B = mine();
  int Parent = B.Open.empty() ? -1 : B.Open.back();
  if (Request == 0 && Parent >= 0)
    Request = B.Spans[Parent].Request;
  B.Spans.push_back({Name, Request, nowNs(), -1, Parent});
  int Id = static_cast<int>(B.Spans.size() - 1);
  B.Open.push_back(Id);
  return Id;
}

void end(int Span) {
  ThreadBuf &B = mine();
  B.Spans[Span].EndNs = nowNs();
  // Spans close innermost-first (they are scoped); tolerate a stray
  // out-of-order close by unwinding to it.
  while (!B.Open.empty()) {
    int Top = B.Open.back();
    B.Open.pop_back();
    if (Top == Span)
      break;
  }
}

const char *intern(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Names.insert(Name).first->c_str();
}

void count(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters[Name] += Delta;
}

std::vector<double> selfTimesMs(const std::string &Name) {
  std::vector<double> Out;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &Buf : Buffers) {
    std::vector<int64_t> ChildNs(Buf->Spans.size(), 0);
    for (const SpanRec &S : Buf->Spans)
      if (S.Parent >= 0 && S.EndNs >= 0)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
    for (size_t I = 0; I != Buf->Spans.size(); ++I) {
      const SpanRec &S = Buf->Spans[I];
      if (S.EndNs >= 0 && Name == S.Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs - ChildNs[I]) /
                      1e6);
    }
  }
  return Out;
}

size_t spanCount() {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t N = 0;
  for (const auto &Buf : Buffers)
    N += Buf->Spans.size();
  return N;
}

bool writeChromeTrace(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  std::fputs("{\"traceEvents\":[\n", F);
  bool First = true;
  for (const auto &Buf : Buffers) {
    for (size_t I = 0; I != Buf->Spans.size(); ++I) {
      const SpanRec &S = Buf->Spans[I];
      if (S.EndNs < 0)
        continue;
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%llu}}",
                   First ? "" : ",\n", S.Name, Buf->Tid,
                   static_cast<double>(S.StartNs) / 1e3,
                   static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                   S.Parent, static_cast<unsigned long long>(S.Request));
      First = false;
    }
  }
  std::fputs("\n],\"counters\":{", F);
  First = true;
  for (const auto &[Name, Value] : Counters) {
    std::fprintf(F, "%s\"%s\":%llu", First ? "" : ",", Name.c_str(),
                 static_cast<unsigned long long>(Value));
    First = false;
  }
  std::fputs("}}\n", F);
  return std::fclose(F) == 0;
}

} // namespace trace
} // namespace perfbench
