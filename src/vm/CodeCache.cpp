//===- CodeCache.cpp - Content-addressed compiled-program cache -----------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/CodeCache.h"

#include "service/ServiceMetrics.h"
#include "support/ContentHash.h"
#include "vm/Compiler.h"

#include <chrono>

using namespace mvec;
using namespace mvec::vm;

CodeCache::CodeCache(size_t Capacity, ServiceMetrics *Metrics)
    : Capacity(Capacity), Metrics(Metrics) {}

size_t CodeCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return LRU.size();
}

std::shared_ptr<const CompiledProgram> CodeCache::lookup(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end())
    return nullptr;
  LRU.splice(LRU.begin(), LRU, It->second);
  return LRU.front().second;
}

void CodeCache::insert(uint64_t Key,
                       const std::shared_ptr<const CompiledProgram> &CP) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // A concurrent obtain() beat us; keep the existing entry (compilation
    // is deterministic, the programs are identical).
    LRU.splice(LRU.begin(), LRU, It->second);
    return;
  }
  LRU.emplace_front(Key, CP);
  Index[Key] = LRU.begin();
  while (LRU.size() > Capacity) {
    Index.erase(LRU.back().first);
    LRU.pop_back();
  }
}

std::shared_ptr<const CompiledProgram>
CodeCache::obtain(const std::string &Source, const Program &P) {
  uint64_t Key = fnv1aHash(Source);
  if (auto CP = lookup(Key)) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    if (Metrics)
      Metrics->CodeCacheHits.fetch_add(1, std::memory_order_relaxed);
    return CP;
  }

  Misses.fetch_add(1, std::memory_order_relaxed);
  if (Metrics)
    Metrics->CodeCacheMisses.fetch_add(1, std::memory_order_relaxed);

  auto Start = std::chrono::steady_clock::now();
  auto CP = std::make_shared<const CompiledProgram>(compileProgram(P, Source));
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (Metrics)
    Metrics->CompileLatency.record(Seconds);

  insert(Key, CP);
  return CP;
}
