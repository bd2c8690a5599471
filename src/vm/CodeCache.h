//===- CodeCache.h - Content-addressed compiled-program cache ---*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "warm path all the way down" piece: compiled programs cached by
/// source content, in one in-memory LRU of shared immutable programs
/// keyed by the FNV-1a hash of the source. Nothing is persisted: a
/// restarted shard lowers each script once more, which BENCH_vm.json puts
/// at 5-19% of one warm run of it.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_CODECACHE_H
#define MVEC_VM_CODECACHE_H

#include "vm/Bytecode.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace mvec {

struct Program;
struct ServiceMetrics;

namespace vm {

class CodeCache {
public:
  /// \p Capacity bounds the cache (0 disables it; programs are still
  /// served, compiled per call). \p Metrics may be null and is not owned.
  explicit CodeCache(size_t Capacity, ServiceMetrics *Metrics = nullptr);

  /// Returns the compiled form of \p Source, from the cache or a fresh
  /// lowering of \p P (which must be the parse of \p Source).
  /// Thread-safe; the returned program is immutable and shared.
  std::shared_ptr<const CompiledProgram> obtain(const std::string &Source,
                                                const Program &P);

  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

private:
  using Entry = std::pair<uint64_t, std::shared_ptr<const CompiledProgram>>;

  std::shared_ptr<const CompiledProgram> lookup(uint64_t Key);
  void insert(uint64_t Key, const std::shared_ptr<const CompiledProgram> &CP);

  mutable std::mutex Mu;
  size_t Capacity;
  std::list<Entry> LRU; ///< front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> Index;
  ServiceMetrics *Metrics;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
};

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_CODECACHE_H
