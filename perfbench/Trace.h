//===- Trace.h - In-memory spans and counters for traced runs ---*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Spans (name, start, end, parent, request id)
/// are opened by the benchmark around each call into one of the program's
/// layers, kept in per-thread memory, and written out as a Chrome trace
/// when the run ends. A layer's self time is its span's duration minus the
/// time covered by its child spans. Counters are recorded at the same
/// boundaries. With tracing disabled every call is one predictable branch.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_PERFBENCH_TRACE_H
#define MVEC_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

void setEnabled(bool On);
bool enabled();

/// Opens a span on the calling thread (parent: the innermost open span of
/// the thread). \p Name must outlive the run (a literal or an interned
/// string). A zero \p Request inherits the parent's request id.
int begin(const char *Name, uint64_t Request = 0);
void end(int Span);

/// Stable storage for a computed span name.
const char *intern(const std::string &Name);

/// Adds \p Delta to the counter \p Name (written out with the spans).
void count(const std::string &Name, uint64_t Delta = 1);

/// Self times (ms) of every closed span named \p Name, in record order:
/// each span's duration minus the time its child spans cover.
std::vector<double> selfTimesMs(const std::string &Name);
/// Number of spans recorded so far.
size_t spanCount();

/// Writes every span as a Chrome trace-event file. False on I/O errors.
bool writeChromeTrace(const std::string &Path);

/// RAII span; a no-op when tracing is disabled.
class Scope {
public:
  explicit Scope(const char *Name, uint64_t Request = 0)
      : Id(enabled() ? begin(Name, Request) : -1) {}
  ~Scope() {
    if (Id >= 0)
      end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int Id;
};

} // namespace trace
} // namespace perfbench

#endif // MVEC_PERFBENCH_TRACE_H
