//===- support/Trace.h - Scoped-span tracing with a JSONL sink ------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight observability layer for long sweeps: RAII spans with
/// monotonic timestamps, thread-safe named counters, and a JSONL sink
/// (`tune search --trace FILE`).  Instrumented through the evaluation
/// pipeline — parse, resource estimation, occupancy, metric evaluation,
/// simulation, journal commit, isolated-worker measurement — so every
/// configuration carries a per-stage wall-time breakdown that
/// `tune report` can aggregate.
///
/// Design constraints:
///
///  - **Zero perturbation.**  Tracing records wall-clock observations; it
///    never feeds anything back into the computation, so journals, CSV
///    dumps and SearchOutcomes are byte-identical with tracing on or off,
///    at any job count.
///
///  - **Near-zero cost when off.**  Instrumentation sites construct a
///    TraceSpan unconditionally; when no tracer is installed the
///    constructor is one relaxed atomic load and the destructor a branch.
///
///  - **Thread-safe when on.**  Spans complete on whatever pool or
///    committer thread ran the stage; the tracer serializes record lines
///    under a mutex and tags each span with a small dense thread id.
///
/// File layout (text, one JSON object per line):
///
///   {"type":"meta","g80trace":1,"clock":"steady_us"}
///   {"type":"span","name":"simulate","idx":42,"tid":1,"depth":1,
///    "start_us":1234,"dur_us":56}
///   ...
///   {"type":"counter","name":"sweep.measured","value":128}
///
/// Span timestamps are microseconds on std::chrono::steady_clock, relative
/// to tracer construction.  "idx" is the configuration's flat index and is
/// omitted for spans not tied to one configuration.  Counter lines are
/// written once, at close().
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SUPPORT_TRACE_H
#define G80TUNE_SUPPORT_TRACE_H

#include "support/Status.h"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

namespace g80 {

/// Collects spans and counters and streams span lines to a JSONL file.
/// All recording entry points are thread-safe.
class Tracer {
public:
  /// Sentinel for spans not associated with one configuration.
  static constexpr uint64_t NoConfig = ~uint64_t(0);

  /// Opens \p Path (truncating) and writes the meta line.
  static Expected<Tracer> toFile(const std::string &Path);

  Tracer(Tracer &&) = default;
  Tracer &operator=(Tracer &&) = default;
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;
  ~Tracer() { close(); }

  /// Appends one completed span line.  \p StartUs/\p DurUs are
  /// microseconds relative to the tracer's epoch; \p Depth is the
  /// per-thread nesting level (outermost span = 1).
  void recordSpan(std::string_view Name, uint64_t ConfigIndex, int Depth,
                  uint64_t StartUs, uint64_t DurUs);

  /// Adds \p Delta to the named counter.
  void addCounter(std::string_view Name, uint64_t Delta);

  /// Current value of a counter (0 if never touched).
  uint64_t counterValue(std::string_view Name) const;

  /// Spans recorded so far.
  uint64_t spanCount() const;

  /// Microseconds since the tracer's epoch, on the monotonic clock.
  uint64_t nowUs() const;

  /// Writes the counter lines, plus the process's "proc.peak_rss_kb"
  /// where peakRssKb() can read it, and closes the sink.  Idempotent;
  /// also run by the destructor.
  void close();

private:
  Tracer() = default;

  /// Dense per-tracer thread id for the calling thread.
  unsigned threadId();

  std::chrono::steady_clock::time_point Epoch;
  /// Heap-held so the tracer stays movable (Expected<Tracer> needs it).
  mutable std::unique_ptr<std::mutex> M = std::make_unique<std::mutex>();
  std::ofstream OS;
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::thread::id, unsigned> ThreadIds;
  uint64_t Spans = 0;
};

/// Peak resident set size of this process in kB (VmHWM in
/// /proc/self/status), or nullopt where that file cannot be read.
std::optional<uint64_t> peakRssKb();

/// The process-wide tracer instrumentation sites consult.  Null (tracing
/// off) unless a ScopedTracer is alive.
Tracer *activeTracer();

/// RAII install/restore of the active tracer.
class ScopedTracer {
public:
  explicit ScopedTracer(Tracer *T);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer &) = delete;
  ScopedTracer &operator=(const ScopedTracer &) = delete;

private:
  Tracer *Prev;
};

/// RAII scoped span: measures from construction to destruction on the
/// active tracer (no-op when tracing is off).  \p Name must outlive the
/// span (string literals at every call site).
class TraceSpan {
public:
  explicit TraceSpan(const char *Name,
                     uint64_t ConfigIndex = Tracer::NoConfig);
  ~TraceSpan();
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  Tracer *T; ///< Captured once so install/uninstall mid-span is safe.
  const char *Name;
  uint64_t Idx;
  int Depth = 0;
  uint64_t StartUs = 0;
};

/// Adds \p Delta to a counter on the active tracer; no-op when off.
void traceCount(std::string_view Name, uint64_t Delta = 1);

} // namespace g80

#endif // G80TUNE_SUPPORT_TRACE_H
