//===- perfbench/harness/Harness.h - Benchmark plumbing ---------*- C++ -*-===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the end-to-end benchmark: clocks and process
/// memory, sample statistics, the committed reference results every run
/// is checked against, a reader for the program's trace files, and the
/// named-metric result set g80bench prints.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_PERFBENCH_HARNESS_H
#define G80TUNE_PERFBENCH_HARNESS_H

#include "core/Search.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Resident set size of this process, in MB (VmRSS).
double rssMb();
/// Peak resident set size of this process, in MB (VmHWM).
double peakRssMb();

/// Linearly interpolated quantile (\p Q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// A per-purpose seed derived from the workload seed, so every strategy
/// seed, serve request and arrival time follows from the one --seed value.
uint64_t subSeed(uint64_t Seed, uint64_t Salt);

/// Worker threads/jobs for every workload: min(nproc, 4).
unsigned benchJobs();

//===--- Committed references -------------------------------------------===//

/// Simulated time of every valid configuration of one app x tier, from an
/// exhaustive `tune search` journal, plus the committed optimum.
struct ConfigTable {
  std::unordered_map<uint64_t, double> Time; ///< Flat index -> seconds.
  uint64_t BestFlat = 0;
  double BestTime = 0;
};

/// One search's expected outcome at the reference seed.
struct SearchRef {
  uint64_t Measured = 0;
  uint64_t BestFlat = 0;
  double BestTime = 0;
};

class References {
public:
  /// Loads `optima.tsv`, `configs/<app>-<tier>.tsv` and `searches.tsv`
  /// from \p Dir and checks every table against its committed optimum.
  bool load(const std::string &Dir, std::string &Err);

  /// The table for \p App on \p Tier ("small"/"large"); fatal if absent.
  const ConfigTable &table(const std::string &App,
                           const std::string &Tier) const;
  /// The committed outcome of search \p Key, or null.
  const SearchRef *search(const std::string &Key) const;

  /// The seed searches.tsv was recorded at.
  uint64_t RefSeed = 0;

private:
  std::map<std::string, ConfigTable> Tables;
  std::map<std::string, SearchRef> Searches;
};

/// Collects correctness failures; a run is correct when none arrived.
class Checker {
public:
  void fail(const std::string &Msg);
  bool ok() const { return Failures.empty(); }
  const std::vector<std::string> &failures() const { return Failures; }

private:
  std::mutex M;
  std::vector<std::string> Failures;
};

/// What one search produced, in reference terms.
struct SearchSummary {
  std::string Key; ///< "<workload>/<app>-<tier>-<strategy>".
  uint64_t Measured = 0;
  uint64_t Quarantined = 0;
  bool HasBest = false;
  uint64_t BestFlat = 0;
  double BestTime = 0;
};

/// Checks \p Out against the exhaustive table (every measured time, and
/// the best is the least of them and no better than the optimum) and,
/// with \p WithRef, against the committed per-search outcome.  Returns
/// the summary for quality and reference recording.
SearchSummary checkSearch(const References &Refs, Checker &Check,
                          const std::string &Key, const std::string &App,
                          const std::string &Tier,
                          const g80::SearchOutcome &Out, bool WithRef);

/// Appends "key measured best_flat best_time" lines for \p Summaries.
bool appendSearchRefs(const std::string &Path,
                      const std::vector<SearchSummary> &Summaries);

//===--- The program's trace ---------------------------------------------===//

/// One span line of a g80::Tracer JSONL file (support/Trace.h).  A traced
/// run installs the program's own tracer, so these are the spans g80tune
/// records inside its drivers, plus the ones the benchmark opens around
/// its public calls.
struct TracedSpan {
  std::string Name;
  double Start = 0; ///< Seconds since the tracer was created.
  double Dur = 0;
  double end() const { return Start + Dur; }
};

/// Reads the span lines of the trace at \p Path, sorted by start time.
bool readTrace(const std::string &Path, std::vector<TracedSpan> &Out,
               std::string &Err);

/// Per-name totals over a trace.
struct SpanTotals {
  uint64_t Calls = 0;
  double TotalS = 0;
  double MaxS = 0;
};
std::map<std::string, SpanTotals>
spanTotals(const std::vector<TracedSpan> &Spans);

//===--- Results ----------------------------------------------------------===//

/// Named metrics with units, in insertion order.
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit kept.
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

} // namespace bench

#endif // G80TUNE_PERFBENCH_HARNESS_H
