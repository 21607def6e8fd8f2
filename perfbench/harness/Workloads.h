//===- perfbench/harness/Workloads.h - The benchmark's workloads -*- C++ -*-===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (sweep-small, pareto-large, adaptive-large,
/// serve-mixed).  Each runs through g80tune's public API only.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_PERFBENCH_WORKLOADS_H
#define G80TUNE_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include "core/SearchStrategy.h"

#include <string>
#include <vector>

namespace bench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Per-run scratch directory (journals, spool);
  /// the process runs with it as its working directory.
  std::string WorkDir;
  /// When set, the run appends its per-search outcomes here (how
  /// refs/searches.tsv is produced at the reference seed).
  std::string RecordRefs;
  /// The self-test's short form: one pass, one short serve phase and
  /// window, and no cp-large search in pareto-large.
  bool Reduced = false;
  const References *Refs = nullptr;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricSet Metrics;
  /// Human-readable per-layer table (traced runs only).
  std::string LayerTable;
};

/// Whether \p Name is one of the four workloads.
bool isWorkload(const std::string &Name);

/// Runs one workload for about Opts.Seconds, checking every result
/// against the references into \p Check.
RunResult runWorkload(const RunOptions &Opts, Checker &Check);

} // namespace bench

#endif // G80TUNE_PERFBENCH_WORKLOADS_H
