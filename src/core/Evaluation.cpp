//===- core/Evaluation.cpp ------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Evaluation.h"

#include "analysis/Lint.h"
#include "analysis/Verifier.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <cassert>
#include <numeric>

using namespace g80;

/// Generates the kernel for \p E.  Generation stands in for the paper's
/// source-to-source + nvcc -ptx step, hence the "parse" span name.
static Kernel generate(const TunableApp &App, const ConfigEval &E) {
  TraceSpan Span("parse", E.FlatIndex);
  return App.buildKernel(E.Point);
}

void Evaluator::evaluateOne(ConfigEval &E) const {
  const uint64_t I = E.FlatIndex;
  const bool Injecting = Inject.enabled();

  E.Point = App.space().pointAt(I);
  E.Expressible = App.isExpressible(E.Point);
  if (!E.Expressible)
    return;

  // The generator stands in for the paper's source-to-source step;
  // Parse-stage faults can only come from the injector here (file input
  // goes through parseKernel in the tool instead).
  if (Injecting) {
    if (std::optional<Diagnostic> D = Inject.at(Stage::Parse, I)) {
      E.Failure = std::move(*D);
      return;
    }
  }

  // The kernel lives only for this call: measure() regenerates it, so the
  // static pass holds ConfigEvals, not kernels.
  const Kernel K = generate(App, E);

  {
    TraceSpan Span("verify", I);
    std::optional<Diagnostic> InjectedVerify =
        Injecting ? Inject.at(Stage::Verify, I) : std::nullopt;
    if (InjectedVerify) {
      E.Failure = std::move(*InjectedVerify);
    } else if (Expected<Unit> V = checkKernel(K); !V) {
      E.Failure = V.takeDiag();
    }
  }
  if (E.failed())
    return;

  // The optional lint gate: statically proven races, contradicted
  // annotations and resource undershoots quarantine the configuration
  // before any metric or simulation work is spent on it.  Off by default
  // (a clean space must journal byte-identically with or without it).
  if (LOpts.Enabled) {
    TraceSpan Span("lint", I);
    std::optional<Diagnostic> InjectedLint =
        Injecting ? Inject.at(Stage::Lint, I) : std::nullopt;
    if (InjectedLint) {
      E.Failure = std::move(*InjectedLint);
    } else {
      LintResult L = runLint(K, App.launch(E.Point));
      if (L.errorCount() > 0)
        E.Failure =
            makeDiag(lintErrorCode(L), Stage::Lint, lintErrorSummary(L));
    }
  }
  if (E.failed())
    return;

  if (Injecting) {
    if (std::optional<Diagnostic> D = Inject.at(Stage::Estimate, I)) {
      E.Failure = std::move(*D);
      return;
    }
  }

  {
    TraceSpan Span("metrics", I);
    E.Metrics = computeKernelMetrics(K, App.launch(E.Point), Machine, MOpts);
  }
  E.Invocations = App.invocations(E.Point);
  if (E.Metrics.Valid)
    E.EfficiencyTotal =
        efficiencyMetric(E.Metrics.Profile.DynInstrs * E.Invocations,
                         E.Metrics.Threads);
}

std::vector<ConfigEval> Evaluator::evaluateMetrics(unsigned Jobs) const {
  std::vector<uint64_t> All(App.space().rawSize());
  std::iota(All.begin(), All.end(), uint64_t(0));
  return evaluateSubset(All, Jobs);
}

std::vector<uint64_t> Evaluator::expressibleIndices() const {
  {
    std::lock_guard<std::mutex> L(CacheM);
    if (ExpressibleMemo)
      return *ExpressibleMemo;
  }

  const ConfigSpace &Space = App.space();
  uint64_t Raw = Space.rawSize();
  std::vector<uint64_t> Out;
  for (uint64_t I = 0; I != Raw; ++I)
    if (App.isExpressible(Space.pointAt(I)))
      Out.push_back(I);

  std::lock_guard<std::mutex> L(CacheM);
  if (!ExpressibleMemo)
    ExpressibleMemo = std::make_shared<const std::vector<uint64_t>>(Out);
  return *ExpressibleMemo;
}

std::vector<ConfigEval>
Evaluator::evaluateSubset(const std::vector<uint64_t> &Indices,
                          unsigned Jobs) const {
  std::vector<ConfigEval> Evals(Indices.size());
  std::vector<size_t> Misses; // Positions in Evals still to compute.
  {
    std::lock_guard<std::mutex> L(CacheM);
    for (size_t I = 0; I != Indices.size(); ++I) {
      auto It = PointMemo.find(Indices[I]);
      if (It != PointMemo.end()) {
        Evals[I] = It->second;
      } else {
        Evals[I].FlatIndex = Indices[I];
        Misses.push_back(I);
      }
    }
  }

  // Each miss writes only its own slot, so the result is identical to the
  // serial loop for any job count.
  auto Fill = [&](size_t M) { evaluateOne(Evals[Misses[M]]); };
  if (Jobs > 1 && Misses.size() > 1) {
    ThreadPool Pool(std::min<uint64_t>(Jobs, Misses.size()));
    // Chunk to amortize dispatch.
    size_t Grain =
        std::max<size_t>(1, Misses.size() / (size_t(Pool.size()) * 8));
    parallelFor(Pool, Misses.size(), Grain, Fill);
  } else {
    for (size_t M = 0; M != Misses.size(); ++M)
      Fill(M);
  }

  std::lock_guard<std::mutex> L(CacheM);
  for (size_t M : Misses)
    PointMemo.emplace(Evals[M].FlatIndex, Evals[M]);
  return Evals;
}

bool Evaluator::measure(ConfigEval &E) const {
  assert(E.usable() && "measuring an unusable configuration");
  if (E.Measured)
    return true;

  if (Inject.enabled()) {
    if (std::optional<Diagnostic> D = Inject.at(Stage::Emulate, E.FlatIndex)) {
      E.Failure = std::move(*D);
      return false;
    }
    if (std::optional<Diagnostic> D = Inject.at(Stage::Simulate, E.FlatIndex)) {
      E.Failure = std::move(*D);
      return false;
    }
  }

  // Generation is deterministic, so this is the kernel evaluateOne
  // verified and scored.
  const Kernel K = generate(App, E);
  TraceSpan Span("simulate", E.FlatIndex);
  // §5.3 screen short-circuit: when the metrics already classify the
  // configuration as bandwidth-bound, the analytic bound replaces cycle
  // simulation (opt-in; changes results, so tune folds it into the
  // journal fingerprint).
  SimEngineStats St; // Stays zero on the bandwidth fast path.
  Expected<SimResult> R =
      SOpts.BandwidthFastPath && E.Metrics.bandwidthBound()
          ? estimateBandwidthBoundKernel(K, App.launch(E.Point), Machine,
                                         SOpts)
          : simulateKernel(K, App.launch(E.Point), Machine, SOpts, &St);
  if (!R) {
    E.Failure = R.takeDiag();
    return false;
  }
  E.Sim = *R;
  E.TimeSeconds = E.Sim.Seconds * static_cast<double>(E.Invocations);
  E.Measured = true;
  // Engine work counters differ between engines (and the timings between
  // runs), so they go to the trace only; ConfigEval never holds them.
  traceCount("sim.live_issues", St.LiveIssues);
  traceCount("sim.ff_issues", St.SkippedIssues);
  traceCount("sim.snapshots", St.Snapshots);
  traceCount("sim.period_matches", St.PeriodMatches);
  traceCount("sim.setup_ns", St.SetupNs);
  traceCount("sim.snapshot_ns", St.SnapshotNs);
  return true;
}
