//===- perfbench/harness/Workloads.cpp - The four workloads ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sweep-small, pareto-large and adaptive-large are batch workloads: a
/// pass sets up fresh apps and engines, runs a fixed list of searches
/// through planForStrategy + SweepDriver::run or runAdaptiveSweep with
/// fsync'd journals, and checks every result.  serve-mixed hosts a
/// TuneServer in-process and drives it in closed-loop phases; its traced
/// run drives it with an open-loop Poisson load instead.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "ptx/Kernel.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Shard.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <malloc.h>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

using namespace bench;
using namespace g80;
namespace fs = std::filesystem;

namespace {

const char *const AllApps[] = {"matmul", "cp", "sad", "mri"};

//===--- Batch workloads ----------------------------------------------------===//

/// One search of a batch workload.
struct SearchSpec {
  std::string App;
  std::string Tier;
  StrategyKind Kind = StrategyKind::Exhaustive;
  uint64_t Budget = 16;
  /// Measure a fixed sample of the plan's candidates (cpSample) instead
  /// of all of them.
  bool Sample = false;
  uint64_t Salt = 0; ///< Derives the strategy seed.

  std::string key(const std::string &Workload) const {
    return Workload + "/" + App + "-" + Tier + "-" + strategyName(Kind);
  }
  /// Exhaustive and Pareto searches do not depend on the seed.
  bool seedIndependent() const {
    return Kind == StrategyKind::Exhaustive || Kind == StrategyKind::Pareto;
  }
};

std::vector<SearchSpec> specsFor(const std::string &Workload, bool Reduced) {
  std::vector<SearchSpec> Specs;
  uint64_t Salt = 0;
  if (Workload == "sweep-small") {
    for (const char *App : AllApps)
      Specs.push_back({App, "small", StrategyKind::Exhaustive, 16, false,
                       Salt++});
  } else if (Workload == "pareto-large") {
    for (const char *App : AllApps) {
      // The reduced form skips cp-large's 2.5 GB static pass.
      if (Reduced && std::string(App) == "cp")
        continue;
      // cp-large's 3,047-point frontier takes minutes to measure; a
      // fixed sample of it (cpSample) keeps the pass short and steady.
      bool Sample = std::string(App) == "cp";
      Specs.push_back({App, "large", StrategyKind::Pareto, 16, Sample,
                       Salt++});
    }
  } else if (Workload == "adaptive-large") {
    // cp-large is left out: whether an adaptive walk reaches one of its
    // unroll-128 kernels (up to 12 s each) decides a pass's time, so its
    // figures would follow the seed, not the code.  pareto-large measures
    // those long traces on a fixed set of configs instead.
    for (const char *App : {"matmul", "sad", "mri"})
      for (StrategyKind K :
           {StrategyKind::Greedy, StrategyKind::Anneal, StrategyKind::Genetic})
        Specs.push_back({App, "large", K, 64, false, Salt++});
  }
  return Specs;
}

/// Unrolls above this are left out of the cp-large sample.
constexpr int CpSampleMaxUnroll = 32;

/// The first config (in plan order) of each kernel shape among \p Plan's
/// candidates, for shapes unrolled at most CpSampleMaxUnroll times.  A
/// shape is a (tiling, ytile, unroll) triple: configs of one shape share
/// their per-thread code and differ only in block shape and coalescing.
/// The 95 configs cover every kernel length up to unroll 32; their
/// longest simulation takes about 1 s.  The 34 shapes above it hold the
/// frontier's longest traces, up to 12 s each on one worker, and would
/// set the pass time by when those few simulations start: runs of the
/// same code then differ by 30%.  A seeded draw would make the pass time
/// follow the seed, because block shape moves a long trace's cost.
std::vector<size_t> cpSample(const SweepPlan &Plan, const ConfigSpace &Space) {
  const size_t Dims[] = {Space.dimIndex("tiling"), Space.dimIndex("ytile"),
                         Space.dimIndex("unroll")};
  std::set<std::vector<int>> Seen;
  std::vector<size_t> Out;
  for (size_t Idx : Plan.Candidates) {
    const ConfigPoint &P = Plan.Evals[Idx].Point;
    if (Space.valueOf(P, "unroll") > CpSampleMaxUnroll)
      continue;
    std::vector<int> Shape;
    for (size_t D : Dims)
      Shape.push_back(P[D]);
    if (Seen.insert(Shape).second)
      Out.push_back(Idx);
  }
  return Out;
}

struct AppEngine {
  std::unique_ptr<TunableApp> App;
  std::unique_ptr<SearchEngine> Eng;
};

AppEngine makeEngine(const std::string &App, const std::string &Tier) {
  SpaceTier T = SpaceTier::Small;
  (void)parseSpaceTier(Tier, T);
  AppEngine E;
  E.App = makeServeApp(App, T);
  E.Eng = std::make_unique<SearchEngine>(*E.App,
                                         MachineModel::geForce8800Gtx());
  return E;
}

//===--- Traced runs ----------------------------------------------------------===//
//
// A traced run installs the program's own tracer (support/Trace.h) around
// one pass or load window.  Its spans are g80tune's, recorded inside the
// drivers as they run ("parse" for kernel generation, "verify",
// "metrics", "simulate", "journal", "serve.*"), plus the ones the
// benchmark opens around its public calls.  No span is added to src/.

/// Simulated totals over measured configs, taken from their results.
struct SimTotals {
  uint64_t Cycles = 0;
  uint64_t WarpInstrs = 0;
};

/// The configs one search evaluated statically.
struct StaticSet {
  std::string App;
  std::string Tier;
  std::vector<uint64_t> Flats;
};

std::string tracePath(const RunOptions &Opts) {
  return "../trace-" + Opts.Workload + "-seed" + std::to_string(Opts.Seed) +
         ".jsonl";
}

/// Runs \p Body with a tracer writing to \p Path installed.
bool withTracer(const std::string &Path, Checker &Check,
                const std::function<void()> &Body) {
  Expected<Tracer> T = Tracer::toFile(Path);
  if (!T) {
    Check.fail("trace: " + T.diag().Message);
    return false;
  }
  {
    ScopedTracer Install(&*T);
    Body();
  }
  T->close();
  return true;
}

SpanTotals totalOf(const std::map<std::string, SpanTotals> &T,
                   const char *Name) {
  auto It = T.find(Name);
  return It == T.end() ? SpanTotals() : It->second;
}

/// Every per-layer metric, zero until a workload measures it: layers a
/// workload does not reach read 0.
void setLayerDefaults(MetricSet &M) {
  static const std::pair<const char *, const char *> Layer[] = {
      {"kernels.builds", "count"},       {"kernels.build_s", "s"},
      {"kernels.ir_instrs", "count"},    {"analysis.verify_s", "s"},
      {"metrics.evals", "count"},        {"metrics.compute_s", "s"},
      {"core.static_s", "s"},            {"core.plan_s", "s"},
      {"core.frontier", "count"},        {"core.static_rss_mb", "MB"},
      {"sweep.pool_util", "ratio"},      {"adaptive.rounds", "count"},
      {"adaptive.round_idle_frac", "ratio"}, {"sim.calls", "count"},
      {"sim.busy_s", "s"},               {"sim.warp_instrs_per_s", "1/s"},
      {"sim.max_call_s", "s"},           {"sim.cycles", "count"},
      {"sim.warp_instrs", "count"},      {"journal.appends", "count"},
      {"journal.append_s", "s"},         {"journal.mean_append_us", "us"},
      {"serve.accept_ms", "ms"},         {"serve.exec_ms", "ms"},
      {"serve.p50_ms", "ms"},            {"serve.p95_ms", "ms"},
      {"serve.shed", "count"},           {"serve.queue_depth_max", "count"},
      {"serve.rss_growth_mb", "MB"},     {"protocol.codec_us", "us"},
      {"loadgen.late_p95_ms", "ms"},     {"trace.overhead_frac", "ratio"},
  };
  for (const auto &[Name, Unit] : Layer)
    M.set(Name, 0, Unit);
}

/// The layers the program's own spans time: kernel generation, the
/// verifier, the metrics, the simulator and the journal.
void setProgramLayers(MetricSet &M, const std::map<std::string, SpanTotals> &T,
                      const SimTotals &Sim) {
  const SpanTotals Build = totalOf(T, "parse");
  const SpanTotals Metrics = totalOf(T, "metrics");
  const SpanTotals Simulate = totalOf(T, "simulate");
  const SpanTotals Journal = totalOf(T, "journal");
  M.set("kernels.builds", double(Build.Calls), "count");
  M.set("kernels.build_s", Build.TotalS, "s");
  M.set("analysis.verify_s", totalOf(T, "verify").TotalS, "s");
  M.set("metrics.evals", double(Metrics.Calls), "count");
  M.set("metrics.compute_s", Metrics.TotalS, "s");
  M.set("sim.calls", double(Simulate.Calls), "count");
  M.set("sim.busy_s", Simulate.TotalS, "s");
  M.set("sim.warp_instrs_per_s",
        Simulate.TotalS > 0 ? double(Sim.WarpInstrs) / Simulate.TotalS : 0,
        "1/s");
  M.set("sim.max_call_s", Simulate.MaxS, "s");
  M.set("sim.cycles", double(Sim.Cycles), "count");
  M.set("sim.warp_instrs", double(Sim.WarpInstrs), "count");
  M.set("journal.appends", double(Journal.Calls), "count");
  M.set("journal.append_s", Journal.TotalS, "s");
  M.set("journal.mean_append_us",
        Journal.Calls ? Journal.TotalS / double(Journal.Calls) * 1e6 : 0,
        "us");
}

uint64_t countInstrs(const Body &B) {
  uint64_t N = 0;
  for (const BodyNode &Node : B) {
    if (Node.isInstr())
      ++N;
    else if (Node.isLoop())
      N += countInstrs(Node.loop().LoopBody);
    else
      N += countInstrs(Node.ifNode().Then) + countInstrs(Node.ifNode().Else);
  }
  return N;
}

/// Static IR instructions over the kernels of every config the traced
/// pass evaluated statically, each built once more outside the trace.
/// It is fixed by the config set, not by how often the program builds.
uint64_t irInstrs(const std::vector<StaticSet> &Sets) {
  uint64_t N = 0;
  for (const StaticSet &S : Sets) {
    AppEngine E = makeEngine(S.App, S.Tier);
    for (uint64_t Flat : S.Flats)
      N += countInstrs(E.App->buildKernel(E.App->space().pointAt(Flat)).body());
  }
  return N;
}

/// Simulation time over worker capacity while SweepDriver::run was
/// running: sum of the program's "simulate" spans inside the benchmark's
/// "core.SweepDriver::run" spans, over jobs x their wall time.
double sweepPoolUtil(const std::vector<TracedSpan> &Spans, unsigned Jobs) {
  std::vector<const TracedSpan *> Runs;
  double WallS = 0, BusyS = 0;
  for (const TracedSpan &S : Spans)
    if (S.Name == "core.SweepDriver::run") {
      Runs.push_back(&S);
      WallS += S.Dur;
    }
  for (const TracedSpan &S : Spans)
    if (S.Name == "simulate")
      for (const TracedSpan *Run : Runs)
        if (S.Start >= Run->Start && S.Start < Run->end())
          BusyS += S.Dur;
  return WallS > 0 ? BusyS / (double(Jobs) * WallS) : 0;
}

/// Measuring rounds of runAdaptiveSweep, read off the program's spans.  A
/// round statically evaluates its fresh proposals, measures the round's
/// probes in parallel and then journals them in order, so within one
/// runAdaptiveSweep span a run of "simulate" spans followed by "journal"
/// spans is one round.  Its wall time runs from the end of the last
/// static or journal span before its first simulation (so thread start-up
/// counts) to its first journal append.  Rounds that measure nothing
/// leave no simulate span and are not counted.
struct RoundFigures {
  uint64_t Rounds = 0;
  double WallS = 0; ///< Summed round wall time.
  double BusyS = 0; ///< Summed simulation time inside it.
};

RoundFigures adaptiveRounds(const std::vector<TracedSpan> &Spans) {
  RoundFigures F;
  for (const TracedSpan &Search : Spans) {
    if (Search.Name != "core.runAdaptiveSweep")
      continue;
    double LastEnd = Search.Start, RoundStart = 0, Busy = 0;
    bool InRound = false;
    for (const TracedSpan &S : Spans) {
      if (S.Start < Search.Start || S.Start >= Search.end() || &S == &Search)
        continue;
      if (S.Name == "simulate") {
        if (!InRound) {
          InRound = true;
          RoundStart = LastEnd;
          Busy = 0;
        }
        Busy += S.Dur;
        continue;
      }
      if (S.Name == "journal" && InRound) {
        ++F.Rounds;
        F.WallS += S.Start - RoundStart;
        F.BusyS += Busy;
        InRound = false;
      }
      LastEnd = std::max(LastEnd, S.end());
    }
  }
  return F;
}

/// The per-layer table printed above a traced run's result.
std::string layerTable(const std::string &Title,
                       const std::map<std::string, SpanTotals> &T) {
  std::ostringstream Table;
  Table << "per-layer spans (" << Title << ")\n";
  Table << "  span                               calls      total_s      max_s\n";
  for (const auto &[Name, Tot] : T) {
    char Line[160];
    std::snprintf(Line, sizeof(Line), "  %-32s %8llu %12.4f %10.4f\n",
                  Name.c_str(), (unsigned long long)Tot.Calls, Tot.TotalS,
                  Tot.MaxS);
    Table << Line;
  }
  return Table.str();
}

/// What one pass of a batch workload measured.
struct PassStats {
  double SetupS = 0;
  std::vector<double> SetupSamples; ///< Untraced passes only.
  double SearchS = 0;
  /// Per search: optimum / best found, or NaN where measuring only part
  /// of the plan makes it meaningless.
  std::vector<double> Quality;
  uint64_t Measured = 0;
  uint64_t Quarantined = 0;
  double MeasuredFrac = 0; ///< Max over searches of planned/valid.
  std::vector<SearchSummary> Summaries;

  // Traced passes only.
  uint64_t Frontier = 0;
  double StaticRssMb = 0;
  SimTotals Sim;
  std::vector<StaticSet> Statics;
};

JournalHeader fingerprintFor(const AppEngine &E, const SearchSpec &S,
                             const StrategyOptions &SO) {
  JournalHeader H;
  H.App = std::string(E.App->name());
  H.Machine = E.Eng->evaluator().machine().Name;
  H.Strategy = strategyName(S.Kind);
  H.Seed = SO.Seed;
  H.Budget = SO.Budget;
  H.RawSize = E.App->space().rawSize();
  H.Space = S.Tier;
  return H;
}

/// Set-up takes microseconds, so an untraced pass repeats it this many
/// times after every search: the run's median then spans the same
/// conditions as its searches.
constexpr int SetupSamplesPerSearch = 10;

/// One set-up of a whole workload: its apps, machine model and engines.
double batchSetupSample(const std::vector<SearchSpec> &Specs) {
  Clock::time_point T0 = Clock::now();
  std::vector<AppEngine> Engines;
  for (const SearchSpec &S : Specs)
    Engines.push_back(makeEngine(S.App, S.Tier));
  return secondsSince(T0);
}

/// Pass \p Pass of a run with seed \p Seed draws its strategy seeds from
/// this seed.  Pass 0 uses the run's seed itself (the one
/// the committed per-search references are recorded at); later passes
/// get fresh inputs, so a run's medians average over several draws
/// instead of repeating one.
uint64_t passSeed(uint64_t Seed, unsigned Pass) {
  return Pass == 0 ? Seed : subSeed(Seed, 1000 + Pass);
}

/// Runs one pass.  \p Traced marks the pass that runs under the
/// program's tracer: it runs the static pass as a call of its own, so it
/// shows as a separate span, and keeps what the per-layer figures need.
PassStats runBatchPass(const std::string &Workload,
                       const std::vector<SearchSpec> &Specs,
                       const RunOptions &Opts, uint64_t Seed, Checker &Check,
                       bool Traced) {
  const unsigned Jobs = benchJobs();
  PassStats P;

  // Set-up: the apps, the machine model and one fresh engine per search,
  // so no memo carries between searches or passes.
  std::vector<AppEngine> Engines;
  {
    TraceSpan Sp("setup");
    Clock::time_point T0 = Clock::now();
    for (const SearchSpec &S : Specs)
      Engines.push_back(makeEngine(S.App, S.Tier));
    P.SetupS = secondsSince(T0);
  }

  const fs::path JournalDir = "journals";
  fs::remove_all(JournalDir);
  fs::create_directories(JournalDir);

  for (size_t I = 0; I != Specs.size(); ++I) {
    const SearchSpec &S = Specs[I];
    const AppEngine &E = Engines[I];
    const std::string Key = S.key(Workload);
    const ConfigTable &Table = Opts.Refs->table(S.App, S.Tier);

    StrategyOptions SO;
    SO.Seed = subSeed(Seed, S.Salt);
    SO.Budget = S.Budget;
    SO.Jobs = Jobs;
    SweepOptions SwO;
    SwO.JournalPath =
        (JournalDir / (S.App + "-" + S.Tier + "-" + strategyName(S.Kind) +
                       ".jsonl"))
            .string();
    SwO.Jobs = Jobs;
    SwO.Fingerprint = fingerprintFor(E, S, SO);

    SweepReport Rep;
    Clock::time_point T0 = Clock::now();
    if (strategyIsPlannable(S.Kind)) {
      if (Traced) {
        // Planning below finds these statics memoized.
        TraceSpan Sp("core.staticPass");
        double Rss0 = rssMb();
        const Evaluator &Ev = E.Eng->evaluator();
        if (E.App->space().rawSize() <= SearchEngine::DenseEvalLimit)
          (void)Ev.evaluateMetrics(Jobs);
        else
          (void)Ev.evaluateSubset(Ev.expressibleIndices(), Jobs);
        P.StaticRssMb += rssMb() - Rss0;
      }
      SweepPlan Plan = [&] {
        TraceSpan Sp("core.planForStrategy");
        return planForStrategy(*E.Eng, S.Kind, SO);
      }();
      P.MeasuredFrac = std::max(P.MeasuredFrac,
                                double(Plan.Candidates.size()) /
                                    double(Table.Time.size()));
      if (S.Kind == StrategyKind::Pareto)
        P.Frontier += Plan.Candidates.size();
      if (S.Sample)
        Plan.Candidates = cpSample(Plan, E.App->space());
      TraceSpan Sp("core.SweepDriver::run");
      Rep = SweepDriver(*E.Eng, SwO).run(std::move(Plan));
    } else {
      TraceSpan Sp("core.runAdaptiveSweep");
      double Rss0 = Traced ? rssMb() : 0;
      Rep = runAdaptiveSweep(*E.Eng, S.Kind, SO, SwO);
      if (Traced)
        P.StaticRssMb += rssMb() - Rss0;
    }
    double Wall = secondsSince(T0);
    P.SearchS += Wall;
    if (!Traced)
      for (int K = 0; K != (Opts.Reduced ? 1 : SetupSamplesPerSearch); ++K)
        P.SetupSamples.push_back(batchSetupSample(Specs));
    std::fprintf(stderr, "g80bench: %-44s %8.3f s  %zu measured\n",
                 Key.c_str(), Wall, Rep.Outcome.Candidates.size());

    if (Rep.Status != SweepStatus::Completed) {
      Check.fail(Key + ": sweep did not complete: " + Rep.Error.Message);
      P.Summaries.emplace_back();
      P.Quality.push_back(0);
      continue;
    }
    const SearchOutcome &Out = Rep.Outcome;
    // Exhaustive and Pareto outcomes are checked at every seed.
    SearchSummary Sum = checkSearch(
        *Opts.Refs, Check, Key, S.App, S.Tier, Out,
        Seed == Opts.Refs->RefSeed || S.seedIndependent());
    P.Measured += Sum.Measured;
    P.Quarantined += Sum.Quarantined;
    if (!strategyIsPlannable(S.Kind))
      P.MeasuredFrac = std::max(P.MeasuredFrac,
                                double(Sum.Measured) /
                                    double(Table.Time.size()));
    // Quality is taken over fully measured searches: part of a frontier
    // says nothing about the method's reach.
    P.Quality.push_back(S.Sample        ? NAN
                        : Sum.HasBest ? Table.BestTime / Sum.BestTime
                                      : 0.0);
    P.Summaries.push_back(Sum);

    if (Traced) {
      StaticSet St{S.App, S.Tier, {}};
      for (const ConfigEval &Ev : Out.Evals) {
        if (Ev.Expressible)
          St.Flats.push_back(Ev.FlatIndex);
        if (Ev.Measured && !Ev.failed()) {
          P.Sim.Cycles += Ev.Sim.Cycles;
          P.Sim.WarpInstrs += Ev.Sim.IssuedWarpInstrs;
        }
      }
      P.Statics.push_back(std::move(St));
    }
  }

  // No run resumes a previous one.
  fs::remove_all(JournalDir);
  return P;
}

/// Hands the heap's free pages back to the system, so every pass starts
/// from the same process footprint.  Without it, pareto-large's 2.5 GB of
/// freed kernel memos stayed resident in fragments, and each further pass
/// in the run pushed peak RSS higher.
void releaseFreedMemory() { malloc_trim(0); }

/// Daemon start-ups per serve-mixed run (each also drains a daemon).
constexpr int ServeSetupRepeats = 19;

/// The worst app's typical quality: each app contributes
/// the median quality of its searches or served requests, and the least
/// of those is reported.  With one deterministic search per app (sweep-
/// small, pareto-large) this is exactly the min over searches.
double worstAppQuality(const std::map<std::string, std::vector<double>> &Q) {
  double Worst = HUGE_VAL;
  for (const auto &[App, Values] : Q)
    Worst = std::min(Worst, median(Values));
  return Worst == HUGE_VAL ? 0.0 : Worst;
}

RunResult runBatch(const RunOptions &Opts, Checker &Check) {
  const std::vector<SearchSpec> Specs = specsFor(Opts.Workload, Opts.Reduced);
  RunResult R;

  if (!Opts.Trace) {
    std::vector<double> Setup, Search, Rate, Ops, Frac;
    std::map<std::string, std::vector<double>> Quality;
    Clock::time_point Start = Clock::now();
    std::vector<SearchSummary> FirstSummaries;
    unsigned Pass = 0;
    do {
      PassStats P = runBatchPass(Opts.Workload, Specs, Opts,
                                 passSeed(Opts.Seed, Pass++), Check, false);
      releaseFreedMemory();
      std::fprintf(stderr, "g80bench: pass %u: %.3f s searching\n", Pass - 1,
                   P.SearchS);
      Setup.push_back(P.SetupS);
      Setup.insert(Setup.end(), P.SetupSamples.begin(), P.SetupSamples.end());
      Search.push_back(P.SearchS);
      Rate.push_back(double(P.Measured) / P.SearchS);
      Ops.push_back(double(Specs.size()) / P.SearchS);
      for (size_t I = 0; I != Specs.size(); ++I)
        if (!std::isnan(P.Quality[I]))
          Quality[Specs[I].App].push_back(P.Quality[I]);
      Frac.push_back(P.MeasuredFrac);
      R.Attempted += P.Measured + P.Quarantined;
      R.Failed += P.Quarantined;
      if (FirstSummaries.empty())
        FirstSummaries = P.Summaries;
    } while (!Opts.Reduced && secondsSince(Start) < Opts.Seconds);

    if (!Opts.RecordRefs.empty())
      appendSearchRefs(Opts.RecordRefs, FirstSummaries);

    MetricSet &M = R.Metrics;
    M.set("setup_s", median(Setup), "s");
    M.set("search_s", median(Search), "s");
    M.set("configs_per_s", median(Rate), "1/s");
    M.set("peak_rss_mb", peakRssMb(), "MB");
    M.set("quality", worstAppQuality(Quality), "ratio");
    M.set("measured_frac", median(Frac), "ratio");
    M.set("ok_frac",
          R.Attempted ? 1.0 - double(R.Failed) / double(R.Attempted) : 0.0,
          "ratio");
    M.set("rps", median(Ops), "1/s");
    return R;
  }

  // Traced run: a warm-up pass (a process's first pass runs cold), then
  // a pass under the program's tracer between two untraced ones (the
  // overhead baseline).
  PassStats WarmUp =
      runBatchPass(Opts.Workload, Specs, Opts, Opts.Seed, Check, false);
  releaseFreedMemory();
  PassStats Before =
      runBatchPass(Opts.Workload, Specs, Opts, Opts.Seed, Check, false);
  releaseFreedMemory();
  const std::string TracePath = tracePath(Opts);
  PassStats P;
  if (!withTracer(TracePath, Check, [&] {
        P = runBatchPass(Opts.Workload, Specs, Opts, Opts.Seed, Check, true);
      }))
    return R;
  releaseFreedMemory();
  PassStats After =
      runBatchPass(Opts.Workload, Specs, Opts, Opts.Seed, Check, false);
  for (const PassStats *Q : {&WarmUp, &Before, &P, &After}) {
    R.Attempted += Q->Measured + Q->Quarantined;
    R.Failed += Q->Quarantined;
  }

  std::vector<TracedSpan> Spans;
  std::string Err;
  if (!readTrace(TracePath, Spans, Err)) {
    Check.fail(Err);
    return R;
  }
  const unsigned Jobs = benchJobs();
  const std::map<std::string, SpanTotals> T = spanTotals(Spans);
  MetricSet &M = R.Metrics;
  setLayerDefaults(M);
  setProgramLayers(M, T, P.Sim);
  M.set("kernels.ir_instrs", double(irInstrs(P.Statics)), "count");
  M.set("core.static_s", totalOf(T, "core.staticPass").TotalS, "s");
  M.set("core.plan_s", totalOf(T, "core.planForStrategy").TotalS, "s");
  M.set("core.frontier", double(P.Frontier), "count");
  M.set("core.static_rss_mb", P.StaticRssMb, "MB");
  M.set("sweep.pool_util", sweepPoolUtil(Spans, Jobs), "ratio");
  RoundFigures Rounds = adaptiveRounds(Spans);
  M.set("adaptive.rounds", double(Rounds.Rounds), "count");
  if (Rounds.WallS > 0)
    M.set("adaptive.round_idle_frac",
          1.0 - Rounds.BusyS / (double(Jobs) * Rounds.WallS), "ratio");
  M.set("trace.overhead_frac",
        2.0 * P.SearchS / (Before.SearchS + After.SearchS) - 1.0, "ratio");
  R.LayerTable = layerTable(Opts.Workload + ", seed " +
                                std::to_string(Opts.Seed) + ", " +
                                std::to_string(Jobs) + " jobs",
                            T);
  return R;
}

//===--- serve-mixed ----------------------------------------------------------===//

/// Offered load of the open-loop window the traced run measures latency
/// on: about half the daemon's closed-loop capacity for this mix, frozen
/// so later changes are measured against the same schedule.
constexpr double ServeRateRps = 45.0;
constexpr unsigned ServeConnections = 4;
/// Requests per closed-loop phase: three blocks, about 3 s of work.
constexpr size_t PhaseRequests = 360;

double warmUpSeconds(const RunOptions &Opts) { return Opts.Reduced ? 1.0 : 5.0; }

struct Planned {
  TuneRequest Req;
  double DueS = 0; ///< Scheduled send time from the load's start.
};

/// \p N requests in shuffled blocks of 120.  Each block holds 12
/// large-tier random budget-4 requests (4 each on matmul, sad and mri;
/// cp-large's long-trace draws are left to the batch workloads), 8
/// small-tier adaptive budget-4 requests (greedy and anneal on each app,
/// so the runAdaptiveSweep path is served too) and 100 small-tier random
/// budget-2 requests (25 per app).  Fixed counts keep a seed from skewing
/// the mix, and request K is the same whatever \p N is, so the committed
/// references hold for any --seconds.  All due times are 0: a closed loop.
std::vector<Planned> makeRequests(uint64_t Seed, size_t N) {
  constexpr size_t Block = 120, LargePerBlock = 12, AdaptivePerBlock = 8;
  const char *const Large[] = {"matmul", "sad", "mri"};
  std::vector<Planned> Out(N);
  for (size_t First = 0; First < N; First += Block) {
    std::vector<TuneRequest> Kinds(Block);
    for (size_t I = 0; I != Block; ++I) {
      TuneRequest &Req = Kinds[I];
      Req.Wait = true;
      if (I < LargePerBlock) {
        Req.Strategy = "random";
        Req.App = Large[I % 3];
        Req.Space = "large";
        Req.Budget = 4;
      } else if (I < LargePerBlock + AdaptivePerBlock) {
        size_t J = I - LargePerBlock;
        Req.Strategy = J < 4 ? "greedy" : "anneal";
        Req.App = AllApps[J % 4];
        Req.Space = "small";
        Req.Budget = 4;
      } else {
        Req.Strategy = "random";
        Req.App = AllApps[I % 4];
        Req.Space = "small";
        Req.Budget = 2;
      }
    }
    Rng R(subSeed(Seed, 0x5e7e0000 + First));
    for (size_t I = Block; I > 1; --I)
      std::swap(Kinds[I - 1], Kinds[R.nextBelow(I)]);
    for (size_t I = 0; I != Block && First + I < N; ++I) {
      Out[First + I].Req = Kinds[I];
      Out[First + I].Req.Seed = R.next() >> 16;
    }
  }
  return Out;
}

/// The open-loop schedule over \p WindowS seconds at ServeRateRps: a
/// Poisson process conditioned on its count, i.e. rate x window arrival
/// times drawn uniformly and sorted.
std::vector<Planned> makeSchedule(uint64_t Seed, double WindowS) {
  std::vector<Planned> Out =
      makeRequests(Seed, size_t(std::lround(ServeRateRps * WindowS)));
  Rng R(subSeed(Seed, 0xd0e));
  std::vector<double> Due(Out.size());
  for (double &T : Due)
    T = R.nextDouble() * WindowS;
  std::sort(Due.begin(), Due.end());
  for (size_t I = 0; I != Out.size(); ++I)
    Out[I].DueS = Due[I];
  return Out;
}

/// What happened to one request.
struct Outcome {
  bool Completed = false;
  bool Shed = false;
  std::string ResultJson;
  double LateS = 0;    ///< Send time minus due time.
  double AcceptS = 0;  ///< Submit until the accepted reply.
  double ExecS = 0;    ///< Accepted until the result.
  double LatencyS = 0; ///< Due time until the result.
};

/// An in-process daemon on a fresh spool, listening on an ephemeral
/// loopback TCP port and serving on its own thread until destroyed;
/// destruction drains it and deletes the spool.
class Daemon {
public:
  Daemon(const std::string &Tag, Checker &Check) : Spool("spool-" + Tag) {
    // The daemon starts on an existing, empty spool, as a restart does:
    // directory creation is a filesystem metadata write whose latency
    // follows the disk's other users, not the daemon.
    fs::remove_all(Spool);
    fs::create_directories(Spool);
    ServeOptions SO;
    SO.SpoolDir = Spool;
    SO.Executors = 2;
    SO.Jobs = 2; // Executors x jobs stays within the 4-thread load cap.
    Clock::time_point T0 = Clock::now();
    Server = std::make_unique<TuneServer>(SO);
    Expected<Unit> Started = Server->start();
    SetupS = secondsSince(T0);
    if (!Started) {
      Check.fail("daemon start: " + Started.diag().Message);
      Server.reset();
      return;
    }
    Port = Server->port();
    Thread = std::thread([this] { Server->serve(); });
  }
  ~Daemon() {
    if (Server) {
      Expected<ServeClient> C = connect();
      if (!C || !C->shutdown(30))
        Server->requestDrain();
    }
    if (Thread.joinable())
      Thread.join();
    Server.reset();
    std::error_code Ec;
    fs::remove_all(Spool, Ec);
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool running() const { return Server != nullptr; }
  Expected<ServeClient> connect() const { return ServeClient::connect("", Port); }

  const std::string Spool;
  /// Construction until listening.
  double SetupS = 0;

private:
  std::unique_ptr<TuneServer> Server;
  std::thread Thread;
  uint16_t Port = 0;
};

/// Sends \p Sched to \p D over ServeConnections connections, each request
/// at its due time or as soon as its connection is free; fills \p Out
/// (parallel to \p Sched).  With \p DepthMax, also polls the status frame
/// for the queue depth.
void driveLoad(const Daemon &D, const std::vector<Planned> &Sched,
               std::vector<Outcome> &Out, uint64_t *DepthMax,
               Checker &Check) {
  Out.assign(Sched.size(), Outcome());
  std::atomic<size_t> Next{0};
  std::atomic<bool> Done{false};
  Clock::time_point T0 = Clock::now();

  std::thread Poller;
  if (DepthMax)
    Poller = std::thread([&] {
      Expected<ServeClient> C = D.connect();
      while (C && !Done.load()) {
        Expected<ServeStatus> St = C->status(5);
        if (St)
          *DepthMax = std::max(*DepthMax, St->QueueDepth);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

  std::vector<std::thread> Conns;
  for (unsigned I = 0; I != ServeConnections; ++I)
    Conns.emplace_back([&] {
      Expected<ServeClient> C = D.connect();
      if (!C) {
        Check.fail("connect: " + C.diag().Message);
        return;
      }
      for (size_t K; (K = Next.fetch_add(1)) < Sched.size();) {
        const Clock::time_point Due =
            T0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(Sched[K].DueS));
        std::this_thread::sleep_until(Due);
        Outcome &O = Out[K];
        Clock::time_point Sent = Clock::now();
        O.LateS = std::chrono::duration<double>(Sent - Due).count();
        Expected<std::string> Reply = [&] {
          TraceSpan Sp("serve.ServeClient::submit");
          return C->submit(Sched[K].Req, 30);
        }();
        Clock::time_point Accepted = Clock::now();
        O.AcceptS = std::chrono::duration<double>(Accepted - Sent).count();
        if (!Reply)
          continue;
        std::string Type = frameType(*Reply);
        if (Type == "overloaded") {
          O.Shed = true;
          continue;
        }
        if (Type != "accepted")
          continue;
        Expected<std::string> Result = [&] {
          TraceSpan Sp("serve.ServeClient::awaitResult");
          return C->awaitResult(120);
        }();
        Clock::time_point End = Clock::now();
        if (!Result || frameType(*Result) != "result")
          continue;
        O.Completed = true;
        O.ResultJson = *Result;
        O.ExecS = std::chrono::duration<double>(End - Accepted).count();
        O.LatencyS = std::chrono::duration<double>(End - Due).count();
      }
    });
  for (std::thread &T : Conns)
    T.join();
  Done.store(true);
  if (Poller.joinable())
    Poller.join();
}

/// One config a served request measured.
struct ServedConfig {
  std::string App;
  std::string Tier;
  ConfigEval Ev;
  /// Ev holds a simulation result (from an adaptive request's local
  /// re-run); otherwise only its table time.
  bool Simulated = false;
};

/// The served requests' checked outcomes.
struct ServeCheck {
  uint64_t Measured = 0;
  std::map<std::string, std::vector<double>> Quality; ///< By app.
  double MeasuredFrac = 0;
  std::vector<SearchSummary> Summaries; ///< The first 64 requests.
  /// Traced runs: every served measurement, for the simulated totals.
  std::vector<ServedConfig> Measurements;
};

/// Checks every completed request of \p Sched against the same request
/// re-run locally: random requests are re-planned and looked up in the
/// exhaustive tables; adaptive ones are re-run through runAdaptiveSweep
/// and checked like a batch search.  With \p WithRefs, the first 64 are
/// also checked against the committed references.
ServeCheck checkServed(const std::vector<Planned> &Sched,
                       const std::vector<Outcome> &Out,
                       const RunOptions &Opts, bool WithRefs,
                       bool KeepMeasurements, Checker &Check) {
  ServeCheck SC;
  std::map<std::string, AppEngine> Local;
  for (size_t K = 0; K != Sched.size(); ++K) {
    if (!Out[K].Completed)
      continue;
    const TuneRequest &Req = Sched[K].Req;
    const std::string Key = "serve-mixed/req" + std::to_string(K);
    const bool WithRef = WithRefs && K < 64;
    Expected<TuneResult> Res = TuneResult::fromJson(Out[K].ResultJson);
    if (!Res || Res->Status != "completed") {
      Check.fail(Key + ": bad result frame: " + Out[K].ResultJson);
      continue;
    }
    const std::string AppTier = Req.App + "-" + Req.Space;
    auto It = Local.find(AppTier);
    if (It == Local.end())
      It = Local.emplace(AppTier, makeEngine(Req.App, Req.Space)).first;
    const AppEngine &E = It->second;
    const ConfigTable &Table = Opts.Refs->table(Req.App, Req.Space);

    SearchSummary S;
    if (serveStrategyIsPlannable(Req)) {
      SweepPlan Plan = planForRequest(*E.Eng, Req, 1);
      S.Key = Key;
      for (size_t Idx : Plan.Candidates) {
        ConfigEval Ev = Plan.Evals[Idx];
        auto T = Table.Time.find(Ev.FlatIndex);
        if (T == Table.Time.end()) {
          Check.fail(Key + ": planned config #" +
                     std::to_string(Ev.FlatIndex) + " is not in the table");
          continue;
        }
        ++S.Measured;
        if (!S.HasBest || T->second < S.BestTime) {
          S.HasBest = true;
          S.BestFlat = Ev.FlatIndex;
          S.BestTime = T->second;
        }
        Ev.TimeSeconds = T->second;
        if (KeepMeasurements)
          SC.Measurements.push_back({Req.App, Req.Space, std::move(Ev), false});
      }
      if (WithRef) {
        const SearchRef *R = Opts.Refs->search(Key);
        if (!R || R->Measured != S.Measured || R->BestFlat != S.BestFlat ||
            R->BestTime != S.BestTime)
          Check.fail(Key + ": differs from the committed reference");
      }
    } else {
      StrategyKind Kind = StrategyKind::Greedy;
      (void)parseStrategy(Req.Strategy, Kind);
      SweepReport Rep = runAdaptiveSweep(
          *E.Eng, Kind, strategyOptionsForRequest(Req, 1), SweepOptions());
      S = checkSearch(*Opts.Refs, Check, Key, Req.App, Req.Space, Rep.Outcome,
                      WithRef);
      // The local re-run simulated these already.
      if (KeepMeasurements)
        for (size_t Idx : Rep.Outcome.Candidates)
          SC.Measurements.push_back(
              {Req.App, Req.Space, Rep.Outcome.Evals[Idx], true});
    }
    std::string WantBest =
        S.HasBest ? E.App->space().describe(E.App->space().pointAt(S.BestFlat))
                  : "";
    if (Res->Measured != S.Measured || Res->BestTime != S.BestTime ||
        Res->Best != WantBest)
      Check.fail(Key + ": served " + std::to_string(Res->Measured) +
                 " configs, best '" + Res->Best + "'; local re-run expects " +
                 std::to_string(S.Measured) + ", best '" + WantBest + "'");
    if (K < 64)
      SC.Summaries.push_back(S);
    SC.Measured += S.Measured;
    if (S.HasBest)
      SC.Quality[Req.App].push_back(Table.BestTime / S.BestTime);
    SC.MeasuredFrac = std::max(SC.MeasuredFrac, double(S.Measured) /
                                                    double(Table.Time.size()));
  }
  return SC;
}

/// Simulated totals over the served measurements.  Random requests'
/// configs are simulated once more here, on the run's job count, and
/// must reproduce their table times; adaptive ones carry the results of
/// their local re-run.
SimTotals servedSimTotals(const std::vector<ServedConfig> &Served,
                          Checker &Check) {
  std::map<std::string, AppEngine> Local;
  for (const ServedConfig &C : Served)
    if (!Local.count(C.App + "-" + C.Tier))
      Local.emplace(C.App + "-" + C.Tier, makeEngine(C.App, C.Tier));
  std::atomic<uint64_t> Cycles{0}, WarpInstrs{0};
  ThreadPool Pool(benchJobs());
  parallelFor(Pool, Served.size(), 1, [&](size_t I) {
    const ServedConfig &C = Served[I];
    ConfigEval Ev = C.Ev;
    if (!C.Simulated) {
      Ev.Measured = false;
      if (!Local.at(C.App + "-" + C.Tier).Eng->evaluator().measure(Ev) ||
          Ev.TimeSeconds != C.Ev.TimeSeconds)
        Check.fail("served config #" + std::to_string(Ev.FlatIndex) +
                   " did not simulate to its table time");
    }
    Cycles.fetch_add(Ev.Sim.Cycles, std::memory_order_relaxed);
    WarpInstrs.fetch_add(Ev.Sim.IssuedWarpInstrs, std::memory_order_relaxed);
  });
  return {Cycles.load(), WarpInstrs.load()};
}

/// The configs served requests measured, by app and tier.
std::vector<StaticSet> servedConfigs(const std::vector<ServedConfig> &Served) {
  std::map<std::pair<std::string, std::string>, std::set<uint64_t>> Flats;
  for (const ServedConfig &C : Served)
    Flats[{C.App, C.Tier}].insert(C.Ev.FlatIndex);
  std::vector<StaticSet> Out;
  for (const auto &[AppTier, Set] : Flats)
    Out.push_back({AppTier.first, AppTier.second, {Set.begin(), Set.end()}});
  return Out;
}

/// One load on a daemon.
struct LoadStats {
  double SearchS = 0; ///< Load start until the last result.
  uint64_t Completed = 0, Failed = 0, Shed = 0;
  std::vector<double> LatencyMs, LateMs, AcceptMs, ExecMs;
  ServeCheck Checked;
  std::vector<Planned> Sched;
  std::vector<Outcome> Out;
};

/// Runs \p Sched against \p D, with \p Trace (when given) installed
/// for the load itself, then checks what was served.
LoadStats runLoad(const Daemon &D, std::vector<Planned> Sched,
                  const RunOptions &Opts, bool WithRefs, Tracer *Trace,
                  uint64_t *DepthMax, Checker &Check) {
  LoadStats L;
  L.Sched = std::move(Sched);
  {
    std::optional<ScopedTracer> Install;
    if (Trace)
      Install.emplace(Trace);
    driveLoad(D, L.Sched, L.Out, DepthMax, Check);
  }
  for (size_t K = 0; K != L.Out.size(); ++K) {
    const Outcome &O = L.Out[K];
    L.LateMs.push_back(O.LateS * 1e3);
    if (O.Shed)
      ++L.Shed;
    if (!O.Completed) {
      ++L.Failed;
      continue;
    }
    ++L.Completed;
    L.LatencyMs.push_back(O.LatencyS * 1e3);
    L.AcceptMs.push_back(O.AcceptS * 1e3);
    L.ExecMs.push_back(O.ExecS * 1e3);
    L.SearchS = std::max(L.SearchS, L.Sched[K].DueS + O.LatencyS);
  }
  L.Checked = checkServed(L.Sched, L.Out, Opts, WithRefs,
                          /*KeepMeasurements=*/DepthMax != nullptr, Check);
  return L;
}

/// Warm-up load, not measured: a long-lived daemon's users meet its
/// engine memos, allocator arenas and spool in their steady state, and
/// the first seconds of load run measurably slower than the rest.
void warmUp(const Daemon &D, const RunOptions &Opts, Checker &Check) {
  std::vector<Outcome> Out;
  driveLoad(D, makeSchedule(subSeed(Opts.Seed, 0x3a3a), warmUpSeconds(Opts)),
            Out, nullptr, Check);
  for (const Outcome &O : Out)
    if (!O.Completed)
      Check.fail("a warm-up request failed");
}

/// One open-loop window on a fresh, warmed-up daemon.
struct WindowStats {
  LoadStats Load;
  uint64_t DepthMax = 0;
  double RssGrowthMb = 0;
};

/// \p Trace, when given, records the window's load only; it must
/// outlive the call, because the daemon's threads may still close spans
/// while it drains.
WindowStats runServeWindow(const RunOptions &Opts, double WindowS,
                           const std::string &Tag, Tracer *Trace,
                           Checker &Check) {
  WindowStats W;
  Daemon D(Tag, Check);
  if (!D.running())
    return W;
  warmUp(D, Opts, Check);
  double Rss0 = rssMb();
  W.Load = runLoad(D, makeSchedule(Opts.Seed, WindowS), Opts,
                   Opts.Seed == Opts.Refs->RefSeed, Trace, &W.DepthMax, Check);
  W.RssGrowthMb = rssMb() - Rss0;
  return W;
}

RunResult runServe(const RunOptions &Opts, Checker &Check) {
  RunResult R;
  std::vector<double> Setup;
  if (!Opts.Trace) {
    // Daemon start-ups beside the one that serves the load, for a
    // steady set-up median.
    for (int I = 0; I != (Opts.Reduced ? 1 : ServeSetupRepeats); ++I) {
      Daemon D("setup" + std::to_string(I), Check);
      Setup.push_back(D.SetupS);
    }
    // Closed-loop phases on one warmed-up daemon: ServeConnections
    // clients each send their next request as soon as the last one's
    // result arrives, so a phase's time is set by the daemon's speed.
    // Phase 0 uses the run's seed (the committed references hold for its
    // first 64 requests); later phases draw fresh requests.
    std::vector<double> Search, Rate, Ops;
    std::map<std::string, std::vector<double>> Quality;
    double Frac = 0;
    Daemon D("load", Check);
    Setup.push_back(D.SetupS);
    if (!D.running())
      return R;
    warmUp(D, Opts, Check);
    Clock::time_point Start = Clock::now();
    const double LoadS = Opts.Seconds - 2.0 - warmUpSeconds(Opts);
    unsigned Phase = 0;
    do {
      const uint64_t Seed = passSeed(Opts.Seed, Phase);
      LoadStats L = runLoad(D,
                            makeRequests(Seed, Opts.Reduced ? 120
                                                            : PhaseRequests),
                            Opts, Seed == Opts.Refs->RefSeed, nullptr,
                            nullptr, Check);
      std::fprintf(stderr, "g80bench: phase %u: %zu requests in %.3f s\n",
                   Phase, L.Sched.size(), L.SearchS);
      if (Phase++ == 0 && !Opts.RecordRefs.empty())
        appendSearchRefs(Opts.RecordRefs, L.Checked.Summaries);
      R.Attempted += L.Sched.size();
      R.Failed += L.Failed;
      if (L.SearchS <= 0)
        continue;
      Search.push_back(L.SearchS);
      Rate.push_back(double(L.Checked.Measured) / L.SearchS);
      Ops.push_back(double(L.Completed) / L.SearchS);
      for (const auto &[App, Q] : L.Checked.Quality)
        Quality[App].insert(Quality[App].end(), Q.begin(), Q.end());
      Frac = std::max(Frac, L.Checked.MeasuredFrac);
    } while (!Opts.Reduced && secondsSince(Start) < LoadS);

    MetricSet &M = R.Metrics;
    M.set("setup_s", median(Setup), "s");
    M.set("search_s", median(Search), "s");
    M.set("configs_per_s", median(Rate), "1/s");
    M.set("peak_rss_mb", peakRssMb(), "MB");
    M.set("quality", worstAppQuality(Quality), "ratio");
    M.set("measured_frac", Frac, "ratio");
    M.set("ok_frac",
          R.Attempted ? 1.0 - double(R.Failed) / double(R.Attempted) : 0.0,
          "ratio");
    M.set("rps", median(Ops), "1/s");
    return R;
  }

  // Traced run: request latency under the open-loop load, on a window
  // without the tracer (the overhead baseline) and one under it.  The
  // window leaves room for set-up, the warm-ups, the drains and the checks.
  const double WindowS =
      Opts.Reduced ? 2.0 : std::max(7.0, Opts.Seconds - 3.0 - warmUpSeconds(Opts));
  WindowStats Base = runServeWindow(Opts, WindowS, "base", nullptr, Check);
  const std::string TracePath = tracePath(Opts);
  Expected<Tracer> Trace = Tracer::toFile(TracePath);
  if (!Trace) {
    Check.fail("trace: " + Trace.diag().Message);
    return R;
  }
  WindowStats W = runServeWindow(Opts, WindowS, "traced", &*Trace, Check);
  Trace->close();
  const LoadStats &L = W.Load;
  R.Attempted = Base.Load.Sched.size() + L.Sched.size();
  R.Failed = Base.Load.Failed + L.Failed;

  // Wire codec: the request and result frames of every served request.
  double CodecS = 0;
  uint64_t Codecs = 0;
  for (size_t K = 0; K != L.Out.size(); ++K) {
    if (!L.Out[K].Completed)
      continue;
    Clock::time_point C0 = Clock::now();
    Expected<TuneRequest> Req = TuneRequest::fromJson(L.Sched[K].Req.toJson());
    Expected<TuneResult> Res = TuneResult::fromJson(L.Out[K].ResultJson);
    if (!Req || !Res || Res->toJson() != L.Out[K].ResultJson)
      Check.fail("protocol round trip changed request " + std::to_string(K));
    CodecS += secondsSince(C0);
    ++Codecs;
  }

  std::vector<TracedSpan> Spans;
  std::string Err;
  if (!readTrace(TracePath, Spans, Err)) {
    Check.fail(Err);
    return R;
  }
  const std::map<std::string, SpanTotals> T = spanTotals(Spans);
  MetricSet &M = R.Metrics;
  setLayerDefaults(M);
  setProgramLayers(M, T, servedSimTotals(L.Checked.Measurements, Check));
  M.set("kernels.ir_instrs", double(irInstrs(servedConfigs(L.Checked.Measurements))),
        "count");
  M.set("serve.accept_ms", median(L.AcceptMs), "ms");
  M.set("serve.exec_ms", median(L.ExecMs), "ms");
  M.set("serve.p50_ms", quantile(L.LatencyMs, 0.50), "ms");
  M.set("serve.p95_ms", quantile(L.LatencyMs, 0.95), "ms");
  M.set("serve.shed", double(L.Shed), "count");
  M.set("serve.queue_depth_max", double(W.DepthMax), "count");
  M.set("serve.rss_growth_mb", W.RssGrowthMb, "MB");
  M.set("protocol.codec_us", Codecs ? CodecS / double(Codecs) * 1e6 : 0, "us");
  M.set("loadgen.late_p95_ms", quantile(L.LateMs, 0.95), "ms");
  M.set("trace.overhead_frac",
        quantile(L.LatencyMs, 0.5) / quantile(Base.Load.LatencyMs, 0.5) - 1.0,
        "ratio");
  R.LayerTable = layerTable("serve-mixed, seed " + std::to_string(Opts.Seed) +
                                ", " + std::to_string(L.Sched.size()) +
                                " requests at " +
                                std::to_string(int(ServeRateRps)) + " rps",
                            T);
  return R;
}

} // namespace

bool bench::isWorkload(const std::string &Name) {
  return Name == "sweep-small" || Name == "pareto-large" ||
         Name == "adaptive-large" || Name == "serve-mixed";
}

RunResult bench::runWorkload(const RunOptions &Opts, Checker &Check) {
  if (Opts.Workload == "serve-mixed")
    return runServe(Opts, Check);
  return runBatch(Opts, Check);
}
