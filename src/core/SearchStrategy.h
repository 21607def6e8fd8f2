//===- core/SearchStrategy.h - Pluggable search strategies -------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strategy registry over large configuration spaces.  Two families:
///
///  - **Plannable** strategies (exhaustive, pareto, cluster, random)
///    decide their full candidate set up front from static metrics alone.
///    They produce a SweepPlan, which serve and fleet can also shard.
///
///  - **Adaptive** strategies (greedy, anneal, genetic) decide each next
///    probe from earlier measurements.  They are expressed as a
///    SearchCursor — a deterministic generator of probe *rounds* — whose
///    rounds are replayed against the journal on resume.
///
/// Both run through SweepDriver (runStrategy picks the entry point), so
/// journaling, resume, `--jobs`, process isolation, progress and stop
/// hooks behave the same for every strategy.
///
/// Everything is seeded-deterministic: the same (app, machine, strategy,
/// seed, budget, space) always probes the same configurations in the same
/// order, at any `--jobs`.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_CORE_SEARCHSTRATEGY_H
#define G80TUNE_CORE_SEARCHSTRATEGY_H

#include "core/Search.h"
#include "core/SweepDriver.h"

#include <memory>
#include <string_view>

namespace g80 {

/// Every search strategy the tuner knows.
enum class StrategyKind {
  Exhaustive, ///< Measure every valid configuration.
  Pareto,     ///< Paper §5.2: measure the Pareto-optimal subset.
  Cluster,    ///< Pareto subset, one representative per metric cluster.
  Random,     ///< Budget uniformly random valid configurations.
  Greedy,     ///< Random-restart hill climbing on one-step neighbors.
  Anneal,     ///< Parallel Metropolis chains with a geometric cooldown.
  Genetic,    ///< Generational tournament selection + crossover/mutation.
};

/// "exhaustive", "pareto", "cluster", "random", "greedy", "anneal",
/// "genetic".
const char *strategyName(StrategyKind Kind);

/// Parses a strategy name; returns false on anything unknown.
bool parseStrategy(std::string_view Name, StrategyKind &Kind);

/// Whether the strategy has an up-front candidate plan (SweepDriver
/// path).  Adaptive strategies go through runAdaptiveSweep instead.
bool strategyIsPlannable(StrategyKind Kind);

/// Whether --budget participates in the strategy (and its fingerprint).
bool strategyUsesBudget(StrategyKind Kind);

/// All strategies, in a stable order (bench/CI iterate over this).
const std::vector<StrategyKind> &allStrategies();

/// Knobs shared by every strategy.
struct StrategyOptions {
  uint64_t Seed = 1;
  /// Measurement-attempt budget for budgeted strategies (random draws K;
  /// adaptive strategies stop once this many probes have been journaled).
  uint64_t Budget = 16;
  /// Worker threads for static evaluation and measurement; results and
  /// journal bytes are identical for any value.
  unsigned Jobs = 1;
};

/// Plans a plannable strategy (dispatches to the SearchEngine plan*
/// methods).  Fatal if \p Kind is adaptive.
SweepPlan planForStrategy(const SearchEngine &Engine, StrategyKind Kind,
                          const StrategyOptions &Opts);

/// One probe outcome fed back to an adaptive cursor.
struct ProbeResult {
  uint64_t FlatIndex = 0;
  /// The configuration measured successfully.  False covers inexpressible
  /// points, resource-invalid executables, and quarantined measurements —
  /// the cursor only needs "no usable time here".
  bool Usable = false;
  double TimeSeconds = 0; ///< Valid only when Usable.
};

/// A deterministic adaptive search: nextRound() proposes a batch of flat
/// indices to probe, feed() delivers their results (parallel to the
/// proposal list), and an empty round ends the search.  Cursor state must
/// depend only on the seed and the fed results — never on wall clock,
/// job count, or journal state — so a resumed run regenerates the exact
/// probe sequence.
class SearchCursor {
public:
  virtual ~SearchCursor() = default;
  virtual std::vector<uint64_t> nextRound() = 0;
  virtual void feed(const std::vector<ProbeResult> &Round) = 0;
};

/// Builds the cursor for an adaptive \p Kind.  \p Expressible is the
/// app's expressible flat-index screen (Evaluator::expressibleIndices).
/// Fatal if \p Kind is plannable.
std::unique_ptr<SearchCursor>
makeSearchCursor(StrategyKind Kind, const ConfigSpace &Space,
                 std::vector<uint64_t> Expressible,
                 const StrategyOptions &Opts);

/// Runs an adaptive strategy's cursor through SweepDriver, so every
/// SweepOptions knob applies, Isolate included.  Budget counts journaled
/// measurement attempts, including replayed ones, so an interrupted run
/// resumes into the same total.  The journal bytes are identical for any
/// job count and with or without isolation.
SweepReport runAdaptiveSweep(const SearchEngine &Engine, StrategyKind Kind,
                             const StrategyOptions &Strategy,
                             const SweepOptions &Opts);

/// Runs any strategy: plans and drives a plannable one, or runs an
/// adaptive one through runAdaptiveSweep.
SweepReport runStrategy(const SearchEngine &Engine, StrategyKind Kind,
                        const StrategyOptions &Strategy = {},
                        const SweepOptions &Opts = {});

/// The journal fingerprint header for running \p Kind on \p Engine's app
/// and machine over the \p Space tier.  Extra is \p InjectSpec, then
/// "|fastbw" when the engine's bandwidth fast path is on (it changes
/// measured results), then "|lint" when the lint gate matters: with a
/// \p Plan only if the plan holds a lint quarantine (a clean space
/// journals identically with or without the gate); without one (adaptive
/// strategies evaluate statics lazily) whenever the gate is armed.
JournalHeader sweepFingerprint(const SearchEngine &Engine, StrategyKind Kind,
                               const StrategyOptions &Strategy,
                               std::string_view Space,
                               const SweepPlan *Plan = nullptr,
                               std::string_view InjectSpec = {});

} // namespace g80

#endif // G80TUNE_CORE_SEARCHSTRATEGY_H
