//===- core/SweepDriver.h - Durable, resumable, isolated sweeps -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep-execution layer: the only code that measures, journals,
/// resumes, isolates and commits.  A SweepDriver runs either a SweepPlan
/// (the cheap static phase of a plannable strategy) or the probe rounds
/// of an adaptive SearchCursor, and gives every measurement the same
/// three protections:
///
///  - **Write-ahead journal** (support/Journal.h): every completed
///    evaluation — measured or quarantined — is appended as a checksummed,
///    fsync'd record before the sweep moves on, so a SIGKILL/OOM/power
///    loss at any instant forfeits at most the configuration in flight.
///
///  - **Resume**: with SweepOptions::Resume, a journal whose fingerprint
///    header matches the plan is replayed — already-completed
///    configurations are restored (bit-identical times) and skipped; a
///    torn final record from the kill point is truncated away.  A journal
///    from a different app/machine/strategy/seed/injection is rejected.
///    Replay is in order, one rule for both: the committer journals in
///    work-list order at any job count and across worker retries, so a
///    plan replays the journaled prefix of its candidates and each
///    adaptive round the journaled prefix of its probes.  A record that
///    does not match its position, or one left over after the sweep
///    replays, is refused.
///
///  - **Process isolation** (support/Subprocess.h): with
///    SweepOptions::Isolate, workers are forked per shard of candidates
///    and stream records back over a pipe.  A worker that segfaults,
///    exits nonzero, or blows its per-configuration wall-clock budget
///    costs only the in-flight configuration, which is retried once (with
///    backoff, in a fresh worker) before being quarantined as a
///    Simulate-stage WorkerCrashed/WorkerTimeout failure.  Where fork is
///    unavailable the sweep degrades to in-process execution with a
///    warning instead of failing.
///
/// SIGINT/SIGTERM during a driven sweep (see ScopedSweepSignalHandlers)
/// stop it at the next record boundary with SweepStatus::Interrupted; the
/// journal already holds everything completed, so `--resume` continues
/// where the interrupt landed.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_CORE_SWEEPDRIVER_H
#define G80TUNE_CORE_SWEEPDRIVER_H

#include "core/Search.h"
#include "support/Backoff.h"
#include "support/Journal.h"

#include <functional>
#include <string>
#include <vector>

namespace g80 {

class SearchCursor;

/// One progress observation, emitted from the committer after every
/// completed (measured or quarantined) record.  Counts include
/// journal-resumed configurations, so Done/Total is the sweep's true
/// position; FreshDone excludes them, so rates computed from successive
/// observations reflect this run's throughput only.
struct SweepProgress {
  size_t Done = 0;       ///< Candidates completed, including resumed.
  size_t FreshDone = 0;  ///< Candidates completed by this run.
  size_t Total = 0;      ///< Planned candidates (adaptive: the budget).
  size_t Quarantined = 0;
};

/// How a driven sweep should run.
struct SweepOptions {
  /// Journal file; empty disables durability.
  std::string JournalPath;
  /// Replay a matching journal instead of truncating it.
  bool Resume = false;
  /// Fork a worker per shard of candidates.  A configuration whose
  /// worker crashes or hangs is retried once, in a fresh worker, before
  /// it is quarantined.
  bool Isolate = false;
  /// Wall-clock budget per in-flight configuration in a worker.
  double TaskTimeoutSeconds = 30.0;
  /// Candidates per forked worker.
  size_t ShardSize = 8;
  /// Pacing between attempts: exponential with deterministic jitter,
  /// salted by the configuration's flat index (see support/Backoff.h).
  BackoffPolicy RetryBackoff;
  /// Fingerprint written to (and checked against) the journal header.
  JournalHeader Fingerprint;
  /// Worker threads for the in-process measurement path (1 = serial).
  /// Workers measure candidates into disjoint slots while the calling
  /// thread commits results strictly in plan order, so the journal bytes,
  /// SearchOutcome totals, best-config tie-breaking, and quarantine
  /// accounting are bit-identical for every job count.  Ignored (with a
  /// warning when > 1) under Isolate — those workers are processes.
  unsigned Jobs = 1;
  /// Test hook: request a graceful interrupt (as SIGTERM would) after
  /// this many freshly committed records, 0 = never.  Lets tests land a
  /// deterministic mid-sweep kill point under any job count.
  size_t InterruptAfterRecords = 0;
  /// Observer called from the committer thread after each completed
  /// record (`tune search --progress`).  Runs strictly in plan order and
  /// must not mutate sweep state; it cannot affect results, journal
  /// bytes, or quarantine accounting.
  std::function<void(const SweepProgress &)> OnProgress;
  /// Per-sweep cancellation hook, polled wherever the global interrupt
  /// flag is polled (record boundaries, worker-poll slices).  Returning
  /// true stops this sweep with SweepStatus::Interrupted without touching
  /// the process-wide flag — how the serve daemon enforces per-request
  /// deadlines and drains without killing sibling sweeps.
  std::function<bool()> ShouldStop;
};

enum class SweepStatus : uint8_t {
  Completed,   ///< Every planned candidate was measured or quarantined.
  Interrupted, ///< SIGINT/SIGTERM (or requestSweepInterrupt) stopped it;
               ///< the journal makes it resumable.
  Error,       ///< Setup failed (stale/corrupt journal, I/O); no sweep ran.
};

/// A driven sweep's full story.
struct SweepReport {
  SweepStatus Status = SweepStatus::Completed;
  SearchOutcome Outcome;

  /// Configurations restored from the journal instead of re-measured.
  size_t ResumedSkipped = 0;
  /// In-flight configurations retried in a fresh worker after a
  /// crash/hang.
  size_t WorkerRetries = 0;
  /// Isolation was requested but fork is unavailable; ran in-process.
  bool DegradedInProcess = false;
  /// The resumed journal ended in a torn record that was dropped.
  bool TornTailDropped = false;
  /// Human-readable notes (degradation, retries, torn tail).
  std::vector<std::string> Warnings;
  /// Set when Status == Error.
  Diagnostic Error;
};

/// Runs plans and adaptive searches durably.  The engine must outlive
/// the SweepDriver.
class SweepDriver {
public:
  SweepDriver(const SearchEngine &Engine, SweepOptions Opts)
      : Engine(Engine), Opts(std::move(Opts)) {}

  /// Executes the measurement phase of \p Plan under the configured
  /// durability/isolation regime.  Quarantined indices in the outcome are
  /// sorted (under either run) so interrupted + resumed runs compare
  /// equal to uninterrupted ones.
  SweepReport run(SweepPlan Plan) const;

  /// Runs an adaptive search: each of \p Cursor's rounds gets statics for
  /// its new proposals, replays the matching prefix of a resumed journal,
  /// then measures and commits the rest in proposal order through the
  /// same journal, isolation and parallel committer as a plan.  Stops
  /// once \p Budget records (replayed ones included) are journaled or the
  /// cursor converges.  Candidates lists the successful probes in probe
  /// order; Evals holds only probed configurations.
  SweepReport run(SearchCursor &Cursor, std::string Strategy,
                  uint64_t Budget) const;

private:
  const SearchEngine &Engine;
  SweepOptions Opts;
};

/// Bumps the sweep-interrupt counter that run() polls between records —
/// what the signal handlers call, exposed for tests.  The first request
/// asks for a graceful stop; a second is a force-quit escalation (see
/// sweepForceQuitRequested).
void requestSweepInterrupt();
/// Clears the counter (call before starting a fresh sweep).
void clearSweepInterrupt();
/// Whether at least one interrupt is pending (graceful stop).
bool sweepInterruptRequested();
/// Whether a second interrupt arrived while the first was being honored
/// — the operator insisting.  Long drains (the serve daemon's SIGTERM
/// handling) poll this to abandon graceful work and exit immediately;
/// everything journaled remains resumable.
bool sweepForceQuitRequested();

/// RAII: while alive, SIGINT and SIGTERM request a graceful sweep
/// interrupt instead of killing the process (a second signal escalates
/// to a force-quit request); previous dispositions are restored on
/// destruction.  The driver then flushes and reports
/// SweepStatus::Interrupted so the caller can exit with the distinct
/// "interrupted, resumable" code.
class ScopedSweepSignalHandlers {
public:
  ScopedSweepSignalHandlers();
  ~ScopedSweepSignalHandlers();
  ScopedSweepSignalHandlers(const ScopedSweepSignalHandlers &) = delete;
  ScopedSweepSignalHandlers &
  operator=(const ScopedSweepSignalHandlers &) = delete;

private:
  void *Saved = nullptr; ///< Opaque previous-disposition storage.
};

} // namespace g80

#endif // G80TUNE_CORE_SWEEPDRIVER_H
