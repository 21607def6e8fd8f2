//===- core/SweepDriver.cpp -----------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"

#include "core/EvalRecord.h"
#include "core/SearchStrategy.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <fstream>
#include <iterator>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace g80;

//===--- Graceful-shutdown flag and signal routing ----------------------------//

namespace {

// 0 = run, 1 = graceful stop requested, 2 = force-quit requested (the
// operator signalled twice).  A plain counter capped at 2: sig_atomic_t
// guarantees only single read/write atomicity, which this pattern needs.
volatile std::sig_atomic_t SweepInterruptFlag = 0;

extern "C" void sweepSignalHandler(int) {
  SweepInterruptFlag = SweepInterruptFlag < 1 ? 1 : 2;
}

struct SavedHandlers {
  void (*Int)(int);
  void (*Term)(int);
};

} // namespace

void g80::requestSweepInterrupt() {
  SweepInterruptFlag = SweepInterruptFlag < 1 ? 1 : 2;
}
void g80::clearSweepInterrupt() { SweepInterruptFlag = 0; }
bool g80::sweepInterruptRequested() { return SweepInterruptFlag != 0; }
bool g80::sweepForceQuitRequested() { return SweepInterruptFlag >= 2; }

ScopedSweepSignalHandlers::ScopedSweepSignalHandlers() {
  auto *S = new SavedHandlers;
  S->Int = std::signal(SIGINT, sweepSignalHandler);
  S->Term = std::signal(SIGTERM, sweepSignalHandler);
  Saved = S;
}

ScopedSweepSignalHandlers::~ScopedSweepSignalHandlers() {
  auto *S = static_cast<SavedHandlers *>(Saved);
  if (S->Int != SIG_ERR)
    std::signal(SIGINT, S->Int);
  if (S->Term != SIG_ERR)
    std::signal(SIGTERM, S->Term);
  delete S;
}

//===--- The driver ------------------------------------------------------------//

namespace {

/// Total attempts a configuration gets in isolated workers before it is
/// quarantined: the original try plus one retry.
constexpr unsigned MaxWorkerAttempts = 2;

Diagnostic sweepError(std::string Msg) {
  return makeDiag(ErrorCode::JournalError, Stage::Parse, std::move(Msg));
}

std::string actionWord(FaultAction A) {
  return A == FaultAction::Crash ? "crash" : "hang";
}

void sleepSeconds(double S) {
  if (S > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(S));
}

/// Everything run() threads through its helpers.
struct DriveState {
  SweepReport Rep;
  const SearchEngine &Engine;
  const SweepOptions &Opts;
  JournalWriter Writer;
  /// Flat indices already completed (journaled or freshly finished).
  std::unordered_set<uint64_t> Done;
  /// Per-flat-index worker failure count (for the retry-once policy).
  std::unordered_map<uint64_t, unsigned> Attempts;
  /// Records committed by this run (excludes resume replay) — drives the
  /// InterruptAfterRecords test hook.
  size_t FreshRecords = 0;
  /// Progress denominator: the plan's candidates or the adaptive budget.
  size_t Total = 0;
  /// Measure in forked shard workers (set once per sweep by
  /// chooseExecution), with this validated shard size.
  bool Isolated = false;
  size_t ShardSize = 1;

  DriveState(const SearchEngine &Engine, const SweepOptions &Opts)
      : Engine(Engine), Opts(Opts) {}

  SearchOutcome &out() { return Rep.Outcome; }

  /// Whether this sweep should stop: the process-wide interrupt flag (a
  /// signal) or the per-sweep ShouldStop hook (a deadline or drain).
  bool stopRequested() const {
    return sweepInterruptRequested() ||
           (Opts.ShouldStop && Opts.ShouldStop());
  }

  void warn(std::string Msg) { Rep.Warnings.push_back(std::move(Msg)); }

  SweepReport fail(Diagnostic Err) {
    Rep.Status = SweepStatus::Error;
    Rep.Error = std::move(Err);
    return std::move(Rep);
  }

  SweepReport finish(bool Finished) {
    // Deterministic regardless of execution/replay order, so interrupted +
    // resumed sweeps compare equal to uninterrupted ones.
    std::sort(out().Quarantined.begin(), out().Quarantined.end());
    Writer.close();
    Rep.Status = Finished ? SweepStatus::Completed : SweepStatus::Interrupted;
    return std::move(Rep);
  }

  /// Books Evals[Idx], just restored from a journal record, into the
  /// outcome without re-journaling it.
  void restore(size_t Idx) {
    const ConfigEval &E = out().Evals[Idx];
    if (E.failed())
      out().noteQuarantined(Idx);
    else if (E.Measured)
      out().noteMeasured(Idx);
    Done.insert(E.FlatIndex);
    ++Rep.ResumedSkipped;
  }

  /// Appends the record for a completed eval; a failing journal write
  /// degrades to non-durable execution (with a warning) rather than
  /// killing a healthy sweep.
  void journal(const ConfigEval &E) {
    if (!Writer.isOpen())
      return;
    TraceSpan Span("journal", E.FlatIndex);
    Expected<Unit> R = Writer.appendRecord(EvalRecord::fromEval(E).toJson());
    if (!R) {
      warn("journal write failed (" + R.diag().Message +
           "); continuing without durability");
      Writer.close();
    } else {
      traceCount("sweep.journal_records");
    }
  }

  /// Books a finished eval into the outcome and the journal.
  void complete(size_t Idx) {
    ConfigEval &E = out().Evals[Idx];
    if (E.failed()) {
      out().noteQuarantined(Idx);
      traceCount("sweep.quarantined");
    } else if (E.Measured) {
      out().noteMeasured(Idx);
      traceCount("sweep.measured");
      if (E.Sim.BandwidthFastPath)
        traceCount("sweep.fastbw");
    }
    Done.insert(E.FlatIndex);
    journal(E);
    ++FreshRecords;
    if (Opts.OnProgress) {
      SweepProgress P;
      P.Done = Done.size();
      P.FreshDone = FreshRecords;
      P.Total = Total;
      P.Quarantined = out().Quarantined.size();
      Opts.OnProgress(P);
    }
    if (Opts.InterruptAfterRecords != 0 &&
        FreshRecords == Opts.InterruptAfterRecords)
      requestSweepInterrupt();
  }

  /// Measures \p E in this process without committing it.  Armed
  /// crash/hang actions are converted to quarantine diagnostics —
  /// actually crashing would defeat the graceful degradation this path
  /// exists for.  Thread-safe on distinct evals: this is what parallel
  /// workers run, with commitment left to the plan-order committer.
  void measureOnly(ConfigEval &E) const {
    FaultAction A = Engine.evaluator().injector().actionAt(E.FlatIndex);
    if (A != FaultAction::None) {
      E.Failure = makeDiag(A == FaultAction::Crash ? ErrorCode::WorkerCrashed
                                                   : ErrorCode::WorkerTimeout,
                           Stage::Simulate,
                           "injected " + actionWord(A) +
                               " (simulated in-process) (config #" +
                               std::to_string(E.FlatIndex) + ")");
    } else {
      Engine.evaluator().measure(E); // Failure lands on E on false.
    }
  }

  /// Measures and commits Evals[Idx] — the serial in-process step.
  void measureInProcess(size_t Idx) {
    measureOnly(out().Evals[Idx]);
    complete(Idx);
  }

  /// Quarantines the in-flight victim of a worker failure.
  void quarantineVictim(size_t Idx, ErrorCode Code, const std::string &Why) {
    ConfigEval &E = out().Evals[Idx];
    E.Failure = makeDiag(Code, Stage::Simulate,
                         Why + " (config #" + std::to_string(E.FlatIndex) +
                             ", after " + std::to_string(MaxWorkerAttempts) +
                             " attempts)");
    complete(Idx);
  }
};

/// Sleeps \p Seconds in short slices, bailing out (false) when a stop is
/// requested mid-backoff so a deadline or drain is not blocked behind a
/// retry pause.
bool sleepUnlessStopped(DriveState &D, double Seconds) {
  while (Seconds > 0) {
    if (D.stopRequested())
      return false;
    double Slice = std::min(Seconds, 0.05);
    sleepSeconds(Slice);
    Seconds -= Slice;
  }
  return !D.stopRequested();
}

/// Polls \p Worker in short slices so a stop request (signal, deadline,
/// drain) cancels an in-flight shard within ~50ms instead of waiting out
/// the full task timeout.  Returns false when stopped (the worker is
/// killed; its unjournaled work will be re-measured on resume).
bool pollSliced(DriveState &D, Subprocess &Worker, std::string &Line,
                Subprocess::Poll &Out) {
  double Remaining = D.Opts.TaskTimeoutSeconds;
  for (;;) {
    if (D.stopRequested()) {
      Worker.kill();
      return false;
    }
    double Slice = std::min(Remaining, 0.05);
    Out = Worker.poll(Slice, Line);
    if (Out != Subprocess::Poll::Timeout)
      return true;
    Remaining -= Slice;
    if (Remaining <= 0)
      return true; // Out is Timeout: the real task-timeout budget ran out.
  }
}

/// The worker side: measure each shard config, streaming one EvalRecord
/// JSON line per completion.  Armed crash/hang actions genuinely
/// misbehave here — that is the failure mode the isolation layer exists
/// to contain.
void runShardInWorker(const SearchEngine &Engine,
                      const std::vector<ConfigEval> &Evals,
                      const std::vector<size_t> &Shard,
                      const Subprocess::Emit &Emit) {
  // The forked child inherits the parent's tracer (and its file
  // descriptor); recording from here would interleave with the parent's
  // writes.  The parent's "worker" span observes this shard instead.
  ScopedTracer MuteInChild(nullptr);
  for (size_t Idx : Shard) {
    ConfigEval E = Evals[Idx];
    switch (Engine.evaluator().injector().actionAt(E.FlatIndex)) {
    case FaultAction::Crash:
      std::raise(SIGSEGV);
      break;
    case FaultAction::Hang:
      for (;;)
        sleepSeconds(3600);
    case FaultAction::None:
      break;
    }
    Engine.evaluator().measure(E);
    Emit(EvalRecord::fromEval(E).toJson());
  }
}

/// Runs the remaining candidates in forked shard workers.  Returns false
/// when interrupted.
bool runIsolated(DriveState &D, std::deque<size_t> &Todo) {
  while (!Todo.empty()) {
    if (D.stopRequested())
      return false;

    // A config that already failed a worker retries alone in a fresh
    // worker, after a backoff, so a subsequent failure is unambiguously
    // its own fault.
    bool IsRetry = D.Attempts[D.out().Evals[Todo.front()].FlatIndex] > 0;
    size_t N = IsRetry ? 1 : std::min(D.ShardSize, Todo.size());
    if (!IsRetry) {
      // Never mix a to-be-retried config into a fresh shard mid-queue.
      for (size_t I = 1; I < N; ++I)
        if (D.Attempts[D.out().Evals[Todo[I]].FlatIndex] > 0) {
          N = I;
          break;
        }
    }
    std::vector<size_t> Shard(Todo.begin(), Todo.begin() + long(N));
    Todo.erase(Todo.begin(), Todo.begin() + long(N));
    // Spans the worker's whole lifetime (spawn, measurement streaming,
    // exit handling), tagged with the shard's first configuration.
    TraceSpan ShardSpan("worker", D.out().Evals[Shard[0]].FlatIndex);
    if (IsRetry) {
      uint64_t Flat = D.out().Evals[Shard[0]].FlatIndex;
      if (!sleepUnlessStopped(
              D, D.Opts.RetryBackoff.delaySeconds(D.Attempts[Flat], Flat)))
        return false;
    }

    Subprocess Worker =
        Subprocess::spawn([&](const Subprocess::Emit &Emit) {
          runShardInWorker(D.Engine, D.out().Evals, Shard, Emit);
        });
    if (!Worker.valid()) {
      // fork failed at runtime (resource exhaustion): degrade for this
      // shard rather than dying.
      if (!D.Rep.DegradedInProcess) {
        D.Rep.DegradedInProcess = true;
        D.warn("fork failed; degrading to in-process execution");
      }
      for (size_t Idx : Shard)
        D.measureInProcess(Idx);
      continue;
    }

    size_t Received = 0;
    // Handles the in-flight config after a worker crash/hang/garble:
    // requeue the untouched remainder, then either requeue the victim for
    // its one retry or quarantine it.
    auto FailInFlight = [&](ErrorCode Code, const std::string &Why) {
      for (size_t I = Shard.size(); I-- > Received + 1;)
        Todo.push_front(Shard[I]);
      size_t Victim = Shard[Received];
      unsigned &A = D.Attempts[D.out().Evals[Victim].FlatIndex];
      ++A;
      if (A < MaxWorkerAttempts) {
        ++D.Rep.WorkerRetries;
        traceCount("sweep.worker_retries");
        Todo.push_front(Victim);
      } else {
        D.quarantineVictim(Victim, Code, Why);
      }
    };

    bool ShardDone = false;
    while (!ShardDone) {
      std::string Line;
      Subprocess::Poll P;
      if (!pollSliced(D, Worker, Line, P))
        return false;
      switch (P) {
      case Subprocess::Poll::Line: {
        Expected<EvalRecord> R = EvalRecord::fromJson(Line);
        if (!R || Received >= Shard.size() ||
            R->Index != D.out().Evals[Shard[Received]].FlatIndex) {
          Worker.kill();
          FailInFlight(ErrorCode::WorkerCrashed,
                       "worker emitted a garbled record");
          ShardDone = true;
          break;
        }
        R->applyTo(D.out().Evals[Shard[Received]]);
        D.complete(Shard[Received]);
        ++Received;
        break;
      }
      case Subprocess::Poll::Exited: {
        WorkerExit X = Worker.exitStatus();
        if (Received == Shard.size() &&
            X.K == WorkerExit::Kind::CleanExit) {
          ShardDone = true;
          break;
        }
        std::string Why =
            X.K == WorkerExit::Kind::Signaled
                ? "worker crashed on signal " + std::to_string(X.Code)
                : "worker exited with status " + std::to_string(X.Code);
        if (Received < Shard.size())
          FailInFlight(ErrorCode::WorkerCrashed, Why);
        ShardDone = true;
        break;
      }
      case Subprocess::Poll::Timeout: {
        Worker.kill();
        FailInFlight(ErrorCode::WorkerTimeout,
                     "worker exceeded the " +
                         std::to_string(D.Opts.TaskTimeoutSeconds) +
                         "s task timeout");
        ShardDone = true;
        break;
      }
      }
    }
  }
  return true;
}

bool runInProcess(DriveState &D, std::deque<size_t> &Todo) {
  while (!Todo.empty()) {
    if (D.stopRequested())
      return false;
    size_t Idx = Todo.front();
    Todo.pop_front();
    D.measureInProcess(Idx);
  }
  return true;
}

/// The parallel in-process path.  Workers measure candidates into their
/// own (disjoint) Evals slots in whatever order the pool schedules them;
/// this thread is the single committer, folding results into the outcome
/// and the journal strictly in plan order.  Commit order is what the
/// journal format, noteMeasured's first-wins tie-breaking, and the
/// floating-point accumulation of TotalMeasuredSeconds all depend on, so
/// pinning it makes the sweep's journal and SearchOutcome bit-identical
/// to a serial run's regardless of job count or scheduling.
///
/// On interrupt only the contiguous committed prefix is durable — exactly
/// the serial semantics — and measured-but-uncommitted results are
/// discarded (they will be re-measured, deterministically, on resume).
bool runInProcessParallel(DriveState &D, std::deque<size_t> &Todo,
                          unsigned Jobs) {
  std::vector<size_t> Order(Todo.begin(), Todo.end());
  Todo.clear();
  size_t N = Order.size();
  if (N == 0)
    return true;

  std::mutex M;
  std::condition_variable Cv;
  std::vector<char> Ready(N, 0); // Guarded by M.
  std::atomic<bool> Cancel{false};

  ThreadPool Pool(unsigned(std::min<size_t>(Jobs, N)));
  for (size_t I = 0; I != N; ++I) {
    Pool.submit([&D, &M, &Cv, &Ready, &Cancel, &Order, I] {
      if (!Cancel.load(std::memory_order_acquire))
        D.measureOnly(D.out().Evals[Order[I]]);
      {
        std::lock_guard<std::mutex> L(M);
        Ready[I] = 1;
      }
      Cv.notify_one();
    });
  }

  size_t Next = 0;
  bool Interrupted = false;
  while (Next != N) {
    if (D.stopRequested()) {
      Interrupted = true;
      break;
    }
    {
      std::unique_lock<std::mutex> L(M);
      if (!Ready[Next]) {
        // Bounded wait so a signal arriving between checks still stops
        // the sweep promptly.
        Cv.wait_for(L, std::chrono::milliseconds(50));
        continue;
      }
    }
    D.complete(Order[Next]);
    ++Next;
  }

  if (Interrupted)
    Cancel.store(true, std::memory_order_release);
  // Drain before the locals above go out of scope (cancelled tasks finish
  // immediately without measuring).
  Pool.wait();
  return !Interrupted;
}

/// Picks the execution regime once per sweep, with its warnings.
/// \p Remaining is the known work list size (0 when rounds arrive later,
/// as in an adaptive search, where no shard-size cap applies).
void chooseExecution(DriveState &D, size_t Remaining) {
  if (!D.Opts.Isolate)
    return;
  if (!subprocessSupported()) {
    D.Rep.DegradedInProcess = true;
    D.warn("process isolation is unavailable on this platform; "
           "running in-process");
    return;
  }
  D.Isolated = true;
  if (D.Opts.Jobs > 1)
    D.warn("--jobs is ignored with --isolate (isolation workers are "
           "processes, one shard at a time)");
  // Oversubscription (a shard larger than the candidate list) would just
  // put everything into one worker, which is rarely what the caller
  // meant, so cap it and say so instead of silently obliging.
  D.ShardSize = D.Opts.ShardSize;
  if (D.ShardSize == 0) {
    D.warn("--shard 0 is invalid; using 1");
    D.ShardSize = 1;
  }
  if (Remaining != 0 && D.ShardSize > Remaining) {
    D.warn("--shard " + std::to_string(D.ShardSize) + " exceeds the " +
           std::to_string(Remaining) +
           " remaining candidates; capping the shard size at the "
           "candidate count");
    D.ShardSize = Remaining;
  }
}

/// Measures and commits \p Todo in order under the chosen regime.
/// Returns false when interrupted.
bool measureBatch(DriveState &D, std::deque<size_t> &Todo) {
  if (D.Isolated)
    return runIsolated(D, Todo);
  unsigned Jobs = std::max(1u, D.Opts.Jobs);
  return Jobs > 1 && Todo.size() > 1 ? runInProcessParallel(D, Todo, Jobs)
                                     : runInProcess(D, Todo);
}

/// Opens the journal, if any, for appending.  On resume, a journal with a
/// matching fingerprint is reopened past its last valid record, and its
/// records are returned for replay.
Expected<std::deque<std::string>> openJournal(DriveState &D) {
  const SweepOptions &Opts = D.Opts;
  if (Opts.JournalPath.empty())
    return std::deque<std::string>{};
  bool Exists = std::ifstream(Opts.JournalPath).good();
  if (!Opts.Resume || !Exists) {
    if (Opts.Resume)
      D.warn("journal '" + Opts.JournalPath +
             "' does not exist yet; starting a fresh sweep");
    Expected<JournalWriter> W =
        JournalWriter::create(Opts.JournalPath, Opts.Fingerprint);
    if (!W)
      return W.takeDiag();
    D.Writer = W.takeValue();
    return std::deque<std::string>{};
  }
  Expected<JournalContents> C = readJournal(Opts.JournalPath);
  if (!C)
    return C.takeDiag();
  if (!C->Header.matches(Opts.Fingerprint))
    return sweepError(
        "journal '" + Opts.JournalPath +
        "' was written by a different sweep (app/machine/strategy/"
        "seed/injection fingerprint mismatch); refusing to resume");
  D.Rep.TornTailDropped = C->DroppedTornTail;
  if (C->DroppedTornTail)
    D.warn("dropped a torn final journal record (the kill point); "
           "that configuration will be re-measured");
  Expected<JournalWriter> W =
      JournalWriter::append(Opts.JournalPath, C->ValidBytes);
  if (!W)
    return W.takeDiag();
  D.Writer = W.takeValue();
  return std::deque<std::string>(std::make_move_iterator(C->Records.begin()),
                                 std::make_move_iterator(C->Records.end()));
}

/// Restores the journaled prefix of \p Order (positions into Evals) from
/// the front of \p Replay.  The committer journals in work-list order at
/// any job count and across worker retries, so a resumed journal must
/// hold that order's prefix; anything else belongs to a different sweep.
/// Returns how many positions were restored.
Expected<size_t> replayInOrder(DriveState &D, std::deque<std::string> &Replay,
                               const std::vector<size_t> &Order) {
  size_t N = 0;
  for (; N != Order.size() && !Replay.empty(); ++N) {
    Expected<EvalRecord> R = EvalRecord::fromJson(Replay.front());
    if (!R)
      return R.takeDiag();
    ConfigEval &E = D.out().Evals[Order[N]];
    if (R->Index != E.FlatIndex || R->Point != E.Point)
      return sweepError("journal record for config #" +
                        std::to_string(R->Index) +
                        " does not match the regenerated sweep; refusing "
                        "to resume");
    Replay.pop_front();
    R->applyTo(E);
    D.restore(Order[N]);
  }
  return N;
}

/// The error for records left over once the whole sweep has replayed.
Diagnostic surplusRecords() {
  return sweepError("journal holds more records than the sweep replays; "
                    "refusing to resume");
}

} // namespace

SweepReport SweepDriver::run(SweepPlan Plan) const {
  DriveState D(Engine, Opts);
  SearchOutcome &Out = D.out();
  Out = SearchOutcome::fromPlan(std::move(Plan));
  D.Total = Out.Candidates.size();

  // A plan replays the journaled prefix of its candidates.
  Expected<std::deque<std::string>> Replay = openJournal(D);
  if (!Replay)
    return D.fail(Replay.takeDiag());
  Expected<size_t> Replayed = replayInOrder(D, *Replay, Out.Candidates);
  if (!Replayed)
    return D.fail(Replayed.takeDiag());
  if (!Replay->empty())
    return D.fail(surplusRecords());

  std::deque<size_t> Todo(Out.Candidates.begin() + ptrdiff_t(*Replayed),
                          Out.Candidates.end());
  chooseExecution(D, Todo.size());
  return D.finish(measureBatch(D, Todo));
}

SweepReport SweepDriver::run(SearchCursor &Cursor, std::string Strategy,
                             uint64_t Budget) const {
  const Evaluator &Eval = Engine.evaluator();
  DriveState D(Engine, Opts);
  SearchOutcome &Out = D.out();
  Out.Strategy = std::move(Strategy);
  Budget = std::max<uint64_t>(1, Budget);
  D.Total = size_t(Budget);

  // Each round replays the journaled prefix of its probes.
  Expected<std::deque<std::string>> Replay = openJournal(D);
  if (!Replay)
    return D.fail(Replay.takeDiag());
  chooseExecution(D, 0);

  std::unordered_map<uint64_t, size_t> PosOf; // flat -> position in Evals.
  // Backstop against cursors that can only re-propose known points
  // (possible once a small space is fully explored): rounds past this are
  // treated as convergence, never an error.
  const uint64_t RoundLimit = 256 + 16 * Budget;
  unsigned Jobs = std::max(1u, Opts.Jobs);

  bool Interrupted = false;
  for (uint64_t Round = 1;; ++Round) {
    if (D.stopRequested()) {
      Interrupted = true;
      break;
    }
    if (D.Done.size() >= Budget)
      break; // Allowance spent (possibly entirely during replay).
    std::vector<uint64_t> Proposals = Cursor.nextRound();
    if (Proposals.empty())
      break; // Cursor converged.
    if (Round > RoundLimit) {
      D.warn("adaptive search hit the round backstop (" +
             std::to_string(RoundLimit) + " rounds); stopping");
      break;
    }

    // Unique proposals in first-appearance order; statics for the ones
    // never probed before.
    std::vector<uint64_t> Unique, Fresh;
    {
      std::unordered_set<uint64_t> Seen;
      for (uint64_t Flat : Proposals)
        if (Seen.insert(Flat).second) {
          Unique.push_back(Flat);
          if (!PosOf.count(Flat))
            Fresh.push_back(Flat);
        }
    }
    for (ConfigEval &E : Eval.evaluateSubset(Fresh, Jobs)) {
      size_t Pos = Out.Evals.size();
      PosOf.emplace(E.FlatIndex, Pos);
      Out.Evals.push_back(std::move(E));
      if (Out.Evals[Pos].usable())
        ++Out.ValidCount;
      else if (Out.Evals[Pos].failed())
        Out.noteQuarantined(Pos);
    }

    // The round's measurement work list: usable and not yet journaled.
    // Static rejects are deterministic and cheaply recomputed, so they
    // are fed to the cursor but never journaled or budgeted.
    std::vector<size_t> Probes;
    for (uint64_t Flat : Unique) {
      size_t Pos = PosOf.at(Flat);
      if (Out.Evals[Pos].usable() && !D.Done.count(Flat))
        Probes.push_back(Pos);
    }

    // Replay the journaled prefix, then measure the rest.
    Expected<size_t> Replayed = replayInOrder(D, *Replay, Probes);
    if (!Replayed)
      return D.fail(Replayed.takeDiag());
    std::deque<size_t> Todo(Probes.begin() + ptrdiff_t(*Replayed),
                            Probes.end());

    // Budget truncation: measure only what fits; exhaustion completes the
    // search (the strategy spent its allowance).
    bool BudgetExhausted = D.Done.size() + Todo.size() >= Budget;
    if (BudgetExhausted)
      Todo.resize(size_t(Budget) - D.Done.size());
    Interrupted = !measureBatch(D, Todo);
    for (size_t Pos : Probes) {
      const ConfigEval &E = Out.Evals[Pos];
      if (D.Done.count(E.FlatIndex) && E.Measured && !E.failed())
        Out.Candidates.push_back(Pos);
    }
    if (Interrupted || BudgetExhausted)
      break;

    // Feed the cursor every proposal's outcome, in proposal order.
    std::vector<ProbeResult> Feed;
    Feed.reserve(Proposals.size());
    for (uint64_t Flat : Proposals) {
      const ConfigEval &E = Out.Evals[PosOf.at(Flat)];
      Feed.push_back({Flat, E.Measured && !E.failed(), E.TimeSeconds});
    }
    Cursor.feed(Feed);
  }

  if (!Interrupted && !Replay->empty())
    return D.fail(surplusRecords());
  return D.finish(!Interrupted);
}
