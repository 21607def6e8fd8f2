//===- sim/Simulator.cpp --------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Hot-path layout: the per-issue loop dominates whole-sweep time, so the
// simulator decodes the trace once into flat DecodedOp records (operand
// registers, issue cost, and post-issue latency all precomputed, with
// scoreboard operands that in-order issue proves always ready pruned —
// see pruneStaticReady) and keeps
// all per-warp state in parallel SoA arrays (state, PC, loop depth, cached
// earliest-issue cycle) so scheduler decisions touch dense cache lines
// instead of striding over per-warp structs.
//
// Two scheduler cores share that state (SimOptions::Engine):
//
//  - Scan: the reference core.  Every issue slot round-robin-scans all
//    resident warps from the warp after the last issuer and takes the
//    first one whose cached StallUntil has arrived; when none can issue,
//    a full rescan finds the minimum wake cycle and the clock jumps there.
//
//  - Event (default): the same schedule computed without the scans.  The
//    SM holds at most MaxThreadsPerSM/WarpSize = 24 resident warps, so
//    warp sets are single 64-bit masks: warps with ready operands in
//    ReadyM, warps needing a fetch/retire check in FetchM, and stalled
//    warps in StalledM paired with their cached StallUntil plus the exact
//    minimum (MinWake) — a two-level wake calendar.  Issue selection is
//    one ctz over ReadyM|FetchM rotated to round-robin order; a warp that
//    just issued parks in FetchM and its next operand-ready time is
//    resolved when the rotation next reaches it (as the scan engine
//    does), usually after its operands have arrived; and when nothing is
//    issueable the clock jumps straight to MinWake.
//    Consecutive GlobalMem ops from the same warp are issued in one fused
//    step that batches the sub-cycle memory-queue accounting into local
//    accumulators, entered only when no other warp is ready, fetchable,
//    or due to wake before the run would end.  On top of that, the event
//    core detects exact steady-state periods of the whole SM at a loop
//    anchor and replays them in O(state) instead of O(issues) — see the
//    "Periodic steady-state fast-forward" section below.
//
// Soundness of the wake calendar: a warp's cached StallUntil is computed
// from its own scoreboard only, and a warp's scoreboard entries are
// written only by the warp's own issues — so once a stalled warp's
// StallUntil is recorded it can never change until that warp issues again,
// and the recorded wake cycle is exact, never an estimate.  Warps enter
// the calendar only from the fetch-resolve passes, leave it
// only by being drained into ReadyM once the clock reaches their wake
// cycle (debug builds assert the drained warp is actually issueable right
// then), and cannot be relaunched or barrier-released while stalled
// (relaunch touches Finished warps, release touches AtBarrier warps).
// MinWake is maintained as the exact minimum: lowered on insert,
// recomputed over the survivors on every drain.
//
// Round-robin tie-breaks are preserved exactly: all warps whose wake cycle
// has arrived sit in ReadyM before selection, and selection walks the mask
// in the same rotated order the scan engine walks the warp array, so warps
// becoming ready at the same cycle issue in the same order and the two
// engines are bit-identical (cycles, stalls, memwait, diagnostics) —
// asserted across the app config spaces by tests/SimEngineTest.cpp and
// bench/sim_engine_perf.
//
// Warp retirement stays lazy in both engines (detected when the scheduler
// next touches the exhausted warp, not eagerly after its last issue) —
// eager retirement would move block-relaunch and barrier-release points
// and change cycle counts, and results here must be bit-identical run to
// run and engine to engine.  The event engine keeps an exhausted warp in
// FetchM and retires it when selection or the advance pass reaches it,
// which is the same point the scan engine's walk would.
//
// A machine description with more than 64 resident warps per SM (no
// modeled G80 part has more than 24) falls back to the scan core; the
// engines are bit-identical, so the fallback is invisible in results.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "ptx/Kernel.h"
#include "ptx/ResourceEstimator.h"
#include "ptx/StaticProfile.h"
#include "sim/Trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace g80;

namespace {

constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();

uint64_t nanosSince(std::chrono::steady_clock::time_point T0) {
  auto D = std::chrono::steady_clock::now() - T0;
  return uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(D).count());
}

/// A trace entry with everything the issue loop needs precomputed, so the
/// per-issue work is array reads instead of operand-kind switches and
/// latency-class calls.
struct DecodedOp {
  TraceEntry::Kind K = TraceEntry::Kind::Instr;
  LatencyClass LC = LatencyClass::Alu;
  uint8_t NumScore = 0;   ///< Entries of Score[] to scoreboard-check.
  bool HasDst = false;
  bool IsLoad = false;    ///< GlobalMem only: Ld (writes Dst) vs St.
  bool SyntheticCtl = false;
  bool DivergentBar = false;
  uint32_t Score[5];      ///< Register ids of A/B/C/AddrBase/Dst operands.
  uint32_t Dst = 0;       ///< Valid when HasDst.
  uint32_t IssueCost = 0; ///< Issue-port occupancy cycles.
  uint64_t ReadyDelta = 0;     ///< Non-mem: Dst ready at Cycle + this.
  uint64_t MemServiceSub = 0;  ///< GlobalMem: queue service in 1/65536 cyc.
  uint64_t TripCount = 0;      ///< LoopBegin.
  uint32_t Match = 0;          ///< LoopEnd -> index of its LoopBegin.
};

/// Per-warp execution state.  Lives in the simulator's parallel SoA arrays
/// (WState/WPC/WLoopDepth/WStall) so scheduler scans read dense vectors.
enum class WarpState : uint8_t { Running, AtBarrier, Finished };

/// Per-resident-block context.
struct BlockCtx {
  bool Occupied = false;
  unsigned FirstWarp = 0; // Index into the warp arrays.
  unsigned NumWarps = 0;
  unsigned ActiveWarps = 0;
  unsigned BarArrived = 0;
};

class SMSimulator {
public:
  SMSimulator(const TraceProgram &Prog, const MachineModel &Machine,
              const Occupancy &Occ, uint64_t BlocksForThisSM,
              const SimOptions &Opts)
      : Machine(Machine), Occ(Occ), BlocksRemaining(BlocksForThisSM),
        Opts(Opts), NumRegs(Prog.NumRegs), MaxLoopDepth(Prog.MaxLoopDepth) {
    // Bandwidth: service cycles per byte, in 1/65536ths of a cycle so the
    // queue stays integral and deterministic.
    double BytesPerCycle = Machine.globalBytesPerCyclePerSM();
    assert(BytesPerCycle > 0 && "machine without global bandwidth");
    SubCyclesPerByte =
        static_cast<uint64_t>(65536.0 / BytesPerCycle + 0.5);

    decode(Prog);

    unsigned Slots = Occ.BlocksPerSM;
    NumWarps = Slots * Occ.WarpsPerBlock;
    MasksValid = NumWarps <= 64;
    Blocks.resize(Slots);
    WState.assign(NumWarps, WarpState::Finished);
    WPC.assign(NumWarps, 0);
    WLoopDepth.assign(NumWarps, 0);
    WStall.assign(NumWarps, Never);
    WarpBlock.resize(NumWarps);
    RegReadyPool.assign(size_t(NumWarps) * NumRegs, 0);
    Pending.resize(NumWarps);
    PendingFloor.assign(NumWarps, 0);
    LoopPool.assign(size_t(NumWarps) * std::max(1u, MaxLoopDepth), 0);
    for (unsigned S = 0; S != Slots; ++S) {
      Blocks[S].FirstWarp = S * Occ.WarpsPerBlock;
      Blocks[S].NumWarps = Occ.WarpsPerBlock;
      for (unsigned W = 0; W != Occ.WarpsPerBlock; ++W)
        WarpBlock[Blocks[S].FirstWarp + W] = S;
      tryLaunchBlock(S);
    }
  }

  /// Engine work counters; setup time is recorded by the caller.
  SimEngineStats Stats;

  Expected<SimResult> run() {
    Expected<SimResult> R =
        Opts.EngineSel == SimOptions::Engine::Event && MasksValid
            ? runLoop</*EventDriven=*/true>()
            : runLoop</*EventDriven=*/false>();
    Stats.LiveIssues = Res.IssuedWarpInstrs - Stats.SkippedIssues;
    return R;
  }

private:
  template <bool EventDriven> Expected<SimResult> runLoop() {
    while (true) {
      bool Issued = EventDriven ? issueOneEvent() : issueOneScan();
      if (!Issued) {
        if (allIdle())
          break;
        bool Advanced = EventDriven ? advanceEvent() : advanceScan();
        if (!Advanced)
          return makeDiag(
              ErrorCode::SimulatorDeadlock, Stage::Simulate,
              "SM deadlocked after " + std::to_string(Cycle) +
                  " cycles: no resident warp can become ready (barrier in "
                  "divergent control flow or warp starvation)");
      }
      if (Res.IssuedWarpInstrs > Opts.MaxIssues)
        return makeDiag(ErrorCode::SimulatorTimeout, Stage::Simulate,
                        "watchdog: exceeded the issue budget of " +
                            std::to_string(Opts.MaxIssues) +
                            " warp instructions");
      if (Cycle > Opts.MaxCycles)
        return makeDiag(ErrorCode::SimulatorTimeout, Stage::Simulate,
                        "watchdog: exceeded the cycle budget of " +
                            std::to_string(Opts.MaxCycles) + " cycles");
    }
    Res.Cycles = Cycle;
    Res.Seconds = Machine.cyclesToSeconds(static_cast<double>(Cycle));
    Res.Occ = Occ;
    return Res;
  }

  //===--- Trace decoding --------------------------------------------------//
  void decode(const TraceProgram &Prog) {
    unsigned BaseIssue = Machine.issueCyclesPerWarpInstr();
    Ops.reserve(Prog.Entries.size());
    for (const TraceEntry &E : Prog.Entries) {
      DecodedOp D;
      D.K = E.K;
      D.SyntheticCtl = E.SyntheticCtl;
      D.DivergentBar = E.DivergentBar;
      D.TripCount = E.TripCount;
      D.Match = E.Match;
      if (E.K == TraceEntry::Kind::Instr) {
        const Instruction &I = E.I;
        D.LC = I.latencyClass();
        auto Consider = [&](const Operand &O) {
          if (O.isReg())
            D.Score[D.NumScore++] = O.getReg().Id;
        };
        Consider(I.A);
        Consider(I.B);
        Consider(I.C);
        Consider(I.AddrBase);
        if (I.Dst.isValid()) {
          D.Score[D.NumScore++] = I.Dst.Id; // WAW hazard.
          D.HasDst = true;
          D.Dst = I.Dst.Id;
        }
        D.IssueCost = BaseIssue;
        switch (D.LC) {
        case LatencyClass::Alu:
          D.ReadyDelta = D.IssueCost + Machine.ArithLatencyCycles;
          break;
        case LatencyClass::Sfu:
          // The two SFUs take WarpSize/SFUs cycles to swallow a warp,
          // holding the issue port correspondingly longer.
          D.IssueCost = Machine.WarpSize / Machine.SFUsPerSM;
          D.ReadyDelta = D.IssueCost + Machine.SfuLatencyCycles;
          break;
        case LatencyClass::SharedMem:
          D.ReadyDelta = D.IssueCost + Machine.SharedLatencyCycles;
          break;
        case LatencyClass::ConstMem:
          D.ReadyDelta = D.IssueCost + Machine.ConstLatencyCycles;
          break;
        case LatencyClass::TexMem:
          // Long latency, but served from the texture cache (Table 1
          // assumes 2D locality), so no DRAM queue charge.
          D.ReadyDelta = D.IssueCost + Machine.TexLatencyCycles;
          break;
        case LatencyClass::GlobalMem:
          D.MemServiceSub = uint64_t(I.EffBytesPerThread) *
                            Machine.WarpSize * SubCyclesPerByte;
          D.IsLoad = I.Op == Opcode::Ld;
          break;
        case LatencyClass::Barrier:
          break;
        }
      }
      Ops.push_back(D);
    }
    pruneStaticReady();
    selectAnchor();
  }

  /// Drops scoreboard operands that provably can never bind earliestIssue's
  /// max, so the per-issue scoreboard walk reads only registers that might
  /// actually stall the warp.  Soundness: a warp issues its trace in order
  /// and every issue advances the global clock by exactly the op's
  /// IssueCost right then (stalls, barrier waits, and clock jumps only add
  /// more), so a register defined with latency ReadyDelta is certainly
  /// ready once the issue costs of the ops executed since the definition
  /// sum to ReadyDelta or more.  The analysis runs a static issue clock
  /// (the IssueCost sum along the trace) and records, per register, the
  /// clock value by which it is certainly ready; an operand whose ready
  /// clock is at or below the current one is dead work and is dropped.
  /// GlobalMem load destinations get an unknown (infinite) ready clock —
  /// their ready time depends on the dynamic queue state.  Loops are
  /// handled as structured regions with a max-merge join at the loop
  /// head (entry state joined with the back-edge state), so
  /// loop-carried definitions — an accumulator written a full body length
  /// before its next read — prune too, while a first iteration reading a
  /// pre-loop definition stays conservative.  Pruning changes which
  /// registers earliestIssue reads, never the cycle it computes, so
  /// results stay bit-identical (the skipped reads are exactly those that
  /// cannot exceed the running max's floor of the current cycle).
  ///
  /// Cost: nothing is done per register per op.  Absolute ready clocks
  /// need no per-op decrement, and the loop-head join visits only the
  /// registers the body wrote (read off the undo log that also restores
  /// the head state after the trial pass), so the pass is linear in trace
  /// entries times two passes per loop level (one trial, one pruning).
  void pruneStaticReady() {
    if (Ops.empty() || NumRegs == 0)
      return;
    // Forward map: LoopBegin index -> its LoopEnd index.
    LoopEndOf.assign(Ops.size(), 0);
    for (size_t I = 0; I != Ops.size(); ++I)
      if (Ops[I].K == TraceEntry::Kind::LoopEnd)
        LoopEndOf[Ops[I].Match] = uint32_t(I);
    PruneState S;
    S.Ready.assign(NumRegs, 0); // Every register ready at launch.
    analyzeRange(0, Ops.size(), S, /*Prune=*/true);
  }

  static constexpr int64_t UnknownReady = std::numeric_limits<int64_t>::max();

  /// The pruning analysis state at one trace point.
  struct PruneState {
    int64_t Clock = 0;          ///< Static issue clock.
    std::vector<int64_t> Ready; ///< Per register: certainly ready by.
    /// (register, previous Ready) per write, so a loop head can roll the
    /// state back after a trial pass over its body.
    std::vector<std::pair<uint32_t, int64_t>> Undo;

    void write(uint32_t R, int64_t V) {
      Undo.emplace_back(R, Ready[R]);
      Ready[R] = V;
    }
    void rollback(size_t Mark) {
      while (Undo.size() > Mark) {
        Ready[Undo.back().first] = Undo.back().second;
        Undo.pop_back();
      }
    }
  };

  /// Transfer function for entries [Begin, End): updates \p S in place;
  /// rewrites Score lists only when \p Prune (the stable final pass).
  void analyzeRange(size_t Begin, size_t End, PruneState &S, bool Prune) {
    for (size_t I = Begin; I < End; ++I) {
      DecodedOp &D = Ops[I];
      if (D.K == TraceEntry::Kind::LoopBegin) {
        size_t LoopEnd = LoopEndOf[I];
        analyzeLoopBody(I + 1, LoopEnd, S, Prune);
        I = LoopEnd; // The body ran at least once; resume past its end.
        continue;
      }
      if (D.K != TraceEntry::Kind::Instr)
        continue;
      if (Prune) {
        uint8_t Keep = 0;
        for (uint8_t J = 0; J != D.NumScore; ++J) {
          uint32_t R = D.Score[J];
          if (S.Ready[R] > S.Clock)
            D.Score[Keep++] = R;
        }
        D.NumScore = Keep;
      }
      if (D.HasDst)
        S.write(D.Dst, D.LC == LatencyClass::GlobalMem
                           ? UnknownReady
                           : S.Clock + int64_t(D.ReadyDelta));
      S.Clock += D.IssueCost;
    }
  }

  /// Loop-head join: max-merges the first-iteration entry state with the
  /// back-edge state (later ready is the conservative direction), then
  /// runs the pruning pass over the body with the joined state, which
  /// over-approximates every iteration.  The back-edge state is rebased to
  /// the head clock by the body's length.  A register the body never
  /// writes only gets closer to ready around the back edge, so the join
  /// need not look at it; one the body writes leaves the body with its
  /// last write's ready clock, which does not depend on the head state.
  /// So one trial pass yields the fixpoint.
  void analyzeLoopBody(size_t Begin, size_t End, PruneState &S, bool Prune) {
    const int64_t Head = S.Clock;
    std::vector<std::pair<uint32_t, int64_t>> BackEdge;
    auto trialPass = [&] {
      size_t Mark = S.Undo.size();
      analyzeRange(Begin, End, S, /*Prune=*/false);
      const int64_t Len = S.Clock - Head;
      BackEdge.clear();
      for (size_t J = Mark; J != S.Undo.size(); ++J) {
        uint32_t R = S.Undo[J].first;
        int64_t V = S.Ready[R];
        if (V > S.Clock) // Still pending at the back edge.
          BackEdge.emplace_back(R, V == UnknownReady ? V : V - Len);
      }
      S.rollback(Mark);
      S.Clock = Head;
    };
    trialPass();
    for (const auto &[R, V] : BackEdge)
      if (V > S.Ready[R])
        S.write(R, V);
#ifndef NDEBUG
    trialPass();
    for (const auto &[R, V] : BackEdge)
      assert(V <= S.Ready[R] && "loop-head join is not a fixpoint");
#endif
    analyzeRange(Begin, End, S, Prune);
  }

  //===--- Periodic steady-state fast-forward (event engine) ----------------//
  //
  // Loop-dominated kernels spend almost all simulated time replaying the
  // same warp-interleaved schedule: once every resident warp is inside the
  // hot loop, the whole SM's state recurs exactly — shifted in time and
  // with loop trip counters decremented — every iteration.  The event
  // engine exploits that: at an anchor (warp 0 selected to issue the first
  // instruction of the hottest loop's body) it captures a canonical
  // clock-relative snapshot of every state word that can influence future
  // scheduling.  When two anchor snapshots compare equal, the span between
  // them is a period, and by induction every subsequent period evolves
  // identically — same issues in the same order, every timestamp shifted
  // by the period's cycle delta, every monotone counter advanced by its
  // per-period delta.  applySkip() then replays K whole periods in O(state)
  // instead of O(issues).
  //
  // Exactness, not approximation.  The snapshot covers PCs, warp states,
  // loop depths, the scheduler masks and RRNext, pending (future)
  // scoreboard timestamps and stall cycles relative to the clock, the
  // memory-queue backlog, and per-block barrier/active counts.  Past
  // timestamps canonicalize to zero: the transition function only ever
  // compares them against the current or a later cycle, so any value at or
  // below the clock behaves identically forever.  Loop trip counters and
  // the block-launch budget are deliberately excluded (they are monotone,
  // so they would never compare equal) and handled by periodBound(): K is
  // capped so no counter crosses its loop exit, no in-period block
  // relaunch runs out of queued blocks, and no watchdog budget is crossed
  // — so loop exits, the launch tail, and even timeout diagnostics land on
  // exactly the instruction they would have without the skip.  The scan
  // engine never fast-forwards, which keeps it a purely mechanical
  // reference: the differential suites verify the skip bit-for-bit.

  /// Monotone counters sampled at an anchor; differences between two
  /// matching anchors are the per-period deltas applySkip() replays.
  struct PeriodCounters {
    uint64_t Cycle = 0, Issued = 0, Synth = 0, Stall = 0, MemWait = 0,
             BlocksRun = 0, BlocksRem = 0;
  };

  /// One anchor's recurrence detector: the previous snapshot plus an
  /// exponential backoff so phase-drifting configurations stop paying for
  /// snapshots they will never match.  A match against an older snapshot
  /// is still exact — k anchor-to-anchor spans compose into one longer
  /// period.
  struct PeriodTracker {
    uint32_t AnchorPC = 0;
    uint32_t Seen = 0;  ///< Anchor hits, for the backoff stride.
    uint32_t Fails = 0; ///< Consecutive snapshot mismatches.
    bool Have = false;
    PeriodCounters Prev;
    std::vector<uint64_t> Canon, Trips;
  };

  /// Picks the fast-forward anchors.  Any recurring (warp, PC) point
  /// works as an anchor — the choice only affects how often recurrence is
  /// tested — and the two dominant recurrences get one tracker each:
  ///  - the body of the most-iterated loop (loop-dominated kernels:
  ///    matmul's K-loop, cp's atom tiles), skipped iteration-wise;
  ///  - the first instruction of the trace, which warp 0 revisits on
  ///    every relaunch of its block slot (relaunch-dominated kernels:
  ///    sad's thousands of short blocks per SM), skipped wave-wise with K
  ///    bounded by the remaining-block budget.
  /// Loops with fewer than four trips are not worth the snapshot traffic;
  /// the trace-start anchor is always worth one tracker.
  void selectAnchor() {
    uint64_t BestTrip = 3;
    uint32_t LoopPC = 0;
    bool HaveLoop = false;
    uint32_t FirstPC = 0;
    bool HaveFirst = false;
    for (size_t I = 0; I != Ops.size(); ++I) {
      if (!HaveFirst && Ops[I].K == TraceEntry::Kind::Instr) {
        FirstPC = uint32_t(I);
        HaveFirst = true;
      }
      if (Ops[I].K != TraceEntry::Kind::LoopBegin ||
          Ops[I].TripCount <= BestTrip)
        continue;
      for (size_t J = I + 1; J != Ops.size(); ++J)
        if (Ops[J].K == TraceEntry::Kind::Instr) {
          LoopPC = uint32_t(J);
          BestTrip = Ops[I].TripCount;
          HaveLoop = true;
          break;
        }
    }
    if (HaveLoop)
      Trk[NumTrk++].AnchorPC = LoopPC;
    if (HaveFirst && (!HaveLoop || FirstPC != LoopPC))
      Trk[NumTrk++].AnchorPC = FirstPC;
    AnchorWarp = NumTrk != 0 ? 0 : ~0u;
  }

  /// Canonical clock-relative snapshot.  \p Canon gets every comparable
  /// state word; \p Trips gets the raw live loop counters (same warp/depth
  /// order as the canonical stream, which pins their meaning: equal Canon
  /// implies equal shape).  Finished warps contribute only their state tag
  /// — their scoreboard and loop slots are dead until a relaunch resets
  /// them.  A live warp's scoreboard is written as its pending registers
  /// only — count, then (register, cycles until ready) in register order —
  /// which encodes exactly the clock-relative scoreboard (past timestamps
  /// canonicalize to zero) without visiting the other NumRegs entries.
  void captureCanon(std::vector<uint64_t> &Canon,
                    std::vector<uint64_t> &Trips) {
    Canon.clear();
    Trips.clear();
    Canon.push_back(ReadyM);
    Canon.push_back(FetchM);
    Canon.push_back(StalledM);
    Canon.push_back(RRNext);
    Canon.push_back(MinWake == Never ? Never : MinWake - Cycle);
    uint64_t NowSub = Cycle << 16;
    Canon.push_back(MemFreeSub > NowSub ? MemFreeSub - NowSub : 0);
    for (const BlockCtx &B : Blocks) {
      Canon.push_back(B.Occupied);
      Canon.push_back(B.ActiveWarps);
      Canon.push_back(B.BarArrived);
    }
    for (unsigned W = 0; W != NumWarps; ++W) {
      Canon.push_back(uint64_t(WState[W]) << 32 | WPC[W]);
      if (WState[W] == WarpState::Finished)
        continue;
      Canon.push_back(WLoopDepth[W]);
      Canon.push_back((StalledM >> W) & 1 ? WStall[W] - Cycle : 0);
      const uint64_t *R = regReady(W);
      const std::vector<uint32_t> &P = compactPending(W);
      Canon.push_back(P.size());
      for (uint32_t J : P) {
        Canon.push_back(J);
        Canon.push_back(R[J] - Cycle);
      }
      const uint64_t *L = loopStack(W);
      for (unsigned D = 0; D != WLoopDepth[W]; ++D)
        Trips.push_back(L[D]);
    }
  }

  /// Largest K such that replaying K periods skips no loop exit, no
  /// failing block relaunch, and no watchdog trip.  Zero means "match,
  /// but nothing safely skippable".
  uint64_t periodBound(const PeriodTracker &T) const {
    const PeriodCounters &PrevCnt = T.Prev;
    const std::vector<uint64_t> &PrevTrips = T.Trips;
    uint64_t DC = CurCnt.Cycle - PrevCnt.Cycle;
    if (DC == 0 || CurCnt.Cycle > Opts.MaxCycles ||
        CurCnt.Issued > Opts.MaxIssues)
      return 0;
    uint64_t K = Never;
    for (size_t I = 0; I != CurTrips.size(); ++I) {
      if (CurTrips[I] > PrevTrips[I])
        return 0; // A counter refilled mid-period: not a steady orbit.
      uint64_t Dec = PrevTrips[I] - CurTrips[I];
      // Keep every decremented counter >= 1 so the first loop exit is
      // simulated live, exactly where it belongs.
      if (Dec != 0)
        K = std::min(K, (CurTrips[I] - 1) / Dec);
    }
    uint64_t DB = PrevCnt.BlocksRem - CurCnt.BlocksRem;
    if (DB != 0) {
      // Keep >= one period's worth of queued blocks so every relaunch
      // inside the replayed span still succeeds; the first failing
      // relaunch (the drain-out tail) runs live.
      uint64_t Q = CurCnt.BlocksRem / DB;
      K = std::min(K, Q == 0 ? 0 : Q - 1);
    }
    // Land at or below the watchdog budgets: a timeout still fires on the
    // same instruction it would have without the skip.
    K = std::min(K, (Opts.MaxCycles - CurCnt.Cycle) / DC);
    if (uint64_t DI = CurCnt.Issued - PrevCnt.Issued)
      K = std::min(K, (Opts.MaxIssues - CurCnt.Issued) / DI);
    return K == Never ? 0 : K;
  }

  /// Replays \p K whole periods in O(state): pending (future) timestamps
  /// shift by K times the period's cycle delta, linear counters add K
  /// times their per-period delta, live loop counters drop K times their
  /// per-period decrement.  Past timestamps stay past and are untouched.
  /// Runs right after captureCanon(), so the pending lists are compacted
  /// and hold exactly the future timestamps.
  void applySkip(uint64_t K, const PeriodTracker &T) {
    const PeriodCounters &PrevCnt = T.Prev;
    const std::vector<uint64_t> &PrevTrips = T.Trips;
    uint64_t Shift = K * (CurCnt.Cycle - PrevCnt.Cycle);
    size_t TripAt = 0;
    for (unsigned W = 0; W != NumWarps; ++W) {
      if (WState[W] == WarpState::Finished)
        continue;
      uint64_t *R = regReady(W);
      for (uint32_t J : Pending[W])
        R[J] += Shift;
      if ((StalledM >> W) & 1)
        WStall[W] += Shift;
      uint64_t *L = loopStack(W);
      for (unsigned D = 0; D != WLoopDepth[W]; ++D, ++TripAt)
        L[D] = CurTrips[TripAt] - K * (PrevTrips[TripAt] - CurTrips[TripAt]);
    }
    if (MemFreeSub > (Cycle << 16))
      MemFreeSub += Shift << 16;
    if (MinWake != Never)
      MinWake += Shift;
    Cycle += Shift;
    Res.IssuedWarpInstrs += K * (CurCnt.Issued - PrevCnt.Issued);
    Stats.SkippedIssues += K * (CurCnt.Issued - PrevCnt.Issued);
    Res.SyntheticCtlInstrs += K * (CurCnt.Synth - PrevCnt.Synth);
    Res.IssueStallCycles += K * (CurCnt.Stall - PrevCnt.Stall);
    Res.MemQueueWaitCycles += K * (CurCnt.MemWait - PrevCnt.MemWait);
    Res.BlocksRun += K * (CurCnt.BlocksRun - PrevCnt.BlocksRun);
    BlocksRemaining -= K * (PrevCnt.BlocksRem - CurCnt.BlocksRem);
  }

  /// Anchor hit: warp 0 is about to issue the anchor instruction.
  /// Mismatches back off exponentially (phase-drifting configurations
  /// never settle, and the snapshot must not become their overhead); a
  /// match against an older snapshot is still exact — k anchor-to-anchor
  /// spans compose into one longer period.
  void attemptPeriodSkip(PeriodTracker &T) {
    if (++T.Seen & ((1u << std::min(T.Fails, 6u)) - 1))
      return;
    auto T0 = std::chrono::steady_clock::now();
    ++Stats.Snapshots;
    snapshotAndSkip(T);
    Stats.SnapshotNs += nanosSince(T0);
  }

  /// Tests the current snapshot against \p T's previous one and
  /// fast-forwards on a match.
  void snapshotAndSkip(PeriodTracker &T) {
    captureCanon(CurCanon, CurTrips);
    CurCnt = {Cycle,           Res.IssuedWarpInstrs, Res.SyntheticCtlInstrs,
              Res.IssueStallCycles, Res.MemQueueWaitCycles, Res.BlocksRun,
              BlocksRemaining};
    if (T.Have && CurCanon == T.Canon && CurTrips.size() == T.Trips.size()) {
      T.Fails = 0;
      ++Stats.PeriodMatches;
      if (uint64_t K = periodBound(T)) {
        applySkip(K, T);
        // The jump rewrote state; both trackers re-detect afresh.
        for (int I = 0; I != NumTrk; ++I)
          Trk[I].Have = false;
        return;
      }
      // Periodic, but nothing safely skippable (e.g. final iterations):
      // fall through and roll the snapshot forward.
    } else if (T.Have) {
      ++T.Fails;
    }
    std::swap(T.Canon, CurCanon);
    std::swap(T.Trips, CurTrips);
    T.Prev = CurCnt;
    T.Have = true;
  }

  //===--- Block lifecycle --------------------------------------------------//
  static constexpr uint64_t bit(unsigned I) { return uint64_t(1) << I; }

  void tryLaunchBlock(unsigned Slot) {
    BlockCtx &B = Blocks[Slot];
    if (BlocksRemaining == 0) {
      B.Occupied = false;
      return;
    }
    --BlocksRemaining;
    ++Res.BlocksRun;
    B.Occupied = true;
    B.ActiveWarps = B.NumWarps;
    B.BarArrived = 0;
    for (unsigned W = 0; W != B.NumWarps; ++W) {
      unsigned Idx = B.FirstWarp + W;
      WState[Idx] = WarpState::Running;
      WPC[Idx] = 0;
      WLoopDepth[Idx] = 0;
      WStall[Idx] = Never;
      // Relaunch reaches only Finished warps, whose Ready/Stalled bits
      // are clear; they re-enter scheduling through the fetch mask.
      if (MasksValid)
        FetchM |= bit(Idx);
      // Every register ready now: only the listed ones can be later.
      uint64_t *RegReady = regReady(Idx);
      for (uint32_t R : Pending[Idx])
        RegReady[R] = Cycle;
      Pending[Idx].clear();
      PendingFloor[Idx] = Cycle;
    }
  }

  uint64_t *regReady(unsigned Idx) {
    return RegReadyPool.data() + size_t(Idx) * NumRegs;
  }
  uint64_t *loopStack(unsigned Idx) {
    return LoopPool.data() + size_t(Idx) * std::max(1u, MaxLoopDepth);
  }

  /// Sets warp \p Idx's register \p R ready at \p T, a future cycle, and
  /// keeps the pending list complete.  Invariant: a register is listed iff
  /// its timestamp exceeds PendingFloor[Idx] (the clock at the list's last
  /// compaction or reset), so every future timestamp is listed, and none
  /// twice — a timestamp at or below the floor was never listed or was
  /// dropped when the floor rose past it.
  void setReady(unsigned Idx, uint64_t *RegReady, uint32_t R, uint64_t T) {
    assert(T > PendingFloor[Idx] && "scoreboard write in the past");
    if (__builtin_expect(RegReady[R] <= PendingFloor[Idx], 0))
      listPending(Idx, R);
    RegReady[R] = T;
  }

  /// The rare half of setReady, kept out of line so the issue path stays
  /// a compare and a store.
  __attribute__((noinline)) void listPending(unsigned Idx, uint32_t R) {
    Pending[Idx].push_back(R);
  }

  /// Drops warp \p Idx's expired pending entries, raises its floor to the
  /// clock, and sorts the survivors into the canonical register order.
  const std::vector<uint32_t> &compactPending(unsigned Idx) {
    const uint64_t *RegReady = regReady(Idx);
    std::vector<uint32_t> &P = Pending[Idx];
    P.erase(std::remove_if(P.begin(), P.end(),
                           [&](uint32_t R) { return RegReady[R] <= Cycle; }),
            P.end());
    std::sort(P.begin(), P.end());
    PendingFloor[Idx] = Cycle;
    return P;
  }

  //===--- Trace stepping ---------------------------------------------------//
  /// Advances warp \p Idx's PC past loop bookkeeping to the next
  /// instruction.  Returns false when the warp has finished the kernel.
  /// Touches only the warp's own PC/loop state — never the clock or the
  /// statistics — which is what lets the event engine fetch eagerly.
  /// Idempotent once the PC rests on an instruction (or the trace end).
  bool fetch(unsigned Idx) {
    if (WPC[Idx] < Ops.size() && Ops[WPC[Idx]].K == TraceEntry::Kind::Instr)
      return true; // Already resting on an instruction.
    uint64_t *Loops = loopStack(Idx);
    uint32_t PC = WPC[Idx];
    uint32_t Depth = WLoopDepth[Idx];
    bool Found = false;
    while (PC < Ops.size()) {
      const DecodedOp &D = Ops[PC];
      if (D.K == TraceEntry::Kind::Instr) {
        Found = true;
        break;
      }
      if (D.K == TraceEntry::Kind::LoopBegin) {
        assert(Depth < MaxLoopDepth && "loop stack overflow");
        Loops[Depth++] = D.TripCount;
        ++PC;
      } else { // LoopEnd
        assert(Depth > 0 && "loop end without begin");
        uint64_t &Rem = Loops[Depth - 1];
        assert(Rem > 0 && "loop underflow");
        --Rem;
        if (Rem == 0) {
          --Depth;
          ++PC;
        } else {
          PC = D.Match + 1;
        }
      }
    }
    WPC[Idx] = PC;
    WLoopDepth[Idx] = Depth;
    return Found;
  }

  /// Earliest cycle at which warp \p Idx's next instruction can issue
  /// (operand scoreboard, including the destination for WAW hazards).
  /// Requires fetch() to have succeeded.
  uint64_t earliestIssue(unsigned Idx) {
    const DecodedOp &D = Ops[WPC[Idx]];
    const uint64_t *RegReady = regReady(Idx);
    uint64_t T = 0;
    for (uint8_t J = 0; J != D.NumScore; ++J)
      T = std::max(T, RegReady[D.Score[J]]);
    return T;
  }

  //===--- Shared issue/retire ----------------------------------------------//
  void finishWarp(unsigned Idx) {
    WState[Idx] = WarpState::Finished;
    if (MasksValid)
      FetchM &= ~bit(Idx);
    BlockCtx &B = Blocks[WarpBlock[Idx]];
    assert(B.ActiveWarps > 0 && "warp finished in an empty block");
    if (--B.ActiveWarps == 0)
      tryLaunchBlock(WarpBlock[Idx]);
  }

  template <bool EventDriven> void issue(unsigned Idx) {
    const DecodedOp &D = Ops[WPC[Idx]];
    BlockCtx &B = Blocks[WarpBlock[Idx]];

    ++Res.IssuedWarpInstrs;
    if (D.SyntheticCtl)
      ++Res.SyntheticCtlInstrs;

    // PC moves below; the cached StallUntil was for the old op.  The event
    // engine tracks issueability in its masks and writes WStall only when
    // a warp actually stalls, so the invalidation is scan-only.
    if (!EventDriven)
      WStall[Idx] = Never;

    switch (D.LC) {
    case LatencyClass::GlobalMem: {
      uint64_t NowSub = Cycle << 16;
      uint64_t StartSub = std::max(NowSub, MemFreeSub);
      Res.MemQueueWaitCycles += (StartSub - NowSub) >> 16;
      MemFreeSub = StartSub + D.MemServiceSub;
      if (D.IsLoad && D.HasDst)
        setReady(Idx, regReady(Idx), D.Dst,
                 (MemFreeSub >> 16) + Machine.GlobalLatencyCycles);
      // Stores are fire-and-forget: they consume bandwidth only.
      break;
    }
    case LatencyClass::Barrier: {
      ++WPC[Idx];
      Cycle += D.IssueCost;
      if (D.DivergentBar) {
        // Barrier under divergence: on hardware part of the warp never
        // arrives, so the block hangs.  Park the warp without counting its
        // arrival; the watchdog reports the resulting deadlock.
        WState[Idx] = WarpState::AtBarrier;
        return;
      }
      ++B.BarArrived;
      if (B.BarArrived == B.ActiveWarps) {
        // Last warp: release everyone.
        B.BarArrived = 0;
        unsigned Base = B.FirstWarp;
        for (unsigned J = 0; J != B.NumWarps; ++J)
          if (WState[Base + J] == WarpState::AtBarrier) {
            WState[Base + J] = WarpState::Running;
            if (MasksValid) // Released: StallUntil is Never.
              FetchM |= bit(Base + J);
          }
      } else {
        WState[Idx] = WarpState::AtBarrier;
      }
      return;
    }
    default:
      if (D.HasDst)
        setReady(Idx, regReady(Idx), D.Dst, Cycle + D.ReadyDelta);
      break;
    }

    ++WPC[Idx];
    Cycle += D.IssueCost;
  }

  bool allIdle() const {
    for (const BlockCtx &B : Blocks)
      if (B.Occupied)
        return false;
    return BlocksRemaining == 0;
  }

  //===--- Scan engine ------------------------------------------------------//
  /// Tries to issue one instruction from any ready warp (round-robin from
  /// the warp after the last issuer — the §2.1 zero-overhead interleave).
  /// Returns false if no warp can issue at the current cycle.
  bool issueOneScan() {
    unsigned N = NumWarps;
    if (N == 0)
      return false;
    unsigned Idx = RRNext;
    for (unsigned Step = 0; Step != N; ++Step) {
      if (WState[Idx] == WarpState::Running) {
        if (Blocks[WarpBlock[Idx]].Occupied) {
          if (WStall[Idx] == Never) {
            if (!fetch(Idx)) {
              finishWarp(Idx);
              goto NextWarp;
            }
            WStall[Idx] = earliestIssue(Idx);
          }
          if (WStall[Idx] <= Cycle) {
            issue</*EventDriven=*/false>(Idx);
            RRNext = Idx + 1 == N ? 0 : Idx + 1;
            return true;
          }
        }
      }
    NextWarp:
      if (++Idx == N)
        Idx = 0;
    }
    return false;
  }

  /// No warp was ready: jump to the earliest time one becomes ready.
  /// Returns false when no warp can ever become ready again — a deadlock
  /// (barrier in divergent control flow or warp starvation).
  bool advanceScan() {
    uint64_t Next = Never;
    for (unsigned Idx = 0; Idx != NumWarps; ++Idx) {
      if (WState[Idx] != WarpState::Running)
        continue;
      if (!Blocks[WarpBlock[Idx]].Occupied)
        continue;
      if (WStall[Idx] == Never) {
        if (!fetch(Idx)) {
          // Retire exhausted warps here too so barrier counts stay exact.
          finishWarp(Idx);
          // A block launch may have made new warps ready right now.
          Next = std::min(Next, Cycle);
          continue;
        }
        WStall[Idx] = earliestIssue(Idx);
      }
      Next = std::min(Next, WStall[Idx]);
    }
    if (Next == Never)
      return false;
    // A warp resolved during this pass can already be issueable — e.g. a
    // just-relaunched warp, or one whose remaining scoreboard operands
    // were all pruned at decode so earliestIssue reports cycle 0.  Time
    // never moves backwards: stay at the current cycle and let the next
    // issue pass take it (the event engine's ReadyM case does the same).
    if (Next < Cycle)
      Next = Cycle;
    Res.IssueStallCycles += Next - Cycle;
    Cycle = Next;
    return true;
  }

  //===--- Event engine -----------------------------------------------------//
  /// Invariant: every Running warp of an occupied block is in exactly one
  /// of ReadyM (woken from the calendar or resolved by the advance pass:
  /// next instruction fetched and issueable now — and forever after,
  /// since a warp's scoreboard is written only by its own issues and the
  /// clock never goes backwards), StalledM (operand-ready cycle WStall >
  /// Cycle, minimum cached in MinWake), or FetchM (a warp that just
  /// issued, or a relaunched or barrier-released one, whose next fetch
  /// and scoreboard check — and possible lazy retirement — is still
  /// pending).  AtBarrier and Finished warps are in no mask.

  /// Records warp \p Idx as stalled until \p S (> Cycle).
  void markStalled(unsigned Idx, uint64_t S) {
    assert(S > Cycle && "stalled warp is already issueable");
    StalledM |= bit(Idx);
    if (S < MinWake)
      MinWake = S;
  }

  /// Moves every stalled warp whose wake cycle has arrived into the ready
  /// mask and recomputes the exact MinWake over the survivors.  Cheap in
  /// the common case: one compare when no wake is due.
  void drainCalendar() {
    if (MinWake > Cycle)
      return;
    uint64_t Due = 0;
    uint64_t NewMin = Never;
    for (uint64_t Bits = StalledM; Bits != 0; Bits &= Bits - 1) {
      unsigned Idx = unsigned(__builtin_ctzll(Bits));
      uint64_t S = WStall[Idx];
      if (S <= Cycle) {
        Due |= bit(Idx);
        // Calendar soundness: the cached wake cycle must still be the
        // warp's true earliest-issue cycle — nothing may have written its
        // scoreboard while it was stalled.
        assert(WState[Idx] == WarpState::Running &&
               "non-running warp drained from the wake calendar");
        assert(earliestIssue(Idx) == S &&
               "stalled warp's cached StallUntil went stale");
      } else if (S < NewMin) {
        NewMin = S;
      }
    }
    StalledM &= ~Due;
    ReadyM |= Due;
    MinWake = NewMin;
  }

  /// Issues as many consecutive GlobalMem ops from warp \p Idx as the
  /// schedule allows, batching the sub-cycle memory-queue accounting into
  /// local accumulators written back once.  Entered right after \p Idx
  /// issued a GlobalMem op and only when \p Idx is the sole scheduling
  /// candidate; each continuation additionally requires that no stalled
  /// warp wakes at or before the next issue slot, so the scan engine
  /// would provably pick \p Idx again.  Leaves \p Idx unclassified (the
  /// caller parks it in FetchM) and the clock/statistics written back.
  void fuseMemRun(unsigned Idx) {
    uint64_t LocalCycle = Cycle;
    uint64_t LocalFree = MemFreeSub;
    uint64_t LocalWait = 0;
    uint64_t Fused = 0;
    uint64_t *RegReady = regReady(Idx);
    while (true) {
      // Watchdog: stop at the budget boundary and let runLoop() emit the
      // same diagnostic the scan engine would after this op.
      if (Res.IssuedWarpInstrs + Fused > Opts.MaxIssues ||
          LocalCycle > Opts.MaxCycles)
        break;
      // A stalled warp wakes at or before now: it wins the round-robin
      // (the issuer re-enters at the back of the rotation).
      if (LocalCycle >= MinWake)
        break;
      if (!fetch(Idx))
        break; // Exhausted: selection retires it lazily.
      const DecodedOp &D = Ops[WPC[Idx]];
      if (D.LC != LatencyClass::GlobalMem)
        break;
      uint64_t S = 0;
      for (uint8_t J = 0; J != D.NumScore; ++J)
        S = std::max(S, RegReady[D.Score[J]]);
      if (S > LocalCycle)
        break; // Operands not ready: selection files it as stalled.
      ++Fused;
      uint64_t NowSub = LocalCycle << 16;
      uint64_t StartSub = std::max(NowSub, LocalFree);
      LocalWait += (StartSub - NowSub) >> 16;
      LocalFree = StartSub + D.MemServiceSub;
      if (D.IsLoad && D.HasDst)
        setReady(Idx, RegReady, D.Dst,
                 (LocalFree >> 16) + Machine.GlobalLatencyCycles);
      ++WPC[Idx];
      LocalCycle += D.IssueCost;
    }
    Cycle = LocalCycle;
    MemFreeSub = LocalFree;
    Res.MemQueueWaitCycles += LocalWait;
    Res.IssuedWarpInstrs += Fused;
  }

  /// Issues warp \p Idx (in FetchM) and restores the engine invariant.
  /// Post-issue resolution is lazy: the warp stays in FetchM, and
  /// selection fetches its next op and checks its scoreboard when the
  /// round-robin walk next reaches it — exactly where the scan engine
  /// does the same.  By then the operands have usually arrived, so the
  /// eager alternative (classify now, insert into the wake calendar,
  /// drain it again a few issues later) would be wasted work.  An
  /// exhausted trace is found by that same fetch and retired lazily.
  void issueEventAt(unsigned Idx) {
    bool WasGlobalMem = Ops[WPC[Idx]].LC == LatencyClass::GlobalMem;
    issue</*EventDriven=*/true>(Idx);
    if (WState[Idx] != WarpState::Running)
      FetchM &= ~bit(Idx); // Parked at a barrier.
    else if (WasGlobalMem && ((ReadyM | FetchM) & ~bit(Idx)) == 0)
      fuseMemRun(Idx);
    drainCalendar(); // The issue (and any fused run) advanced the clock.
  }

  /// Event-engine issue selection: picks the first warp of ReadyM|FetchM
  /// in rotated RR order — exactly the order the scan engine walks the
  /// warp array — resolving FetchM stragglers on the way.  The chosen
  /// warp issues from FetchM, where it parks after the issue anyway, so a
  /// resolved warp needs no mask update at all.  A mid-pass relaunch only
  /// re-enters warps at later rotated positions (matching the scan's
  /// single-pass window), which the mask reload after a retirement picks
  /// up.
  bool issueOneEvent() {
    unsigned Start = RRNext; // In [0, NumWarps), NumWarps <= 64.
    uint64_t SegMask = ~uint64_t(0) << Start;   // Rotated segment 1.
    uint64_t Tail = Start == 0 ? 0 : ~SegMask;  // Rotated segment 2.
    for (int Seg = 0; Seg != 2; ++Seg, SegMask = Tail) {
      uint64_t Cand = (ReadyM | FetchM) & SegMask;
      while (Cand != 0) {
        unsigned Idx = unsigned(__builtin_ctzll(Cand));
        if (FetchM & bit(Idx)) {
          if (!fetch(Idx)) {
            // Lazy retirement, at the same clock the scan engine's walk
            // would reach this warp.
            FetchM &= ~bit(Idx);
            finishWarp(Idx);
            SegMask &= ~uint64_t(0) << 1 << Idx; // Strictly above Idx.
            Cand = (ReadyM | FetchM) & SegMask;
            continue;
          }
          uint64_t S = earliestIssue(Idx);
          if (S > Cycle) {
            FetchM &= ~bit(Idx);
            WStall[Idx] = S;
            markStalled(Idx, S);
            Cand &= Cand - 1;
            continue;
          }
        } else { // Woken from the calendar; parks in FetchM like any issuer.
          ReadyM &= ~bit(Idx);
          FetchM |= bit(Idx);
        }
        if (Idx == AnchorWarp)
          for (int T = 0; T != NumTrk; ++T)
            if (Trk[T].AnchorPC == WPC[0]) {
              attemptPeriodSkip(Trk[T]);
              break;
            }
        issueEventAt(Idx);
        RRNext = Idx + 1 == NumWarps ? 0 : Idx + 1;
        return true;
      }
    }
    return false;
  }

  /// Event-engine clock jump.  Resolves FetchM stragglers in index order
  /// (the scan engine's advance-pass order), then jumps straight to
  /// MinWake — no rescan of the warp set.
  bool advanceEvent() {
    bool Retired = false;
    // Single pass in index order: a mid-pass relaunch only re-enters
    // warps the pass has not reached yet (the Floor guard), matching the
    // scan engine's advance loop.
    uint64_t Floor = ~uint64_t(0);
    for (uint64_t Bits = FetchM & Floor; Bits != 0; Bits = FetchM & Floor) {
      unsigned Idx = unsigned(__builtin_ctzll(Bits));
      Floor = ~uint64_t(0) << 1 << Idx; // Strictly above Idx.
      FetchM &= ~bit(Idx);
      if (!fetch(Idx)) {
        finishWarp(Idx);
        Retired = true;
        continue;
      }
      uint64_t S = earliestIssue(Idx);
      WStall[Idx] = S;
      if (S <= Cycle)
        ReadyM |= bit(Idx);
      else
        markStalled(Idx, S);
    }
    // A retirement may have relaunched a block (warps ready right now),
    // and a resolved straggler may itself be ready: stay at this cycle.
    if (Retired || ReadyM != 0)
      return true;
    if (MinWake == Never)
      return false; // Nothing will ever wake: deadlock.
    assert(MinWake > Cycle && "time went backwards");
    Res.IssueStallCycles += MinWake - Cycle;
    Cycle = MinWake;
    drainCalendar();
    assert(ReadyM != 0 && "clock jumped to a cycle where no warp wakes");
    return true;
  }

  const MachineModel &Machine;
  const Occupancy Occ;
  uint64_t BlocksRemaining;
  const SimOptions Opts;
  const unsigned NumRegs;
  const unsigned MaxLoopDepth;

  std::vector<DecodedOp> Ops;
  std::vector<uint32_t> LoopEndOf; ///< LoopBegin index -> LoopEnd index.
  std::vector<BlockCtx> Blocks;

  // Per-warp SoA state: scheduler scans touch these dense arrays only.
  unsigned NumWarps = 0;
  std::vector<WarpState> WState;
  std::vector<uint32_t> WPC;
  std::vector<uint32_t> WLoopDepth; ///< Live entries of the loop slice.
  /// Cached earliest-issue cycle for the op at the warp's PC, or Never
  /// when it must be recomputed (after a block relaunch or barrier
  /// release, while the PC rests on loop bookkeeping or the trace end,
  /// or — scan engine only — right after the warp's own issue).  Sound
  /// because a warp's scoreboard is written only by the warp's own
  /// issues: a recorded value never goes stale, which is what lets the
  /// event engine treat it as an exact wake time.
  std::vector<uint64_t> WStall;
  std::vector<unsigned> WarpBlock;     ///< Warp index -> block slot.
  std::vector<uint64_t> RegReadyPool;  ///< NumWarps x NumRegs scoreboards.
  /// Per warp: the registers whose timestamps may lie in the future (see
  /// setReady), so relaunch, snapshot and skip walk pending registers
  /// instead of all NumRegs.
  std::vector<std::vector<uint32_t>> Pending;
  std::vector<uint64_t> PendingFloor; ///< Per warp: see setReady.
  std::vector<uint64_t> LoopPool;      ///< NumWarps x MaxLoopDepth stacks.
  unsigned RRNext = 0;

  // Event-engine scheduling state: single-word warp masks (valid only
  // when NumWarps <= 64 — always, for any modeled G80 part; run() falls
  // back to the bit-identical scan core otherwise).  Maintained by the
  // shared block/barrier code under MasksValid so engine selection stays
  // a per-run choice; the scan engine never reads them.
  bool MasksValid = false;
  uint64_t ReadyM = 0;   ///< StallUntil <= Cycle.
  uint64_t FetchM = 0;   ///< StallUntil == Never (fetch/retire pending).
  uint64_t StalledM = 0; ///< Finite StallUntil > Cycle.
  uint64_t MinWake = Never; ///< Exact min StallUntil over StalledM.

  // Periodic steady-state fast-forward (event engine only): see the
  // comment block above selectAnchor().
  unsigned AnchorWarp = ~0u; ///< Warp 0, or none when nothing is tracked.
  int NumTrk = 0;
  PeriodTracker Trk[2]; ///< [0] hottest-loop body, [1] trace start.
  PeriodCounters CurCnt;
  std::vector<uint64_t> CurCanon, CurTrips; ///< Reused capture buffers.

  uint64_t Cycle = 0;
  uint64_t MemFreeSub = 0; // Memory queue head, in 1/65536 cycles.
  uint64_t SubCyclesPerByte = 0;

  SimResult Res;
};

} // namespace

Expected<SimResult> g80::simulateKernel(const Kernel &K,
                                        const LaunchConfig &Launch,
                                        const MachineModel &Machine,
                                        const SimOptions &Opts,
                                        SimEngineStats *Stats) {
  KernelResources Resources = estimateResources(K, Machine);
  Expected<Occupancy> Occ = computeOccupancyChecked(
      Machine, Launch.threadsPerBlock(), Resources);
  if (!Occ)
    return Occ.takeDiag();

  uint64_t TotalBlocks = Launch.numBlocks();
  if (TotalBlocks == 0) {
    SimResult Empty;
    Empty.Occ = *Occ;
    return Empty;
  }

  // Each SM independently executes an equal share of the grid; simulate
  // the busiest one.
  uint64_t BlocksForThisSM =
      (TotalBlocks + Machine.NumSMs - 1) / Machine.NumSMs;

  auto T0 = std::chrono::steady_clock::now();
  TraceProgram Prog = buildTrace(K);
  SMSimulator Sim(Prog, Machine, *Occ, BlocksForThisSM, Opts);
  Sim.Stats.SetupNs = nanosSince(T0);
  Expected<SimResult> R = Sim.run();
  if (Stats)
    *Stats = Sim.Stats;
  return R;
}

Expected<SimResult> g80::estimateBandwidthBoundKernel(
    const Kernel &K, const LaunchConfig &Launch, const MachineModel &Machine,
    const SimOptions &Opts) {
  (void)Opts;
  KernelResources Resources = estimateResources(K, Machine);
  Expected<Occupancy> Occ = computeOccupancyChecked(
      Machine, Launch.threadsPerBlock(), Resources);
  if (!Occ)
    return Occ.takeDiag();

  uint64_t TotalBlocks = Launch.numBlocks();
  SimResult R;
  R.Occ = *Occ;
  R.BandwidthFastPath = true;
  if (TotalBlocks == 0)
    return R;

  uint64_t BlocksForThisSM =
      (TotalBlocks + Machine.NumSMs - 1) / Machine.NumSMs;
  StaticProfile Profile = computeStaticProfile(K);
  double ThreadsPerBlock = static_cast<double>(Launch.threadsPerBlock());
  double Blocks = static_cast<double>(BlocksForThisSM);

  // DRAM service time for the SM's whole share of the grid.
  double BwCycles = Blocks * ThreadsPerBlock *
                    static_cast<double>(Profile.GlobalBytesEffective) /
                    Machine.globalBytesPerCyclePerSM();

  // Issue-port time: each warp issues DynInstrs warp-instructions, SFU ops
  // occupying the port for WarpSize/SFUs cycles instead of the base cost.
  double WarpsPerBlock = static_cast<double>(Occ->WarpsPerBlock);
  double BaseIssue = Machine.issueCyclesPerWarpInstr();
  double SfuIssue = double(Machine.WarpSize) / Machine.SFUsPerSM;
  double IssuePerWarp =
      double(Profile.DynInstrs - Profile.SfuInstrs) * BaseIssue +
      double(Profile.SfuInstrs) * SfuIssue;
  double IssueCycles = Blocks * WarpsPerBlock * IssuePerWarp;

  // A bandwidth-bound kernel's time is the larger of the two service
  // rates, plus one global latency to fill the pipeline.
  double Cycles =
      std::max(BwCycles, IssueCycles) + Machine.GlobalLatencyCycles;
  R.Cycles = static_cast<uint64_t>(std::llround(Cycles));
  R.Seconds = Machine.cyclesToSeconds(Cycles);
  R.BlocksRun = BlocksForThisSM;
  return R;
}
