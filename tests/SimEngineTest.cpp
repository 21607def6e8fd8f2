//===- tests/SimEngineTest.cpp - scan vs event engine differentials -------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The two scheduler cores (SimOptions::Engine::Scan and ::Event) must be
// bit-identical: same cycles, same issue/stall/memwait statistics, same
// diagnostics, same journal bytes.  The scan core is the mechanical
// reference; everything the event core does to go fast — the ready
// bitmask, the wake calendar's clock jumps, fused memory runs, and the
// periodic steady-state fast-forward — must be invisible in results.
// This suite hammers that contract with deterministic fuzzed traces
// (random latency-class mixes, loop nests, barriers, divergent barriers,
// occupancy shapes), the apps' emulation spaces, cp's large-tier long
// traces, watchdog-budget edges, and a whole-sweep journal comparison.
// Both engines run the same decode-time pruned op list, so the suite also
// pins results recorded before the pruning pass was rewritten
// (SimEnginePins.h): an unsound prune would change both engines alike.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "SimEnginePins.h"
#include "core/Search.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "ptx/Builder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace g80;

namespace {

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

/// Deterministic 64-bit LCG: the fuzz corpus must be identical on every
/// platform and every run.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    return S >> 33;
  }
  uint64_t range(uint64_t N) { return next() % N; }
};

void expectPinned(const Expected<SimResult> &R, const PinnedSim &Pin) {
  ASSERT_TRUE(R.ok()) << R.diag().Message;
  EXPECT_EQ(R->Cycles, Pin.Cycles);
  EXPECT_EQ(R->IssueStallCycles, Pin.IssueStallCycles);
  EXPECT_EQ(R->MemQueueWaitCycles, Pin.MemQueueWaitCycles);
}

/// Compares one simulation under both engines, including failure
/// diagnostics (timeout/deadlock/occupancy must match code and message),
/// and optionally against pinned results.
void expectEnginesIdentical(const Kernel &K, const LaunchConfig &L,
                            SimOptions Base = {},
                            const PinnedSim *Pin = nullptr) {
  SimOptions ScanO = Base, EventO = Base;
  ScanO.EngineSel = SimOptions::Engine::Scan;
  EventO.EngineSel = SimOptions::Engine::Event;
  Expected<SimResult> S = simulateKernel(K, L, gtx(), ScanO);
  Expected<SimResult> E = simulateKernel(K, L, gtx(), EventO);
  if (Pin)
    expectPinned(S, *Pin);
  ASSERT_EQ(S.ok(), E.ok());
  if (!S.ok()) {
    EXPECT_EQ(S.diag().Code, E.diag().Code);
    EXPECT_EQ(S.diag().Message, E.diag().Message);
    return;
  }
  EXPECT_EQ(S->Cycles, E->Cycles);
  EXPECT_EQ(S->IssuedWarpInstrs, E->IssuedWarpInstrs);
  EXPECT_EQ(S->SyntheticCtlInstrs, E->SyntheticCtlInstrs);
  EXPECT_EQ(S->IssueStallCycles, E->IssueStallCycles);
  EXPECT_EQ(S->MemQueueWaitCycles, E->MemQueueWaitCycles);
  EXPECT_EQ(S->BlocksRun, E->BlocksRun);
  EXPECT_EQ(S->Occ.BlocksPerSM, E->Occ.BlocksPerSM);
}

/// Emits a random body: ALU/SFU chains, shared/const/tex/global accesses
/// with varying effective transaction sizes, barriers, loop nests up to
/// depth 3, and (optionally) a barrier under divergent control flow.
void emitFuzzBody(KernelBuilder &B, Rng &R, unsigned In, unsigned Out,
                  unsigned Sh, Reg Addr, Reg Acc, int Depth, int &Budget,
                  bool AllowDivergentBar) {
  static const unsigned EffBytes[] = {1, 2, 4, 8, 16};
  while (Budget > 0) {
    --Budget;
    switch (R.range(12)) {
    case 0: // Dependent ALU chain.
    case 1:
      B.emitTo(Acc, Opcode::AddF, Acc, B.imm(1.0f));
      break;
    case 2: // Independent ALU op.
      B.mulf(B.imm(2.0f), B.imm(3.0f));
      break;
    case 3: // SFU (holds the issue port longer).
      B.madfAcc(Acc, B.sinf(Acc), B.imm(0.5f));
      break;
    case 4: // Shared-memory round trip.
      B.stShared(Sh, Addr, 0, Acc);
      B.emitTo(Acc, Opcode::AddF, Acc, B.ldShared(Sh, Addr));
      break;
    case 5: // Constant cache.
      B.madfAcc(Acc, B.ldConst(In, Addr), B.imm(1.5f));
      break;
    case 6: // Texture cache.
      B.madfAcc(Acc, B.ldTex(In, Addr), B.imm(0.25f));
      break;
    case 7: // Global load, consumed immediately (scoreboard stall).
      B.emitTo(Acc, Opcode::AddF, Acc,
               B.ldGlobal(In, Addr, 0, EffBytes[R.range(5)]));
      break;
    case 8: // Global store (bandwidth only).
      B.stGlobal(Out, Addr, 0, Acc, EffBytes[R.range(5)]);
      break;
    case 9: // Barrier.
      B.bar();
      break;
    case 10: // Loop nest.
      if (Depth < 3) {
        int BodyBudget = int(R.range(uint64_t(Budget) + 1));
        Budget -= BodyBudget;
        B.forLoop(1 + R.range(6), [&] {
          emitFuzzBody(B, R, In, Out, Sh, Addr, Acc, Depth + 1, BodyBudget,
                       AllowDivergentBar);
        });
      }
      break;
    case 11: // Barrier under divergence: hangs the block on hardware.
      if (AllowDivergentBar && R.range(8) == 0) {
        Reg P = B.setpi(CmpKind::Lt, B.special(SpecialReg::TidX), B.imm(4));
        B.ifThen(P, /*Uniform=*/false, [&] { B.bar(); });
      }
      break;
    }
  }
}

Kernel fuzzKernel(Rng &R, bool AllowDivergentBar) {
  KernelBuilder B("fuzz");
  unsigned In = B.addGlobalPtr("in");
  unsigned Out = B.addGlobalPtr("out");
  unsigned Sh = B.addShared("tile", 256 << R.range(4));
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.shli(Tx, B.imm(2));
  Reg Acc = B.mov(B.imm(0.0f));
  int Budget = 8 + int(R.range(24));
  emitFuzzBody(B, R, In, Out, Sh, Addr, Acc, 0, Budget, AllowDivergentBar);
  B.stGlobal(Out, Addr, 0, Acc, 4);
  return B.take();
}

LaunchConfig fuzzLaunch(Rng &R) {
  // Occupancy shapes: 32..512 threads/block, 1..96 blocks.
  return LaunchConfig(Dim3(unsigned(1 + R.range(96))),
                      Dim3(unsigned(32 * (1 + R.range(16)))));
}

//===--- Engine contract -------------------------------------------------===//

TEST(SimEngine, DefaultEngineIsEvent) {
  EXPECT_EQ(SimOptions{}.EngineSel, SimOptions::Engine::Event);
}

TEST(SimEngine, FuzzedTracesBitIdentical) {
  Rng R(0x9e3779b97f4a7c15ull);
  for (int Case = 0; Case != 200; ++Case) {
    Kernel K = fuzzKernel(R, /*AllowDivergentBar=*/false);
    LaunchConfig L = fuzzLaunch(R);
    SCOPED_TRACE("fuzz case " + std::to_string(Case));
    expectEnginesIdentical(K, L);
  }
}

TEST(SimEngine, FuzzedTracesMatchPinnedResults) {
  static_assert(std::size(FuzzCorpusPins) == 200, "one pin per fuzz case");
  Rng R(0x9e3779b97f4a7c15ull); // FuzzedTracesBitIdentical's corpus.
  SimOptions Scan;
  Scan.EngineSel = SimOptions::Engine::Scan;
  for (int Case = 0; Case != 200; ++Case) {
    Kernel K = fuzzKernel(R, /*AllowDivergentBar=*/false);
    LaunchConfig L = fuzzLaunch(R);
    SCOPED_TRACE("fuzz case " + std::to_string(Case));
    expectPinned(simulateKernel(K, L, gtx(), Scan), FuzzCorpusPins[Case]);
  }
}

TEST(SimEngine, CpLargeLongTracesBitIdenticalAndPinned) {
  // Unroll-64/128 kernels, the longest traces in any space (operand
  // pruning must stay linear in them), and one-thread blocks, where the
  // periodic fast-forward rarely engages.
  CpApp App(CpProblem::bench(), SpaceTier::Large);
  for (const PinnedCpConfig &Pin : CpLargePins) {
    ConfigPoint P = App.space().pointAt(Pin.FlatIndex);
    ASSERT_TRUE(App.isExpressible(P));
    Kernel K = App.buildKernel(P);
    ASSERT_EQ(K.name(), Pin.Kernel);
    SCOPED_TRACE(K.name());
    expectEnginesIdentical(K, App.launch(P), {}, &Pin.Result);
  }
}

TEST(SimEngine, DivergentBarrierDeadlocksIdentically) {
  Rng R(0xdeadbeefcafef00dull);
  int Failures = 0;
  for (int Case = 0; Case != 60; ++Case) {
    Kernel K = fuzzKernel(R, /*AllowDivergentBar=*/true);
    LaunchConfig L = fuzzLaunch(R);
    SCOPED_TRACE("divergent case " + std::to_string(Case));
    SimOptions Base; // Modest budgets keep a deadlocked SM's run short.
    Base.MaxCycles = 1 << 22;
    Base.MaxIssues = 1 << 20;
    Expected<SimResult> Probe = simulateKernel(K, L, gtx(), Base);
    Failures += !Probe.ok();
    expectEnginesIdentical(K, L, Base);
  }
  // The corpus must actually exercise the failure paths.
  EXPECT_GT(Failures, 0);
}

TEST(SimEngine, TightBudgetsTimeOutIdentically) {
  // The event engine's clock jumps and steady-state skips are capped at
  // the watchdog budgets, so a timeout fires on exactly the same
  // instruction under both engines — same diagnostic text included.
  Rng R(0x5bd1e995u);
  for (int Case = 0; Case != 40; ++Case) {
    Kernel K = fuzzKernel(R, /*AllowDivergentBar=*/false);
    LaunchConfig L = fuzzLaunch(R);
    SCOPED_TRACE("budget case " + std::to_string(Case));
    SimOptions Tight;
    Tight.MaxIssues = 1 + R.range(5000);
    Tight.MaxCycles = 1 + R.range(50000);
    expectEnginesIdentical(K, L, Tight);
  }
}

TEST(SimEngine, MatMulEmulationSpaceBitIdentical) {
  MatMulApp App(MatMulProblem::emulation());
  for (const ConfigPoint &P : App.space().enumerate()) {
    if (!App.isExpressible(P))
      continue;
    expectEnginesIdentical(App.buildKernel(P), App.launch(P));
  }
}

//===--- Whole-sweep identity --------------------------------------------===//

std::string tmpPath(const char *Name) {
  std::string Path = testing::TempDir() + "g80_engine_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

TEST(SimEngine, JournalBytesEngineInvariant) {
  // A full exhaustive sweep journals byte-identically under either
  // engine: engine selection can never leak into recorded results, so it
  // has no place in the journal fingerprint.
  MatMulApp App(MatMulProblem::emulation());
  auto RunWith = [&](SimOptions::Engine Eng, const std::string &Path) {
    SimOptions SimO;
    SimO.EngineSel = Eng;
    SearchEngine Engine(App, gtx(), {}, SimO);
    SweepOptions Opts;
    Opts.JournalPath = Path;
    Opts.Fingerprint.App = App.name();
    Opts.Fingerprint.Machine = gtx().Name;
    Opts.Fingerprint.Strategy = "exhaustive";
    Opts.Fingerprint.RawSize = App.space().rawSize();
    SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
    EXPECT_EQ(Rep.Status, SweepStatus::Completed);
    return slurp(Path);
  };
  std::string ScanBytes =
      RunWith(SimOptions::Engine::Scan, tmpPath("scan"));
  std::string EventBytes =
      RunWith(SimOptions::Engine::Event, tmpPath("event"));
  ASSERT_FALSE(ScanBytes.empty());
  EXPECT_EQ(ScanBytes, EventBytes);
}

} // namespace
