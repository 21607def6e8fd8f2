//===- tests/ToyApps.h - synthetic apps for sweep/durability tests --------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// A small synthetic TunableApp whose kernels are trivially valid at every
// configuration, so the whole raw space is a candidate set and injected or
// simulated failures are the only source of quarantine.  Shared between
// FaultToleranceTest (quarantine semantics) and DurabilityTest (journal,
// resume, isolation) so both exercise the exact same space.  Also holds
// referenceOutcome, the measurement oracle those tests compare SweepDriver
// runs against.
//
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_TESTS_TOYAPPS_H
#define G80TUNE_TESTS_TOYAPPS_H

#include "core/Search.h"
#include "core/TunableApp.h"
#include "emu/Emulator.h"
#include "ptx/Builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace g80 {

/// A (5 block sizes x NumChains chain lengths) synthetic app.  The default
/// 20 chains give the classic 100-config quarantine space; 100 chains give
/// the 500-config acceptance space for durable-sweep tests.
class ToyApp : public TunableApp {
public:
  explicit ToyApp(int NumChains = 20) {
    Space.addDim("tpb", {32, 64, 96, 128, 160});
    std::vector<int> Chains;
    for (int I = 1; I <= NumChains; ++I)
      Chains.push_back(I);
    Space.addDim("chain", Chains);
  }

  std::string_view name() const override { return "toy"; }
  const ConfigSpace &space() const override { return Space; }

  Kernel buildKernel(const ConfigPoint &P) const override {
    unsigned Chain = unsigned(Space.valueOf(P, "chain"));
    KernelBuilder B("toy_c" + std::to_string(Chain));
    unsigned Out = B.addGlobalPtr("out");
    Reg Tx = B.mov(B.special(SpecialReg::TidX));
    Reg Addr = B.shli(Tx, B.imm(2));
    Reg Acc = B.mov(B.imm(0.0f));
    B.forLoop(Chain, [&] { B.emitTo(Acc, Opcode::AddF, Acc, B.imm(1.0f)); });
    B.stGlobal(Out, Addr, 0, Acc);
    return B.take();
  }

  LaunchConfig launch(const ConfigPoint &P) const override {
    unsigned Tpb = unsigned(Space.valueOf(P, "tpb"));
    return LaunchConfig(Dim3(16), Dim3(Tpb));
  }

  double verifyConfig(const ConfigPoint &P) const override {
    unsigned Tpb = unsigned(Space.valueOf(P, "tpb"));
    unsigned Chain = unsigned(Space.valueOf(P, "chain"));
    Kernel K = buildKernel(P);
    DeviceBuffer Buf = DeviceBuffer::zeroed(Tpb);
    LaunchBindings Bind(K);
    Bind.bindBuffer(0, &Buf);
    if (!emulateKernel(K, launch(P), Bind))
      return std::numeric_limits<double>::infinity();
    double Worst = 0;
    for (unsigned I = 0; I != Tpb; ++I)
      Worst = std::max(
          Worst, double(std::abs(Buf.floatAt(I) - float(Chain))));
    return Worst;
  }

private:
  ConfigSpace Space;
};

/// The test oracle for SweepDriver runs: measures \p Plan's candidates in
/// plan order with nothing but the evaluator — no journal, isolation,
/// worker pool or committer — so SweepDriver is checked against code
/// that shares none of its machinery.
inline SearchOutcome referenceOutcome(const SearchEngine &Engine,
                                      SweepPlan Plan) {
  SearchOutcome Out = SearchOutcome::fromPlan(std::move(Plan));
  for (size_t Idx : Out.Candidates) {
    ConfigEval &E = Out.Evals[Idx];
    if (!Engine.evaluator().measure(E)) {
      // Quarantine and keep sweeping: one bad configuration must not take
      // the whole search down.
      Out.noteQuarantined(Idx);
      continue;
    }
    Out.noteMeasured(Idx);
  }
  return Out;
}

} // namespace g80

#endif // G80TUNE_TESTS_TOYAPPS_H
