//===- bench/sim_engine_perf.cpp - Scan vs event engine throughput -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Times raw cycle simulation — no metric evaluation, no sweep planning —
// of every expressible configuration of each application under both
// scheduler cores (SimOptions::Engine::Scan vs ::Event) and reports
// simulated cycles per second of simulation time for each.  Each
// configuration's kernel is built once, untimed, and then simulated by
// scan and by event back to back, so the timed regions are
// simulateKernel() alone and both engines see the same cache state.
// Configurations run one at a time and each kernel is dropped after its
// two simulations, so a 10^5-point large tier holds one kernel at once.
//
// Beside the end-to-end throughput, every simulation's SimEngineStats
// split its time into layers: setup (trace build, decode and operand
// pruning), the issue loop, and — event only — snapshot/skip time for
// the periodic fast-forward, whose live vs fast-forwarded issue counts are
// reported too.  Per configuration, the bench tracks the worst event/scan
// time ratio (over simulations of at least WorstRatioMinSeconds under
// scan, where timer noise stops dominating); per engine, it reports the
// longest single simulation.
//
// Every configuration's result is compared field-for-field across the
// engines (cycles, issued instructions, issue stalls, memory-queue wait,
// blocks, and failure diagnostics), so this doubles as a whole-space
// differential check and is safe to gate CI on: the nightly "Sim engine
// perf floor" job in .github/workflows/nightly.yml parses the JSON
// emitted here and fails if the engines diverge, if the event engine's
// throughput drops below 0.9x scan on any app and tier, or if any large
// tier simulation under the event engine (the one searches run) takes
// more than 2 s.
//
// Flags:
//   --app matmul|cp|sad|mri|all   which app(s) to time (default all)
//   --space small|large|all       which config-space tier(s) (default small)
//   --tiny                        emulation-sized problems (CI smoke)
//   --out PATH                    JSON output (default BENCH_sim_engine.json)
//
//===----------------------------------------------------------------------===//

#include "arch/MachineModel.h"
#include "core/TunableApp.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "sim/Simulator.h"
#include "support/Format.h"
#include "support/Journal.h"
#include "support/TextTable.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace g80;

namespace {

/// Simulations shorter than this under scan are left out of the worst
/// event/scan ratio: at tens of microseconds the ratio is timer noise.
constexpr double WorstRatioMinSeconds = 0.01;

/// One simulateKernel outcome: the result fields compared across engines,
/// plus how long it took and the engine's own work counters.
struct Outcome {
  bool Ok = false;
  uint64_t Cycles = 0;
  uint64_t Issued = 0;
  uint64_t Stall = 0;
  uint64_t MemWait = 0;
  uint64_t Blocks = 0;
  unsigned Bsm = 0;
  std::string Error;

  double Seconds = 0;
  SimEngineStats Stats;

  bool sameResult(const Outcome &O) const {
    return Ok == O.Ok && Cycles == O.Cycles && Issued == O.Issued &&
           Stall == O.Stall && MemWait == O.MemWait && Blocks == O.Blocks &&
           Bsm == O.Bsm && Error == O.Error;
  }
};

struct ConfigRun {
  std::string Name; ///< The kernel name, which encodes the config.
  Outcome Scan, Event;
};

/// One engine's totals over an app's space.
struct EngineRun {
  double Seconds = 0;     ///< Sum of per-simulation times.
  double SetupSeconds = 0;
  double SnapshotSeconds = 0;
  uint64_t SimCycles = 0; ///< Sum of Cycles over successful simulations.
  uint64_t SimIssued = 0; ///< Sum of IssuedWarpInstrs over the same runs.
  uint64_t LiveIssues = 0;
  uint64_t SkippedIssues = 0;
  uint64_t Snapshots = 0;
  uint64_t PeriodMatches = 0;
  uint64_t Failures = 0; ///< Occupancy-invalid and other diagnostics.
  double LongestSeconds = 0; ///< Longest single simulation.
  std::string LongestConfig;

  void add(const Outcome &O, const std::string &Config) {
    Seconds += O.Seconds;
    if (O.Seconds > LongestSeconds) {
      LongestSeconds = O.Seconds;
      LongestConfig = Config;
    }
    SetupSeconds += double(O.Stats.SetupNs) * 1e-9;
    SnapshotSeconds += double(O.Stats.SnapshotNs) * 1e-9;
    LiveIssues += O.Stats.LiveIssues;
    SkippedIssues += O.Stats.SkippedIssues;
    Snapshots += O.Stats.Snapshots;
    PeriodMatches += O.Stats.PeriodMatches;
    if (O.Ok) {
      SimCycles += O.Cycles;
      SimIssued += O.Issued;
    } else {
      ++Failures;
    }
  }
  double issueLoopSeconds() const {
    return std::max(0.0, Seconds - SetupSeconds - SnapshotSeconds);
  }
  double cyclesPerSecond() const {
    return Seconds > 0 ? double(SimCycles) / Seconds : 0;
  }
};

struct AppResult {
  std::string Name;
  std::string Space;
  size_t Configs = 0;
  double WallSeconds = 0;
  EngineRun Scan;
  EngineRun Event;
  bool EnginesMatch = true;
  double WorstRatio = 0; ///< Max event/scan time over long-enough sims.
  std::string WorstRatioConfig;

  double speedup() const {
    return Event.Seconds > 0 ? Scan.Seconds / Event.Seconds : 0;
  }
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

Outcome simulateTimed(const Kernel &K, const LaunchConfig &Launch,
                      const MachineModel &Machine, SimOptions::Engine Engine) {
  SimOptions Opts;
  Opts.EngineSel = Engine;
  Outcome O;
  auto T0 = std::chrono::steady_clock::now();
  Expected<SimResult> Sim =
      simulateKernel(K, Launch, Machine, Opts, &O.Stats);
  O.Seconds = secondsSince(T0);
  if (Sim) {
    O.Ok = true;
    O.Cycles = Sim->Cycles;
    O.Issued = Sim->IssuedWarpInstrs;
    O.Stall = Sim->IssueStallCycles;
    O.MemWait = Sim->MemQueueWaitCycles;
    O.Blocks = Sim->BlocksRun;
    O.Bsm = Sim->Occ.BlocksPerSM;
  } else {
    O.Error = Sim.diag().Message;
  }
  return O;
}

void reportDivergence(const std::string &App, const ConfigRun &C) {
  const Outcome &S = C.Scan, &E = C.Event;
  std::cerr << App << " config " << C.Name << " diverged:\n  scan  cycles="
            << S.Cycles << " issued=" << S.Issued << " stall=" << S.Stall
            << " memwait=" << S.MemWait << " blocks=" << S.Blocks
            << " err=" << S.Error << "\n  event cycles=" << E.Cycles
            << " issued=" << E.Issued << " stall=" << E.Stall
            << " memwait=" << E.MemWait << " blocks=" << E.Blocks
            << " err=" << E.Error << "\n";
}

AppResult benchApp(const std::string &Name, SpaceTier Tier,
                   const TunableApp &App) {
  const MachineModel Machine = MachineModel::geForce8800Gtx();
  const ConfigSpace &Space = App.space();
  AppResult R;
  R.Name = Name;
  R.Space = spaceTierName(Tier);
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0, E = Space.rawSize(); I != E; ++I) {
    ConfigPoint P = Space.pointAt(I);
    if (!App.isExpressible(P))
      continue;
    ConfigRun C;
    Kernel K = App.buildKernel(P);
    LaunchConfig L = App.launch(P);
    C.Name = K.name();
    C.Scan = simulateTimed(K, L, Machine, SimOptions::Engine::Scan);
    C.Event = simulateTimed(K, L, Machine, SimOptions::Engine::Event);
    ++R.Configs;
    R.Scan.add(C.Scan, C.Name);
    R.Event.add(C.Event, C.Name);
    if (R.EnginesMatch && !C.Scan.sameResult(C.Event)) {
      R.EnginesMatch = false;
      reportDivergence(Name, C); // Pinpoint the first divergence.
    }
    if (C.Scan.Seconds >= WorstRatioMinSeconds &&
        C.Event.Seconds / C.Scan.Seconds > R.WorstRatio) {
      R.WorstRatio = C.Event.Seconds / C.Scan.Seconds;
      R.WorstRatioConfig = C.Name;
    }
  }
  R.WallSeconds = secondsSince(T0);
  return R;
}

void writeEngineJson(std::ostringstream &OS, const char *Prefix,
                     const EngineRun &E) {
  OS << ", \"" << Prefix << "_seconds\": " << fmtSci(E.Seconds, 3) << ", \""
     << Prefix << "_setup_seconds\": " << fmtSci(E.SetupSeconds, 3) << ", \""
     << Prefix << "_issue_loop_seconds\": " << fmtSci(E.issueLoopSeconds(), 3)
     << ", \"sim_cycles_per_sec_" << Prefix
     << "\": " << fmtSci(E.cyclesPerSecond()) << ", \"" << Prefix
     << "_longest_sim_seconds\": " << fmtSci(E.LongestSeconds, 3) << ", \""
     << Prefix << "_longest_sim_config\": \"" << jsonEscape(E.LongestConfig)
     << "\"";
}

void writeJson(const std::string &Path,
               const std::vector<AppResult> &Results) {
  std::ostringstream OS;
  OS << "{\n  \"bench\": \"sim_engine_perf\""
     << ",\n  \"worst_ratio_min_seconds\": " << WorstRatioMinSeconds
     << ",\n  \"apps\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const AppResult &R = Results[I];
    OS << "    {\"app\": \"" << jsonEscape(R.Name) << "\", \"space\": \""
       << R.Space << "\", \"configs\": " << R.Configs
       << ", \"wall_seconds\": " << fmtSci(R.WallSeconds, 3);
    writeEngineJson(OS, "scan", R.Scan);
    writeEngineJson(OS, "event", R.Event);
    OS << ", \"event_snapshot_seconds\": "
       << fmtSci(R.Event.SnapshotSeconds, 3)
       << ", \"sim_cycles\": " << R.Event.SimCycles
       << ", \"sim_issued\": " << R.Event.SimIssued
       << ", \"live_issues\": " << R.Event.LiveIssues
       << ", \"fast_forwarded_issues\": " << R.Event.SkippedIssues
       << ", \"snapshots\": " << R.Event.Snapshots
       << ", \"period_matches\": " << R.Event.PeriodMatches
       << ", \"event_speedup\": " << fmtDouble(R.speedup(), 3)
       << ", \"worst_ratio\": " << fmtDouble(R.WorstRatio, 3)
       << ", \"worst_ratio_config\": \"" << jsonEscape(R.WorstRatioConfig)
       << "\", \"engines_match\": " << (R.EnginesMatch ? "true" : "false")
       << "}" << (I + 1 != Results.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";

  std::ofstream File(Path, std::ios::trunc);
  if (!File) {
    std::cerr << "error: cannot write " << Path << "\n";
    std::exit(1);
  }
  File << OS.str();
  std::cout << "\nwrote " << Path << "\n";
}

void usage() {
  std::cerr << "usage: sim_engine_perf [--app matmul|cp|sad|mri|all] "
               "[--space small|large|all] [--tiny] [--out PATH]\n";
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  std::string Which = "all";
  std::string Spaces = "small";
  std::string OutPath = "BENCH_sim_engine.json";
  bool Tiny = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (Arg == "--app") {
      Which = Value();
    } else if (Arg == "--space") {
      Spaces = Value();
    } else if (Arg == "--tiny") {
      Tiny = true;
    } else if (Arg == "--out") {
      OutPath = Value();
    } else {
      usage();
    }
  }
  std::vector<SpaceTier> Tiers;
  SpaceTier One;
  if (Spaces == "all")
    Tiers = {SpaceTier::Small, SpaceTier::Large};
  else if (parseSpaceTier(Spaces, One))
    Tiers = {One};
  else
    usage();

  struct Entry {
    const char *Name;
    std::function<std::unique_ptr<TunableApp>(SpaceTier)> Make;
  };
  std::vector<Entry> Apps = {
      {"matmul",
       [&](SpaceTier T) -> std::unique_ptr<TunableApp> {
         return std::make_unique<MatMulApp>(
             Tiny ? MatMulProblem::emulation() : MatMulProblem::bench(), T);
       }},
      {"cp",
       [&](SpaceTier T) -> std::unique_ptr<TunableApp> {
         return std::make_unique<CpApp>(
             Tiny ? CpProblem::emulation() : CpProblem::bench(), T);
       }},
      {"sad",
       [&](SpaceTier T) -> std::unique_ptr<TunableApp> {
         return std::make_unique<SadApp>(
             Tiny ? SadApp::emulationProblem() : SadApp::benchProblem(), T);
       }},
      {"mri",
       [&](SpaceTier T) -> std::unique_ptr<TunableApp> {
         return std::make_unique<MriFhdApp>(
             Tiny ? MriProblem::emulation() : MriProblem::bench(), T);
       }},
  };

  std::cout << "=== Simulator engine throughput: scan vs event ===\n\n";

  std::vector<AppResult> Results;
  for (SpaceTier Tier : Tiers)
    for (const Entry &E : Apps) {
      if (Which != "all" && Which != E.Name)
        continue;
      std::unique_ptr<TunableApp> App = E.Make(Tier);
      Results.push_back(benchApp(E.Name, Tier, *App));
      std::cout << "  " << E.Name << " " << spaceTierName(Tier) << ": "
                << Results.back().Configs << " configs in "
                << fmtDouble(Results.back().WallSeconds, 1) << " s\n"
                << std::flush;
    }
  if (Results.empty())
    usage();

  TextTable T;
  T.setHeader({"App", "Space", "Configs", "Scan cyc/s", "Event cyc/s",
               "Speedup", "Setup s scan/event", "Loop s scan/event",
               "Snap s", "Live/FF issues", "Worst ratio",
               "Longest s scan/event", "Match"});
  bool AllMatch = true;
  for (const AppResult &R : Results) {
    T.addRow({R.Name, R.Space, fmtInt(uint64_t(R.Configs)),
              fmtSci(R.Scan.cyclesPerSecond()),
              fmtSci(R.Event.cyclesPerSecond()),
              fmtDouble(R.speedup(), 2) + "x",
              fmtDouble(R.Scan.SetupSeconds, 2) + "/" +
                  fmtDouble(R.Event.SetupSeconds, 2),
              fmtDouble(R.Scan.issueLoopSeconds(), 2) + "/" +
                  fmtDouble(R.Event.issueLoopSeconds(), 2),
              fmtDouble(R.Event.SnapshotSeconds, 3),
              fmtSci(double(R.Event.LiveIssues)) + "/" +
                  fmtSci(double(R.Event.SkippedIssues)),
              fmtDouble(R.WorstRatio, 2),
              fmtDouble(R.Scan.LongestSeconds, 3) + "/" +
                  fmtDouble(R.Event.LongestSeconds, 3),
              R.EnginesMatch ? "yes" : "NO"});
    AllMatch &= R.EnginesMatch;
  }
  T.print(std::cout);

  writeJson(OutPath, Results);

  if (!AllMatch) {
    std::cerr << "error: event engine diverged from scan engine\n";
    return 1;
  }
  return 0;
}
