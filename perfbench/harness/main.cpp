//===- perfbench/harness/main.cpp - g80bench entry point ------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// g80bench --workload NAME --seed N --seconds S --trace 0|1
///          --refs DIR --work DIR [--record-refs FILE] [--reduced 0|1]
///
/// Runs one workload in this process (so peak RSS is the workload's own),
/// checks every result against the committed references in DIR, and
/// prints one JSON line last: correct, attempted, failed and the
/// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
/// A traced run prints its per-layer span table above that line.
/// Exit status: 0 correct, 1 a result mismatched, 2 bad usage or
/// unreadable references.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <unistd.h>

using namespace bench;
namespace fs = std::filesystem;

namespace {

int usage(const char *Why) {
  std::cerr << "g80bench: " << Why
            << "\nusage: g80bench --workload sweep-small|pareto-large|"
               "adaptive-large|serve-mixed --seed N --seconds S --trace 0|1 "
               "--refs DIR --work DIR [--record-refs FILE] [--reduced 0|1]\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Flags;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I];
    if (K.rfind("--", 0) != 0)
      return usage(("unexpected argument '" + K + "'").c_str());
    Flags[K.substr(2)] = Argv[I + 1];
  }
  if (Argc % 2 != 1)
    return usage("every flag takes a value");

  RunOptions Opts;
  Opts.Workload = Flags["workload"];
  if (!isWorkload(Opts.Workload))
    return usage("unknown --workload");
  char *End = nullptr;
  Opts.Seed = std::strtoull(Flags["seed"].c_str(), &End, 10);
  if (Flags["seed"].empty() || *End)
    return usage("--seed must be a whole number");
  Opts.Seconds = std::strtod(Flags["seconds"].c_str(), &End);
  if (Flags["seconds"].empty() || *End || Opts.Seconds <= 0)
    return usage("--seconds must be a positive number");
  if (Flags["trace"] != "0" && Flags["trace"] != "1")
    return usage("--trace must be 0 or 1");
  Opts.Trace = Flags["trace"] == "1";
  if (Flags["refs"].empty() || Flags["work"].empty())
    return usage("--refs and --work are required");
  Opts.Reduced = Flags["reduced"] == "1";
  Opts.RecordRefs = Flags["record-refs"];
  if (!Opts.RecordRefs.empty())
    Opts.RecordRefs = fs::absolute(Opts.RecordRefs).string();

  References Refs;
  std::string Err;
  if (!Refs.load(Flags["refs"], Err)) {
    std::cerr << "g80bench: references: " << Err << "\n";
    return 2;
  }
  Opts.Refs = &Refs;

  // Everything the run writes (journals, spool) lives in its own
  // directory, which is also the working directory.
  Opts.WorkDir = fs::absolute(Flags["work"]).string();
  std::error_code Ec;
  fs::remove_all(Opts.WorkDir, Ec);
  fs::create_directories(Opts.WorkDir, Ec);
  if (Ec || ::chdir(Opts.WorkDir.c_str()) != 0)
    return usage(("cannot use work directory " + Opts.WorkDir).c_str());

  Checker Check;
  RunResult R = runWorkload(Opts, Check);

  fs::current_path(fs::path(Opts.WorkDir).parent_path(), Ec);
  fs::remove_all(Opts.WorkDir, Ec);

  for (const std::string &F : Check.failures())
    std::cerr << "g80bench: MISMATCH: " << F << "\n";
  if (!R.LayerTable.empty())
    std::cout << R.LayerTable;
  std::cout << "{\"correct\": " << (Check.ok() ? "true" : "false")
            << ", \"attempted\": " << R.Attempted
            << ", \"failed\": " << R.Failed
            << ", \"metrics\": " << R.Metrics.json() << "}" << std::endl;
  return Check.ok() ? 0 : 1;
}
