//===- perfbench/harness/Harness.cpp --------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/ErrorHandling.h"
#include "support/Journal.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace bench;

namespace {

/// A "Vm*:" line of /proc/self/status in MB, or 0 when unavailable.
double procStatusMb(const char *Key) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t KeyLen = std::char_traits<char>::length(Key);
  while (std::getline(In, Line))
    if (Line.compare(0, KeyLen, Key) == 0)
      return std::strtod(Line.c_str() + KeyLen, nullptr) / 1024.0;
  return 0;
}

std::string fmt17(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

double bench::rssMb() { return procStatusMb("VmRSS:"); }
double bench::peakRssMb() { return procStatusMb("VmHWM:"); }

double bench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - double(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

uint64_t bench::subSeed(uint64_t Seed, uint64_t Salt) {
  // SplitMix64 finalizer over (seed, salt): distinct salts give
  // decorrelated streams from one workload seed.
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + (Salt + 1) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

unsigned bench::benchJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

//===--- References -------------------------------------------------------===//

bool References::load(const std::string &Dir, std::string &Err) {
  std::ifstream Optima(Dir + "/optima.tsv");
  if (!Optima) {
    Err = "cannot read " + Dir + "/optima.tsv";
    return false;
  }
  std::string Line;
  while (std::getline(Optima, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream In(Line);
    std::string App, Tier, Time;
    uint64_t Valid = 0, Flat = 0;
    if (!(In >> App >> Tier >> Valid >> Flat >> Time)) {
      Err = "malformed optima line: " + Line;
      return false;
    }
    std::string Path = Dir + "/configs/" + App + "-" + Tier + ".tsv";
    std::ifstream Cfg(Path);
    if (!Cfg) {
      Err = "cannot read " + Path;
      return false;
    }
    ConfigTable T;
    T.BestFlat = Flat;
    T.BestTime = std::strtod(Time.c_str(), nullptr);
    uint64_t MinFlat = 0;
    double MinTime = HUGE_VAL;
    std::string Row;
    while (std::getline(Cfg, Row)) {
      if (Row.empty() || Row[0] == '#')
        continue;
      uint64_t F = 0;
      char TimeBuf[64];
      if (std::sscanf(Row.c_str(), "%" SCNu64 " %63s", &F, TimeBuf) != 2) {
        Err = "malformed row in " + Path + ": " + Row;
        return false;
      }
      double S = std::strtod(TimeBuf, nullptr);
      T.Time.emplace(F, S);
      if (S < MinTime) {
        MinTime = S;
        MinFlat = F;
      }
    }
    // The optimum is committed on its own so that a table and its
    // optimum can disagree only by someone editing one of them.
    if (T.Time.size() != Valid || MinFlat != T.BestFlat ||
        MinTime != T.BestTime) {
      Err = "reference optimum for " + App + "-" + Tier + " (" +
            std::to_string(Valid) + " valid, #" + std::to_string(Flat) +
            " at " + Time + " s) disagrees with its table (" +
            std::to_string(T.Time.size()) + " valid, #" +
            std::to_string(MinFlat) + " at " + fmt17(MinTime) + " s)";
      return false;
    }
    Tables.emplace(App + "-" + Tier, std::move(T));
  }

  std::ifstream Srch(Dir + "/searches.tsv");
  if (!Srch) {
    Err = "cannot read " + Dir + "/searches.tsv";
    return false;
  }
  while (std::getline(Srch, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream In(Line);
    std::string Key, Time;
    if (Line.rfind("seed ", 0) == 0) {
      In >> Key >> RefSeed;
      continue;
    }
    SearchRef R;
    if (!(In >> Key >> R.Measured >> R.BestFlat >> Time)) {
      Err = "malformed searches line: " + Line;
      return false;
    }
    R.BestTime = std::strtod(Time.c_str(), nullptr);
    Searches[Key] = R;
  }
  return true;
}

const ConfigTable &References::table(const std::string &App,
                                     const std::string &Tier) const {
  auto It = Tables.find(App + "-" + Tier);
  if (It == Tables.end())
    g80::reportFatalError(("no reference table for " + App + "-" + Tier).c_str());
  return It->second;
}

const SearchRef *References::search(const std::string &Key) const {
  auto It = Searches.find(Key);
  return It == Searches.end() ? nullptr : &It->second;
}

void Checker::fail(const std::string &Msg) {
  std::lock_guard<std::mutex> L(M);
  Failures.push_back(Msg);
}

SearchSummary bench::checkSearch(const References &Refs, Checker &Check,
                                 const std::string &Key,
                                 const std::string &App,
                                 const std::string &Tier,
                                 const g80::SearchOutcome &Out,
                                 bool WithRef) {
  const ConfigTable &T = Refs.table(App, Tier);
  SearchSummary S;
  S.Key = Key;
  S.Quarantined = Out.Quarantined.size();

  double Least = HUGE_VAL;
  for (size_t Idx : Out.Candidates) {
    const g80::ConfigEval &E = Out.Evals[Idx];
    if (E.failed() || !E.Measured)
      continue;
    ++S.Measured;
    Least = std::min(Least, E.TimeSeconds);
    auto It = T.Time.find(E.FlatIndex);
    if (It == T.Time.end())
      Check.fail(Key + ": measured config #" + std::to_string(E.FlatIndex) +
                 " is not a valid config of the reference table");
    else if (It->second != E.TimeSeconds)
      Check.fail(Key + ": config #" + std::to_string(E.FlatIndex) +
                 " simulated " + fmt17(E.TimeSeconds) +
                 " s, reference table says " + fmt17(It->second) + " s");
  }

  S.HasBest = Out.hasBest();
  if (S.HasBest) {
    S.BestFlat = Out.Evals[Out.BestIndex].FlatIndex;
    S.BestTime = Out.BestTime;
    if (S.BestTime != Least)
      Check.fail(Key + ": reported best " + fmt17(S.BestTime) +
                 " s is not the least measured time " + fmt17(Least));
    if (S.BestTime < T.BestTime)
      Check.fail(Key + ": best " + fmt17(S.BestTime) +
                 " s beats the exhaustive optimum " + fmt17(T.BestTime));
  } else if (S.Measured != 0) {
    Check.fail(Key + ": measured configs but reported no best");
  }

  if (WithRef) {
    const SearchRef *R = Refs.search(Key);
    if (!R)
      Check.fail(Key + ": no committed reference");
    else if (R->Measured != S.Measured || R->BestFlat != S.BestFlat ||
             R->BestTime != S.BestTime)
      Check.fail(Key + ": measured " + std::to_string(S.Measured) +
                 ", best #" + std::to_string(S.BestFlat) + " at " +
                 fmt17(S.BestTime) + " s; reference says " +
                 std::to_string(R->Measured) + ", best #" +
                 std::to_string(R->BestFlat) + " at " + fmt17(R->BestTime) +
                 " s");
  }
  return S;
}

bool bench::appendSearchRefs(const std::string &Path,
                             const std::vector<SearchSummary> &Summaries) {
  std::ofstream Out(Path, std::ios::app);
  for (const SearchSummary &S : Summaries)
    Out << S.Key << ' ' << S.Measured << ' ' << S.BestFlat << ' '
        << fmt17(S.BestTime) << '\n';
  return bool(Out);
}

//===--- The program's trace ----------------------------------------------===//

bool bench::readTrace(const std::string &Path, std::vector<TracedSpan> &Out,
                      std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot open trace " + Path;
    return false;
  }
  std::string Line, Type;
  while (std::getline(In, Line)) {
    if (!g80::jsonStringField(Line, "type", Type) || Type != "span")
      continue;
    TracedSpan S;
    uint64_t StartUs = 0, DurUs = 0;
    if (!g80::jsonStringField(Line, "name", S.Name) ||
        !g80::jsonUintField(Line, "start_us", StartUs) ||
        !g80::jsonUintField(Line, "dur_us", DurUs)) {
      Err = "malformed span line in " + Path + ": " + Line;
      return false;
    }
    S.Start = double(StartUs) * 1e-6;
    S.Dur = double(DurUs) * 1e-6;
    Out.push_back(std::move(S));
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TracedSpan &A, const TracedSpan &B) {
                     return A.Start < B.Start;
                   });
  return true;
}

std::map<std::string, SpanTotals>
bench::spanTotals(const std::vector<TracedSpan> &Spans) {
  std::map<std::string, SpanTotals> Out;
  for (const TracedSpan &S : Spans) {
    SpanTotals &T = Out[S.Name];
    ++T.Calls;
    T.TotalS += S.Dur;
    T.MaxS = std::max(T.MaxS, S.Dur);
  }
  return Out;
}

//===--- Results ----------------------------------------------------------===//

void MetricSet::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (Entry &E : Entries)
    if (E.Name == Name) {
      E.Value = Value;
      E.Unit = Unit;
      return;
    }
  Entries.push_back({Name, Value, Unit});
}

std::string MetricSet::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &E = Entries[I];
    double V = std::isfinite(E.Value) ? E.Value : 0.0;
    Out += (I ? ", \"" : "\"") + E.Name + "\": {\"value\": " + fmt17(V) +
           ", \"unit\": \"" + E.Unit + "\"}";
  }
  return Out + "}";
}
