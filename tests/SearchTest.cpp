//===- tests/SearchTest.cpp - search strategy tests --------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/SearchStrategy.h"

#include "kernels/MatMul.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace g80;

namespace {

// A modest problem keeps simulation cheap; the space shape is unchanged.
const MatMulApp &app() {
  static MatMulApp App(MatMulProblem{256});
  return App;
}

const SearchEngine &engine() {
  static SearchEngine Engine(app(), MachineModel::geForce8800Gtx());
  return Engine;
}

/// Runs \p Kind to completion on the shared engine.
SearchOutcome search(StrategyKind Kind, uint64_t Budget = 16,
                     uint64_t Seed = 1) {
  StrategyOptions Opts;
  Opts.Budget = Budget;
  Opts.Seed = Seed;
  SweepReport Rep = runStrategy(engine(), Kind, Opts);
  EXPECT_EQ(Rep.Status, SweepStatus::Completed);
  return std::move(Rep.Outcome);
}

TEST(Search, ExhaustiveMeasuresEveryUsableConfig) {
  SearchOutcome Out = search(StrategyKind::Exhaustive);
  EXPECT_EQ(Out.Candidates.size(), Out.ValidCount);
  for (size_t I : Out.Candidates) {
    EXPECT_TRUE(Out.Evals[I].usable());
    EXPECT_TRUE(Out.Evals[I].Measured);
    EXPECT_GT(Out.Evals[I].TimeSeconds, 0);
  }
  EXPECT_EQ(Out.spaceReduction(), 0.0);
}

TEST(Search, BestIndexIsConsistent) {
  SearchOutcome Out = search(StrategyKind::Exhaustive);
  ASSERT_LT(Out.BestIndex, Out.Evals.size());
  for (size_t I : Out.Candidates)
    EXPECT_GE(Out.Evals[I].TimeSeconds, Out.BestTime);
  EXPECT_EQ(Out.Evals[Out.BestIndex].TimeSeconds, Out.BestTime);
}

TEST(Search, ParetoPrunedIsSubsetOfUsable) {
  SearchOutcome Out = search(StrategyKind::Pareto);
  EXPECT_LT(Out.Candidates.size(), Out.ValidCount);
  for (size_t I : Out.Candidates)
    EXPECT_TRUE(Out.Evals[I].usable());
  // Unmeasured configurations still carry metrics.
  size_t WithMetrics = 0;
  for (const ConfigEval &E : Out.Evals)
    if (E.usable())
      ++WithMetrics;
  EXPECT_EQ(WithMetrics, Out.ValidCount);
}

TEST(Search, ParetoFindsNearOptimum) {
  // At this reduced problem scale the simulator's launch-tail effects can
  // push the true optimum slightly off the curve (§5.3 discusses exactly
  // this failure mode); the curve still lands close.  The exact
  // found-the-optimum claim is asserted at bench scale in
  // IntegrationTest.
  SearchOutcome Full = search(StrategyKind::Exhaustive);
  SearchOutcome Pruned = search(StrategyKind::Pareto);
  EXPECT_LE(Pruned.BestTime, Full.BestTime * 1.25);
  EXPECT_LT(Pruned.TotalMeasuredSeconds, Full.TotalMeasuredSeconds);
}

TEST(Search, ClusteredSelectsAtMostOnePerCluster) {
  SearchOutcome Pruned = search(StrategyKind::Pareto);
  SearchOutcome Clustered = search(StrategyKind::Cluster);
  EXPECT_LE(Clustered.Candidates.size(), Pruned.Candidates.size());
  EXPECT_GE(Clustered.Candidates.size(), 1u);
  // Clustered candidates are a subset of the pruned candidates.
  for (size_t I : Clustered.Candidates)
    EXPECT_TRUE(std::binary_search(Pruned.Candidates.begin(),
                                   Pruned.Candidates.end(), I));
}

TEST(Search, RandomSampleDeterministicPerSeed) {
  SearchOutcome A = search(StrategyKind::Random, 10, 42);
  SearchOutcome B = search(StrategyKind::Random, 10, 42);
  SearchOutcome C = search(StrategyKind::Random, 10, 43);
  EXPECT_EQ(A.Candidates, B.Candidates);
  EXPECT_NE(A.Candidates, C.Candidates);
}

TEST(Search, RandomSampleDrawsDistinctUsable) {
  SearchOutcome Out = search(StrategyKind::Random, 20, 7);
  EXPECT_EQ(Out.Candidates.size(), 20u);
  EXPECT_TRUE(std::is_sorted(Out.Candidates.begin(), Out.Candidates.end()));
  EXPECT_TRUE(std::adjacent_find(Out.Candidates.begin(),
                                 Out.Candidates.end()) ==
              Out.Candidates.end());
  for (size_t I : Out.Candidates)
    EXPECT_TRUE(Out.Evals[I].usable());
}

TEST(Search, RandomSampleCapsAtSpaceSize) {
  SearchOutcome Out = search(StrategyKind::Random, 100000, 3);
  EXPECT_EQ(Out.Candidates.size(), Out.ValidCount);
}

TEST(Search, RandomSampleNeverBeatsExhaustive) {
  SearchOutcome Full = search(StrategyKind::Exhaustive);
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    SearchOutcome R = search(StrategyKind::Random, 10, Seed);
    EXPECT_GE(R.BestTime, Full.BestTime);
  }
}

TEST(Search, SpaceReductionArithmetic) {
  SearchOutcome Out = search(StrategyKind::Pareto);
  double Expected =
      1.0 - double(Out.Candidates.size()) / double(Out.ValidCount);
  EXPECT_DOUBLE_EQ(Out.spaceReduction(), Expected);
}

TEST(Search, StrategyNamesSet) {
  EXPECT_EQ(search(StrategyKind::Pareto).Strategy, "pareto");
  EXPECT_EQ(search(StrategyKind::Random, 1, 1).Strategy, "random");
  EXPECT_EQ(search(StrategyKind::Cluster).Strategy, "pareto+cluster");
}

} // namespace

// Greedy coverage, kept in this file so the shared engine() fixture is
// reused.
namespace {

TEST(Greedy, DeterministicPerSeed) {
  SearchOutcome A = search(StrategyKind::Greedy, 20, 5);
  SearchOutcome B = search(StrategyKind::Greedy, 20, 5);
  EXPECT_EQ(A.Candidates, B.Candidates);
  EXPECT_DOUBLE_EQ(A.BestTime, B.BestTime);
}

TEST(Greedy, RespectsBudget) {
  SearchOutcome Out = search(StrategyKind::Greedy, 5, 11);
  EXPECT_LE(Out.Candidates.size(), 5u);
  EXPECT_GE(Out.Candidates.size(), 1u);
  EXPECT_EQ(Out.Strategy, "greedy");
}

TEST(Greedy, CandidatesAreUsableAndMeasured) {
  SearchOutcome Out = search(StrategyKind::Greedy, 30, 2);
  for (size_t I : Out.Candidates) {
    EXPECT_TRUE(Out.Evals[I].usable());
    EXPECT_TRUE(Out.Evals[I].Measured);
  }
}

TEST(Greedy, NeverBeatsExhaustive) {
  SearchOutcome Full = search(StrategyKind::Exhaustive);
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    SearchOutcome G = search(StrategyKind::Greedy, 40, Seed);
    EXPECT_GE(G.BestTime, Full.BestTime);
  }
}

TEST(Greedy, ReachesALocalOptimumUnderLargeBudget) {
  // With an unbounded budget the climb (restarting at every local
  // optimum) ends at a best configuration none of whose measured
  // one-step neighbors is faster.
  SearchOutcome Out = search(StrategyKind::Greedy, 100000, 9);
  ASSERT_LT(Out.BestIndex, Out.Evals.size());
  const ConfigSpace &S = app().space();
  const ConfigPoint &BestP = Out.Evals[Out.BestIndex].Point;
  for (size_t D = 0; D != S.numDims(); ++D) {
    const std::vector<int> &Vals = S.dim(D).Values;
    for (size_t V = 0; V != Vals.size(); ++V) {
      if (Vals[V] != BestP[D])
        continue;
      for (int Step : {-1, 1}) {
        if ((Step < 0 && V == 0) || (Step > 0 && V + 1 >= Vals.size()))
          continue;
        ConfigPoint N = BestP;
        N[D] = Vals[V + size_t(Step)];
        for (size_t I : Out.Candidates) {
          if (Out.Evals[I].Point == N) {
            EXPECT_GE(Out.Evals[I].TimeSeconds, Out.BestTime);
          }
        }
      }
    }
  }
}

} // namespace
