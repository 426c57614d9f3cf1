//===- tests/RtChaosTest.cpp - The rt chaos driver on the bus ---------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives runRtScenario end to end on the in-process bus with a handful
/// of client ops: a single group (a plain RtCluster, no pool statistics)
/// and a two-group pool, where every scenario script runs once per data
/// group and the pool map must keep its generation audit.
///
//===----------------------------------------------------------------------===//

#include "chaos/RtRun.h"

#include <gtest/gtest.h>

using namespace adore;
using namespace adore::chaos;

namespace {

ChaosRunResult runOnBus(Scenario Kind, size_t Groups) {
  RtRunOptions Opts;
  Opts.Kind = Kind;
  Opts.Groups = Groups;
  Opts.NumOps = 6;
  return runRtScenario(Opts, /*Seed=*/7);
}

std::string failures(const ChaosRunResult &R) {
  std::string S = R.summary();
  for (const std::string &V : R.Violations)
    S += "\n  " + V;
  return S;
}

} // namespace

TEST(RtChaosTest, SingleGroupMixedPasses) {
  ChaosRunResult R = runOnBus(Scenario::Mixed, 1);
  EXPECT_TRUE(R.passed()) << failures(R);
  EXPECT_TRUE(R.GroupStats.empty());
  EXPECT_GE(R.ReconfigsCommitted, 2u);
  EXPECT_GT(R.CommittedEntries, 0u);
}

TEST(RtChaosTest, SingleGroupKillForeverHeals) {
  ChaosRunResult R = runOnBus(Scenario::KillForever, 1);
  EXPECT_TRUE(R.passed()) << failures(R);
  EXPECT_TRUE(R.GroupStats.empty());
  EXPECT_EQ(R.PermanentKills, 2u);
  EXPECT_GE(R.HealReconfigsCommitted, 2u);
}

TEST(RtChaosTest, TwoGroupReconfigsRunInEveryGroup) {
  ChaosRunResult R = runOnBus(Scenario::Reconfigs, 2);
  EXPECT_TRUE(R.passed()) << failures(R);
  // The metadata group plus two data groups.
  ASSERT_EQ(R.GroupStats.size(), 3u);
  // Each data group runs the script's four reconfigs, and an
  // uncommitted one is a violation, so a passing run committed them all.
  EXPECT_GE(R.ReconfigsCommitted, 2u * 4u);
  EXPECT_EQ(R.ReconfigsCommitted, R.ReconfigsRequested);
  EXPECT_EQ(R.MapGeneration, 1u);
}

TEST(RtChaosTest, TwoGroupShardReconfigPasses) {
  ChaosRunResult R = runOnBus(Scenario::ShardReconfig, 2);
  EXPECT_TRUE(R.passed()) << failures(R);
  ASSERT_EQ(R.GroupStats.size(), 3u);
  EXPECT_EQ(R.MapGeneration, 1 + R.MapChangesCommitted);
}
