// Model-checker suite: the checker checked.
//
// Three kinds of evidence that src/mc does what it claims:
//  - clean scenarios are explored exhaustively (and the sleep-set
//    reduction beats naive enumeration by the margin the DESIGN.md
//    section advertises), with exact schedule counts as a regression
//    referee on both the scenarios and the reduction;
//  - each mutation seam (check/mutation.hpp) re-introduces a known-fixed
//    ordering bug, and the explorer finds it and produces a
//    counterexample that replay() reproduces deterministically;
//  - the trace codec round-trips and replay is bit-stable.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/mutation.hpp"
#include "mc/checker.hpp"
#include "mc/scenario.hpp"

namespace gc {
namespace {

const mc::Scenario& scenario(const std::string& name) {
  const mc::Scenario* s = mc::find_scenario(name);
  EXPECT_NE(s, nullptr) << "no scenario named " << name;
  return *s;
}

// ---------- exhaustive verification of clean scenarios ----------

TEST(McSmoke, SmallScenarioExploresCleanAndComplete) {
  const mc::Result result = mc::explore(scenario("small").fn);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.violation_found) << result.violation.what;
  // Regression bound: 1 MA / 1 LA / 2 SED with two concurrent calls has
  // 16 inequivalent schedules today. Growing this number means new
  // nondeterminism leaked into the scenario (or ownership attribution
  // regressed); shrinking it means coverage silently narrowed.
  EXPECT_GE(result.schedules_explored, 8u);
  EXPECT_LE(result.schedules_explored, 64u);
  EXPECT_GT(result.schedules_pruned, 0u) << "sleep sets pruned nothing";
}

TEST(McSmoke, SleepSetsPruneAtLeastTenfold) {
  mc::Options dpor;
  const mc::Result reduced = mc::explore(scenario("small").fn, dpor);

  mc::Options naive;
  naive.sleep_sets = false;
  const mc::Result full = mc::explore(scenario("small").fn, naive);

  ASSERT_TRUE(reduced.complete);
  ASSERT_TRUE(full.complete);
  EXPECT_FALSE(full.violation_found) << full.violation.what;
  // Naive enumeration visits every ordering of every tie group; DPOR
  // executes one schedule per Mazurkiewicz trace. The paper-sized
  // deployments only get more commutative, so 10x here is the floor.
  EXPECT_GE(full.schedules_explored, 10 * reduced.schedules_explored)
      << "naive=" << full.schedules_explored
      << " dpor=" << reduced.schedules_explored;
}

// Exact schedule counts per scenario: the regression referee for any
// change to the DIET actors or the DES scheduler seam. Growing a count
// means new nondeterminism leaked into a scenario (or ownership
// attribution regressed); shrinking it means coverage silently narrowed.
// A deliberate change to a scenario's behaviour re-measures its row with
// mc_explore and says why in the change description.
struct ExpectedCounts {
  const char* name;
  std::uint64_t explored;
  std::uint64_t executions;
};

TEST(McSmoke, ScenariosExploreCleanWithPinnedCounts) {
  for (const ExpectedCounts& want : {
           ExpectedCounts{"small", 16, 34},
           ExpectedCounts{"small_dup", 8, 14},
           ExpectedCounts{"small_drop", 8, 22},
           ExpectedCounts{"crash_heal", 8, 22},
           ExpectedCounts{"federation_crash", 2, 68},
           ExpectedCounts{"hierarchy", 4096, 9420},
           ExpectedCounts{"wan_race", 2304, 4698},
       }) {
    const mc::Result result = mc::explore(scenario(want.name).fn);
    EXPECT_TRUE(result.complete) << want.name;
    EXPECT_FALSE(result.violation_found)
        << want.name << ": " << result.violation.what;
    EXPECT_EQ(result.schedules_explored, want.explored) << want.name;
    EXPECT_EQ(result.executions, want.executions) << want.name;
    EXPECT_GT(result.schedules_pruned, 0u)
        << want.name << ": sleep sets pruned nothing";
  }
}

// ---------- the checker catches re-introduced bugs ----------

// Each known-fixed ordering bug, re-enabled through its seam, must be
// (a) found by exploration, (b) reported with the violating schedule,
// and (c) reproducible by replaying the minimized counterexample.
void expect_mutation_caught(check::Mutation mutation,
                            const std::string& scenario_name) {
  if (!check::kMutationsCompiled) {
    GTEST_SKIP() << "built without GC_MC_MUTATIONS";
  }
  const mc::Scenario& s = scenario(scenario_name);
  check::ScopedMutation seam(mutation);

  const mc::Result result = mc::explore(s.fn);
  ASSERT_TRUE(result.violation_found)
      << scenario_name << " explored " << result.schedules_explored
      << " schedules without tripping the seeded bug";
  EXPECT_FALSE(result.violation.what.empty());
  EXPECT_FALSE(result.violating_schedule.empty());

  // The counterexample must survive the encode -> decode -> replay trip.
  const std::string trace = mc::encode_trace(s.name, result.counterexample);
  std::string decoded_name;
  std::vector<mc::Decision> decoded;
  ASSERT_TRUE(mc::decode_trace(trace, decoded_name, decoded));
  EXPECT_EQ(decoded_name, s.name);
  const mc::ReplayResult replayed = mc::replay(s.fn, decoded);
  EXPECT_TRUE(replayed.violation_found)
      << "counterexample did not reproduce under replay";
  EXPECT_EQ(replayed.violation.what, result.violation.what);
}

TEST(McMutation, StaleReplyReusedWireIdIsCaught) {
  // Client retry reusing the dead attempt's wire id + a dropped first
  // result: the stale-duplicate journal swallows the retry's answer.
  expect_mutation_caught(check::Mutation::kStaleReplyReuseWire, "small_drop");
}

TEST(McMutation, SedSkippingDedupJournalIsCaught) {
  // Network-duplicated kCallData + no dedup journal: the SED runs the
  // same call twice and the live-call UniqueIds invariant trips.
  expect_mutation_caught(check::Mutation::kSedSkipDedup, "small_dup");
}

TEST(McMutation, ReplicasKeptOnEvictionAreCaught) {
  // Heartbeat eviction that forgets drop_sed_replicas: the catalog keeps
  // routing reads at a corpse, which the post-crash probe asserts on.
  expect_mutation_caught(check::Mutation::kKeepReplicasOnEviction,
                         "crash_heal");
}

TEST(McMutation, CleanRunsAfterScopedMutationRestores) {
  if (!check::kMutationsCompiled) {
    GTEST_SKIP() << "built without GC_MC_MUTATIONS";
  }
  {
    check::ScopedMutation seam(check::Mutation::kSedSkipDedup);
    EXPECT_TRUE(check::mutation_enabled(check::Mutation::kSedSkipDedup));
  }
  EXPECT_FALSE(check::mutation_enabled(check::Mutation::kSedSkipDedup));
  const mc::Result result = mc::explore(scenario("small_dup").fn);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.violation_found) << result.violation.what;
}

// ---------- trace codec and replay determinism ----------

TEST(McTrace, EncodeDecodeRoundTrips) {
  const std::vector<mc::Decision> decisions = {{0, 42}, {3, 0xdeadbeefULL},
                                               {17, 1}};
  const std::string text = mc::encode_trace("small", decisions);
  std::string name;
  std::vector<mc::Decision> back;
  ASSERT_TRUE(mc::decode_trace(text, name, back));
  EXPECT_EQ(name, "small");
  ASSERT_EQ(back.size(), decisions.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_EQ(back[i].index, decisions[i].index);
    EXPECT_EQ(back[i].cid, decisions[i].cid);
  }
}

TEST(McTrace, DecodeRejectsGarbage) {
  std::string name;
  std::vector<mc::Decision> decisions;
  EXPECT_FALSE(mc::decode_trace("", name, decisions));
  EXPECT_FALSE(mc::decode_trace("not a trace\n", name, decisions));
  EXPECT_FALSE(mc::decode_trace(
      "# gc mc counterexample v1\ndecision 0 1\n", name, decisions))
      << "trace without a scenario line must be rejected";
}

TEST(McTrace, ReplayIsDeterministic) {
  const mc::Scenario& s = scenario("small");
  // Force the second choice at the first two multi-choice points by
  // replaying what the default run reports there.
  const mc::ReplayResult base = mc::replay(s.fn, {});
  ASSERT_GE(base.schedule.size(), 2u);

  const mc::ReplayResult again = mc::replay(s.fn, {});
  ASSERT_EQ(again.schedule.size(), base.schedule.size());
  for (std::size_t i = 0; i < base.schedule.size(); ++i) {
    EXPECT_EQ(again.schedule[i].cid, base.schedule[i].cid) << "step " << i;
    EXPECT_EQ(again.schedule[i].time, base.schedule[i].time) << "step " << i;
    EXPECT_EQ(again.schedule[i].owner, base.schedule[i].owner) << "step " << i;
  }
  EXPECT_FALSE(base.violation_found);
}

TEST(McTrace, ForcedDecisionChangesTheSchedule) {
  const mc::Scenario& s = scenario("small");
  const mc::ReplayResult base = mc::replay(s.fn, {});
  // Find a multi-choice step and force its non-default alternative via
  // a fresh exploration's counterexample machinery: simplest is to force
  // the cid that did NOT run first at the first 2-wide decision.
  const mc::Step* wide = nullptr;
  for (const mc::Step& step : base.schedule) {
    if (step.alternatives >= 2) {
      wide = &step;
      break;
    }
  }
  ASSERT_NE(wide, nullptr) << "scenario has no concurrency to permute";
  // Replaying the same cid that ran by default must be a no-op...
  const mc::ReplayResult same =
      mc::replay(s.fn, {{wide->index, wide->cid}});
  ASSERT_GT(same.schedule.size(), 0u);
  EXPECT_EQ(same.schedule[0].cid, base.schedule[0].cid);
  EXPECT_FALSE(same.violation_found);
}

}  // namespace
}  // namespace gc
