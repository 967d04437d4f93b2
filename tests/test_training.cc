/**
 * @file
 * Tests for the training-at-scale subsystem (app::TrainingDriver):
 * option validation, shard accounting, deterministic merging, and the
 * train -> freeze -> evaluate split.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "test_util.hh"

using namespace cohmeleon;

namespace
{

/** Fast training options for the tiny SoC. */
app::TrainingOptions
tinyTrainingOptions()
{
    app::TrainingOptions opts;
    opts.shards = 3;
    opts.iterations = 2;
    opts.appParams.phases = 2;
    opts.appParams.maxThreads = 3;
    return opts;
}

} // namespace

TEST(TrainingDriver, RejectsDegenerateOptions)
{
    app::ParallelRunner runner(1);
    app::TrainingDriver driver(runner);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::TrainingOptions noShards = tinyTrainingOptions();
    noShards.shards = 0;
    EXPECT_THROW(driver.train(cfg, noShards), FatalError);
    app::TrainingOptions noIterations = tinyTrainingOptions();
    noIterations.iterations = 0;
    EXPECT_THROW(driver.train(cfg, noIterations), FatalError);
}

TEST(TrainingDriver, TrainIsDeterministic)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    const app::TrainingResult a =
        driver.train(cfg, tinyTrainingOptions());
    const app::TrainingResult b =
        driver.train(cfg, tinyTrainingOptions());
    EXPECT_EQ(a.checkpoint.serialized(), b.checkpoint.serialized());
    EXPECT_EQ(a.totalInvocations, b.totalInvocations);
}

TEST(TrainingDriver, ShardsTrainOnDistinctSeeds)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    const app::TrainingResult r =
        driver.train(cfg, tinyTrainingOptions());
    ASSERT_EQ(r.shards.size(), 3u);
    std::set<std::uint64_t> seeds;
    std::uint64_t invocations = 0;
    for (const app::ShardReport &s : r.shards) {
        seeds.insert(s.seed);
        invocations += s.invocations;
        EXPECT_GT(s.invocations, 0u);
    }
    EXPECT_EQ(seeds.size(), r.shards.size()); // scenario diversity
    EXPECT_EQ(invocations, r.totalInvocations);
}

TEST(TrainingDriver, MergedVisitsEqualSumOfShardVisits)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    const app::TrainingResult r =
        driver.train(cfg, tinyTrainingOptions());
    std::uint64_t shardVisits = 0;
    for (const app::ShardReport &s : r.shards)
        shardVisits += s.qtableVisits;
    EXPECT_GT(shardVisits, 0u);
    EXPECT_EQ(r.checkpoint.model.totalVisits(), shardVisits);
}

TEST(TrainingDriver, CheckpointIsFrozenAndScheduleComplete)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    const app::TrainingOptions opts = tinyTrainingOptions();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    const app::TrainingResult r = driver.train(cfg, opts);
    EXPECT_TRUE(r.checkpoint.frozen);
    EXPECT_EQ(r.checkpoint.iteration, opts.iterations);
    EXPECT_EQ(r.checkpoint.agent.decayIterations, opts.iterations);
    const auto policy = r.checkpoint.makePolicy();
    EXPECT_TRUE(policy->agent().frozen());
    EXPECT_DOUBLE_EQ(policy->agent().epsilon(), 0.0);
    EXPECT_DOUBLE_EQ(policy->agent().alpha(), 0.0);
}

TEST(TrainingDriver, EvaluateIsAPureFunction)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    const app::TrainingResult r =
        driver.train(cfg, tinyTrainingOptions());

    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const app::AppSpec evalApp =
        app::generateRandomApp(cfg, Rng(99), ap);

    const app::AppResult a =
        app::TrainingDriver::evaluate(r.checkpoint, cfg, evalApp);
    const app::AppResult b =
        app::TrainingDriver::evaluate(r.checkpoint, cfg, evalApp);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].execCycles, b.phases[i].execCycles);
        EXPECT_EQ(a.phases[i].ddrAccesses, b.phases[i].ddrAccesses);
    }
    EXPECT_GT(a.totalExecCycles(), 0u);
}

TEST(TrainingDriver, EvaluateAfterSaveLoadMatchesDirectEvaluate)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    const app::TrainingResult r =
        driver.train(cfg, tinyTrainingOptions());

    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const app::AppSpec evalApp =
        app::generateRandomApp(cfg, Rng(99), ap);

    const app::AppResult direct =
        app::TrainingDriver::evaluate(r.checkpoint, cfg, evalApp);

    std::stringstream persisted;
    r.checkpoint.save(persisted);
    const app::AppResult replayed = app::TrainingDriver::evaluate(
        policy::PolicyCheckpoint::load(persisted), cfg, evalApp);

    ASSERT_EQ(direct.phases.size(), replayed.phases.size());
    for (std::size_t i = 0; i < direct.phases.size(); ++i) {
        EXPECT_EQ(direct.phases[i].execCycles,
                  replayed.phases[i].execCycles);
        EXPECT_EQ(direct.phases[i].ddrAccesses,
                  replayed.phases[i].ddrAccesses);
    }
}

TEST(TrainingDriver, FrozenEvaluationDoesNotLearn)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    const app::TrainingResult r =
        driver.train(cfg, tinyTrainingOptions());

    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const app::AppSpec evalApp =
        app::generateRandomApp(cfg, Rng(99), ap);

    const auto policy = r.checkpoint.makePolicy();
    const std::uint64_t visitsBefore =
        policy->agent().table().totalVisits();
    app::runPolicyOnApp(*policy, cfg, evalApp);
    EXPECT_EQ(policy->agent().table().totalVisits(), visitsBefore);
}

TEST(TrainingDriver, StrategiesAreDeterministicAcrossThreadCounts)
{
    // Every (merge, explore) pair keeps the subsystem's headline
    // invariant: the checkpoint is a pure function of the options,
    // never of the pool width.
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner serial(1);
    app::ParallelRunner wide(3);
    for (const char *merge :
         {"visit-weighted", "recency@0.5", "reward-norm"}) {
        for (const char *explore : {"linear", "floor@0.1", "visit@1"}) {
            app::TrainingOptions opts = tinyTrainingOptions();
            opts.merge = rl::mergeSpecFromString(merge);
            opts.explore = rl::exploreSpecFromString(explore);
            const app::TrainingResult a =
                app::TrainingDriver(serial).train(cfg, opts);
            const app::TrainingResult b =
                app::TrainingDriver(wide).train(cfg, opts);
            EXPECT_EQ(a.checkpoint.serialized(),
                      b.checkpoint.serialized())
                << merge << "/" << explore;
        }
    }
}

TEST(TrainingDriver, CheckpointRecordsTheStrategies)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    app::TrainingOptions opts = tinyTrainingOptions();
    opts.merge = rl::mergeSpecFromString("recency@0.25");
    opts.explore = rl::exploreSpecFromString("floor@0.2");
    const app::TrainingResult r = driver.train(cfg, opts);
    EXPECT_EQ(r.checkpoint.merge, opts.merge);
    EXPECT_EQ(r.checkpoint.agent.explore, opts.explore);
    // ...losslessly through the text format.
    std::stringstream persisted;
    r.checkpoint.save(persisted);
    const policy::PolicyCheckpoint restored =
        policy::PolicyCheckpoint::load(persisted);
    EXPECT_EQ(restored.merge, opts.merge);
    EXPECT_EQ(restored.agent.explore, opts.explore);
}

TEST(TrainingDriver, MergeStrategiesShareVisitsButNotValues)
{
    // Different folds of the same shard tables: identical training
    // mass (visits always sum exactly), different Q-values. Uses a
    // longer horizon so shard coverage overlaps enough for the
    // weighting to matter.
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    app::TrainingOptions opts = tinyTrainingOptions();
    opts.shards = 4;
    opts.iterations = 6;
    app::TrainingOptions recency = opts;
    recency.merge = rl::mergeSpecFromString("recency@0.5");
    const app::TrainingResult vw = driver.train(cfg, opts);
    const app::TrainingResult rc = driver.train(cfg, recency);
    EXPECT_EQ(vw.checkpoint.model.totalVisits(),
              rc.checkpoint.model.totalVisits());
    EXPECT_EQ(vw.checkpoint.model.updatedEntries(),
              rc.checkpoint.model.updatedEntries());
    bool anyDiff = false;
    for (unsigned s = 0; s < rl::StateTuple::kNumStates && !anyDiff;
         ++s)
        for (unsigned a = 0; a < rl::kNumActions; ++a)
            anyDiff |= vw.checkpoint.model.qtable().q(s, a) !=
                       rc.checkpoint.model.qtable().q(s, a);
    EXPECT_TRUE(anyDiff);
}

TEST(TrainingDriver, RejectsInvalidStrategies)
{
    app::ParallelRunner runner(1);
    app::TrainingDriver driver(runner);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::TrainingOptions bad = tinyTrainingOptions();
    bad.merge.kind = rl::MergeSpec::Kind::kRecency;
    bad.merge.recencyDiscount = 0.0;
    EXPECT_THROW(driver.train(cfg, bad), FatalError);
    app::TrainingOptions badExplore = tinyTrainingOptions();
    badExplore.explore.kind = rl::ExploreSpec::Kind::kVisitCount;
    badExplore.explore.visitScale = -1.0;
    EXPECT_THROW(driver.train(cfg, badExplore), FatalError);
}

TEST(TrainingDriver, MoreShardsMeanMoreCoverage)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingDriver driver(runner);
    app::TrainingOptions one = tinyTrainingOptions();
    one.shards = 1;
    app::TrainingOptions many = tinyTrainingOptions();
    many.shards = 4;
    const app::TrainingResult rOne = driver.train(cfg, one);
    const app::TrainingResult rMany = driver.train(cfg, many);
    EXPECT_GT(rMany.totalInvocations, rOne.totalInvocations);
    EXPECT_GE(rMany.checkpoint.model.updatedEntries(),
              rOne.checkpoint.model.updatedEntries());
    EXPECT_GT(rMany.checkpoint.model.totalVisits(),
              rOne.checkpoint.model.totalVisits());
}
