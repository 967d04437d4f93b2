/** @file Tests for model persistence — the legacy Q-table files and
 *  the versioned full-state PolicyCheckpoint format — plus the SoC
 *  statistics dump and the experiment-protocol options added on top
 *  of the paper. */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>

#include "app/experiment.hh"
#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "policy/cohmeleon_policy.hh"
#include "test_util.hh"

using namespace cohmeleon;

namespace
{

std::string
diagnosticOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** Small, fast training setup shared by the checkpoint tests. */
app::RandomAppParams
smallAppParams()
{
    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    return ap;
}

policy::CohmeleonPolicy
smallTrainedPolicy(const soc::SocConfig &cfg, unsigned iterations,
                   bool freeze)
{
    policy::CohmeleonParams params;
    params.agent.decayIterations = 4;
    policy::CohmeleonPolicy policy(params);
    const app::AppSpec app =
        app::generateRandomApp(cfg, Rng(5), smallAppParams());
    for (unsigned it = 0; it < iterations; ++it)
        app::runTrainingIteration(policy, cfg, app);
    if (freeze)
        policy.freeze();
    return policy;
}

} // namespace

TEST(Persistence, TrainedPolicySurvivesSaveLoad)
{
    // Train a small policy, persist its checkpoint, restore it into
    // a fresh policy, and check frozen decisions are identical.
    const soc::SocConfig cfg = test::tinySocConfig();
    policy::CohmeleonParams params;
    params.agent.decayIterations = 3;
    policy::CohmeleonPolicy trained(params);

    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    app::trainCohmeleon(trained, cfg,
                        app::generateRandomApp(cfg, Rng(5), ap), 3);

    std::stringstream persisted(
        policy::PolicyCheckpoint::capture(trained).serialized());
    const auto restoredPtr =
        policy::PolicyCheckpoint::load(persisted).makePolicy();
    policy::CohmeleonPolicy &restored = *restoredPtr;
    restored.freeze();

    // Frozen decisions agree on every state with a unique argmax.
    for (unsigned s = 0; s < rl::StateTuple::kNumStates; ++s) {
        const unsigned a =
            trained.agent().table().bestAction(s, coh::kAllModesMask);
        const unsigned b =
            restored.agent().table().bestAction(s, coh::kAllModesMask);
        ASSERT_EQ(a, b) << "state " << s;
    }
}

TEST(Persistence, RestoredPolicyRunsApplications)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    policy::CohmeleonParams params;
    params.agent.decayIterations = 2;
    policy::CohmeleonPolicy trained(params);
    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 2;
    const app::AppSpec spec =
        app::generateRandomApp(cfg, Rng(9), ap);
    app::trainCohmeleon(trained, cfg, spec, 2);

    std::stringstream persisted(
        policy::PolicyCheckpoint::capture(trained).serialized());
    const auto restoredPtr =
        policy::PolicyCheckpoint::load(persisted).makePolicy();
    policy::CohmeleonPolicy &restored = *restoredPtr;
    restored.freeze();

    const app::AppResult result =
        app::runPolicyOnApp(restored, cfg, spec);
    EXPECT_GT(result.totalExecCycles(), 0u);
}

// --------------------------------------------------- policy checkpoints

TEST(Checkpoint, RoundTripIsByteExact)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    const policy::CohmeleonPolicy trained =
        smallTrainedPolicy(cfg, 3, /*freeze=*/true);

    const policy::PolicyCheckpoint ckpt =
        policy::PolicyCheckpoint::capture(trained);
    std::stringstream persisted;
    ckpt.save(persisted);
    const policy::PolicyCheckpoint restored =
        policy::PolicyCheckpoint::load(persisted);

    // save(load(save(x))) == save(x): the text format is lossless.
    EXPECT_EQ(restored.serialized(), ckpt.serialized());
    EXPECT_EQ(restored.iteration, ckpt.iteration);
    EXPECT_EQ(restored.frozen, ckpt.frozen);
    EXPECT_EQ(restored.rngState, ckpt.rngState);
    EXPECT_EQ(restored.model.totalVisits(), ckpt.model.totalVisits());
}

TEST(Checkpoint, CaptureOfRestoredPolicyIsIdentical)
{
    // makePolicy() and capture() are exact inverses: restoring a
    // checkpoint and capturing again reproduces the same bytes.
    const soc::SocConfig cfg = test::tinySocConfig();
    const policy::PolicyCheckpoint ckpt =
        policy::PolicyCheckpoint::capture(
            smallTrainedPolicy(cfg, 2, /*freeze=*/true));
    const auto restored = ckpt.makePolicy();
    EXPECT_EQ(policy::PolicyCheckpoint::capture(*restored).serialized(),
              ckpt.serialized());
}

TEST(Checkpoint, RestoredPolicyReproducesEvalDecisionsExactly)
{
    // The evaluation split: run the trained, frozen policy on an
    // evaluation app; then save -> load -> run again. Timing and
    // off-chip traffic must match cycle for cycle, which requires
    // the RNG stream (greedy tie-breaks) to resume too.
    const soc::SocConfig cfg = test::tinySocConfig();
    policy::CohmeleonPolicy trained =
        smallTrainedPolicy(cfg, 3, /*freeze=*/true);
    const policy::PolicyCheckpoint ckpt =
        policy::PolicyCheckpoint::capture(trained);

    const app::AppSpec evalApp =
        app::generateRandomApp(cfg, Rng(77), smallAppParams());

    const app::AppResult direct =
        app::runPolicyOnApp(trained, cfg, evalApp);

    std::stringstream persisted;
    ckpt.save(persisted);
    const app::AppResult replayed = app::TrainingDriver::evaluate(
        policy::PolicyCheckpoint::load(persisted), cfg, evalApp);

    ASSERT_EQ(direct.phases.size(), replayed.phases.size());
    for (std::size_t i = 0; i < direct.phases.size(); ++i) {
        EXPECT_EQ(direct.phases[i].execCycles,
                  replayed.phases[i].execCycles) << "phase " << i;
        EXPECT_EQ(direct.phases[i].ddrAccesses,
                  replayed.phases[i].ddrAccesses) << "phase " << i;
    }
}

TEST(Checkpoint, ResumedTrainingMatchesUninterruptedTraining)
{
    // The checkpoint persists the *whole* learning state — schedule
    // position, exploration stream, visit counts, and reward
    // history — so train(2) + checkpoint + train(2) must equal
    // train(4) bit for bit.
    const soc::SocConfig cfg = test::tinySocConfig();
    const app::AppSpec app =
        app::generateRandomApp(cfg, Rng(5), smallAppParams());

    policy::CohmeleonParams params;
    params.agent.decayIterations = 4;

    policy::CohmeleonPolicy straight(params);
    for (unsigned it = 0; it < 4; ++it)
        app::runTrainingIteration(straight, cfg, app);

    policy::CohmeleonPolicy firstHalf(params);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(firstHalf, cfg, app);
    std::stringstream persisted;
    policy::PolicyCheckpoint::capture(firstHalf).save(persisted);
    const auto resumed =
        policy::PolicyCheckpoint::load(persisted).makePolicy();
    EXPECT_FALSE(resumed->agent().frozen());
    EXPECT_EQ(resumed->agent().iteration(), 2u);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(*resumed, cfg, app);

    EXPECT_EQ(policy::PolicyCheckpoint::capture(*resumed).serialized(),
              policy::PolicyCheckpoint::capture(straight).serialized());
}

namespace
{

/** Down-convert a v3 checkpoint text to an older version's format:
 *  v1 (the PR-3 layout: no explore/merge/model lines) or v2 (the
 *  strategy layout: no model line). The tabular model block is
 *  byte-identical across all three versions. */
std::string
asVersionText(const std::string &v3, unsigned version)
{
    std::string out;
    std::istringstream in(v3);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        if (first) {
            const std::size_t space = line.rfind(' ');
            EXPECT_EQ(line.substr(space + 1), "3");
            line = line.substr(0, space) + ' ' +
                   std::to_string(version);
            first = false;
        }
        if (version < 2 && (line.rfind("explore ", 0) == 0 ||
                            line.rfind("merge ", 0) == 0))
            continue;
        if (version < 3 && line.rfind("model ", 0) == 0)
            continue;
        out += line + '\n';
    }
    return out;
}

std::string
asV1Text(const std::string &v3)
{
    return asVersionText(v3, 1);
}

std::string
asV2Text(const std::string &v3)
{
    return asVersionText(v3, 2);
}

} // namespace

TEST(Checkpoint, RoundTripsNonDefaultStrategies)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    policy::PolicyCheckpoint ckpt = policy::PolicyCheckpoint::capture(
        smallTrainedPolicy(cfg, 2, /*freeze=*/true));
    ckpt.agent.explore = rl::exploreSpecFromString("visit@2.5");
    ckpt.merge = rl::mergeSpecFromString("recency@0.125");

    std::stringstream persisted;
    ckpt.save(persisted);
    const std::string text = persisted.str();
    EXPECT_NE(text.find("explore visit@2.5"), std::string::npos);
    EXPECT_NE(text.find("merge recency@0.125"), std::string::npos);

    const policy::PolicyCheckpoint restored =
        policy::PolicyCheckpoint::load(persisted);
    EXPECT_EQ(restored.agent.explore, ckpt.agent.explore);
    EXPECT_EQ(restored.merge, ckpt.merge);
    EXPECT_EQ(restored.serialized(), ckpt.serialized());
    // The restored policy explores per the restored spec.
    const auto policy = restored.makePolicy();
    EXPECT_EQ(policy->agent().params().explore, ckpt.agent.explore);
}

TEST(Checkpoint, V1StreamsMigrateToTheDefaultStrategies)
{
    // The ROADMAP "checkpoint evolution" contract: a v1 checkpoint
    // (written before the strategy axes existed) loads, takes the
    // default strategies and the tabular backend, and round-trips —
    // as v3 from then on.
    const soc::SocConfig cfg = test::tinySocConfig();
    const policy::PolicyCheckpoint ckpt =
        policy::PolicyCheckpoint::capture(
            smallTrainedPolicy(cfg, 2, /*freeze=*/true));
    const std::string v1 = asV1Text(ckpt.serialized());
    EXPECT_EQ(v1.find("explore"), std::string::npos);
    EXPECT_EQ(v1.find("model "), std::string::npos);

    std::stringstream in(v1);
    const policy::PolicyCheckpoint migrated =
        policy::PolicyCheckpoint::load(in);
    EXPECT_EQ(migrated.agent.explore, rl::ExploreSpec{});
    EXPECT_EQ(migrated.merge, rl::MergeSpec{});
    EXPECT_EQ(migrated.model.spec(), rl::ModelSpec{});
    // Everything else survives the migration bit for bit: the
    // defaults re-serialize to the original v3 text.
    EXPECT_EQ(migrated.serialized(), ckpt.serialized());
    // And a second round trip is a fixed point.
    std::stringstream again(migrated.serialized());
    EXPECT_EQ(policy::PolicyCheckpoint::load(again).serialized(),
              migrated.serialized());
}

TEST(Checkpoint, V2StreamsMigrateToTheTabularBackend)
{
    // Same contract one version later: a v2 checkpoint (strategy
    // lines, no model line) keeps its non-default strategies, takes
    // the tabular backend, and re-saves as v3.
    const soc::SocConfig cfg = test::tinySocConfig();
    policy::PolicyCheckpoint ckpt = policy::PolicyCheckpoint::capture(
        smallTrainedPolicy(cfg, 2, /*freeze=*/true));
    ckpt.agent.explore = rl::exploreSpecFromString("floor@0.1");
    ckpt.merge = rl::mergeSpecFromString("recency@0.5");
    const std::string v2 = asV2Text(ckpt.serialized());
    EXPECT_NE(v2.find("explore floor@0.1"), std::string::npos);
    EXPECT_EQ(v2.find("model "), std::string::npos);

    std::stringstream in(v2);
    const policy::PolicyCheckpoint migrated =
        policy::PolicyCheckpoint::load(in);
    EXPECT_EQ(migrated.agent.explore, ckpt.agent.explore);
    EXPECT_EQ(migrated.merge, ckpt.merge);
    EXPECT_EQ(migrated.model.spec(), rl::ModelSpec{});
    EXPECT_EQ(migrated.serialized(), ckpt.serialized());
    std::stringstream again(migrated.serialized());
    EXPECT_EQ(policy::PolicyCheckpoint::load(again).serialized(),
              migrated.serialized());
}

namespace
{

/**
 * Fixture checkpoints pinned byte-for-byte to the historical formats
 * (independent of the current serializer, so writer drift cannot mask
 * a migration regression): state 7 carries recognizable Q-values and
 * visit counts, everything else is fresh.
 */
std::string
pinnedFixture(unsigned version)
{
    std::ostringstream os;
    os << "cohmeleon-checkpoint " << version << '\n';
    os << "weights 1 0.25 0.5\n";
    os << "agent 0.5 0.5 4 7 2 0\n";
    if (version >= 2) {
        os << "explore floor@0.25\n";
        os << "merge recency@0.5\n";
    }
    os << "rng 11 22 33 44\n";
    os << "qtable 243 4\n";
    for (unsigned s = 0; s < 243; ++s) {
        if (s == 7)
            os << "1.5 -0.25 0 2 3 1 0 4\n";
        else
            os << "0 0 0 0 0 0 0 0\n";
    }
    os << "tracker 1\n";
    os << "0 10 5 2 8\n";
    os << "end\n";
    return os.str();
}

} // namespace

TEST(Checkpoint, PinnedV1AndV2FixturesMigrateAndResaveAsV3)
{
    for (const unsigned version : {1u, 2u}) {
        std::stringstream in(pinnedFixture(version));
        const policy::PolicyCheckpoint migrated =
            policy::PolicyCheckpoint::load(in);

        // The learning state survives the migration untouched.
        EXPECT_EQ(migrated.iteration, 2u) << "v" << version;
        EXPECT_EQ(migrated.model.spec(), rl::ModelSpec{});
        EXPECT_DOUBLE_EQ(migrated.model.qtable().q(7, 0), 1.5);
        EXPECT_DOUBLE_EQ(migrated.model.qtable().q(7, 3), 2.0);
        EXPECT_EQ(migrated.model.qtable().visits(7, 3), 4u);
        EXPECT_EQ(migrated.model.totalVisits(), 8u);
        if (version >= 2) {
            EXPECT_EQ(migrated.agent.explore,
                      rl::exploreSpecFromString("floor@0.25"));
            EXPECT_EQ(migrated.merge,
                      rl::mergeSpecFromString("recency@0.5"));
        } else {
            EXPECT_EQ(migrated.agent.explore, rl::ExploreSpec{});
            EXPECT_EQ(migrated.merge, rl::MergeSpec{});
        }

        // Re-saving produces a v3 stream with the model line; loading
        // that is a fixed point, and the restored policy resumes.
        const std::string v3 = migrated.serialized();
        EXPECT_EQ(v3.rfind("cohmeleon-checkpoint 3\n", 0), 0u);
        EXPECT_NE(v3.find("model tabular\n"), std::string::npos);
        std::stringstream again(v3);
        EXPECT_EQ(policy::PolicyCheckpoint::load(again).serialized(),
                  v3);

        const auto resumed = migrated.makePolicy();
        EXPECT_EQ(resumed->agent().iteration(), 2u);
        EXPECT_FALSE(resumed->agent().frozen());
        const soc::SocConfig cfg = test::tinySocConfig();
        app::runTrainingIteration(
            *resumed, cfg,
            app::generateRandomApp(cfg, Rng(5), smallAppParams()));
        EXPECT_EQ(resumed->agent().iteration(), 3u);
    }
}

TEST(Checkpoint, V2ResumeIsBitExactAgainstFreshV3Training)
{
    // Resume-from-v2 must replay learning exactly like an
    // uninterrupted v3 run: same strategies, same RNG stream, same
    // visit counts.
    const soc::SocConfig cfg = test::tinySocConfig();
    const app::AppSpec app =
        app::generateRandomApp(cfg, Rng(5), smallAppParams());

    policy::CohmeleonParams params;
    params.agent.decayIterations = 4;
    params.agent.explore = rl::exploreSpecFromString("floor@0.1");

    policy::CohmeleonPolicy straight(params);
    for (unsigned it = 0; it < 4; ++it)
        app::runTrainingIteration(straight, cfg, app);

    policy::CohmeleonPolicy firstHalf(params);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(firstHalf, cfg, app);
    std::stringstream v2(asV2Text(
        policy::PolicyCheckpoint::capture(firstHalf).serialized()));
    const auto resumed =
        policy::PolicyCheckpoint::load(v2).makePolicy();
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(*resumed, cfg, app);

    EXPECT_EQ(policy::PolicyCheckpoint::capture(*resumed).serialized(),
              policy::PolicyCheckpoint::capture(straight).serialized());
}

TEST(Checkpoint, PerceptronCheckpointRoundTripsAndResumes)
{
    // The whole checkpoint contract holds for the non-tabular
    // backend too: byte-exact round trip, and split training equals
    // uninterrupted training.
    const soc::SocConfig cfg = test::tinySocConfig();
    const app::AppSpec app =
        app::generateRandomApp(cfg, Rng(5), smallAppParams());

    policy::CohmeleonParams params;
    params.agent.decayIterations = 4;
    params.agent.model =
        rl::modelSpecFromString("perceptron:tables=4,bits=8");

    policy::CohmeleonPolicy straight(params);
    for (unsigned it = 0; it < 4; ++it)
        app::runTrainingIteration(straight, cfg, app);

    policy::CohmeleonPolicy firstHalf(params);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(firstHalf, cfg, app);
    std::stringstream persisted;
    policy::PolicyCheckpoint::capture(firstHalf).save(persisted);
    const std::string text = persisted.str();
    EXPECT_NE(text.find("model perceptron:tables=4,bits=8"),
              std::string::npos);
    EXPECT_NE(text.find("perceptron 4 8"), std::string::npos);

    const auto resumed =
        policy::PolicyCheckpoint::load(persisted).makePolicy();
    EXPECT_EQ(resumed->agent().model().spec(), params.agent.model);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(*resumed, cfg, app);

    EXPECT_EQ(policy::PolicyCheckpoint::capture(*resumed).serialized(),
              policy::PolicyCheckpoint::capture(straight).serialized());
}

TEST(Checkpoint, V1ResumeIsBitExactAgainstFreshTraining)
{
    // Regression for the restored-RNG path under the strategy layer:
    // train 2 iterations, persist, strip the checkpoint down to v1,
    // reload (defaults restored, Rng::setState() replays the
    // exploration stream), resume 2 more — must equal an
    // uninterrupted 4-iteration run with default strategies.
    const soc::SocConfig cfg = test::tinySocConfig();
    const app::AppSpec app =
        app::generateRandomApp(cfg, Rng(5), smallAppParams());

    policy::CohmeleonParams params;
    params.agent.decayIterations = 4;

    policy::CohmeleonPolicy straight(params);
    for (unsigned it = 0; it < 4; ++it)
        app::runTrainingIteration(straight, cfg, app);

    policy::CohmeleonPolicy firstHalf(params);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(firstHalf, cfg, app);
    std::stringstream v1(asV1Text(
        policy::PolicyCheckpoint::capture(firstHalf).serialized()));
    const auto resumed =
        policy::PolicyCheckpoint::load(v1).makePolicy();
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(*resumed, cfg, app);

    EXPECT_EQ(policy::PolicyCheckpoint::capture(*resumed).serialized(),
              policy::PolicyCheckpoint::capture(straight).serialized());
}

TEST(Checkpoint, ResumeUnderVisitDrivenExplorationIsBitExact)
{
    // The same resume contract for the new visit-count exploration
    // path: its epsilon depends on restored visit counts AND the
    // restored RNG stream, so a save/load mid-schedule must replay
    // both exactly.
    const soc::SocConfig cfg = test::tinySocConfig();
    const app::AppSpec app =
        app::generateRandomApp(cfg, Rng(5), smallAppParams());

    policy::CohmeleonParams params;
    params.agent.decayIterations = 4;
    params.agent.explore = rl::exploreSpecFromString("visit@1");

    policy::CohmeleonPolicy straight(params);
    for (unsigned it = 0; it < 4; ++it)
        app::runTrainingIteration(straight, cfg, app);

    policy::CohmeleonPolicy firstHalf(params);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(firstHalf, cfg, app);
    std::stringstream persisted;
    policy::PolicyCheckpoint::capture(firstHalf).save(persisted);
    const auto resumed =
        policy::PolicyCheckpoint::load(persisted).makePolicy();
    EXPECT_EQ(resumed->agent().params().explore,
              params.agent.explore);
    for (unsigned it = 0; it < 2; ++it)
        app::runTrainingIteration(*resumed, cfg, app);

    EXPECT_EQ(policy::PolicyCheckpoint::capture(*resumed).serialized(),
              policy::PolicyCheckpoint::capture(straight).serialized());
}

TEST(Checkpoint, LoadRejectsCorruption)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    const std::string good =
        policy::PolicyCheckpoint::capture(
            smallTrainedPolicy(cfg, 1, /*freeze=*/true))
            .serialized();

    auto loadOf = [](std::string text) {
        std::stringstream ss(std::move(text));
        return policy::PolicyCheckpoint::load(ss);
    };

    // Sanity: the uncorrupted text loads.
    EXPECT_NO_THROW(loadOf(good));

    // Wrong magic.
    EXPECT_THROW(loadOf("not-a-checkpoint 1\n"), FatalError);
    // Unknown *future* versions hard-fail — forward compatibility is
    // never guessed at.
    const std::string header = "cohmeleon-checkpoint 3";
    ASSERT_EQ(good.rfind(header, 0), 0u);
    for (const char *version : {"4", "99", "0"}) {
        std::string badVersion = good;
        badVersion.replace(header.size() - 1, 1, version);
        EXPECT_THROW(loadOf(badVersion), FatalError) << version;
    }
    // Unknown model backends hard-fail with a one-line diagnostic —
    // no silent fallback to tabular.
    std::string badModel = good;
    const std::string modelLine = "model tabular";
    ASSERT_NE(badModel.find(modelLine), std::string::npos);
    badModel.replace(badModel.find(modelLine), modelLine.size(),
                     "model warp-core");
    const std::string modelDiag =
        diagnosticOf([&] { loadOf(badModel); });
    EXPECT_NE(modelDiag.find("warp-core"), std::string::npos);
    EXPECT_NE(modelDiag.find("malformed model in checkpoint"),
              std::string::npos);
    // A v2 stream missing its strategy lines is truncation, not a
    // silent fallback to defaults.
    std::string noStrategy = good;
    const std::size_t explorePos = noStrategy.find("explore ");
    ASSERT_NE(explorePos, std::string::npos);
    noStrategy.erase(explorePos,
                     noStrategy.find("rng ") - explorePos);
    EXPECT_THROW(loadOf(noStrategy), FatalError);
    // Malformed strategy values fail loudly too.
    std::string badStrategy = good;
    badStrategy.replace(badStrategy.find("explore linear"),
                        std::string("explore linear").size(),
                        "explore sideways");
    EXPECT_THROW(loadOf(badStrategy), FatalError);
    // Truncation (half the file gone).
    EXPECT_THROW(loadOf(good.substr(0, good.size() / 2)), FatalError);
    // Missing end marker.
    std::string noEnd = good.substr(0, good.rfind("end"));
    EXPECT_THROW(loadOf(noEnd), FatalError);
    // Trailing garbage after the end marker.
    EXPECT_THROW(loadOf(good + "junk\n"), FatalError);
    // A non-finite Q-value.
    std::string nanQ = good;
    const std::size_t qtablePos = nanQ.find("qtable 243 4\n");
    ASSERT_NE(qtablePos, std::string::npos);
    const std::size_t firstValue =
        qtablePos + std::string("qtable 243 4\n").size();
    const std::size_t firstValueEnd = nanQ.find(' ', firstValue);
    nanQ.replace(firstValue, firstValueEnd - firstValue, "nan");
    EXPECT_THROW(loadOf(nanQ), FatalError);
    // A huge (or sign-wrapped "-1") tracker entry count must throw
    // FatalError, not std::length_error out of vector::reserve.
    std::string hugeTracker = good;
    const std::size_t trackerPos = hugeTracker.find("tracker ");
    ASSERT_NE(trackerPos, std::string::npos);
    const std::size_t countEnd =
        hugeTracker.find('\n', trackerPos);
    hugeTracker.replace(trackerPos, countEnd - trackerPos,
                        "tracker 18446744073709551615");
    EXPECT_THROW(loadOf(hugeTracker), FatalError);
    // Mismatched Q-table dimensions.
    std::string badDims = good;
    badDims.replace(badDims.find("qtable 243 4"),
                    std::string("qtable 243 4").size(),
                    "qtable 100 4");
    EXPECT_THROW(loadOf(badDims), FatalError);
}

TEST(Checkpoint, FileRoundTripAndMissingFile)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    const policy::PolicyCheckpoint ckpt =
        policy::PolicyCheckpoint::capture(
            smallTrainedPolicy(cfg, 1, /*freeze=*/true));
    const std::string path =
        ::testing::TempDir() + "cohmeleon_ckpt_test.txt";
    ckpt.saveFile(path);
    const policy::PolicyCheckpoint restored =
        policy::PolicyCheckpoint::loadFile(path);
    EXPECT_EQ(restored.serialized(), ckpt.serialized());
    std::remove(path.c_str());
    EXPECT_THROW(policy::PolicyCheckpoint::loadFile(path), FatalError);
}

TEST(StatsDump, MentionsEveryComponent)
{
    soc::Soc soc(test::tinySocConfig());
    mem::Allocation a = soc.allocator().allocate(16 * 1024);
    soc.cpuWriteRange(0, 0, a, 16 * 1024);

    std::ostringstream os;
    soc.dumpStats(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("cpu0.l2"), std::string::npos);
    EXPECT_NE(text.find("fft0.l2"), std::string::npos);
    EXPECT_NE(text.find("mem0.llc"), std::string::npos);
    EXPECT_NE(text.find("mem1.ddr"), std::string::npos);
    EXPECT_NE(text.find("noc:"), std::string::npos);
    EXPECT_NE(text.find("hit%"), std::string::npos);
}

TEST(ExperimentOptions, TrainAppParamsOverrideAppParams)
{
    const soc::SocConfig cfg = test::tinySocConfig();

    app::EvalOptions opts;
    opts.appParams.phases = 2;
    opts.trainAppParams = app::denseTrainingParams();

    const app::AppSpec evalApp = app::generateRandomApp(
        cfg, Rng(opts.evalSeed), opts.appParams);
    const app::AppSpec trainApp = app::generateRandomApp(
        cfg, Rng(opts.trainSeed), *opts.trainAppParams);
    EXPECT_EQ(evalApp.phases.size(), 2u);
    EXPECT_EQ(trainApp.phases.size(),
              app::denseTrainingParams().phases);
    EXPECT_GT(trainApp.totalInvocations(),
              evalApp.totalInvocations());
}

TEST(ExperimentOptions, DenseParamsFavorCheapSizes)
{
    const app::RandomAppParams p = app::denseTrainingParams();
    EXPECT_GE(p.phases, 8u);
    EXPECT_GE(p.maxLoops, 3u);
    EXPECT_GT(p.wS + p.wM, p.wL + p.wXL);
}
