/** @file Tests for the declarative scenario/campaign layer: the text
 *  format (round-trips, line-numbered diagnostics, unknown-key hard
 *  errors), the shared name validators, campaign expansion, the
 *  runner's thread-count invariance, cross-SoC transfer training,
 *  and the availability-mask runtime perturbations. */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>

#include "app/campaign_runner.hh"
#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "policy/fixed.hh"
#include "sim/atomic_file.hh"
#include "test_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::app;

namespace
{

/** Small, fast protocol campaign over named presets. */
CampaignSpec
tinyCampaign()
{
    CampaignSpec c;
    c.name = "tiny";
    c.baseline = "fixed-non-coh-dma";
    c.base.soc = "soc1";
    c.base.trainIterations = 2;
    c.base.appParams.phases = 2;
    c.base.appParams.maxThreads = 3;
    c.base.appParams.maxLoops = 1;
    c.policies = {"fixed-non-coh-dma", "manual", "cohmeleon"};
    return c;
}

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

} // namespace

// ----------------------------------------------------------- parsing

TEST(ScenarioParser, RoundTripsThroughSerialize)
{
    ScenarioSpec s;
    s.name = "exotic";
    s.soc = "soc3";
    s.socTweaks.llcSliceBytes = 512 * 1024;
    s.socTweaks.accL2Ways = 8;
    s.workload = WorkloadKind::kConcurrent;
    s.appParams.phases = 7;
    s.appParams.wS = 0.125;
    s.appParams.wM = 0.375;
    s.appParams.wL = 0.25;
    s.appParams.wXL = 0.25;
    s.appParams.sizeJitter = 0.1234567890123;
    s.trainApp = TrainAppShape::kDense;
    s.policy = "manual@16384";
    s.trainIterations = 17;
    s.trainShards = 5;
    s.saveModel = "out.ckpt";
    s.trainSeed = 99;
    s.evalSeed = 111;
    s.agentSeed = 3;
    s.disabledModes = coh::maskOf(coh::CoherenceMode::kFullyCoh);
    s.accDisabledModes.emplace_back(
        "tgen0", coh::maskOf(coh::CoherenceMode::kCohDma));
    s.exactAttribution = true;
    s.collectRecords = true;
    s.accCount = 4;
    s.accIndex = 2;
    s.footprintBytes = 128 * 1024;
    s.loops = 9;

    const ScenarioSpec reparsed =
        parseScenarioString(serializeScenario(s));
    EXPECT_EQ(reparsed, s);

    // A second round trip is a fixed point.
    EXPECT_EQ(serializeScenario(reparsed), serializeScenario(s));
}

TEST(ScenarioParser, FigureAndFileAppSourcesRoundTrip)
{
    ScenarioSpec s;
    s.appSource = AppSource::kFigure;
    s.figureName = "fig5";
    EXPECT_EQ(parseScenarioString(serializeScenario(s)), s);

    s.appSource = AppSource::kFile;
    s.figureName.clear();
    s.appFile = "pipeline.cfg";
    EXPECT_EQ(parseScenarioString(serializeScenario(s)), s);
}

TEST(CampaignParser, RoundTripsThroughSerialize)
{
    CampaignSpec c = tinyCampaign();
    c.seeds = {2022, 3033};
    c.shardCounts = {0, 4};
    c.transfer.socs = {"soc1", "soc2"};
    c.transfer.iterations = 3;
    c.transfer.shardsPerSoc = 2;
    c.transfer.saveModel = "merged.ckpt";
    ScenarioSpec cell = c.base;
    cell.name = "what-if";
    cell.policy = "cohmeleon";
    cell.disabledModes = coh::maskOf(coh::CoherenceMode::kCohDma) |
                         coh::maskOf(coh::CoherenceMode::kFullyCoh);
    c.cells.push_back(cell);

    const CampaignSpec reparsed =
        parseCampaignString(serializeCampaign(c));
    EXPECT_EQ(reparsed, c);
    EXPECT_EQ(serializeCampaign(reparsed), serializeCampaign(c));
}

TEST(CampaignParser, ParsesTheDocumentedFormat)
{
    const CampaignSpec c = parseCampaignString(R"(
        # comment
        campaign = demo
        baseline = fixed-non-coh-dma

        [scenario]
        soc = soc2
        train = 4
        train-app = dense

        [axes]
        policy = fixed-non-coh-dma, cohmeleon
        seed = 1, 2, 3

        [train]
        soc = soc1
        iterations = 2
        shards = 2

        [cell special]
        policy = manual@4K
    )");
    EXPECT_EQ(c.name, "demo");
    EXPECT_EQ(c.baseline, "fixed-non-coh-dma");
    EXPECT_EQ(c.base.soc, "soc2");
    EXPECT_EQ(c.base.trainIterations, 4u);
    EXPECT_EQ(c.base.trainApp, TrainAppShape::kDense);
    EXPECT_EQ(c.policies.size(), 2u);
    EXPECT_EQ(c.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(c.transfer.socs, (std::vector<std::string>{"soc1"}));
    EXPECT_EQ(c.transfer.shardsPerSoc, 2u);
    ASSERT_EQ(c.cells.size(), 1u);
    EXPECT_EQ(c.cells[0].name, "special");
    EXPECT_EQ(c.cells[0].policy, "manual@4K");
    // Cell sections inherit the base scenario.
    EXPECT_EQ(c.cells[0].soc, "soc2");
    EXPECT_EQ(c.cells[0].trainIterations, 4u);
}

TEST(ScenarioParser, StrategyKeysRoundTrip)
{
    ScenarioSpec s;
    s.merge = rl::mergeSpecFromString("recency@0.25");
    s.explore = rl::exploreSpecFromString("visit@2");
    const std::string text = serializeScenario(s);
    EXPECT_NE(text.find("merge = recency@0.25"), std::string::npos);
    EXPECT_NE(text.find("explore = visit@2"), std::string::npos);
    EXPECT_EQ(parseScenarioString(text), s);
}

TEST(CampaignParser, StrategyAxesRoundTrip)
{
    CampaignSpec c = tinyCampaign();
    c.merges = {rl::MergeSpec{},
                rl::mergeSpecFromString("recency@0.5"),
                rl::mergeSpecFromString("reward-norm")};
    c.explores = {rl::exploreSpecFromString("linear"),
                  rl::exploreSpecFromString("floor@0.1")};
    const std::string text = serializeCampaign(c);
    EXPECT_NE(
        text.find("merge = visit-weighted, recency@0.5, reward-norm"),
        std::string::npos);
    EXPECT_NE(text.find("explore = linear, floor@0.1"),
              std::string::npos);
    const CampaignSpec reparsed = parseCampaignString(text);
    EXPECT_EQ(reparsed, c);
    EXPECT_EQ(serializeCampaign(reparsed), text);
}

TEST(CampaignParser, StrategyDiagnosticsCarryLineNumbers)
{
    // Unknown scenario-level values.
    std::string msg = diagnosticOf(
        [] { parseScenarioString("soc = soc1\nmerge = bogus\n"); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("visit-weighted"), std::string::npos) << msg;

    msg = diagnosticOf([] {
        parseScenarioString("\n\nexplore = floor@nope\n");
    });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;

    // Out-of-range parameters.
    msg = diagnosticOf(
        [] { parseScenarioString("merge = recency@1.5\n"); });
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(0, 1]"), std::string::npos) << msg;

    // Axis lists: the bad element is named with the axis line.
    msg = diagnosticOf([] {
        parseCampaignString(
            "campaign = x\n[axes]\nmerge = visit-weighted, warp\n");
    });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("warp"), std::string::npos) << msg;

    msg = diagnosticOf([] {
        parseCampaignString("campaign = x\n[axes]\nexplore = visit@0\n");
    });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

TEST(CampaignParser, UnknownKeysAreHardErrorsWithLineNumbers)
{
    // Scenario key.
    std::string msg = diagnosticOf(
        [] { parseScenarioString("soc = soc1\nbogus = 3\n"); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;

    // Top-level campaign key.
    msg = diagnosticOf(
        [] { parseCampaignString("campaign = x\nwhat = 1\n"); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;

    // Axis key.
    msg = diagnosticOf([] {
        parseCampaignString("campaign = x\n[axes]\nmode = a\n");
    });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;

    // [train] key.
    msg = diagnosticOf([] {
        parseCampaignString("campaign = x\n[train]\nfoo = 1\n");
    });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;

    // Unknown section.
    msg = diagnosticOf([] {
        parseCampaignString("campaign = x\n\n[sweep]\nsoc = soc1\n");
    });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;

    // Sections are rejected in scenario files.
    msg = diagnosticOf(
        [] { parseScenarioString("[scenario]\nsoc = soc1\n"); });
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
}

TEST(CampaignParser, DiagnosticsCarryLineNumbersForBadValues)
{
    const std::pair<const char *, const char *> cases[] = {
        {"soc = nope\n", "line 1"},
        {"policy = nope\n", "line 1"},
        {"workload = sideways\n", "line 1"},
        {"\ntrain = -3\n", "line 2"},
        {"\n\nfootprint = 12Q\n", "line 3"},
        {"seed = 12x\n", "line 1"},
        {"app-weights = 1, 2\n", "line 1"},
        {"disable-modes = non-coh-dma\n", "line 1"},
        {"disable-modes = warp\n", "line 1"},
        {"attribution = psychic\n", "line 1"},
        {"records = yes\n", "line 1"},
        {"footprint = 20000000000000M\n", "line 1"},
    };
    for (const auto &[text, expect] : cases) {
        const std::string msg = diagnosticOf(
            [t = text] { parseScenarioString(t); });
        EXPECT_FALSE(msg.empty()) << text;
        EXPECT_NE(msg.find(expect), std::string::npos)
            << text << " -> " << msg;
    }
}

TEST(CampaignParser, RequiresACampaignName)
{
    EXPECT_THROW(parseCampaignString("[scenario]\nsoc = soc1\n"),
                 FatalError);
}

// -------------------------------------------------------- validators

TEST(Validators, PolicyNamesIncludeParameterizedManual)
{
    EXPECT_TRUE(checkPolicyName("cohmeleon").empty());
    EXPECT_TRUE(checkPolicyName("fixed-non-coh-dma").empty());
    EXPECT_TRUE(checkPolicyName("manual@16K").empty());
    EXPECT_TRUE(checkPolicyName("manual@4096").empty());

    const std::string err = checkPolicyName("qlearning");
    EXPECT_NE(err.find("unknown policy"), std::string::npos);
    // The diagnostic lists the known names.
    EXPECT_NE(err.find("cohmeleon"), std::string::npos);
    EXPECT_NE(err.find("manual@SIZE"), std::string::npos);

    EXPECT_FALSE(checkPolicyName("manual@").empty());
    EXPECT_FALSE(checkPolicyName("manual@12Q").empty());
    // A zero threshold must fail at validation time, not deep inside
    // cell execution.
    EXPECT_FALSE(checkPolicyName("manual@0").empty());
}

TEST(Validators, SocNameRegistryMatchesFactory)
{
    for (std::string_view name : soc::knownSocNames()) {
        EXPECT_TRUE(soc::isKnownSocName(name));
        EXPECT_NO_THROW(soc::makeSocByName(name));
    }
    EXPECT_FALSE(soc::isKnownSocName("soc99"));
    try {
        soc::makeSocByName("soc99");
        FAIL() << "expected a throw";
    } catch (const FatalError &e) {
        // The error lists the known names.
        EXPECT_NE(std::string(e.what()).find("parallel"),
                  std::string::npos);
    }
}

TEST(Validators, MakePolicyByNameAcceptsManualThresholds)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    EvalOptions opts;
    const auto p = makePolicyByName("manual@16K", cfg, opts);
    EXPECT_EQ(p->name(), "manual");
    EXPECT_THROW(makePolicyByName("manual@0", cfg, opts), FatalError);
    EXPECT_THROW(makePolicyByName("manual@x", cfg, opts), FatalError);
}

TEST(Validators, FigureAppRegistry)
{
    EXPECT_EQ(figureAppNames(), std::vector<std::string>{"fig5"});
    const AppSpec fig5 = figureApp("fig5");
    EXPECT_EQ(fig5.phases.size(), 4u);
    EXPECT_EQ(fig5.phases[0].name, "6T-Large");
    EXPECT_THROW(figureApp("fig7"), FatalError);
}

// -------------------------------------------------------- resolution

TEST(ScenarioParser, TrainingCountsAreCapped)
{
    // A count beyond its cap fails with one line naming the line,
    // not with an allocation sized by it.
    const std::string shards = diagnosticOf(
        [] { parseScenarioString("soc = soc1\nshards = 4294967295\n"); });
    EXPECT_NE(shards.find("line 2: shards 4294967295 too large "
                          "(cap: 4096)"),
              std::string::npos)
        << shards;
    const std::string train =
        diagnosticOf([] { parseScenarioString("train = 1000001\n"); });
    EXPECT_NE(train.find("train 1000001 too large"), std::string::npos)
        << train;
    EXPECT_EQ(parseScenarioString("shards = 4096\n").trainShards, 4096u);
}

TEST(Scenario, ResolveSocAppliesInlineTweaks)
{
    ScenarioSpec s;
    s.soc = "soc1";
    const soc::SocConfig plain = resolveSoc(s);
    s.socTweaks.llcSliceBytes = 512 * 1024;
    s.socTweaks.l2Ways = 8;
    const soc::SocConfig tweaked = resolveSoc(s);
    EXPECT_EQ(tweaked.llcSliceBytes, 512u * 1024);
    EXPECT_EQ(tweaked.l2Ways, 8u);
    // Untouched fields keep the preset's values.
    EXPECT_EQ(tweaked.accs.size(), plain.accs.size());
    EXPECT_EQ(tweaked.l2Bytes, plain.l2Bytes);
}

// --------------------------------------------------------- expansion

TEST(Campaign, ExpandCrossesAxesPolicyMajor)
{
    CampaignSpec c = tinyCampaign();
    c.socs = {"soc1", "soc2"};
    c.seeds = {5, 6};
    const std::vector<ScenarioSpec> cells =
        CampaignRunner::expand(c);
    // 2 socs x 2 seeds x 3 policies.
    ASSERT_EQ(cells.size(), 12u);
    EXPECT_EQ(cells[0].soc, "soc1");
    EXPECT_EQ(cells[0].evalSeed, 5u);
    EXPECT_EQ(cells[0].policy, "fixed-non-coh-dma");
    EXPECT_EQ(cells[1].policy, "manual");
    EXPECT_EQ(cells[2].policy, "cohmeleon");
    EXPECT_EQ(cells[3].evalSeed, 6u);
    EXPECT_EQ(cells[6].soc, "soc2");
    // Axis values land in the cell, names are unique.
    std::set<std::string> names;
    for (const ScenarioSpec &cell : cells)
        EXPECT_TRUE(names.insert(cell.name).second) << cell.name;
}

TEST(Campaign, ExpandPrependsConcurrentBaselines)
{
    const CampaignSpec fig3 = namedCampaign("fig3", false);
    const std::vector<ScenarioSpec> cells =
        CampaignRunner::expand(fig3);
    const std::size_t numAccs = resolveSoc(fig3.base).accs.size();
    ASSERT_EQ(cells.size(), numAccs + 4 * 4);
    for (std::size_t a = 0; a < numAccs; ++a) {
        EXPECT_EQ(cells[a].accIndex, static_cast<int>(a));
        EXPECT_EQ(cells[a].policy, "fixed-non-coh-dma");
    }
    // Grid is mode-major with concurrency innermost.
    EXPECT_EQ(cells[numAccs].policy, "fixed-non-coh-dma");
    EXPECT_EQ(cells[numAccs].accCount, 1u);
    EXPECT_EQ(cells[numAccs + 1].accCount, 4u);
    EXPECT_EQ(cells[numAccs + 4].policy, "fixed-llc-coh-dma");
}

TEST(Campaign, ExpandCrossesStrategyAxes)
{
    CampaignSpec c = tinyCampaign();
    c.policies = {"fixed-non-coh-dma", "cohmeleon"};
    c.merges = {rl::MergeSpec{},
                rl::mergeSpecFromString("recency@0.5")};
    c.explores = {rl::ExploreSpec{},
                  rl::exploreSpecFromString("floor@0.1")};
    const std::vector<ScenarioSpec> cells =
        CampaignRunner::expand(c);
    // 2 merges x 2 explores x 2 policies, policy innermost.
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].merge, c.merges[0]);
    EXPECT_EQ(cells[0].explore, c.explores[0]);
    EXPECT_EQ(cells[1].policy, "cohmeleon");
    EXPECT_EQ(cells[2].explore, c.explores[1]);
    EXPECT_EQ(cells[4].merge, c.merges[1]);
    // Swept strategies land in the cell names.
    EXPECT_NE(cells[4].name.find("recency@0.5"), std::string::npos);
    EXPECT_NE(cells[2].name.find("floor@0.1"), std::string::npos);
    std::set<std::string> names;
    for (const ScenarioSpec &cell : cells)
        EXPECT_TRUE(names.insert(cell.name).second) << cell.name;
}

TEST(Campaign, NamedCampaignsAreRegistered)
{
    for (const std::string &name : namedCampaignNames()) {
        EXPECT_TRUE(isNamedCampaign(name));
        const CampaignSpec c = namedCampaign(name, false);
        EXPECT_EQ(c.name, name);
        EXPECT_FALSE(CampaignRunner::expand(c).empty());
        // Registered campaigns survive the text format.
        EXPECT_EQ(parseCampaignString(serializeCampaign(c)), c);
    }
    EXPECT_FALSE(isNamedCampaign("fig42"));
    EXPECT_THROW(namedCampaign("fig42", false), FatalError);
}

// ---------------------------------------------------------- running

TEST(Campaign, ResultsAreByteIdenticalAcrossJobCounts)
{
    const CampaignSpec c = tinyCampaign();
    ParallelRunner serial(1);
    ParallelRunner wide(3);
    const CampaignResult a = CampaignRunner(serial).run(c);
    const CampaignResult b = CampaignRunner(wide).run(c);
    EXPECT_EQ(a.json(), b.json());
    ASSERT_EQ(a.cells.size(), 3u);
    // The baseline normalizes to exactly 1.
    EXPECT_DOUBLE_EQ(a.cells[0].geoExec, 1.0);
    EXPECT_DOUBLE_EQ(a.cells[0].geoDdr, 1.0);
    for (const CellResult &cell : a.cells) {
        EXPECT_FALSE(cell.phases.empty());
        EXPECT_GT(cell.geoExec, 0.0);
    }
}

TEST(Campaign, MatchesTheSerialProtocolDriver)
{
    // The campaign path must reproduce evaluatePolicies() bit for
    // bit: same apps, same policies, same normalization.
    CampaignSpec c = tinyCampaign();
    ParallelRunner serial(1);
    const CampaignResult result = CampaignRunner(serial).run(c);

    EvalOptions opts;
    opts.trainIterations = c.base.trainIterations;
    opts.appParams = c.base.appParams;
    const std::vector<PolicyOutcome> expected = evaluatePolicies(
        soc::makeSocByName(c.base.soc), opts,
        {"fixed-non-coh-dma", "manual", "cohmeleon"});

    const std::vector<PolicyOutcome> got = result.groupOutcomes(0);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].policy, expected[i].policy);
        EXPECT_EQ(got[i].geoExec, expected[i].geoExec);
        EXPECT_EQ(got[i].geoDdr, expected[i].geoDdr);
        ASSERT_EQ(got[i].phases.size(), expected[i].phases.size());
        for (std::size_t p = 0; p < got[i].phases.size(); ++p) {
            EXPECT_EQ(got[i].phases[p].execCycles,
                      expected[i].phases[p].execCycles);
            EXPECT_EQ(got[i].phases[p].ddrAccesses,
                      expected[i].phases[p].ddrAccesses);
        }
    }
}

TEST(Campaign, ExplicitCellsFormTheirOwnGroup)
{
    CampaignSpec c;
    c.name = "cells-only";
    c.baseline = "fixed-non-coh-dma";
    c.base.soc = "soc1";
    c.base.appParams.phases = 2;
    c.base.appParams.maxThreads = 3;
    c.base.appParams.maxLoops = 1;

    ScenarioSpec cell = c.base;
    cell.name = "baseline";
    cell.policy = "fixed-non-coh-dma";
    c.cells.push_back(cell);
    cell.name = "manual-big";
    cell.policy = "manual@64K";
    c.cells.push_back(cell);

    ParallelRunner serial(1);
    const CampaignResult result = CampaignRunner(serial).run(c);
    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_EQ(result.groupCount, 1u);
    EXPECT_DOUBLE_EQ(result.cells[0].geoExec, 1.0);
    const CellResult *manual = result.find("manual-big");
    ASSERT_NE(manual, nullptr);
    EXPECT_GT(manual->geoExec, 0.0);
    EXPECT_NE(manual->geoExec, 1.0);
}

TEST(Campaign, HandPickedConcurrentCellsReportRaw)
{
    // Explicit concurrent cells have no auto-generated baselines;
    // they must come back raw instead of dying in normalization
    // after the whole group already ran.
    CampaignSpec c;
    c.name = "concurrent-cells";
    c.base.soc = "parallel";
    c.base.workload = WorkloadKind::kConcurrent;
    c.base.footprintBytes = 16 * 1024;
    c.base.loops = 1;
    ScenarioSpec cell = c.base;
    cell.name = "one-acc";
    cell.policy = "fixed-non-coh-dma";
    cell.accCount = 1;
    c.cells.push_back(cell);

    ParallelRunner serial(1);
    const CampaignResult result = CampaignRunner(serial).run(c);
    ASSERT_EQ(result.cells.size(), 1u);
    ASSERT_EQ(result.cells[0].accMeans.size(), 1u);
    EXPECT_GT(result.cells[0].accMeans[0].exec, 0.0);
    EXPECT_DOUBLE_EQ(result.cells[0].geoExec, 1.0); // unnormalized
}

TEST(Campaign, LoadedCheckpointsKeepTheirFrozenFlagByDefault)
{
    // freezeLoaded defaults off so an unfrozen checkpoint restored
    // through a scenario resumes learning (the PR-3 resume
    // semantics); freezing is the explicit --eval / freeze-loaded
    // opt-in.
    const ScenarioSpec s;
    EXPECT_FALSE(s.freezeLoaded);
    EXPECT_EQ(parseScenarioString(serializeScenario(s)), s);
}

TEST(Campaign, JsonReportCarriesCellsAndMetrics)
{
    ParallelRunner serial(1);
    const CampaignResult result =
        CampaignRunner(serial).run(tinyCampaign());
    const std::string json = result.json();
    EXPECT_NE(json.find("\"campaign\": \"tiny\""), std::string::npos);
    EXPECT_NE(json.find("\"cell0.policy\": \"fixed-non-coh-dma\""),
              std::string::npos);
    EXPECT_NE(json.find("cell2.geo_exec"), std::string::npos);
    EXPECT_NE(json.find("cell2.q_updates"), std::string::npos);
}

TEST(Campaign, ShardedCellsMatchTheStandaloneTrainingDriver)
{
    // A scenario with shards must produce the exact model the
    // standalone driver produces for the same options.
    ScenarioSpec s;
    s.soc = "soc1";
    s.policy = "cohmeleon";
    s.trainIterations = 2;
    s.trainShards = 2;
    s.trainApp = TrainAppShape::kSameAsEval;
    s.appParams.phases = 2;
    s.appParams.maxThreads = 3;
    s.appParams.maxLoops = 1;
    const std::string path = "test_campaign_shard.ckpt";
    s.saveModel = path;
    const CellResult cell = runScenario(s);
    EXPECT_EQ(cell.training.source, TrainSummary::Source::kSharded);
    EXPECT_GT(cell.training.qUpdates, 0u);

    TrainingOptions topts;
    topts.iterations = 2;
    topts.shards = 2;
    topts.appParams = s.appParams;
    ParallelRunner serial(1);
    TrainingDriver driver(serial);
    const TrainingResult expected =
        driver.train(soc::makeSocByName("soc1"), topts);

    const policy::PolicyCheckpoint saved =
        policy::PolicyCheckpoint::loadFile(path);
    EXPECT_EQ(saved.serialized(), expected.checkpoint.serialized());
    std::remove(path.c_str());
}

// ----------------------------------------------------- transfer stage

TEST(Transfer, TrainAcrossSocsIsThreadCountInvariant)
{
    std::vector<soc::SocConfig> cfgs = {test::tinySocConfig(),
                                        soc::makeSocByName("soc1")};
    TrainingOptions topts;
    topts.iterations = 1;
    topts.shards = 2;
    topts.appParams.phases = 2;
    topts.appParams.maxThreads = 3;
    topts.appParams.maxLoops = 1;

    ParallelRunner serial(1);
    ParallelRunner wide(3);
    const TrainingResult a = trainAcrossSocs(cfgs, topts, serial);
    const TrainingResult b = trainAcrossSocs(cfgs, topts, wide);
    EXPECT_EQ(a.checkpoint.serialized(), b.checkpoint.serialized());
    EXPECT_EQ(a.shards.size(), 4u);
    EXPECT_TRUE(a.checkpoint.frozen);
    EXPECT_GT(a.checkpoint.model.totalVisits(), 0u);

    // Shards on different SoCs see different seeds (global index).
    EXPECT_NE(a.shards[0].seed, a.shards[2].seed);

    // The merged model restores and evaluates on a third SoC.
    const auto policy = a.checkpoint.makePolicy();
    const AppSpec evalApp =
        generateRandomApp(cfgs[0], Rng(7), topts.appParams);
    const AppResult r =
        runPolicyOnApp(*policy, cfgs[0], evalApp);
    EXPECT_GT(r.totalExecCycles(), 0u);
}

TEST(Transfer, CampaignTransferStageFeedsCohmeleonCells)
{
    CampaignSpec c = tinyCampaign();
    c.transfer.socs = {"soc1", "soc2"};
    c.transfer.iterations = 1;
    c.transfer.shardsPerSoc = 1;

    ParallelRunner serial(1);
    ParallelRunner wide(3);
    const CampaignResult a = CampaignRunner(serial).run(c);
    const CampaignResult b = CampaignRunner(wide).run(c);
    EXPECT_EQ(a.json(), b.json());

    const CellResult *cohm = a.find("soc1/cohmeleon");
    ASSERT_NE(cohm, nullptr);
    // The cell restored the merged model instead of training.
    EXPECT_EQ(cohm->training.source, TrainSummary::Source::kTransfer);
    EXPECT_GT(cohm->training.qUpdates, 0u);
}

TEST(Transfer, StrategyAxesTrainOneModelPerPair)
{
    // A transfer campaign sweeping merge strategies must hand every
    // cohmeleon cell the model folded with *its* strategy — and stay
    // byte-identical across --jobs.
    CampaignSpec c = tinyCampaign();
    c.policies = {"fixed-non-coh-dma", "cohmeleon"};
    c.transfer.socs = {"soc1", "soc2"};
    c.transfer.iterations = 6; // enough for the folds to diverge
    c.transfer.shardsPerSoc = 1;
    c.merges = {rl::MergeSpec{},
                rl::mergeSpecFromString("recency@0.5")};

    ParallelRunner serial(1);
    ParallelRunner wide(3);
    const CampaignResult a = CampaignRunner(serial).run(c);
    const CampaignResult b = CampaignRunner(wide).run(c);
    EXPECT_EQ(a.json(), b.json());

    const CellResult *vw = a.find("soc1/cohmeleon/mg-visit-weighted");
    const CellResult *rc = a.find("soc1/cohmeleon/mg-recency@0.5");
    ASSERT_NE(vw, nullptr);
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(vw->training.source, TrainSummary::Source::kTransfer);
    EXPECT_EQ(rc->training.source, TrainSummary::Source::kTransfer);
    // Same shard trainings, different folds: identical mass...
    EXPECT_EQ(vw->training.qUpdates, rc->training.qUpdates);
    EXPECT_GT(vw->training.qUpdates, 0u);
    // ...and the JSON labels the swept strategy per cell.
    EXPECT_NE(a.json().find(".merge\": \"recency@0.5\""),
              std::string::npos);
}

TEST(Campaign, ShardedCellsThreadTheStrategiesThrough)
{
    // An in-cell sharded training with non-default strategies must
    // produce exactly the standalone driver's model for the same
    // options (and record them in the saved checkpoint).
    ScenarioSpec s;
    s.soc = "soc1";
    s.policy = "cohmeleon";
    s.trainIterations = 2;
    s.trainShards = 2;
    s.merge = rl::mergeSpecFromString("reward-norm");
    s.explore = rl::exploreSpecFromString("floor@0.2");
    s.trainApp = TrainAppShape::kSameAsEval;
    s.appParams.phases = 2;
    s.appParams.maxThreads = 3;
    s.appParams.maxLoops = 1;
    const std::string path = "test_campaign_strategy.ckpt";
    s.saveModel = path;
    const CellResult cell = runScenario(s);
    EXPECT_EQ(cell.training.source, TrainSummary::Source::kSharded);

    TrainingOptions topts;
    topts.iterations = 2;
    topts.shards = 2;
    topts.merge = s.merge;
    topts.explore = s.explore;
    topts.appParams = s.appParams;
    ParallelRunner serial(1);
    TrainingDriver driver(serial);
    const TrainingResult expected =
        driver.train(soc::makeSocByName("soc1"), topts);

    const policy::PolicyCheckpoint saved =
        policy::PolicyCheckpoint::loadFile(path);
    EXPECT_EQ(saved.serialized(), expected.checkpoint.serialized());
    EXPECT_EQ(saved.merge, s.merge);
    EXPECT_EQ(saved.agent.explore, s.explore);
    std::remove(path.c_str());
}

// ------------------------------------------------- availability masks

TEST(AvailabilityMask, RuntimeMasksModesGlobally)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    // A policy that always wants fully-coherent...
    policy::FixedPolicy policy(coh::CoherenceMode::kFullyCoh);
    RuntimeKnobs knobs;
    knobs.disabledModes = coh::maskOf(coh::CoherenceMode::kFullyCoh);

    RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const AppSpec appSpec = generateRandomApp(cfg, Rng(3), ap);

    // ...never gets it when the mask removes it.
    const AppResult masked =
        runPolicyOnApp(policy, cfg, appSpec, knobs,
                       /*collectRecords=*/true);
    unsigned invocations = 0;
    for (const PhaseResult &p : masked.phases) {
        for (const rt::InvocationRecord &r : p.invocations) {
            EXPECT_NE(r.mode, coh::CoherenceMode::kFullyCoh);
            ++invocations;
        }
    }
    EXPECT_GT(invocations, 0u);

    // Without the mask the same protocol does use it.
    const AppResult plain = runPolicyOnApp(policy, cfg, appSpec,
                                           RuntimeKnobs{}, true);
    bool sawFullCoh = false;
    for (const PhaseResult &p : plain.phases)
        for (const rt::InvocationRecord &r : p.invocations)
            sawFullCoh |= r.mode == coh::CoherenceMode::kFullyCoh;
    EXPECT_TRUE(sawFullCoh);
}

TEST(AvailabilityMask, PerInstanceMasksOnlyHitTheirTile)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    policy::FixedPolicy policy(coh::CoherenceMode::kFullyCoh);
    RuntimeKnobs knobs;
    knobs.accDisabledModes.emplace_back(
        "fft0", coh::maskOf(coh::CoherenceMode::kFullyCoh));

    soc::Soc soc(cfg);
    rt::EspRuntime runtime(soc, policy);
    knobs.applyTo(soc, runtime);
    const AccId fft = soc.findAcc("fft0");
    const AccId spmv = soc.findAcc("spmv0");
    EXPECT_FALSE(coh::maskHas(runtime.effectiveModes(fft),
                              coh::CoherenceMode::kFullyCoh));
    EXPECT_TRUE(coh::maskHas(runtime.effectiveModes(spmv),
                             coh::CoherenceMode::kFullyCoh));
    // Unknown instance names fail loudly.
    RuntimeKnobs bad;
    bad.accDisabledModes.emplace_back(
        "nope", coh::maskOf(coh::CoherenceMode::kFullyCoh));
    EXPECT_THROW(bad.applyTo(soc, runtime), FatalError);
}

TEST(AvailabilityMask, NonCohDmaCannotBeMaskedAway)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    policy::FixedPolicy policy(coh::CoherenceMode::kNonCohDma);
    soc::Soc soc(cfg);
    rt::EspRuntime runtime(soc, policy);
    runtime.setDisabledModes(coh::kAllModesMask);
    EXPECT_TRUE(coh::maskHas(runtime.effectiveModes(0),
                             coh::CoherenceMode::kNonCohDma));
}

// --------------------------------------------------------- resilience

namespace
{

/** tinyCampaign()'s uninterrupted JSON, computed once (resilience
 *  tests byte-compare against it repeatedly). */
const std::string &
cleanTinyJson()
{
    static const std::string json = [] {
        ParallelRunner serial(1);
        return CampaignRunner(serial).run(tinyCampaign()).json();
    }();
    return json;
}

std::size_t
manifestDoneCount(const std::string &stateDir)
{
    const std::string manifest = readFile(stateDir + "/MANIFEST");
    std::size_t n = 0;
    for (std::size_t p = manifest.find("\ndone ");
         p != std::string::npos; p = manifest.find("\ndone ", p + 1))
        ++n;
    return n;
}

} // namespace

TEST(CampaignResilience, FaultAndRetryKeysRoundTrip)
{
    CampaignSpec c = tinyCampaign();
    c.fault = faultPlanFromString("crash-after-write@2");
    c.maxRetries = 7;
    const std::string text = serializeCampaign(c);
    EXPECT_NE(text.find("fault = crash-after-write@2"),
              std::string::npos);
    EXPECT_NE(text.find("max-retries = 7"), std::string::npos);
    const CampaignSpec reparsed = parseCampaignString(text);
    EXPECT_EQ(reparsed, c);
    EXPECT_EQ(serializeCampaign(reparsed), text);

    // Diagnostics carry line numbers and the known forms/caps.
    std::string msg = diagnosticOf([] {
        parseCampaignString("campaign = x\nfault = explode\n");
    });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("crash-after-write@N"), std::string::npos)
        << msg;
    msg = diagnosticOf([] {
        parseCampaignString("campaign = x\nmax-retries = 2000\n");
    });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1000"), std::string::npos) << msg;
    // The unknown-key list names the new keys.
    msg = diagnosticOf(
        [] { parseCampaignString("campaign = x\nwhat = 1\n"); });
    EXPECT_NE(msg.find("max-retries"), std::string::npos) << msg;
}

TEST(CampaignResilience, StateDirStreamsAndRestoresByteIdentically)
{
    const test::TempDir dir("campaign_state");
    const std::string sd = dir.file("state");
    const CampaignSpec c = tinyCampaign();

    CampaignRunOptions opts;
    opts.stateDir = sd;
    ParallelRunner serial(1);
    const CampaignResult first = CampaignRunner(serial).run(c, opts);
    EXPECT_EQ(first.json(), cleanTinyJson());
    EXPECT_EQ(manifestDoneCount(sd), 3u);

    // A resume of the finished run restores every cell from disk —
    // no simulation at all — and must render the same bytes, at any
    // jobs width (this exercises the full serialize/parse round trip
    // of every double in the result).
    opts.resume = true;
    for (const unsigned jobs : {1u, 3u}) {
        ParallelRunner r(jobs);
        EXPECT_EQ(CampaignRunner(r).run(c, opts).json(),
                  cleanTinyJson())
            << "jobs " << jobs;
    }
}

TEST(CampaignResilienceDeathTest, CrashAndResumeReproducesTheCleanRun)
{
    const CampaignSpec c = tinyCampaign();

    // Kill a real process at each persistence boundary: before the
    // first write, in the orphan window after the first write, and
    // after the last write. Resume must reproduce the uninterrupted
    // bytes at two jobs widths every time.
    for (const char *fault :
         {"crash-before-write@0", "crash-after-write@0",
          "crash-after-write@2"}) {
        const test::TempDir dir("crash");
        const std::string sd = dir.file("state");
        EXPECT_EXIT(
            {
                CampaignSpec crashing = c;
                crashing.fault = faultPlanFromString(fault);
                CampaignRunOptions crash;
                crash.stateDir = sd;
                ParallelRunner r(1);
                CampaignRunner(r).run(crashing, crash);
            },
            ::testing::ExitedWithCode(kFaultCrashExit), "")
            << fault;

        CampaignRunOptions resume;
        resume.stateDir = sd;
        resume.resume = true;
        for (const unsigned jobs : {1u, 3u}) {
            ParallelRunner r(jobs);
            EXPECT_EQ(CampaignRunner(r).run(c, resume).json(),
                      cleanTinyJson())
                << fault << " jobs " << jobs;
        }
    }
}

TEST(CampaignResilience, FailedCellsAreContainedAndReported)
{
    CampaignSpec c = tinyCampaign();
    c.fault = faultPlanFromString("fail@1:5"); // slot 1 = manual

    ParallelRunner serial(1);
    ParallelRunner wide(3);
    const CampaignResult a = CampaignRunner(serial).run(c);
    const CampaignResult b = CampaignRunner(wide).run(c);
    EXPECT_EQ(a.json(), b.json());

    EXPECT_EQ(a.failureCount(), 1u);
    const CellResult *manual = a.find("soc1/manual");
    ASSERT_NE(manual, nullptr);
    EXPECT_TRUE(manual->failed);
    EXPECT_EQ(manual->attempts, 1u); // no retry budget
    EXPECT_NE(manual->error.find("injected fault"),
              std::string::npos);
    EXPECT_TRUE(manual->phases.empty());

    // The failure is structured in the JSON...
    EXPECT_NE(a.json().find(".failed\": 1"), std::string::npos);
    EXPECT_NE(a.json().find(".error\": \"injected fault"),
              std::string::npos);
    // ...and the surviving cells still ran and normalized.
    const CellResult *cohm = a.find("soc1/cohmeleon");
    ASSERT_NE(cohm, nullptr);
    EXPECT_FALSE(cohm->failed);
    EXPECT_FALSE(cohm->phases.empty());
    EXPECT_GT(cohm->geoExec, 0.0);
}

TEST(CampaignResilience, FailedBaselineLeavesTheGroupUnnormalized)
{
    CampaignSpec c = tinyCampaign();
    c.fault = faultPlanFromString("fail@0:5"); // the baseline cell

    ParallelRunner serial(1);
    const CampaignResult a = CampaignRunner(serial).run(c);
    EXPECT_EQ(a.failureCount(), 1u);
    const CellResult *manual = a.find("soc1/manual");
    ASSERT_NE(manual, nullptr);
    EXPECT_FALSE(manual->failed);
    // Ran, but nothing to normalize against: reported raw.
    EXPECT_FALSE(manual->phases.empty());
    EXPECT_TRUE(manual->execNorm.empty());
}

TEST(CampaignResilience, RetriesRecoverFlakyCells)
{
    CampaignSpec c = tinyCampaign();
    c.fault = faultPlanFromString("fail@2:2"); // cohmeleon, twice
    c.maxRetries = 2;

    ParallelRunner serial(1);
    ParallelRunner wide(3);
    const CampaignResult a = CampaignRunner(serial).run(c);
    const CampaignResult b = CampaignRunner(wide).run(c);
    // fail@ keys on the deterministic slot, so the attempt count —
    // and therefore the JSON — cannot depend on the jobs width.
    EXPECT_EQ(a.json(), b.json());

    EXPECT_EQ(a.failureCount(), 0u);
    const CellResult *cohm = a.find("soc1/cohmeleon");
    ASSERT_NE(cohm, nullptr);
    EXPECT_EQ(cohm->attempts, 3u);
    EXPECT_NE(a.json().find(".attempts\": 3"), std::string::npos);

    // The recovered run's measurements match the clean run's — the
    // JSON differs only by the attempts entry.
    std::string json = a.json();
    const std::size_t at = json.find(",\n  \"cell2.attempts\": 3");
    ASSERT_NE(at, std::string::npos) << json;
    json.erase(at, std::string(",\n  \"cell2.attempts\": 3").size());
    EXPECT_EQ(json, cleanTinyJson());
}

TEST(CampaignResilience, StopRequestInterruptsAndResumes)
{
    const test::TempDir dir("stop");
    const std::string sd = dir.file("state");
    const CampaignSpec c = tinyCampaign();

    CampaignRunOptions opts;
    opts.stateDir = sd;
    ParallelRunner serial(1);
    requestCampaignStop();
    try {
        EXPECT_THROW(CampaignRunner(serial).run(c, opts),
                     CampaignInterrupted);
    } catch (...) {
        clearCampaignStop();
        throw;
    }
    clearCampaignStop();

    // The interrupted run's message points at --resume; resuming
    // completes the campaign byte-identically.
    opts.resume = true;
    EXPECT_EQ(CampaignRunner(serial).run(c, opts).json(),
              cleanTinyJson());
}

TEST(CampaignResilience, SigintAfterWriteFlushesThenStops)
{
    const test::TempDir dir("sigint");
    const std::string sd = dir.file("state");
    CampaignSpec c = tinyCampaign();
    c.fault = faultPlanFromString("sigint-after-write@0");

    installCampaignSignalHandlers();
    clearCampaignStop();
    CampaignRunOptions opts;
    opts.stateDir = sd;
    ParallelRunner serial(1);
    try {
        CampaignRunner(serial).run(c, opts);
        FAIL() << "expected CampaignInterrupted";
    } catch (const CampaignInterrupted &e) {
        EXPECT_NE(std::string(e.what()).find("--resume"),
                  std::string::npos);
    }
    clearCampaignStop();

    // The manifest was flushed before the stop took effect: exactly
    // one cell is durable, and the resume runs only the rest.
    EXPECT_EQ(manifestDoneCount(sd), 1u);
    c.fault = FaultPlan{};
    opts.resume = true;
    EXPECT_EQ(CampaignRunner(serial).run(c, opts).json(),
              cleanTinyJson());
}

TEST(CampaignResilience, ResumeValidatesTheStateDirectory)
{
    const CampaignSpec c = tinyCampaign();
    ParallelRunner serial(1);

    // Resume without a prior run.
    {
        const test::TempDir dir("empty");
        CampaignRunOptions opts;
        opts.stateDir = dir.file("state");
        opts.resume = true;
        const std::string msg = diagnosticOf(
            [&] { CampaignRunner(serial).run(c, opts); });
        EXPECT_NE(msg.find("campaign.spec"), std::string::npos)
            << msg;
    }

    // Resume without a state dir at all.
    {
        CampaignRunOptions opts;
        opts.resume = true;
        EXPECT_THROW(CampaignRunner(serial).run(c, opts), FatalError);
    }

    const test::TempDir dir("validate");
    const std::string sd = dir.file("state");
    CampaignRunOptions opts;
    opts.stateDir = sd;
    CampaignRunner(serial).run(c, opts);
    opts.resume = true;

    // A different campaign is rejected with the first differing
    // line, not silently mixed in.
    {
        CampaignSpec other = c;
        other.policies = {"fixed-non-coh-dma", "manual"};
        const std::string msg = diagnosticOf(
            [&] { CampaignRunner(serial).run(other, opts); });
        EXPECT_NE(msg.find("different campaign"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("line"), std::string::npos) << msg;
    }

    // Fault/retry knobs are execution harness, not identity: the
    // same campaign resumed under different knobs validates fine.
    {
        CampaignSpec sameButDriven = c;
        sameButDriven.maxRetries = 3;
        EXPECT_EQ(
            CampaignRunner(serial).run(sameButDriven, opts).json(),
            cleanTinyJson());
    }

    // A corrupted cell file is caught by the checksum.
    {
        const std::string cell = sd + "/cells/cell0.result";
        std::string bytes = readFile(cell);
        bytes[bytes.size() / 2] ^= 0x20;
        atomicWriteFile(cell, bytes);
        const std::string msg = diagnosticOf(
            [&] { CampaignRunner(serial).run(c, opts); });
        EXPECT_NE(msg.find("corrupted"), std::string::npos) << msg;
        // Heal it back for the next check.
        bytes[bytes.size() / 2] ^= 0x20;
        atomicWriteFile(cell, bytes);
    }

    // A truncated manifest dies with a line diagnostic.
    {
        const std::string manifest = readFile(sd + "/MANIFEST");
        atomicWriteFile(sd + "/MANIFEST",
                        manifest.substr(0, manifest.find("end")));
        const std::string msg = diagnosticOf(
            [&] { CampaignRunner(serial).run(c, opts); });
        EXPECT_NE(msg.find("MANIFEST"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line"), std::string::npos) << msg;
    }
}
