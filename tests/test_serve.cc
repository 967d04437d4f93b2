/** @file Tests for the online serving subsystem: the serve spec text
 *  format (round-trips, line-numbered diagnostics), the
 *  deterministic request trace and generation schedule, the
 *  double-buffered swap-table handle, the log-bucketed latency
 *  histogram's quantile guarantees, the serving+staging state
 *  round-trip, and the serve loop's headline invariants —
 *  byte-identical decision logs at any thread count, hot swaps under
 *  load with no torn generations, thread-count-independent
 *  per-tenant reward attribution, generation models equal to a
 *  sequential train-and-fold reference at any shard count and
 *  width, and a drain during training that claims no further job
 *  and cannot deadlock. */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "app/fault.hh"
#include "app/training_driver.hh"
#include "policy/serve_state.hh"
#include "rl/table_handle.hh"
#include "serve/serve_loop.hh"
#include "sim/histogram.hh"
#include "soc/soc_presets.hh"
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

/** Small serving session shared by the loop tests (18 requests over
 *  3 generations with per-generation background training). */
serve::ServeSpec
baseServeSpec()
{
    serve::ServeSpec spec;
    spec.name = "unit";
    spec.soc = "soc1";
    spec.requests = 18;
    spec.swapInterval = 6;
    spec.trainIterations = 1;
    spec.trainShards = 1;
    serve::labelTenants(spec);
    return spec;
}

/** One serve run per thread count, cached across tests (training the
 *  generations is the expensive part; every test reads the same
 *  deterministic result). */
const serve::ServeResult &
servedAt(unsigned threads)
{
    static std::map<unsigned, serve::ServeResult> cache;
    auto it = cache.find(threads);
    if (it == cache.end()) {
        setQuiet(true);
        app::clearCampaignStop();
        serve::ServeSpec spec = baseServeSpec();
        spec.threads = threads;
        it = cache.emplace(threads, serve::runServe(spec)).first;
    }
    return it->second;
}

/** Canonical bytes of a model (its Model::save stream). */
std::string
tableBytes(const rl::Model &model)
{
    std::stringstream os;
    model.save(os);
    return os.str();
}

/** Generation @p gen's fresh model for @p spec, trained sequentially
 *  in one TrainingDriver run: the reference the serve loop's
 *  (generation, shard) jobs and in-order fold must reproduce. */
rl::Model
referenceGeneration(const serve::ServeSpec &spec, std::uint64_t gen)
{
    app::TrainingOptions opts;
    opts.iterations = spec.trainIterations;
    opts.shards = spec.trainShards;
    opts.trainSeed = app::experimentSeed(spec.trainSeed, gen);
    opts.agentSeed = app::experimentSeed(spec.agentSeed, gen);
    opts.weights = spec.weights;
    opts.merge = spec.merge;
    opts.explore = spec.explore;
    opts.model = spec.model;
    app::ParallelRunner serial(1);
    return app::TrainingDriver(serial)
        .train(soc::makeSocByName(spec.soc), opts)
        .checkpoint.model;
}

/** A Q-table with a recognizable, non-trivial pattern. */
rl::QTable
patternedTable(double scale)
{
    rl::QTable table;
    for (unsigned s = 0; s < rl::StateTuple::kNumStates; s += 7)
        for (unsigned a = 0; a < rl::kNumActions; ++a)
            table.setEntry(s, a, scale * (s + 1) + a, s + a);
    return table;
}

/** patternedTable() wrapped as a tabular learned model. */
rl::Model
patternedModel(double scale)
{
    rl::Model model;
    model.qtable() = patternedTable(scale);
    return model;
}

} // namespace

// ---------------------------------------------------------- the spec

TEST(ServeSpec, RoundTripsThroughSerialize)
{
    serve::ServeSpec spec;
    spec.name = "exotic";
    spec.soc = "soc2";
    spec.requests = 777;
    spec.threads = 3;
    spec.swapInterval = 19;
    spec.trainIterations = 5;
    spec.trainShards = 4;
    spec.weights.exec = 0.5;
    spec.weights.comm = 0.25;
    spec.weights.mem = 0.25;
    spec.tenants.clear();
    spec.tenants.push_back({"random", 2.5, ""});
    spec.tenants.push_back({"fig5", 1.0, ""});
    spec.arrivalRate = 123.5;
    spec.seed = 99;
    spec.trainSeed = 98;
    spec.agentSeed = 97;
    spec.loadState = "in.state";
    spec.saveState = "out.state";
    spec.decisionLog = "decisions.log";
    serve::labelTenants(spec);

    const serve::ServeSpec parsed =
        serve::parseServeSpecString(serve::serializeServeSpec(spec));
    EXPECT_TRUE(parsed == spec);
    EXPECT_EQ(parsed.tenants[1].label, "t1-fig5");
}

TEST(ServeSpec, DefaultsAreValidAndLabeled)
{
    serve::ServeSpec spec = serve::parseServeSpecString("");
    EXPECT_EQ(spec.tenants.size(), 2u);
    EXPECT_EQ(spec.tenants[0].label, "t0-random");
    EXPECT_NO_THROW(serve::validateServeSpec(spec));
}

TEST(ServeSpec, DiagnosticsNameLineAndKnownValues)
{
    const auto parse = [](const std::string &text) {
        return diagnosticOf(
            [&] { serve::parseServeSpecString(text); });
    };

    EXPECT_NE(parse("bogus-key = 1").find(
                  "line 1: unknown serve key 'bogus-key'"),
              std::string::npos);
    EXPECT_NE(parse("\nsoc = nope").find("line 2"),
              std::string::npos);
    EXPECT_NE(parse("soc = nope").find("known:"),
              std::string::npos);
    EXPECT_NE(parse("tenants = random, nosuch").find(
                  "unknown tenant source 'nosuch'"),
              std::string::npos);
    EXPECT_NE(parse("tenants = random, nosuch").find("fig5"),
              std::string::npos);
    EXPECT_NE(parse("tenants = random\ntenant-weights = 1, 2")
                  .find("2 entries for 1 tenants"),
              std::string::npos);
    EXPECT_NE(parse("requests = 0").find("requests must be > 0"),
              std::string::npos);
    EXPECT_NE(parse("swap-interval = 0")
                  .find("swap-interval must be > 0"),
              std::string::npos);
    EXPECT_NE(parse("threads = 0").find("threads must be > 0"),
              std::string::npos);
    EXPECT_NE(parse("threads = 300").find("threads must be <= 256"),
              std::string::npos);
    EXPECT_NE(parse("tenants = random\ntenant-weights = -1")
                  .find("positive finite"),
              std::string::npos);
    EXPECT_NE(parse("arrival-rate = -2").find("arrival-rate"),
              std::string::npos);
    EXPECT_NE(parse("requests = soon").find("expected a number"),
              std::string::npos);
    EXPECT_NE(parse("reward-weights = 1, 2").find("three values"),
              std::string::npos);
    // Counts beyond the caps fail with one line, not an allocation
    // sized by them.
    EXPECT_NE(parse("requests = 18446744073709551615")
                  .find("requests must be <= 100000000"),
              std::string::npos);
    EXPECT_NE(parse("shards = 100001").find("shards must be <="),
              std::string::npos);
    EXPECT_NE(parse("arrival-rate = 2e9").find("arrival-rate"),
              std::string::npos);
}

// ------------------------------------------------------- the trace

TEST(RequestGen, GenerationScheduleIsSeqOverInterval)
{
    serve::ServeSpec spec = baseServeSpec(); // 18 requests / 6
    EXPECT_EQ(serve::generationCount(spec), 3u);
    EXPECT_EQ(serve::generationOf(0, spec), 0u);
    EXPECT_EQ(serve::generationOf(5, spec), 0u);
    EXPECT_EQ(serve::generationOf(6, spec), 1u);
    EXPECT_EQ(serve::generationOf(17, spec), 2u);

    // A partial final interval is capped at the last generation.
    spec.requests = 5;
    spec.swapInterval = 8;
    EXPECT_EQ(serve::generationCount(spec), 1u);
    EXPECT_EQ(serve::generationOf(4, spec), 0u);
}

TEST(RequestGen, TraceIsDeterministicAndQuotaCovers)
{
    const serve::ServeSpec spec = baseServeSpec();
    const soc::Soc soc(soc::makeSoc1());
    const std::vector<serve::ServeRequest> a =
        serve::generateRequestTrace(spec, soc.config());
    const std::vector<serve::ServeRequest> b =
        serve::generateRequestTrace(spec, soc.config());

    ASSERT_EQ(a.size(), spec.requests);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seq, i);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].accName, b[i].accName);
        EXPECT_EQ(a[i].footprintBytes, b[i].footprintBytes);
        EXPECT_EQ(a[i].generation, serve::generationOf(i, spec));
        EXPECT_NO_THROW(soc.findAcc(a[i].accName));
    }

    const std::vector<std::uint64_t> quota =
        serve::generationReadQuota(a, spec);
    ASSERT_EQ(quota.size(), serve::generationCount(spec));
    std::uint64_t total = 0;
    for (const std::uint64_t q : quota)
        total += q;
    EXPECT_EQ(total, spec.requests);
}

TEST(RequestGen, FigureTenantReplaysAppOnMatchingSoc)
{
    serve::ServeSpec spec = baseServeSpec();
    spec.soc = "soc0"; // fig5 needs 12 tgens
    spec.tenants.clear();
    spec.tenants.push_back({"fig5", 1.0, ""});
    serve::labelTenants(spec);

    const soc::Soc soc(soc::makeSoc0());
    const std::vector<serve::ServeRequest> trace =
        serve::generateRequestTrace(spec, soc.config());
    ASSERT_EQ(trace.size(), spec.requests);
    for (const serve::ServeRequest &req : trace) {
        EXPECT_EQ(req.tenant, 0u);
        EXPECT_NO_THROW(soc.findAcc(req.accName));
    }
}

TEST(RequestGen, FigureTenantOnSmallSocIsDiagnosed)
{
    serve::ServeSpec spec = baseServeSpec();
    spec.tenants.clear(); // soc1 only has tgen0..tgen6
    spec.tenants.push_back({"fig5", 1.0, ""});
    serve::labelTenants(spec);

    const std::string diag = diagnosticOf(
        [&] { serve::generateRequestTrace(spec, soc::makeSoc1()); });
    EXPECT_NE(diag.find("fig5"), std::string::npos);
    EXPECT_NE(diag.find("tgen"), std::string::npos);
}

// ------------------------------------------------- the table handle

TEST(SwapTableHandle, GenerationZeroIsPublishedImmediately)
{
    rl::SwapTableHandle handle(patternedModel(1.0), {2, 1});
    EXPECT_EQ(handle.generations(), 2u);
    EXPECT_EQ(handle.publishedGen(), 0u);

    const rl::Model &table = handle.acquire(0);
    EXPECT_DOUBLE_EQ(table.qtable().q(7, 2), 1.0 * 8 + 2);
    handle.release(0);
}

TEST(SwapTableHandle, PublishSwapsWithoutDisturbingReaders)
{
    rl::SwapTableHandle handle(patternedModel(1.0), {1, 1, 1});

    const rl::Model &gen0 = handle.acquire(0);
    EXPECT_TRUE(handle.publish(1, patternedModel(2.0)));
    EXPECT_EQ(handle.publishedGen(), 1u);

    // The pinned generation 0 still reads its own table.
    EXPECT_DOUBLE_EQ(gen0.qtable().q(7, 0), 1.0 * 8);
    handle.release(0);

    const rl::Model &gen1 = handle.acquire(1);
    EXPECT_DOUBLE_EQ(gen1.qtable().q(7, 0), 2.0 * 8);
    handle.release(1);

    // Generation 0 fully retired, so publishing 2 (which overwrites
    // gen 0's slot) completes without blocking.
    EXPECT_TRUE(handle.publish(2, patternedModel(3.0)));
    const rl::Model &gen2 = handle.acquire(2);
    EXPECT_DOUBLE_EQ(gen2.qtable().q(7, 0), 3.0 * 8);
    handle.release(2);

    EXPECT_DOUBLE_EQ(handle.tableAt(2).qtable().q(7, 0), 3.0 * 8);
    EXPECT_DOUBLE_EQ(handle.tableAt(1).qtable().q(7, 0), 2.0 * 8);
}

TEST(SwapTableHandle, AcquireBlocksUntilitsGenerationIsPublished)
{
    rl::SwapTableHandle handle(patternedModel(1.0), {1, 1});
    double seen = 0.0;
    std::thread reader([&] {
        const rl::Model &gen1 = handle.acquire(1);
        seen = gen1.qtable().q(7, 0);
        handle.release(1);
    });
    EXPECT_TRUE(handle.publish(1, patternedModel(5.0)));
    reader.join();
    EXPECT_DOUBLE_EQ(seen, 5.0 * 8);
}

TEST(SwapTableHandle, AbortWaitsReleasesBlockedEndpoints)
{
    rl::SwapTableHandle handle(patternedModel(1.0), {2, 1, 1});

    // A reader stuck on a generation that will never be published.
    bool readerThrew = false;
    std::thread reader([&] {
        try {
            handle.acquire(2);
        } catch (const FatalError &) {
            readerThrew = true;
        }
    });

    // A trainer stuck publishing generation 2 while a generation 0
    // read is still outstanding (quota 2, only 1 retired).
    handle.acquire(0);
    handle.release(0);
    handle.acquire(0); // never released
    EXPECT_TRUE(handle.publish(1, patternedModel(2.0)));
    bool publishCancelled = false;
    std::thread trainer([&] {
        publishCancelled = !handle.publish(2, patternedModel(3.0));
    });

    handle.abortWaits();
    reader.join();
    trainer.join();
    EXPECT_TRUE(readerThrew);
    EXPECT_TRUE(publishCancelled);
    EXPECT_THROW(handle.acquire(1), FatalError);
}

// -------------------------------------------------- the histogram

TEST(LogHistogram, EmptyAndDegenerateDistributions)
{
    LogHistogram empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

    // All-equal samples: every quantile is exactly the sample.
    LogHistogram h;
    for (int i = 0; i < 5; ++i)
        h.record(0.007);
    for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 0.007);
    EXPECT_DOUBLE_EQ(h.mean(), 0.007);
}

TEST(LogHistogram, QuantilesStayWithinOneGrowthFactor)
{
    const double growth = 1.25;
    LogHistogram h(1e-9, growth, 120);
    std::vector<double> values;
    for (int i = 1; i <= 200; ++i)
        values.push_back(1e-6 * i); // 1us .. 200us, ascending
    for (const double v : values)
        h.record(v);

    EXPECT_EQ(h.count(), values.size());
    EXPECT_DOUBLE_EQ(h.minValue(), values.front());
    EXPECT_DOUBLE_EQ(h.maxValue(), values.back());
    EXPECT_DOUBLE_EQ(h.quantile(1.0), values.back());

    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const double truth = values[rank - 1];
        const double got = h.quantile(q);
        EXPECT_GE(got, truth);
        EXPECT_LE(got, truth * growth * (1 + 1e-12));
    }
}

TEST(LogHistogram, BucketBoundariesAndOutOfRangeValues)
{
    LogHistogram h(1e-9, 1.25, 120);
    EXPECT_EQ(h.bucketOf(0.0), 0u);
    EXPECT_EQ(h.bucketOf(1e-9), 0u);
    EXPECT_EQ(h.bucketOf(1e30), 119u);
    for (unsigned i = 0; i + 1 < 120; ++i)
        EXPECT_LT(h.bucketUpperEdge(i), h.bucketUpperEdge(i + 1));

    // Every value lands in the bucket whose edges bracket it.
    for (const double v : {2e-9, 1e-6, 3.7e-4, 0.5, 42.0}) {
        const unsigned b = h.bucketOf(v);
        EXPECT_LE(v, h.bucketUpperEdge(b));
        if (b > 0) {
            EXPECT_GT(v, h.bucketUpperEdge(b - 1));
        }
    }
}

TEST(LogHistogram, MergeMatchesSingleHistogramAndChecksLayout)
{
    LogHistogram all;
    LogHistogram left;
    LogHistogram right;
    for (int i = 1; i <= 100; ++i) {
        const double v = 1e-5 * i * i;
        all.record(v);
        (i % 2 ? left : right).record(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_DOUBLE_EQ(left.sum(), all.sum());
    EXPECT_DOUBLE_EQ(left.minValue(), all.minValue());
    EXPECT_DOUBLE_EQ(left.maxValue(), all.maxValue());
    for (const double q : {0.1, 0.5, 0.9, 1.0})
        EXPECT_DOUBLE_EQ(left.quantile(q), all.quantile(q));

    LogHistogram other(1e-6, 2.0, 32);
    EXPECT_THROW(left.merge(other), FatalError);
}

TEST(LogHistogram, RejectsNonFiniteAndBadLayouts)
{
    LogHistogram h;
    h.record(std::nan(""));
    h.record(std::numeric_limits<double>::infinity());
    h.record(1e-3);
    EXPECT_EQ(h.rejected(), 2u);
    EXPECT_EQ(h.count(), 1u);

    EXPECT_THROW(LogHistogram(0.0, 1.25, 10), FatalError);
    EXPECT_THROW(LogHistogram(1e-9, 1.0, 10), FatalError);
    EXPECT_THROW(LogHistogram(1e-9, 1.25, 1), FatalError);
}

// ------------------------------------------------- the serve state

TEST(ServeState, RoundTripsWithAndWithoutStaging)
{
    policy::ServeState state;
    state.servingGen = 3;
    state.serving = patternedModel(1.5);

    std::stringstream plain(state.serialized());
    const policy::ServeState loaded =
        policy::ServeState::load(plain);
    EXPECT_EQ(loaded.servingGen, 3u);
    EXPECT_FALSE(loaded.hasStaging);
    EXPECT_EQ(loaded.serialized(), state.serialized());
    EXPECT_DOUBLE_EQ(loaded.serving.qtable().q(7, 1), 1.5 * 8 + 1);
    EXPECT_EQ(loaded.serving.qtable().visits(7, 1), 8u);

    state.hasStaging = true;
    state.staging = patternedModel(-2.0);
    std::stringstream staged(state.serialized());
    const policy::ServeState both =
        policy::ServeState::load(staged);
    EXPECT_TRUE(both.hasStaging);
    EXPECT_EQ(both.serialized(), state.serialized());
    EXPECT_DOUBLE_EQ(both.staging.qtable().q(7, 0), -2.0 * 8);
}

TEST(ServeState, FileRoundTripAndDiagnostics)
{
    test::TempDir dir("serve_state");
    policy::ServeState state;
    state.servingGen = 1;
    state.serving = patternedModel(4.0);
    state.saveFile(dir.file("model.state"));

    const policy::ServeState loaded =
        policy::ServeState::loadFile(dir.file("model.state"));
    EXPECT_EQ(loaded.serialized(), state.serialized());

    EXPECT_THROW(policy::ServeState::loadFile(dir.file("absent")),
                 FatalError);

    std::stringstream badMagic("nonsense 1\n");
    EXPECT_THROW(policy::ServeState::load(badMagic), FatalError);

    std::stringstream badDims(
        "cohmeleon-serve-state 1\nserving-gen 0\nqtable 10 4\n");
    const std::string diag = diagnosticOf(
        [&] { policy::ServeState::load(badDims); });
    EXPECT_NE(diag.find("dimensions"), std::string::npos);
}

// --------------------------------------------------- the serve loop

TEST(ServeLoop, DecisionLogIsByteIdenticalAcrossThreadCounts)
{
    const serve::ServeResult &serial = servedAt(1);
    EXPECT_EQ(serial.decisionLog, servedAt(2).decisionLog);
    EXPECT_EQ(serial.decisionLog, servedAt(4).decisionLog);
    EXPECT_EQ(serial.decisionLog.rfind("cohmeleon-serve-log 1\n", 0),
              0u);
    EXPECT_NE(serial.decisionLog.find("end served 18\n"),
              std::string::npos);
}

TEST(ServeLoop, HotSwapsLandOnTheScheduledBoundaries)
{
    const serve::ServeSpec spec = baseServeSpec();
    const serve::ServeResult &result = servedAt(4);

    EXPECT_EQ(result.served, spec.requests);
    EXPECT_FALSE(result.interrupted);
    EXPECT_EQ(result.generations, 3u);
    EXPECT_EQ(result.hotSwaps, 2u);

    ASSERT_EQ(result.outcomes.size(), spec.requests);
    for (std::uint64_t seq = 0; seq < spec.requests; ++seq) {
        const serve::RequestOutcome &out = result.outcomes[seq];
        EXPECT_TRUE(out.served);
        EXPECT_EQ(out.generation, serve::generationOf(seq, spec));
        EXPECT_EQ(out.action, static_cast<unsigned>(out.mode));
    }
    EXPECT_EQ(result.decisionLatency.count(), spec.requests);
    EXPECT_EQ(result.serviceLatency.count(), spec.requests);
    EXPECT_EQ(result.decisionLatency.rejected(), 0u);
}

TEST(ServeLoop, TenantAttributionIsExactAndThreadInvariant)
{
    const serve::ServeSpec spec = baseServeSpec();
    const serve::ServeResult &result = servedAt(4);

    // Recompute the per-tenant folds sequentially from the recorded
    // measures; the concurrent run must match exactly (the fold
    // happens post-drain in trace order, so no float reordering).
    std::vector<rl::RewardTracker> trackers(spec.tenants.size());
    std::vector<double> sums(spec.tenants.size(), 0.0);
    std::vector<std::uint64_t> served(spec.tenants.size(), 0);
    for (const serve::RequestOutcome &out : result.outcomes) {
        const double reward = trackers[out.tenant].reward(
            out.acc, out.measure, spec.weights);
        EXPECT_DOUBLE_EQ(reward, out.reward);
        sums[out.tenant] += reward;
        served[out.tenant] += 1;
    }

    ASSERT_EQ(result.tenants.size(), spec.tenants.size());
    std::uint64_t totalServed = 0;
    for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
        EXPECT_EQ(result.tenants[t].served, served[t]);
        EXPECT_DOUBLE_EQ(result.tenants[t].rewardSum, sums[t]);
        totalServed += result.tenants[t].served;
    }
    EXPECT_EQ(totalServed, result.served);

    // And the same attribution falls out of the serial run.
    const serve::ServeResult &serial = servedAt(1);
    for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
        EXPECT_EQ(serial.tenants[t].served,
                  result.tenants[t].served);
        EXPECT_DOUBLE_EQ(serial.tenants[t].rewardSum,
                         result.tenants[t].rewardSum);
    }
}

TEST(ServeLoop, SavedStateResumesANewSession)
{
    setQuiet(true);
    app::clearCampaignStop();
    test::TempDir dir("serve_resume");

    serve::ServeSpec first = baseServeSpec();
    first.requests = 12;
    first.swapInterval = 6; // generations 0 and 1
    first.saveState = dir.file("serve.state");
    const serve::ServeResult trained = serve::runServe(first);
    EXPECT_EQ(trained.served, 12u);
    ASSERT_TRUE(trained.state.has_value());
    EXPECT_EQ(trained.state->servingGen, 1u);

    const policy::ServeState persisted =
        policy::ServeState::loadFile(dir.file("serve.state"));
    EXPECT_EQ(persisted.serialized(),
              trained.state->serialized());

    serve::ServeSpec second = baseServeSpec();
    second.requests = 6;
    second.swapInterval = 6; // single generation, no retraining
    second.loadState = dir.file("serve.state");
    const serve::ServeResult resumed = serve::runServe(second);
    EXPECT_EQ(resumed.served, 6u);
    EXPECT_EQ(resumed.hotSwaps, 0u);
    ASSERT_TRUE(resumed.state.has_value());

    // The resumed session serves the persisted model unchanged.
    EXPECT_EQ(tableBytes(resumed.state->serving),
              tableBytes(persisted.serving));
}

TEST(ServeLoop, FoldMatchesSequentialReferenceAtAnyWidth)
{
    setQuiet(true);
    test::TempDir dir("serve_fold");
    for (const unsigned shards : {1u, 2u}) {
        serve::ServeSpec spec = baseServeSpec();
        spec.swapInterval = 4;
        spec.trainShards = shards;

        std::vector<rl::Model> fresh;
        for (std::uint64_t gen = 0; gen < 3; ++gen)
            fresh.push_back(referenceGeneration(spec, gen));
        const rl::Model loaded = patternedModel(1.0);
        const rl::Model staged = patternedModel(2.0);
        const auto merged = [&](rl::Model into, std::uint64_t gen) {
            into.merge(fresh[gen], spec.merge);
            return into;
        };

        // Three starts, each ending on its last generation's model:
        // trained from scratch (generation 0 through the job queue),
        // resumed from a loaded generation 0, and resumed with a
        // staged generation 1 that is taken as-is, not retrained.
        struct Start
        {
            const char *name;
            std::uint64_t generations;
            bool load;
            bool stage;
            rl::Model last;
        };
        const std::vector<Start> starts = {
            {"none", 2, false, false, merged(fresh[0], 1)},
            {"loaded", 2, true, false, merged(loaded, 1)},
            {"staged", 3, true, true, merged(staged, 2)},
        };

        for (const Start &start : starts) {
            spec.requests = start.generations * spec.swapInterval;
            spec.loadState.clear();
            if (start.load) {
                policy::ServeState state;
                state.serving = loaded;
                state.hasStaging = start.stage;
                state.staging = staged;
                spec.loadState = dir.file(
                    std::string(start.name) + std::to_string(shards));
                state.saveFile(spec.loadState);
            }

            std::string serialLog;
            for (const unsigned threads : {1u, 2u, 4u}) {
                SCOPED_TRACE(std::string(start.name) + " shards " +
                             std::to_string(shards) + " threads " +
                             std::to_string(threads));
                app::clearCampaignStop();
                spec.threads = threads;
                const serve::ServeResult r = serve::runServe(spec);
                EXPECT_EQ(r.served, spec.requests);
                EXPECT_EQ(r.hotSwaps, start.generations - 1);
                ASSERT_TRUE(r.state.has_value());
                EXPECT_EQ(r.state->servingGen, start.generations - 1);
                EXPECT_FALSE(r.state->hasStaging);
                EXPECT_EQ(tableBytes(r.state->serving),
                          tableBytes(start.last));
                if (threads == 1)
                    serialLog = r.decisionLog;
                EXPECT_EQ(r.decisionLog, serialLog);
            }
        }
    }

    // Two-term folds commute in floating point, so the shard order
    // inside a generation only shows from three shards on.
    serve::ServeSpec spec = baseServeSpec();
    spec.requests = spec.swapInterval; // generation 0 only
    spec.trainShards = 3;
    spec.threads = 4;
    app::clearCampaignStop();
    const serve::ServeResult r = serve::runServe(spec);
    ASSERT_TRUE(r.state.has_value());
    EXPECT_EQ(tableBytes(r.state->serving),
              tableBytes(referenceGeneration(spec, 0)));
}

TEST(ServeLoop, DrainWhileTrainingClaimsNothingMoreAndServesAPrefix)
{
    setQuiet(true);
    test::TempDir dir("serve_drain");
    for (const bool load : {false, true}) {
        SCOPED_TRACE(load ? "loaded generation 0" : "training generation 0");
        serve::ServeSpec spec = baseServeSpec();
        spec.requests = 24;
        spec.swapInterval = 6;
        spec.threads = 2;
        spec.trainShards = 2;
        spec.trainIterations = 2; // jobs outlast the stop delay
        if (load) {
            policy::ServeState state;
            state.serving = patternedModel(1.0);
            spec.loadState = dir.file("gen0.state");
            state.saveFile(spec.loadState);
        }

        // Trip the stop latch while the workers, waiting on a
        // generation that is still training, run training jobs.
        app::clearCampaignStop();
        std::thread stopper([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            app::requestCampaignStop();
        });
        std::future<serve::ServeResult> pending = std::async(
            std::launch::async, [&] { return serve::runServe(spec); });
        if (pending.wait_for(std::chrono::minutes(5)) !=
            std::future_status::ready) {
            std::fprintf(stderr, "runServe did not drain\n");
            std::abort();
        }
        const serve::ServeResult r = pending.get();
        stopper.join();
        app::clearCampaignStop();

        EXPECT_TRUE(r.interrupted);
        ASSERT_LT(r.served, spec.requests);
        for (std::uint64_t seq = 0; seq < spec.requests; ++seq)
            EXPECT_EQ(r.outcomes[seq].served, seq < r.served) << seq;
        EXPECT_NE(r.decisionLog.find(
                      "end served " + std::to_string(r.served) + "\n"),
                  std::string::npos);

        // The stop came before any job finished, so only the jobs
        // claimed up front ran: one lookahead window, nothing more.
        EXPECT_GE(r.trainingJobs, 1u);
        EXPECT_LE(r.trainingJobs, spec.threads + 1);
        EXPECT_EQ(r.hotSwaps, 0u);
        if (load) {
            ASSERT_TRUE(r.state.has_value());
            EXPECT_EQ(r.state->servingGen, 0u);
            EXPECT_EQ(tableBytes(r.state->serving),
                      tableBytes(patternedModel(1.0)));
        } else {
            EXPECT_EQ(r.served, 0u);
            EXPECT_FALSE(r.state.has_value());
        }
    }
}
