/**
 * @file
 * Cross-SoC transfer study: merged-model quality vs shard count and
 * merge/exploration strategy (the ROADMAP's Figure-9-grid transfer
 * item, run as a standalone study).
 *
 * For every (shards-per-SoC, strategy) configuration the study trains
 * shards on a small training-SoC set with trainAcrossSocs(), folds
 * them under the configuration's MergeSpec, and evaluates the merged
 * model frozen on SoCs outside the training set (soc5 is a
 * domain-specific design the model never saw) next to a training SoC
 * as a control, normalizing each phase against fixed non-coherent DMA
 * on the same SoC. Lower is better; 1.0 means "no better than never
 * caching".
 *
 * The first configuration also re-trains on a single thread and
 * aborts if the checkpoint differs from the parallel run — the
 * subsystem's determinism contract, kept under every strategy.
 * Results print as a table and are written to BENCH_transfer.json.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "app/parallel_runner.hh"
#include "app/training_driver.hh"
#include "bench_util.hh"
#include "policy/checkpoint.hh"
#include "policy/fixed.hh"
#include "sim/stats.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

namespace
{

/** One strategy pair of the study, with its table/JSON label. */
struct StrategyCase
{
    const char *label;
    const char *merge;
    const char *explore;
};

/** Vary one axis at a time off the paper baseline — the readable
 *  ablation layout, not the full cross product. */
constexpr StrategyCase kStrategies[] = {
    {"visit-weighted/linear", "visit-weighted", "linear"},
    {"recency/linear", "recency@0.5", "linear"},
    {"reward-norm/linear", "reward-norm", "linear"},
    {"visit-weighted/floor", "visit-weighted", "floor@0.1"},
    {"visit-weighted/visit", "visit-weighted", "visit@1"},
};

/** Normalized quality of @p model on @p cfg: geometric-mean exec and
 *  DDR ratios vs fixed non-coherent DMA on the same evaluation app. */
struct EvalQuality
{
    double execNorm = 1.0;
    double ddrNorm = 1.0;
};

EvalQuality
evaluateOn(const policy::PolicyCheckpoint &model,
           const soc::SocConfig &cfg,
           const app::RandomAppParams &appParams)
{
    const app::AppSpec evalApp =
        app::generateRandomApp(cfg, Rng(2022), appParams);

    policy::FixedPolicy baseline(coh::CoherenceMode::kNonCohDma);
    const app::AppResult base =
        app::runPolicyOnApp(baseline, cfg, evalApp);
    const app::AppResult eval =
        app::TrainingDriver::evaluate(model, cfg, evalApp);

    std::vector<double> execRatios;
    std::vector<double> ddrRatios;
    for (std::size_t i = 0; i < eval.phases.size(); ++i) {
        execRatios.push_back(std::max(
            app::safeRatio(
                static_cast<double>(eval.phases[i].execCycles),
                static_cast<double>(base.phases[i].execCycles)),
            1e-9));
        ddrRatios.push_back(std::max(
            app::safeRatio(
                static_cast<double>(eval.phases[i].ddrAccesses),
                static_cast<double>(base.phases[i].ddrAccesses)),
            1e-9));
    }
    return {geometricMean(execRatios), geometricMean(ddrRatios)};
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Cross-SoC transfer: merged-model quality vs shards x "
           "strategy",
           "Figure-9 transfer-generalization study over the "
           "strategy axes");

    const bool full = fullScale();
    const std::vector<std::string> trainSocNames = {"soc1", "soc2"};
    const std::vector<std::string> evalSocNames =
        full ? std::vector<std::string>{"soc1", "soc5", "soc6"}
             : std::vector<std::string>{"soc1", "soc5"};
    const std::vector<unsigned> shardCounts =
        full ? std::vector<unsigned>{2, 4, 8}
             : std::vector<unsigned>{1, 4};

    app::TrainingOptions base;
    // 6+ iterations even at quick scale: with fewer, the epsilon
    // floor never binds (linear decay stays above it) and the merge
    // variants barely overlap, so every strategy would coincide.
    base.iterations = full ? 10 : 6;
    if (!full) {
        base.appParams = app::RandomAppParams{};
        base.appParams.phases = 2;
        base.appParams.maxThreads = 3;
        base.appParams.maxLoops = 1;
    }

    std::vector<soc::SocConfig> trainCfgs;
    for (const std::string &n : trainSocNames)
        trainCfgs.push_back(soc::makeSocByName(n));
    std::vector<soc::SocConfig> evalCfgs;
    for (const std::string &n : evalSocNames)
        evalCfgs.push_back(soc::makeSocByName(n));

    JsonReporter json("transfer");
    {
        std::string socs;
        for (const std::string &n : trainSocNames)
            socs += (socs.empty() ? "" : ",") + n;
        json.addString("train_socs", socs);
    }
    json.add("iterations", base.iterations);

    app::ParallelRunner runner;
    const WallTimer timer;
    std::uint64_t invocations = 0;
    bool determinismChecked = false;

    std::printf("%-24s %7s %9s", "strategy", "shards", "q-mass");
    for (const std::string &n : evalSocNames)
        std::printf(" %11s", (n + " exec").c_str());
    std::printf("\n");

    for (const StrategyCase &sc : kStrategies) {
        app::TrainingOptions opts = base;
        opts.merge = rl::mergeSpecFromString(sc.merge);
        opts.explore = rl::exploreSpecFromString(sc.explore);
        for (unsigned shards : shardCounts) {
            opts.shards = shards;
            const app::TrainingResult tres =
                app::trainAcrossSocs(trainCfgs, opts, runner);
            invocations += tres.totalInvocations;

            if (!determinismChecked) {
                // The contract: the checkpoint is a pure function of
                // (cfgs, opts), never of the pool width.
                app::ParallelRunner serial(1);
                const app::TrainingResult ref =
                    app::trainAcrossSocs(trainCfgs, opts, serial);
                panic_if(ref.checkpoint.serialized() !=
                             tres.checkpoint.serialized(),
                         "parallel transfer training diverged from "
                         "serial");
                determinismChecked = true;
            }

            const std::string prefix = "sh" +
                                       std::to_string(shards) + "." +
                                       sc.label;
            json.addString(prefix + ".merge", sc.merge);
            json.addString(prefix + ".explore", sc.explore);
            json.add(prefix + ".q_updates",
                     static_cast<double>(
                         tres.checkpoint.model.totalVisits()));
            json.add(prefix + ".entries_covered",
                     static_cast<double>(
                         tres.checkpoint.model.updatedEntries()));

            std::printf("%-24s %7u %9llu", sc.label, shards,
                        static_cast<unsigned long long>(
                            tres.checkpoint.model.totalVisits()));
            for (std::size_t e = 0; e < evalCfgs.size(); ++e) {
                const EvalQuality q = evaluateOn(
                    tres.checkpoint, evalCfgs[e], base.appParams);
                json.add(prefix + "." + evalSocNames[e] +
                             ".exec_norm",
                         q.execNorm);
                json.add(prefix + "." + evalSocNames[e] +
                             ".ddr_norm",
                         q.ddrNorm);
                std::printf(" %11.3f", q.execNorm);
            }
            std::printf("\n");
        }
    }

    const double elapsed = timer.seconds();
    json.add("train_invocations", static_cast<double>(invocations));
    json.add("wall_seconds", elapsed);
    json.add("invocations_per_sec",
             static_cast<double>(invocations) / elapsed);
    json.writeTo("BENCH_transfer.json");
    std::printf("\n%llu training invocations in %.2fs; wrote "
                "BENCH_transfer.json\n",
                static_cast<unsigned long long>(invocations),
                elapsed);
    return 0;
}
