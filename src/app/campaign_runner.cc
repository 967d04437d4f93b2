#include "app/campaign_runner.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "app/campaign_state.hh"
#include "app/config_parser.hh"
#include "app/heartbeat.hh"
#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "policy/cohmeleon_policy.hh"
#include "policy/policy.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace cohmeleon::app
{

namespace
{

// ------------------------------------------------------------ expansion

/** expand() plus the per-cell grouping metadata run() needs. */
struct ExpandedCell
{
    ScenarioSpec spec;
    std::size_t group = 0;
    bool isBaseline = false;
};

/**
 * The transfer stage's serialized merged models, one per (merge,
 * explore) strategy pair appearing in the expanded cells — when the
 * campaign sweeps strategies, every cohmeleon cell restores the model
 * folded with *its* strategy pair.
 */
using TransferModels = std::map<std::string, std::string>;

/** The cell's learned-model backend: a "cohmeleon@MODEL" policy
 *  string overrides the spec's model key. */
rl::ModelSpec
effectiveModelSpec(const ScenarioSpec &s)
{
    return parsePolicyName(s.policy).model.value_or(s.model);
}

std::string
strategyKey(const ScenarioSpec &s)
{
    return rl::toString(s.merge) + '|' + rl::toString(s.explore) +
           '|' + rl::toString(effectiveModelSpec(s));
}

template <typename T>
std::vector<T>
axisOrDefault(const std::vector<T> &axis, T fallback)
{
    if (!axis.empty())
        return axis;
    return {std::move(fallback)};
}

std::vector<ExpandedCell>
expandCells(const CampaignSpec &c)
{
    const bool haveAxes = !c.socs.empty() || !c.policies.empty() ||
                          !c.seeds.empty() || !c.shardCounts.empty() ||
                          !c.accCounts.empty() || !c.merges.empty() ||
                          !c.explores.empty() || !c.models.empty();
    const bool concurrent =
        c.base.workload == WorkloadKind::kConcurrent;

    const std::vector<std::string> socs =
        axisOrDefault(c.socs, c.base.soc);
    const std::vector<std::string> policies =
        axisOrDefault(c.policies, c.base.policy);
    const std::vector<std::uint64_t> seeds =
        axisOrDefault(c.seeds, c.base.evalSeed);
    const std::vector<unsigned> shardCounts =
        axisOrDefault(c.shardCounts, c.base.trainShards);
    const std::vector<unsigned> accCounts =
        axisOrDefault(c.accCounts, c.base.accCount);
    const std::vector<rl::MergeSpec> merges =
        axisOrDefault(c.merges, c.base.merge);
    const std::vector<rl::ExploreSpec> explores =
        axisOrDefault(c.explores, c.base.explore);
    const std::vector<rl::ModelSpec> models =
        axisOrDefault(c.models, c.base.model);

    std::vector<ExpandedCell> out;
    std::size_t group = 0;

    // Hand-picked cells without any axis: the cells ARE the campaign.
    if (haveAxes || c.cells.empty()) {
        for (const std::string &socName : socs) {
            for (std::uint64_t seed : seeds) {
                for (unsigned shards : shardCounts) {
                    for (const rl::MergeSpec &merge : merges) {
                    for (const rl::ExploreSpec &explore : explores) {
                    for (const rl::ModelSpec &model : models) {
                    if (concurrent) {
                        // Figure-3 normalization: every accelerator's
                        // own single-accelerator non-coherent run,
                        // with the grid's loop count.
                        ScenarioSpec probe = c.base;
                        probe.soc = socName;
                        const soc::SocConfig cfg = resolveSoc(probe);
                        for (std::size_t a = 0; a < cfg.accs.size();
                             ++a) {
                            ScenarioSpec cell = c.base;
                            cell.soc = socName;
                            cell.evalSeed = seed;
                            cell.trainShards = shards;
                            cell.merge = merge;
                            cell.explore = explore;
                            cell.model = model;
                            cell.policy = "fixed-non-coh-dma";
                            cell.accIndex = static_cast<int>(a);
                            cell.name = socName + "/single/acc" +
                                        std::to_string(a);
                            out.push_back(
                                {std::move(cell), group, true});
                        }
                    }
                    for (const std::string &policyName : policies) {
                        for (unsigned accCount : accCounts) {
                            ScenarioSpec cell = c.base;
                            cell.soc = socName;
                            cell.evalSeed = seed;
                            cell.trainShards = shards;
                            cell.merge = merge;
                            cell.explore = explore;
                            cell.model = model;
                            cell.policy = policyName;
                            cell.accCount = accCount;
                            cell.name = socName + "/" + policyName;
                            if (seeds.size() > 1)
                                cell.name +=
                                    "/seed" + std::to_string(seed);
                            if (shardCounts.size() > 1)
                                cell.name +=
                                    "/sh" + std::to_string(shards);
                            if (merges.size() > 1)
                                cell.name +=
                                    "/mg-" + rl::toString(merge);
                            if (explores.size() > 1)
                                cell.name +=
                                    "/ex-" + rl::toString(explore);
                            if (models.size() > 1)
                                cell.name +=
                                    "/md-" + rl::toString(model);
                            if (concurrent)
                                cell.name +=
                                    "/x" + std::to_string(accCount);
                            out.push_back(
                                {std::move(cell), group, false});
                        }
                    }
                    ++group;
                    }
                    }
                    }
                }
            }
        }
    }

    if (!c.cells.empty()) {
        for (const ScenarioSpec &cell : c.cells)
            out.push_back({cell, group, false});
        ++group;
    }
    return out;
}

// ------------------------------------------------------ cell execution

/**
 * Figure-3 measurement unit, moved verbatim from the pre-refactor
 * bench_fig3_parallel: run @p accs concurrently, looped, under one
 * scripted mode, on a private SoC built from @p cfg.
 */
std::vector<ConcurrentAccMean>
runSet(const soc::SocConfig &cfg, const std::vector<AccId> &accs,
       coh::CoherenceMode mode, unsigned loops,
       std::uint64_t footprint, const RuntimeKnobs &knobs)
{
    soc::Soc soc(cfg);
    policy::ScriptedPolicy policy;
    rt::EspRuntime runtime(soc, policy);
    knobs.applyTo(soc, runtime);
    policy.setMode(mode);

    const std::size_t n = accs.size();
    std::vector<mem::Allocation> allocs(n);
    std::vector<ConcurrentAccMean> sums(n);
    std::vector<unsigned> done(n, 0);

    Cycles warmDone = 0;
    for (std::size_t i = 0; i < n; ++i) {
        allocs[i] = soc.allocator().allocate(footprint);
        warmDone = std::max(
            warmDone,
            soc.cpuWriteRange(0, static_cast<unsigned>(
                                     i % soc.numCpus()),
                              allocs[i], footprint));
    }

    std::function<void(std::size_t)> invokeNext = [&](std::size_t i) {
        rt::InvocationRequest req;
        req.acc = accs[i];
        req.footprintBytes = footprint;
        req.data = &allocs[i];
        runtime.invoke(static_cast<unsigned>(i % soc.numCpus()), req,
                       [&, i](const rt::InvocationRecord &r) {
                           sums[i].exec +=
                               static_cast<double>(r.wallCycles);
                           sums[i].ddr += r.ddrApprox;
                           if (++done[i] < loops)
                               invokeNext(i);
                       });
    };
    soc.eq().scheduleAt(warmDone, [&] {
        for (std::size_t i = 0; i < n; ++i)
            invokeNext(i);
    });
    soc.eq().run();

    for (std::size_t i = 0; i < n; ++i) {
        sums[i].exec /= loops;
        sums[i].ddr /= loops;
    }
    return sums;
}

RuntimeKnobs
knobsOf(const ScenarioSpec &s)
{
    RuntimeKnobs k;
    k.exactAttribution = s.exactAttribution;
    k.disabledModes = s.disabledModes;
    k.accDisabledModes = s.accDisabledModes;
    return k;
}

CellResult
runConcurrentCell(const ScenarioSpec &s)
{
    CellResult out;
    out.scenario = s;

    const soc::SocConfig cfg = resolveSoc(s);
    fatalIf(s.policy.rfind("fixed-", 0) != 0 ||
                s.policy == "fixed-hetero",
            "concurrent cells run one scripted mode; policy must be "
            "fixed-<mode>, got '", s.policy, "'");
    const coh::CoherenceMode mode =
        coh::modeFromString(s.policy.substr(6));

    std::vector<AccId> accs;
    if (s.accIndex >= 0) {
        fatalIf(static_cast<std::size_t>(s.accIndex) >=
                    cfg.accs.size(),
                "acc-index ", s.accIndex, " outside '", cfg.name,
                "' (", cfg.accs.size(), " accelerators)");
        accs = {static_cast<AccId>(s.accIndex)};
    } else {
        fatalIf(s.accCount == 0 || s.accCount > cfg.accs.size(),
                "acc-count ", s.accCount, " outside '", cfg.name,
                "' (", cfg.accs.size(), " accelerators)");
        for (unsigned i = 0; i < s.accCount; ++i)
            accs.push_back(static_cast<AccId>(i));
    }

    out.accMeans =
        runSet(cfg, accs, mode, s.loops, s.footprintBytes, knobsOf(s));
    return out;
}

void
summarizeModel(TrainSummary &t, const policy::PolicyCheckpoint &ckpt)
{
    t.qUpdates = ckpt.model.totalVisits();
    t.entriesCovered = ckpt.model.updatedEntries();
    t.iteration = ckpt.iteration;
}

CellResult
runProtocolCell(const ScenarioSpec &s,
                const TransferModels *transferModels)
{
    CellResult out;
    out.scenario = s;

    const soc::SocConfig cfg = resolveSoc(s);
    const RuntimeKnobs knobs = knobsOf(s);

    EvalOptions eopts;
    eopts.trainIterations = std::max(1u, s.trainIterations);
    eopts.trainSeed = s.trainSeed;
    eopts.evalSeed = s.evalSeed;
    eopts.appParams = s.appParams;
    if (s.trainApp == TrainAppShape::kDense)
        eopts.trainAppParams = denseTrainingParams();
    eopts.agentSeed = s.agentSeed;
    eopts.explore = s.explore;
    eopts.model = s.model;
    eopts.collectRecords = s.collectRecords;

    // The protocol's applications. For random evaluation apps this is
    // exactly makeProtocolApps(); file/figure apps replace the
    // evaluation side only (Cohmeleon still trains on a random
    // instance, per the paper's methodology).
    const AppSpec trainApp = generateRandomApp(
        cfg, Rng(eopts.trainSeed),
        eopts.trainAppParams.value_or(eopts.appParams));
    AppSpec evalApp;
    switch (s.appSource) {
      case AppSource::kRandom:
        evalApp = generateRandomApp(cfg, Rng(eopts.evalSeed),
                                    eopts.appParams);
        break;
      case AppSource::kFile: {
        std::ifstream in(s.appFile);
        fatalIf(!in, "cannot open '", s.appFile, "'");
        evalApp = parseAppSpec(in);
        break;
      }
      case AppSource::kFigure:
        evalApp = figureApp(s.figureName);
        break;
    }
    out.appName = evalApp.name;

    const bool wantsModelFlow =
        !s.loadModel.empty() || !s.saveModel.empty() ||
        s.trainShards > 0 ||
        (transferModels != nullptr && s.policy == "cohmeleon");

    if (!wantsModelFlow && !s.captureStats) {
        // The paper's plain protocol — the exact code path the figure
        // benches used before the campaign layer existed.
        out.phases = runProtocolForPolicy(s.policy, cfg, eopts,
                                          trainApp, evalApp, knobs);
        if (s.policy == "cohmeleon") {
            out.training.source = TrainSummary::Source::kOnline;
            out.training.invocations =
                static_cast<std::uint64_t>(
                    trainApp.totalInvocations()) *
                eopts.trainIterations;
            out.training.iteration = eopts.trainIterations;
        }
        return out;
    }

    std::unique_ptr<rt::CoherencePolicy> policy =
        makePolicyByName(s.policy, cfg, eopts);
    auto *cohm =
        dynamic_cast<policy::CohmeleonPolicy *>(policy.get());
    fatalIf(cohm == nullptr &&
                (!s.loadModel.empty() || !s.saveModel.empty() ||
                 s.trainShards > 0),
            "the model/training options only apply to the cohmeleon "
            "policy (cell '", s.name, "' runs ", s.policy, ")");

    if (cohm != nullptr) {
        TrainSummary &t = out.training;
        // capture() cannot know how a model's table was folded; the
        // branches below record it so a re-saved model keeps its
        // merge metadata.
        rl::MergeSpec modelMerge;
        fatalIf(!s.loadModel.empty() && s.trainShards != 0,
                "cell '", s.name,
                "' both loads a model and asks for sharded training "
                "(load-model replaces training)");
        if (!s.loadModel.empty()) {
            const policy::PolicyCheckpoint ckpt =
                policy::PolicyCheckpoint::loadFile(s.loadModel);
            auto restored = ckpt.makePolicy();
            if (s.freezeLoaded)
                restored->freeze();
            cohm = restored.get();
            policy = std::move(restored);
            t.source = TrainSummary::Source::kLoaded;
            modelMerge = ckpt.merge;
            summarizeModel(t, ckpt);
        } else if (transferModels != nullptr) {
            const auto model =
                transferModels->find(strategyKey(s));
            fatalIf(model == transferModels->end(),
                    "no transfer model trained for cell '", s.name,
                    "' (strategy ", strategyKey(s), ")");
            std::istringstream in(model->second);
            const policy::PolicyCheckpoint ckpt =
                policy::PolicyCheckpoint::load(in);
            auto restored = ckpt.makePolicy(); // merged models freeze
            cohm = restored.get();
            policy = std::move(restored);
            t.source = TrainSummary::Source::kTransfer;
            modelMerge = ckpt.merge;
            summarizeModel(t, ckpt);
        } else if (s.trainShards > 0) {
            // Sharded deterministic training, serial inside the cell
            // (cells themselves are the parallel unit). The model is
            // a pure function of the spec — byte-identical to any
            // --jobs width of the `train` subcommand.
            ParallelRunner serial(1);
            TrainingDriver driver(serial);
            const TrainingResult tres =
                driver.train(cfg, trainingOptionsOf(s));
            auto trained = tres.checkpoint.makePolicy();
            cohm = trained.get();
            policy = std::move(trained);
            t.source = TrainSummary::Source::kSharded;
            modelMerge = s.merge;
            t.invocations = tres.totalInvocations;
            summarizeModel(t, tres.checkpoint);
        } else {
            trainCohmeleon(*cohm, cfg, trainApp,
                           eopts.trainIterations, knobs);
            t.source = TrainSummary::Source::kOnline;
            t.invocations = static_cast<std::uint64_t>(
                                trainApp.totalInvocations()) *
                            eopts.trainIterations;
            t.qUpdates = cohm->agent().model().totalVisits();
            t.entriesCovered = cohm->agent().model().updatedEntries();
            t.iteration = eopts.trainIterations;
        }
        if (!s.saveModel.empty()) {
            policy::PolicyCheckpoint snap =
                policy::PolicyCheckpoint::capture(*cohm);
            snap.merge = modelMerge;
            snap.saveFile(s.saveModel);
        }
    }

    out.phases =
        runPolicyOnApp(*policy, cfg, evalApp, knobs, s.collectRecords,
                       s.captureStats ? &out.statsDump : nullptr)
            .phases;
    return out;
}

CellResult
runCell(const ScenarioSpec &s, const TransferModels *transferModels)
{
    if (s.workload == WorkloadKind::kConcurrent)
        return runConcurrentCell(s);
    return runProtocolCell(s, transferModels);
}

// ----------------------------------------------------- the run plan

/** Everything every execution mode (in-process, fleet supervisor,
 *  fleet worker) derives from the spec before running: the
 *  expansion, the deterministic slot numbering persistence keys on,
 *  the lease TTL, and the resume identity. A pure function of the
 *  spec, so supervisor and workers agree on all of it without
 *  sharing memory. */
struct CampaignPlan
{
    std::vector<ExpandedCell> expanded;
    std::vector<std::size_t> uniqueCells; ///< slot -> expanded index
    std::vector<std::size_t> cellSlot;    ///< expanded index -> slot
    std::vector<std::string> slotKeys;    ///< canonical text per slot
    std::vector<std::string> slotNames;   ///< representative names
    std::string identityText;
    double leaseTtlSec = 30.0;
};

CampaignPlan
planCampaign(const CampaignSpec &spec)
{
    CampaignPlan plan;
    plan.expanded = expandCells(spec);
    fatalIf(plan.expanded.empty(), "campaign '", spec.name,
            "' expands to no cells");

    // Unique-spec slots first: persistence, resume, leases, and fault
    // ordinals are all keyed on the deterministic slot numbering, so
    // it must exist before any stage runs.
    std::map<std::string, std::size_t> slotOf; // canonical spec
    plan.cellSlot.resize(plan.expanded.size());
    for (std::size_t i = 0; i < plan.expanded.size(); ++i) {
        ScenarioSpec key = plan.expanded[i].spec;
        key.name.clear(); // names differ, simulations may not
        const auto [it, inserted] = slotOf.emplace(
            serializeScenario(key), plan.uniqueCells.size());
        if (inserted) {
            plan.uniqueCells.push_back(i);
            plan.slotKeys.push_back(it->first);
            plan.slotNames.push_back(plan.expanded[i].spec.name);
        }
        plan.cellSlot[i] = it->second;
    }

    if (spec.leaseTtlSec > 0.0)
        plan.leaseTtlSec = spec.leaseTtlSec;

    // The campaign's identity for resume validation excludes every
    // harness key — resuming with different fault/retry/fleet flags
    // (or a different worker count) is the same campaign, just driven
    // differently.
    CampaignSpec identity = spec;
    identity.fault = FaultPlan{};
    identity.maxRetries = 0;
    identity.workers = 0;
    identity.leaseTtlSec = 0.0;
    identity.cellTimeoutSec = 0.0;
    plan.identityText = serializeCampaign(identity);
    return plan;
}

/** The optional cross-SoC transfer-training stage — one merged model
 *  per (merge, explore) strategy pair the expanded cells use, trained
 *  in first-encounter (expansion) order so the stage is deterministic
 *  for any runner width (and for every fleet worker recomputing it:
 *  the models are pure functions of the spec). */
TransferModels
trainTransferModels(const CampaignSpec &spec,
                    const std::vector<ExpandedCell> &expanded,
                    ParallelRunner &runner)
{
    TransferModels transferModels;
    std::vector<soc::SocConfig> cfgs;
    for (const std::string &socName : spec.transfer.socs) {
        ScenarioSpec probe = spec.base;
        probe.soc = socName;
        cfgs.push_back(resolveSoc(probe));
    }
    for (const ExpandedCell &c : expanded) {
        const std::string key = strategyKey(c.spec);
        if (transferModels.count(key))
            continue;
        TrainingOptions topts = trainingOptionsOf(spec.base);
        topts.iterations = spec.transfer.iterations;
        topts.shards = spec.transfer.shardsPerSoc;
        topts.merge = c.spec.merge;
        topts.explore = c.spec.explore;
        topts.model = effectiveModelSpec(c.spec);
        const TrainingResult tres =
            trainAcrossSocs(cfgs, topts, runner);
        // With a strategy sweep, save-model keeps the first
        // (base-strategy-ordered) pair's model.
        if (!spec.transfer.saveModel.empty() &&
            transferModels.empty())
            tres.checkpoint.saveFile(spec.transfer.saveModel);
        transferModels.emplace(key, tres.checkpoint.serialized());
    }
    return transferModels;
}

/**
 * One cell with failure containment: injected failures and thrown
 * exceptions retry (deterministic backoff) until the attempt budget
 * is spent, then the cell is recorded as a failure entry. Attempt
 * numbers continue across process kills via @p firstAttempt (=
 * killed attempts + 1), so the recorded count is identical whether
 * the retries happened in one process or across a worker fleet. A
 * hang plan sleeps until the --cell-timeout watchdog SIGKILLs the
 * process; a stop request turns the hang into an injected crash so
 * SIGTERM can unstick a watchdog-less fleet.
 */
CellResult
runCellAttempts(const ScenarioSpec &cellSpec, std::size_t slot,
                unsigned firstAttempt, unsigned maxRetries,
                FaultInjector &injector, const TransferModels *merged)
{
    CellResult result;
    for (unsigned attempt = firstAttempt;; ++attempt) {
        try {
            fatalIf(injector.shouldFail(slot, attempt),
                    "injected fault: cell slot ", slot, " attempt ",
                    attempt);
            while (injector.shouldHang(slot, attempt)) {
                if (campaignStopRequested())
                    std::_Exit(kFaultCrashExit);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(25));
            }
            result = runCell(cellSpec, merged);
            result.attempts = attempt;
            break;
        } catch (const std::exception &e) {
            if (attempt > maxRetries) {
                result = CellResult{};
                result.scenario = cellSpec;
                result.failed = true;
                result.error = e.what();
                result.attempts = attempt;
                break;
            }
            // Deterministic backoff: exponential base plus a seeded
            // jitter, a pure function of (slot, attempt).
            const unsigned baseMs = 1u << std::min(attempt, 10u);
            const unsigned jitterMs = static_cast<unsigned>(
                experimentSeed(slot, attempt) %
                (1u << std::min(attempt, 10u)));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(baseMs + jitterMs));
        }
    }
    return result;
}

// --------------------------------------------------------- normalizing

/** Per-group normalization (main thread, fixed order). Protocol
 *  groups replicate normalizeOutcomes() against the baseline-policy
 *  cell; concurrent groups replicate Figure 3's per-accelerator
 *  normalization against the auto-generated single-run cells. */
void
normalizeGroups(const CampaignSpec &spec,
                std::vector<CellResult> &cells, std::size_t groupCount,
                std::size_t explicitGroup)
{
    for (std::size_t g = 0; g < groupCount; ++g) {
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].group == g)
                idx.push_back(i);
        if (idx.empty())
            continue;

        // A contained failure has no measurements; a failed baseline
        // leaves its whole group unnormalized (reported raw) rather
        // than dividing by nothing.
        const bool concurrent = cells[idx.front()].scenario.workload ==
                                WorkloadKind::kConcurrent;
        if (concurrent) {
            bool baselineFailed = false;
            for (std::size_t i : idx)
                baselineFailed |=
                    cells[i].isBaseline && cells[i].failed;
            if (baselineFailed)
                continue;
            // acc id -> baseline means, from the single-run cells.
            std::vector<ConcurrentAccMean> base;
            for (std::size_t i : idx) {
                const CellResult &c = cells[i];
                if (!c.isBaseline)
                    continue;
                const std::size_t a =
                    static_cast<std::size_t>(c.scenario.accIndex);
                if (base.size() <= a)
                    base.resize(a + 1);
                base[a] = c.accMeans.front();
            }
            // Hand-picked concurrent cells have no auto-generated
            // baselines; report them raw instead of dying after the
            // whole group already ran.
            if (base.empty())
                continue;
            for (std::size_t i : idx) {
                CellResult &c = cells[i];
                if (c.isBaseline || c.failed)
                    continue;
                fatalIf(c.accMeans.size() > base.size(),
                        "concurrent cell '", c.scenario.name,
                        "' has no baseline for every accelerator");
                double execNorm = 0.0;
                double ddrNorm = 0.0;
                for (std::size_t a = 0; a < c.accMeans.size(); ++a) {
                    execNorm += c.accMeans[a].exec / base[a].exec;
                    ddrNorm += c.accMeans[a].ddr /
                               std::max(base[a].ddr, 1.0);
                }
                c.geoExec =
                    execNorm / static_cast<double>(c.accMeans.size());
                c.geoDdr =
                    ddrNorm / static_cast<double>(c.accMeans.size());
            }
            continue;
        }

        if (spec.baseline == "none")
            continue;
        std::size_t baseIdx = idx.front();
        if (!spec.baseline.empty()) {
            bool found = false;
            for (std::size_t i : idx) {
                if (cells[i].scenario.policy == spec.baseline) {
                    baseIdx = i;
                    found = true;
                    break;
                }
            }
            // Hand-picked cells may deliberately omit the baseline
            // (what-if cells reported raw); a cross-product group
            // without it is a spec error.
            if (!found && g == explicitGroup)
                continue;
            fatalIf(!found, "baseline policy '", spec.baseline,
                    "' has no cell in group ", g);
        }
        if (cells[baseIdx].failed)
            continue;
        const std::vector<PhaseResult> &base = cells[baseIdx].phases;
        for (std::size_t i : idx) {
            CellResult &c = cells[i];
            if (c.failed)
                continue;
            fatalIf(c.phases.size() != base.size(),
                    "cells in one normalization group ran different "
                    "apps ('", c.scenario.name, "' vs the baseline)");
            std::vector<double> execRatios;
            std::vector<double> ddrRatios;
            c.execNorm.clear();
            c.ddrNorm.clear();
            for (std::size_t p = 0; p < c.phases.size(); ++p) {
                const double e = safeRatio(
                    static_cast<double>(c.phases[p].execCycles),
                    static_cast<double>(base[p].execCycles));
                const double d = safeRatio(
                    static_cast<double>(c.phases[p].ddrAccesses),
                    static_cast<double>(base[p].ddrAccesses));
                c.execNorm.push_back(e);
                c.ddrNorm.push_back(d);
                execRatios.push_back(std::max(e, 1e-9));
                ddrRatios.push_back(std::max(d, 1e-9));
            }
            c.geoExec = geometricMean(execRatios);
            c.geoDdr = geometricMean(ddrRatios);
        }
    }
}

} // namespace

// --------------------------------------------------------- public API

std::vector<ScenarioSpec>
CampaignRunner::expand(const CampaignSpec &spec)
{
    std::vector<ScenarioSpec> out;
    for (ExpandedCell &c : expandCells(spec))
        out.push_back(std::move(c.spec));
    return out;
}

CampaignResult
CampaignRunner::run(const CampaignSpec &spec)
{
    return run(spec, CampaignRunOptions{});
}

CampaignResult
CampaignRunner::run(const CampaignSpec &spec,
                    const CampaignRunOptions &opts)
{
    const CampaignPlan plan = planCampaign(spec);
    const std::vector<ExpandedCell> &expanded = plan.expanded;
    const std::vector<std::size_t> &uniqueCells = plan.uniqueCells;
    FaultInjector injector(spec.fault);

    fatalIf(opts.resume && opts.stateDir.empty(),
            "--resume needs a state directory");
    std::unique_ptr<CampaignStateDir> state;
    std::map<std::size_t, CellResult> restored;
    if (!opts.stateDir.empty()) {
        state = std::make_unique<CampaignStateDir>(opts.stateDir);
        if (opts.resume)
            restored = state->restore(plan.identityText,
                                      plan.slotKeys, plan.slotNames);
        else
            state->initialize(plan.identityText, uniqueCells.size());
    }

    // Stage 1 (optional): cross-SoC transfer training. The models
    // are serialized once and restored per cell, keeping cells free
    // of shared mutable state. A fully restored resume skips the
    // stage outright — no cell will run.
    TransferModels transferModels;
    if (spec.transfer.active() &&
        restored.size() < uniqueCells.size())
        transferModels =
            trainTransferModels(spec, expanded, runner_);

    // Stage 2: the cells, one slot each, any thread order. Cells are
    // pure functions of their spec, and sweeps repeat some specs
    // verbatim under different names — e.g. a fixed-policy baseline
    // recurs once per swept (merge, explore) pair it cannot depend
    // on — so each unique spec runs once and duplicates share its
    // result (byte-identical output, strictly less simulation).
    //
    // Failure containment: a throwing cell is retried (deterministic
    // backoff, then recorded as a failure entry) instead of tearing
    // the sweep down. A stop request (SIGINT/SIGTERM) lets in-flight
    // cells finish and persist, skips the rest, and surfaces as
    // CampaignInterrupted once the pool drains.
    const TransferModels *merged =
        transferModels.empty() ? nullptr : &transferModels;
    std::vector<CellResult> unique(uniqueCells.size());
    std::vector<char> skipped(uniqueCells.size(), 0);
    runner_.forEach(uniqueCells.size(), [&](std::size_t slot) {
        if (const auto hit = restored.find(slot);
            hit != restored.end()) {
            unique[slot] = hit->second;
            return;
        }
        if (campaignStopRequested()) {
            skipped[slot] = 1;
            return;
        }
        const ScenarioSpec &cellSpec =
            expanded[uniqueCells[slot]].spec;
        const CellResult result = runCellAttempts(
            cellSpec, slot, 1, spec.maxRetries, injector, merged);
        unique[slot] = result;
        if (state)
            state->record(slot, cellSpec.name, result, &injector);
    });

    std::size_t skippedCount = 0;
    for (const char s : skipped)
        skippedCount += static_cast<std::size_t>(s);
    if (skippedCount > 0)
        throw CampaignInterrupted(
            "campaign '" + spec.name + "' interrupted: " +
            std::to_string(skippedCount) + " of " +
            std::to_string(uniqueCells.size()) +
            " cells not yet run" +
            (state ? "; resume with --resume" : ""));

    CampaignResult result;
    result.name = spec.name;
    result.cells.resize(expanded.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        result.cells[i] = unique[plan.cellSlot[i]];
        result.cells[i].scenario = expanded[i].spec; // own name back
        result.cells[i].group = expanded[i].group;
        result.cells[i].isBaseline = expanded[i].isBaseline;
    }
    for (const ExpandedCell &c : expanded)
        result.groupCount = std::max(result.groupCount, c.group + 1);

    // Stage 3: normalization, fixed order, calling thread.
    const std::size_t explicitGroup =
        spec.cells.empty() ? result.groupCount : result.groupCount - 1;
    normalizeGroups(spec, result.cells, result.groupCount,
                    explicitGroup);
    return result;
}

CellResult
runScenario(const ScenarioSpec &spec)
{
    return runCell(spec, nullptr);
}

TrainingOptions
trainingOptionsOf(const ScenarioSpec &s)
{
    TrainingOptions t;
    t.iterations = std::max(1u, s.trainIterations);
    t.shards = s.trainShards;
    t.trainSeed = s.trainSeed;
    t.agentSeed = s.agentSeed;
    t.merge = s.merge;
    t.explore = s.explore;
    t.model = effectiveModelSpec(s);
    if (s.trainApp == TrainAppShape::kSameAsEval)
        t.appParams = s.appParams;
    t.knobs = knobsOf(s);
    return t;
}

// ------------------------------------------------ the worker fleet

int
runCampaignWorker(const CampaignSpec &spec,
                  const CampaignRunOptions &opts)
{
    fatalIf(opts.stateDir.empty(),
            "a campaign worker needs a state directory");
    installCampaignSignalHandlers();
    const CampaignPlan plan = planCampaign(spec);
    FaultInjector injector(spec.fault);

    CampaignStateDir state(opts.stateDir);
    const std::size_t alreadyDone =
        state.attach(plan.identityText, plan.uniqueCells.size());

    // Transfer models are pure functions of the spec, so every
    // worker recomputing them is wasteful but exact.
    TransferModels transferModels;
    if (spec.transfer.active() &&
        alreadyDone < plan.uniqueCells.size()) {
        ParallelRunner serial(1);
        transferModels =
            trainTransferModels(spec, plan.expanded, serial);
    }
    const TransferModels *merged =
        transferModels.empty() ? nullptr : &transferModels;

    // Heartbeat thread: touches the held lease's mtime so TTL-based
    // reclaim only fires on real process death — it keeps beating
    // under a hung cell, which is exactly why the watchdog keys on
    // claim age instead (see app/heartbeat.hh for the full
    // synchronization contract).
    LeaseHeartbeat hb(state,
                      LeaseHeartbeat::intervalFor(plan.leaseTtlSec));

    while (!campaignStopRequested()) {
        const std::optional<CampaignStateDir::CellClaim> claim =
            state.claimNext(plan.leaseTtlSec);
        if (!claim)
            break; // every remaining slot is done or live-leased
        hb.arm(claim->slot);
        const ScenarioSpec &cellSpec =
            plan.expanded[plan.uniqueCells[claim->slot]].spec;
        const CellResult result = runCellAttempts(
            cellSpec, claim->slot, claim->priorKills + 1,
            spec.maxRetries, injector, merged);
        state.record(claim->slot, cellSpec.name, result, &injector);
        hb.disarm();
        state.release(claim->slot);
    }
    return 0;
}

void
superviseCampaignFleet(const CampaignSpec &spec,
                       const CampaignRunOptions &opts)
{
    fatalIf(opts.stateDir.empty(),
            "a campaign worker fleet needs a state directory");
    fatalIf(spec.workers == 0,
            "superviseCampaignFleet() needs workers > 0");
    installCampaignSignalHandlers();
    const CampaignPlan plan = planCampaign(spec);
    const std::size_t nSlots = plan.uniqueCells.size();

    CampaignStateDir state(opts.stateDir);
    if (opts.resume)
        state.restore(plan.identityText, plan.slotKeys,
                      plan.slotNames);
    else
        state.initialize(plan.identityText, nSlots);
    state.openShared();

    if (const std::optional<CampaignStateDir::LeaseInfo> foreign =
            state.sweepOrphanLeases(plan.leaseTtlSec))
        fatal("state directory '", opts.stateDir, "' is busy: slot ",
              foreign->slot, " is leased by live pid ", foreign->pid,
              " (another fleet is running this campaign?)");

    std::size_t done = state.doneCount();
    if (done == nSlots)
        return; // fully restored; nothing to fork

    // Workers call runCampaignWorker() directly after fork — no
    // exec, no hidden CLI re-entry — and leave via _Exit so a worker
    // never runs the parent's atexit/stream teardown. The caller
    // must still be single-threaded here (the CLI supervises before
    // constructing its thread pool).
    const auto spawn = [&]() -> pid_t {
        std::fflush(nullptr);
        const pid_t pid = ::fork();
        fatalIf(pid < 0, "fork failed: ", std::strerror(errno));
        if (pid != 0)
            return pid;
        int rc = 1;
        try {
            rc = runCampaignWorker(spec, opts);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaign worker %d: %s\n",
                         static_cast<int>(::getpid()), e.what());
        }
        std::fflush(nullptr);
        std::_Exit(rc);
    };

    std::vector<pid_t> children;
    const std::size_t fleet =
        std::min<std::size_t>(spec.workers, nSlots - done);
    for (std::size_t i = 0; i < fleet; ++i)
        children.push_back(spawn());

    unsigned respawnsLeft = opts.respawnBudget;
    bool stopForwarded = false;
    std::map<pid_t, std::size_t> watchdogShots; // pid -> hung slot

    while (!children.empty()) {
        if (campaignStopRequested() && !stopForwarded) {
            for (const pid_t pid : children)
                ::kill(pid, SIGTERM);
            stopForwarded = true;
        }

        // The --cell-timeout watchdog: claim age, not heartbeat age
        // (a wedged worker keeps heartbeating). Kill once; the reap
        // path below does the accounting.
        if (spec.cellTimeoutSec > 0.0) {
            for (const CampaignStateDir::LeaseInfo &lease :
                 state.overdueClaims(spec.cellTimeoutSec)) {
                const bool ours =
                    std::find(children.begin(), children.end(),
                              static_cast<pid_t>(lease.pid)) !=
                    children.end();
                if (!ours || watchdogShots.contains(lease.pid))
                    continue;
                watchdogShots.emplace(lease.pid, lease.slot);
                ::kill(lease.pid, SIGKILL);
            }
        }

        // Reap: per-pid WNOHANG so children the caller owns (a test
        // harness's, say) are never stolen.
        for (std::size_t i = 0; i < children.size();) {
            const pid_t pid = children[i];
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) != pid) {
                ++i;
                continue;
            }
            children.erase(children.begin() +
                           static_cast<std::ptrdiff_t>(i));
            const bool clean =
                WIFEXITED(status) && WEXITSTATUS(status) == 0;
            if (clean)
                continue; // out of claimable cells; no respawn

            // Abnormal death: drop the lease, charge the lost
            // attempt, contain the cell when its budget is gone —
            // the same containment shape as an in-process fail@
            // retry running dry.
            const auto shot = watchdogShots.find(pid);
            const bool byWatchdog = shot != watchdogShots.end();
            const std::optional<CampaignStateDir::CellClaim> lost =
                state.reclaimWorkerLease(pid);
            if (byWatchdog)
                watchdogShots.erase(shot);
            if (lost && lost->priorKills > spec.maxRetries) {
                const ScenarioSpec &cellSpec =
                    plan.expanded[plan.uniqueCells[lost->slot]].spec;
                CellResult failed;
                failed.scenario = cellSpec;
                failed.failed = true;
                failed.attempts = lost->priorKills;
                failed.error =
                    "cell slot " + std::to_string(lost->slot) +
                    " attempt " + std::to_string(lost->priorKills) +
                    (byWatchdog
                         ? ": killed by the --cell-timeout watchdog"
                         : ": worker exited abnormally while "
                           "running this cell");
                state.record(lost->slot, cellSpec.name, failed,
                             nullptr);
            }
            if (!campaignStopRequested() && respawnsLeft > 0) {
                --respawnsLeft;
                children.push_back(spawn());
            }
        }

        if (!children.empty())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
    }

    done = state.doneCount();
    if (done == nSlots)
        return;
    const std::string tail = std::to_string(nSlots - done) + " of " +
                             std::to_string(nSlots) +
                             " cells not yet run; resume with "
                             "--resume";
    if (campaignStopRequested())
        throw CampaignInterrupted("campaign '" + spec.name +
                                  "' interrupted: " + tail);
    throw CampaignIncomplete("campaign '" + spec.name +
                             "' incomplete (worker respawn budget "
                             "exhausted): " +
                             tail);
}

// ------------------------------------------------------------- results

std::vector<std::size_t>
CampaignResult::groupCells(std::size_t group) const
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].group == group)
            idx.push_back(i);
    return idx;
}

std::vector<PolicyOutcome>
CampaignResult::groupOutcomes(std::size_t group) const
{
    std::vector<PolicyOutcome> outcomes;
    for (std::size_t i : groupCells(group)) {
        const CellResult &c = cells[i];
        PolicyOutcome o;
        o.policy = c.scenario.policy;
        o.phases = c.phases;
        o.execNorm = c.execNorm;
        o.ddrNorm = c.ddrNorm;
        o.geoExec = c.geoExec;
        o.geoDdr = c.geoDdr;
        outcomes.push_back(std::move(o));
    }
    return outcomes;
}

const CellResult *
CampaignResult::find(const std::string &cellName) const
{
    for (const CellResult &c : cells)
        if (c.scenario.name == cellName)
            return &c;
    return nullptr;
}

std::size_t
CampaignResult::failureCount() const
{
    std::size_t n = 0;
    for (const CellResult &c : cells)
        n += c.failed ? 1 : 0;
    return n;
}

void
CampaignResult::report(JsonReporter &rep) const
{
    rep.addString("campaign", name);
    rep.add("cells", static_cast<double>(cells.size()));
    rep.add("groups", static_cast<double>(groupCount));
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        const std::string p = "cell" + std::to_string(i);
        rep.addString(p + ".name", c.scenario.name);
        rep.addString(p + ".soc", c.scenario.soc);
        rep.addString(p + ".policy", c.scenario.policy);
        // Strategy axes only when swept off the defaults, so the
        // figure campaigns' JSON stays noise-free.
        if (!(c.scenario.merge == rl::MergeSpec{}))
            rep.addString(p + ".merge",
                          rl::toString(c.scenario.merge));
        if (!(c.scenario.explore == rl::ExploreSpec{}))
            rep.addString(p + ".explore",
                          rl::toString(c.scenario.explore));
        if (!(c.scenario.model == rl::ModelSpec{}))
            rep.addString(p + ".model",
                          rl::toString(c.scenario.model));
        rep.add(p + ".group", static_cast<double>(c.group));
        rep.addString(p + ".seed",
                      std::to_string(c.scenario.evalSeed));
        if (c.isBaseline)
            rep.add(p + ".baseline", 1.0);
        // Harness outcomes only when they happened, so a fault-free
        // campaign's JSON is byte-identical to the pre-harness bytes.
        if (c.attempts > 1)
            rep.add(p + ".attempts",
                    static_cast<double>(c.attempts));
        if (c.failed) {
            rep.add(p + ".failed", 1.0);
            rep.addString(p + ".error", c.error);
            continue;
        }
        if (c.scenario.workload == WorkloadKind::kConcurrent) {
            for (std::size_t a = 0; a < c.accMeans.size(); ++a) {
                rep.add(p + ".acc" + std::to_string(a) + ".exec",
                        c.accMeans[a].exec);
                rep.add(p + ".acc" + std::to_string(a) + ".ddr",
                        c.accMeans[a].ddr);
            }
            if (!c.isBaseline) {
                rep.add(p + ".norm_exec", c.geoExec);
                rep.add(p + ".norm_ddr", c.geoDdr);
            }
            continue;
        }
        Cycles exec = 0;
        std::uint64_t ddr = 0;
        for (const PhaseResult &ph : c.phases) {
            exec += ph.execCycles;
            ddr += ph.ddrAccesses;
        }
        rep.addString(p + ".exec_cycles", std::to_string(exec));
        rep.addString(p + ".ddr", std::to_string(ddr));
        rep.add(p + ".phases", static_cast<double>(c.phases.size()));
        rep.add(p + ".geo_exec", c.geoExec);
        rep.add(p + ".geo_ddr", c.geoDdr);
        if (c.training.source != TrainSummary::Source::kNone) {
            rep.addString(p + ".q_updates",
                          std::to_string(c.training.qUpdates));
            rep.addString(p + ".entries_covered",
                          std::to_string(c.training.entriesCovered));
        }
    }
}

std::string
CampaignResult::json() const
{
    JsonReporter rep(name);
    report(rep);
    return rep.str();
}

} // namespace cohmeleon::app
