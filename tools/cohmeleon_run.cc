/**
 * @file
 * Command-line driver over the declarative scenario/campaign layer.
 *
 *   cohmeleon_run run --soc soc1 --policy cohmeleon --train 10
 *   cohmeleon_run run --scenario cell.scenario --stats
 *   cohmeleon_run run --soc soc1 --load-model m.ckpt --eval
 *   cohmeleon_run train --soc soc1 --shards 8 --jobs 4 -o m.ckpt
 *   cohmeleon_run train --soc soc0,soc1 --shards 2 -o merged.ckpt
 *   cohmeleon_run compare --soc soc5 --jobs 4
 *   cohmeleon_run campaign fig9 --jobs 8
 *   cohmeleon_run campaign examples/transfer.campaign -o out.json
 *   cohmeleon_run serve --requests 256 --threads 4 --tenants random,fig5
 *   cohmeleon_run list
 *
 * `run` executes one scenario cell (per-phase table, decision
 * breakdown, optional --stats block). `train` is the deterministic
 * sharded trainer — a comma list of SoCs selects cross-SoC transfer
 * training with a visit-weighted merge. `compare` runs the paper's
 * eight-policy protocol. `campaign` expands a registered name or a
 * .campaign file over the parallel driver and writes the structured
 * CAMPAIGN_<name>.json. All results are independent of --jobs.
 * `serve` runs the long-lived policy service: a seeded open-loop
 * request stream served by concurrent decision workers while
 * background training hot-swaps fresh model generations in; its
 * decision log is byte-identical at any --threads.
 *
 * The pre-subcommand flat flags (--soc/--policy/--compare/...) keep
 * working as deprecated aliases.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "app/campaign_runner.hh"
#include "app/config_parser.hh"
#include "app/experiment.hh"
#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "serve/serve_loop.hh"
#include "sim/logging.hh"
#include "sim/wall_timer.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;

namespace
{

[[noreturn]] void
usage()
{
    std::printf(
        "usage: cohmeleon_run <subcommand> [options]\n"
        "\n"
        "  run       run one scenario cell\n"
        "    --scenario FILE    load a .scenario file (flags "
        "override)\n"
        "    --soc NAME         SoC preset (default soc1)\n"
        "    --policy NAME      policy, e.g. cohmeleon, manual@16K,\n"
        "                       cohmeleon@perceptron:tables=16,bits=12\n"
        "    --app FILE         application config file\n"
        "    --figure-app NAME  registered figure app (fig5)\n"
        "    --train N          training iterations (default 10)\n"
        "    --shards N         sharded deterministic training\n"
        "    --merge S          shard fold strategy (visit-weighted,\n"
        "                       recency@D, reward-norm)\n"
        "    --explore S        exploration schedule (linear,\n"
        "                       floor@F, visit@S)\n"
        "    --model M          learned-model backend (tabular,\n"
        "                       perceptron:tables=T,bits=B)\n"
        "    --seed N           evaluation-app seed (default 2022)\n"
        "    --train-seed N     training-app seed (default 2021)\n"
        "    --agent-seed N     exploration seed (default 7)\n"
        "    --save-model F / --load-model F   full checkpoints\n"
        "    --save-qtable F / --load-qtable F legacy Q-values only\n"
        "    --eval             frozen evaluation of --load-model\n"
        "    --disable-modes L  mask modes out (comma list)\n"
        "    --exact-attribution  exact DDR attribution (ablation)\n"
        "    --stats            dump the SoC statistics block\n"
        "  train     deterministic sharded training -> checkpoint\n"
        "    --soc NAME[,NAME...]  one SoC, or several for cross-SoC\n"
        "                          transfer training (merged model)\n"
        "    --train N --shards N --jobs N\n"
        "    --merge S --explore S --model M   strategy axes (see "
        "run)\n"
        "    --train-seed N --agent-seed N\n"
        "    -o F / --save-model F   output checkpoint (required)\n"
        "  compare   the eight-policy protocol on one SoC\n"
        "    --soc NAME --train N --seed N --jobs N\n"
        "  campaign  run a campaign\n"
        "    campaign NAME|FILE [--jobs N] [-o F] [--full] [--print]\n"
        "    --state-dir DIR    stream per-cell results + a manifest\n"
        "                       into DIR as cells complete\n"
        "    --resume           validate DIR against the campaign and\n"
        "                       re-run only the missing cells\n"
        "    --max-retries N    per-cell retry budget for throwing\n"
        "                       cells (default: the spec's)\n"
        "    --fault PLAN       inject a scripted fault, e.g.\n"
        "                       crash-after-write@0, fail@1:2,\n"
        "                       kill-worker@0, hang@1\n"
        "    --workers N        supervised worker-process fleet\n"
        "                       claiming cells from DIR (needs\n"
        "                       --state-dir)\n"
        "    --lease-ttl S      seconds before a heartbeat-less\n"
        "                       worker lease is reclaimed (default 30)\n"
        "    --cell-timeout S   wall-clock watchdog: kill + contain a\n"
        "                       cell running longer than S seconds\n"
        "    --respawn-budget N worker deaths replaced before the\n"
        "                       fleet gives up (default 8)\n"
        "  serve     long-lived policy service over an open-loop\n"
        "            request stream (SIGINT/SIGTERM drains cleanly)\n"
        "    --spec FILE        load a .serve spec file (flags "
        "override)\n"
        "    --soc NAME         serving SoC preset (default soc1)\n"
        "    --requests N       request budget (default 192)\n"
        "    --threads N        decision worker threads (default 1)\n"
        "    --swap-interval N  requests per hot-swapped model\n"
        "                       generation (default 64)\n"
        "    --train N          training iterations per generation\n"
        "                       (default 3)\n"
        "    --shards N         training shards per generation\n"
        "                       (default 2)\n"
        "    --merge S --explore S --model M   strategy axes (see "
        "run)\n"
        "    --tenants LIST     request mix: comma list of tenant\n"
        "                       sources (random or a figure app)\n"
        "    --tenant-weights L relative arrival shares (one per\n"
        "                       tenant)\n"
        "    --arrival-rate R   open-loop pacing in requests/sec\n"
        "                       (0 = unpaced, the default)\n"
        "    --seed N           request-stream seed (default 2024)\n"
        "    --train-seed N --agent-seed N\n"
        "    --decision-log F   write the canonical decision log\n"
        "    --save-state F / --load-state F   serving+staging\n"
        "                       snapshot (resume without retraining)\n"
        "  list      known SoCs, policies, campaigns, figure apps\n");
    std::exit(2);
}

/** Flag cursor with validated value/number accessors. */
struct Args
{
    int argc;
    char **argv;
    int i;

    bool
    next(const char *flag, const char *alias = nullptr)
    {
        return std::strcmp(argv[i], flag) == 0 ||
               (alias != nullptr && std::strcmp(argv[i], alias) == 0);
    }

    std::string
    value()
    {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "fatal: %s needs a value\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    }

    std::uint64_t
    number(std::uint64_t max)
    {
        // Digits only: stoull would accept "-1" (wrapping mod 2^64)
        // and trailing garbage ("4x"). The cap keeps the later
        // narrowing casts from truncating.
        const std::string flag = argv[i];
        const std::string text = value();
        try {
            std::size_t used = 0;
            if (text.empty() ||
                !std::isdigit(static_cast<unsigned char>(text[0])))
                throw std::invalid_argument(text);
            const std::uint64_t n = std::stoull(text, &used);
            if (used != text.size() || n > max)
                throw std::invalid_argument(text);
            return n;
        } catch (const std::exception &) {
            std::fprintf(stderr,
                         "fatal: bad value '%s' for %s (max %llu)\n",
                         text.c_str(), flag.c_str(),
                         static_cast<unsigned long long>(max));
            std::exit(2);
        }
    }

    double
    seconds(double max)
    {
        // Strict, like number(): no trailing garbage, and the value
        // must be a positive duration within the campaign-spec cap.
        const std::string flag = argv[i];
        const std::string text = value();
        try {
            std::size_t used = 0;
            const double v = std::stod(text, &used);
            if (used != text.size() || !(v > 0.0) || v > max)
                throw std::invalid_argument(text);
            return v;
        } catch (const std::exception &) {
            std::fprintf(stderr,
                         "fatal: bad value '%s' for %s (seconds in "
                         "(0, %g])\n",
                         text.c_str(), flag.c_str(), max);
            std::exit(2);
        }
    }
};

/** Parse-time SoC-name validation: fail before any setup, listing
 *  the known names. */
std::string
validatedSoc(const std::string &name)
{
    if (!soc::isKnownSocName(name)) {
        std::fprintf(stderr,
                     "fatal: unknown SoC preset '%s'\n  known: %s\n",
                     name.c_str(),
                     soc::knownSocNamesText().c_str());
        std::exit(2);
    }
    return name;
}

/** Parse-time policy-name validation via the shared validator. */
std::string
validatedPolicy(const std::string &name)
{
    const std::string err = app::checkPolicyName(name);
    if (!err.empty()) {
        std::fprintf(stderr, "fatal: %s\n", err.c_str());
        std::exit(2);
    }
    return name;
}

/** Parse-time strategy validation via the shared rl validators. */
rl::MergeSpec
validatedMerge(const std::string &text)
{
    const std::string err = rl::checkMergeSpecText(text);
    if (!err.empty()) {
        std::fprintf(stderr, "fatal: %s\n", err.c_str());
        std::exit(2);
    }
    return rl::mergeSpecFromString(text);
}

rl::ExploreSpec
validatedExplore(const std::string &text)
{
    const std::string err = rl::checkExploreSpecText(text);
    if (!err.empty()) {
        std::fprintf(stderr, "fatal: %s\n", err.c_str());
        std::exit(2);
    }
    return rl::exploreSpecFromString(text);
}

rl::ModelSpec
validatedModel(const std::string &text)
{
    const std::string err = rl::checkModelSpecText(text);
    if (!err.empty()) {
        std::fprintf(stderr, "fatal: %s\n", err.c_str());
        std::exit(2);
    }
    return rl::modelSpecFromString(text);
}

/** Parse-time fault-plan validation via the shared validator. */
app::FaultPlan
validatedFault(const std::string &text)
{
    const std::string err = app::checkFaultPlanText(text);
    if (!err.empty()) {
        std::fprintf(stderr, "fatal: %s\n", err.c_str());
        std::exit(2);
    }
    return app::faultPlanFromString(text);
}

coh::ModeMask
parseDisableModes(const std::string &list)
{
    coh::ModeMask mask = 0;
    for (const std::string &part : app::splitList(list, ',')) {
        const coh::CoherenceMode m = coh::modeFromString(part);
        fatalIf(m == coh::CoherenceMode::kNonCohDma,
                "non-coh-dma cannot be disabled");
        mask |= coh::maskOf(m);
    }
    return mask;
}

// --------------------------------------------------------------- run

void
printCellResult(const app::CellResult &result,
                const soc::SocConfig &cfg)
{
    const app::ScenarioSpec &s = result.scenario;
    const app::TrainSummary &t = result.training;
    switch (t.source) {
      case app::TrainSummary::Source::kNone:
        break;
      case app::TrainSummary::Source::kOnline:
        std::printf("trained cohmeleon online: %u iterations, %llu "
                    "invocations, %llu q-updates over %llu entries\n",
                    t.iteration,
                    static_cast<unsigned long long>(t.invocations),
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
      case app::TrainSummary::Source::kSharded:
        std::printf("trained cohmeleon: %u shards x %u iterations, "
                    "%llu invocations, %llu q-updates over %llu "
                    "entries\n",
                    s.trainShards, s.trainIterations,
                    static_cast<unsigned long long>(t.invocations),
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
      case app::TrainSummary::Source::kLoaded:
        std::printf("restored model (iteration %u, %llu q-updates "
                    "over %llu entries)\n",
                    t.iteration,
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
      case app::TrainSummary::Source::kTransfer:
        std::printf("restored the campaign's merged cross-SoC model "
                    "(%llu q-updates over %llu entries)\n",
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
    }

    if (s.workload == app::WorkloadKind::kConcurrent) {
        // Concurrent cells measure per-accelerator loop averages,
        // not phases.
        std::printf("\n%u concurrent accelerator(s) on %s, %s mode, "
                    "%u loop(s):\n",
                    static_cast<unsigned>(result.accMeans.size()),
                    cfg.name.c_str(), s.policy.c_str(), s.loops);
        std::printf("%-16s %16s %14s\n", "accelerator",
                    "cycles/invoc", "ddr/invoc");
        for (std::size_t a = 0; a < result.accMeans.size(); ++a) {
            const AccId id = s.accIndex >= 0
                                 ? static_cast<AccId>(s.accIndex)
                                 : static_cast<AccId>(a);
            std::printf("%-16s %16.1f %14.1f\n",
                        cfg.accs[id].name.c_str(),
                        result.accMeans[a].exec,
                        result.accMeans[a].ddr);
        }
        return;
    }

    std::printf("\n%s on %s under %s:\n", result.appName.c_str(),
                cfg.name.c_str(), s.policy.c_str());
    std::printf("%-16s %14s %12s %8s\n", "phase", "cycles",
                "off-chip", "invocs");
    for (const app::PhaseResult &p : result.phases) {
        std::printf("%-16s %14llu %12llu %8zu\n", p.name.c_str(),
                    static_cast<unsigned long long>(p.execCycles),
                    static_cast<unsigned long long>(p.ddrAccesses),
                    p.invocations.size());
    }
    Cycles totalExec = 0;
    std::uint64_t totalDdr = 0;
    for (const app::PhaseResult &p : result.phases) {
        totalExec += p.execCycles;
        totalDdr += p.ddrAccesses;
    }
    std::printf("%-16s %14llu %12llu\n", "total",
                static_cast<unsigned long long>(totalExec),
                static_cast<unsigned long long>(totalDdr));

    // Decision breakdown.
    std::map<coh::CoherenceMode, unsigned> modes;
    for (const auto &p : result.phases)
        for (const auto &r : p.invocations)
            ++modes[r.mode];
    std::printf("\ndecisions:");
    for (const auto &[mode, count] : modes)
        std::printf(" %s=%u", std::string(toString(mode)).c_str(),
                    count);
    std::printf("\n");

    if (!result.statsDump.empty()) {
        std::printf("\n");
        std::fputs(result.statsDump.c_str(), stdout);
    }
}

int
cmdRun(Args &args)
{
    app::ScenarioSpec s;
    s.trainApp = app::TrainAppShape::kDense;
    bool evalOnly = false;
    // The scenario file is the base regardless of where --scenario
    // sits in the argument list; the other flags then override it.
    for (int i = args.i; i + 1 < args.argc; ++i) {
        if (std::strcmp(args.argv[i], "--scenario") == 0) {
            std::ifstream in(args.argv[i + 1]);
            fatalIf(!in, "cannot open scenario file '",
                    args.argv[i + 1], "'");
            s = app::parseScenario(in);
        }
    }
    s.collectRecords = true;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--scenario")) {
            args.value(); // consumed in the pre-scan above
        } else if (args.next("--soc"))
            s.soc = validatedSoc(args.value());
        else if (args.next("--policy"))
            s.policy = validatedPolicy(args.value());
        else if (args.next("--app")) {
            s.appSource = app::AppSource::kFile;
            s.appFile = args.value();
        } else if (args.next("--figure-app")) {
            s.appSource = app::AppSource::kFigure;
            s.figureName = args.value();
        } else if (args.next("--train"))
            s.trainIterations =
                static_cast<unsigned>(args.number(1'000'000));
        else if (args.next("--shards"))
            s.trainShards = static_cast<unsigned>(args.number(4096));
        else if (args.next("--merge"))
            s.merge = validatedMerge(args.value());
        else if (args.next("--explore"))
            s.explore = validatedExplore(args.value());
        else if (args.next("--model"))
            s.model = validatedModel(args.value());
        else if (args.next("--seed"))
            s.evalSeed = args.number(UINT64_MAX);
        else if (args.next("--train-seed"))
            s.trainSeed = args.number(UINT64_MAX);
        else if (args.next("--agent-seed"))
            s.agentSeed = args.number(UINT64_MAX);
        else if (args.next("--save-model"))
            s.saveModel = args.value();
        else if (args.next("--load-model"))
            s.loadModel = args.value();
        else if (args.next("--save-qtable"))
            s.saveQtable = args.value();
        else if (args.next("--load-qtable"))
            s.loadQtable = args.value();
        else if (args.next("--eval"))
            evalOnly = true;
        else if (args.next("--disable-modes"))
            s.disabledModes = parseDisableModes(args.value());
        else if (args.next("--exact-attribution"))
            s.exactAttribution = true;
        else if (args.next("--stats"))
            s.captureStats = true;
        else
            usage();
    }
    fatalIf(evalOnly && s.loadModel.empty(),
            "--eval needs a model to evaluate (--load-model)");
    fatalIf(evalOnly && (s.trainShards != 0 || !s.saveModel.empty()),
            "--eval is the training-free split; it cannot be "
            "combined with --shards or --save-model");
    fatalIf(!s.loadModel.empty() && !s.loadQtable.empty(),
            "--load-model and --load-qtable are exclusive");
    fatalIf(!s.loadModel.empty() && s.trainShards != 0,
            "--load-model replaces training; drop --shards");
    if (evalOnly)
        s.freezeLoaded = true;

    const soc::SocConfig cfg = app::resolveSoc(s);
    const app::CellResult result = app::runScenario(s);
    printCellResult(result, cfg);
    if (!s.saveQtable.empty())
        std::printf("saved Q-table to %s\n", s.saveQtable.c_str());
    if (!s.saveModel.empty())
        std::printf("saved model to %s\n", s.saveModel.c_str());
    return 0;
}

// ------------------------------------------------------------- train

int
cmdTrain(Args &args)
{
    std::vector<std::string> socNames = {"soc1"};
    app::TrainingOptions topts;
    unsigned jobs = 0;
    std::string saveModel;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--soc")) {
            socNames.clear();
            for (const std::string &n :
                 app::splitList(args.value(), ','))
                socNames.push_back(validatedSoc(n));
        } else if (args.next("--train"))
            topts.iterations =
                static_cast<unsigned>(args.number(1'000'000));
        else if (args.next("--shards"))
            topts.shards = static_cast<unsigned>(args.number(4096));
        else if (args.next("--merge"))
            topts.merge = validatedMerge(args.value());
        else if (args.next("--explore"))
            topts.explore = validatedExplore(args.value());
        else if (args.next("--model"))
            topts.model = validatedModel(args.value());
        else if (args.next("--jobs"))
            jobs = static_cast<unsigned>(args.number(1024));
        else if (args.next("--train-seed"))
            topts.trainSeed = args.number(UINT64_MAX);
        else if (args.next("--agent-seed"))
            topts.agentSeed = args.number(UINT64_MAX);
        else if (args.next("--save-model", "-o"))
            saveModel = args.value();
        else
            usage();
    }
    fatalIf(saveModel.empty(),
            "train produces a checkpoint; name it with -o FILE");
    fatalIf(topts.shards == 0, "--shards must be positive");

    std::vector<soc::SocConfig> cfgs;
    for (const std::string &n : socNames)
        cfgs.push_back(soc::makeSocByName(n));

    app::ParallelRunner runner(jobs);
    std::printf("training cohmeleon: %zu SoC(s) x %u shards x %u "
                "iterations over %u thread(s)...\n",
                cfgs.size(), topts.shards, topts.iterations,
                runner.threads());
    const WallTimer timer;
    app::TrainingResult tres;
    if (cfgs.size() == 1) {
        app::TrainingDriver driver(runner);
        tres = driver.train(cfgs.front(), topts);
    } else {
        // Cross-SoC transfer: shards per SoC, one visit-weighted
        // merge in global shard order.
        tres = app::trainAcrossSocs(cfgs, topts, runner);
    }
    tres.checkpoint.saveFile(saveModel);
    std::printf("trained on %llu invocations in %.2fs (%llu "
                "q-updates, %llu/%llu entries covered, %s model)\n",
                static_cast<unsigned long long>(tres.totalInvocations),
                timer.seconds(),
                static_cast<unsigned long long>(
                    tres.checkpoint.model.totalVisits()),
                static_cast<unsigned long long>(
                    tres.checkpoint.model.updatedEntries()),
                static_cast<unsigned long long>(rl::entryCapacity(
                    tres.checkpoint.model.spec())),
                rl::toString(tres.checkpoint.model.spec()).c_str());
    std::printf("saved model to %s\n", saveModel.c_str());
    return 0;
}

// ----------------------------------------------------------- compare

int
cmdCompare(Args &args)
{
    std::string socName = "soc1";
    unsigned trainIterations = 10;
    std::uint64_t seed = 2022;
    unsigned jobs = 0;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--soc"))
            socName = validatedSoc(args.value());
        else if (args.next("--train"))
            trainIterations =
                static_cast<unsigned>(args.number(1'000'000));
        else if (args.next("--seed"))
            seed = args.number(UINT64_MAX);
        else if (args.next("--jobs"))
            jobs = static_cast<unsigned>(args.number(1024));
        else
            usage();
    }

    // The paper's protocol as a one-group campaign: dense training
    // apps so a policy's row can be cross-checked against its
    // standalone run at the same --seed.
    app::CampaignSpec spec;
    spec.name = "compare";
    spec.base.soc = socName;
    spec.base.trainIterations = std::max(1u, trainIterations);
    spec.base.evalSeed = seed;
    spec.base.trainApp = app::TrainAppShape::kDense;
    spec.policies = app::standardPolicyNames();
    spec.baseline = "fixed-non-coh-dma";

    app::ParallelRunner runner(jobs);
    std::printf("comparing the eight policies on %s "
                "(%u thread(s))...\n",
                socName.c_str(), runner.threads());
    const WallTimer timer;
    app::CampaignRunner driver(runner);
    const app::CampaignResult result = driver.run(spec);
    const double elapsed = timer.seconds();
    std::ostringstream os;
    app::printOutcomeTable(os, result.groupOutcomes(0));
    std::fputs(os.str().c_str(), stdout);
    std::printf("\nsweep wall time: %.2fs\n", elapsed);
    return 0;
}

// ---------------------------------------------------------- campaign

int
cmdCampaign(Args &args)
{
    std::string source;
    std::string outFile;
    unsigned jobs = 0;
    bool full = false;
    bool printOnly = false;
    app::CampaignRunOptions ropts;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--jobs"))
            jobs = static_cast<unsigned>(args.number(1024));
        else if (args.next("--out", "-o"))
            outFile = args.value();
        else if (args.next("--full"))
            full = true;
        else if (args.next("--print"))
            printOnly = true;
        else if (args.next("--state-dir"))
            ropts.stateDir = args.value();
        else if (args.next("--resume"))
            ropts.resume = true;
        else if (args.next("--max-retries"))
            ropts.maxRetries =
                static_cast<unsigned>(args.number(1000));
        else if (args.next("--fault"))
            ropts.fault = validatedFault(args.value());
        else if (args.next("--workers")) {
            ropts.workers = static_cast<unsigned>(args.number(1024));
            if (ropts.workers == 0) {
                std::fprintf(stderr,
                             "fatal: --workers must be at least 1 "
                             "(omit the flag for an in-process "
                             "run)\n");
                return 2;
            }
        } else if (args.next("--lease-ttl"))
            ropts.leaseTtlSec = args.seconds(86400.0);
        else if (args.next("--cell-timeout"))
            ropts.cellTimeoutSec = args.seconds(86400.0);
        else if (args.next("--respawn-budget"))
            ropts.respawnBudget =
                static_cast<unsigned>(args.number(1000));
        else if (args.argv[args.i][0] == '-')
            usage();
        else if (source.empty())
            source = args.argv[args.i];
        else
            usage();
    }
    if (ropts.resume && ropts.stateDir.empty()) {
        std::fprintf(stderr, "fatal: --resume needs --state-dir DIR\n");
        return 2;
    }
    if (ropts.workers > 0 && ropts.stateDir.empty()) {
        std::fprintf(stderr,
                     "fatal: --workers needs --state-dir DIR (the "
                     "fleet claims cells through it)\n");
        return 2;
    }
    if (ropts.cellTimeoutSec > 0.0 && ropts.stateDir.empty()) {
        std::fprintf(stderr,
                     "fatal: --cell-timeout needs --state-dir DIR "
                     "(the watchdog runs in the worker-fleet "
                     "supervisor)\n");
        return 2;
    }
    if (source.empty()) {
        std::fprintf(stderr,
                     "fatal: campaign needs a registered name or a "
                     "file\n  registered:");
        for (const std::string &n : app::namedCampaignNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    app::CampaignSpec spec;
    if (app::isNamedCampaign(source)) {
        spec = app::namedCampaign(source, full);
    } else {
        std::ifstream in(source);
        fatalIf(!in, "cannot open campaign '", source,
                "' (not a registered name either)");
        spec = app::parseCampaign(in);
    }

    if (printOnly) {
        std::fputs(app::serializeCampaign(spec).c_str(), stdout);
        return 0;
    }

    const unsigned workers =
        ropts.workers != 0 ? ropts.workers : spec.workers;
    if (workers > 0) {
        // Crash/sigint plans key on per-process write ordinals, which
        // are not deterministic across a fleet; the fleet-native
        // fault is kill-worker@N.
        const app::FaultPlan &fleetFault =
            ropts.fault.active() ? ropts.fault : spec.fault;
        if (fleetFault.kind == app::FaultPlan::Kind::kCrashBeforeWrite ||
            fleetFault.kind == app::FaultPlan::Kind::kCrashAfterWrite ||
            fleetFault.kind ==
                app::FaultPlan::Kind::kSigintAfterWrite) {
            std::fprintf(stderr,
                         "fatal: --workers cannot be combined with "
                         "fault '%s' (write ordinals are per-process; "
                         "use kill-worker@N to crash a fleet)\n",
                         app::toString(fleetFault).c_str());
            return 2;
        }
    }

    const WallTimer timer;
    if (workers > 0) {
        // Fork the fleet before any thread exists in this process.
        std::printf("campaign %s over %u worker process(es)%s...\n",
                    spec.name.c_str(), workers,
                    spec.transfer.active()
                        ? " (each recomputing the transfer model)"
                        : "");
        app::installCampaignSignalHandlers();
        app::clearCampaignStop();
        app::CampaignRunOptions fopts = ropts;
        fopts.workers = workers;
        try {
            app::superviseCampaignFleet(spec, fopts);
        } catch (const app::CampaignInterrupted &e) {
            std::fprintf(stderr, "interrupted: %s\n", e.what());
            return 130;
        } catch (const app::CampaignIncomplete &e) {
            std::fprintf(stderr, "incomplete: %s\n", e.what());
            return 3;
        }
        // Every slot is in the manifest now; assemble the result by
        // resuming in-process (runs zero cells, so the fault plan
        // must not re-arm).
        ropts.resume = true;
        ropts.workers = 0;
        ropts.fault = app::FaultPlan{};
        spec.fault = app::FaultPlan{};
        spec.workers = 0;
    }

    app::ParallelRunner runner(jobs);
    if (workers == 0)
        std::printf("campaign %s over %u thread(s)%s...\n",
                    spec.name.c_str(), runner.threads(),
                    spec.transfer.active()
                        ? " (after cross-SoC transfer training)"
                        : "");
    // Ctrl-C stops cleanly: in-flight cells finish and persist, the
    // manifest is flushed, and the run reports how to resume.
    app::installCampaignSignalHandlers();
    app::clearCampaignStop();
    app::CampaignRunner driver(runner);
    app::CampaignResult result;
    try {
        result = driver.run(spec, ropts);
    } catch (const app::CampaignInterrupted &e) {
        std::fprintf(stderr, "interrupted: %s\n", e.what());
        return 130;
    }
    const double elapsed = timer.seconds();

    for (std::size_t g = 0; g < result.groupCount; ++g) {
        const std::vector<std::size_t> idx = result.groupCells(g);
        if (idx.empty())
            continue;
        const app::CellResult &first = result.cells[idx.front()];
        std::printf("\n--- group %zu (soc %s, seed %llu) ---\n", g,
                    first.scenario.soc.c_str(),
                    static_cast<unsigned long long>(
                        first.scenario.evalSeed));
        if (first.scenario.workload ==
            app::WorkloadKind::kConcurrent) {
            std::printf("%-28s %10s %10s\n", "cell", "exec(norm)",
                        "ddr(norm)");
            for (std::size_t i : idx) {
                const app::CellResult &c = result.cells[i];
                if (c.isBaseline)
                    continue;
                std::printf("%-28s %10.3f %10.3f\n",
                            c.scenario.name.c_str(), c.geoExec,
                            c.geoDdr);
            }
            continue;
        }
        const bool normalized = std::any_of(
            idx.begin(), idx.end(), [&](std::size_t i) {
                return !result.cells[i].execNorm.empty();
            });
        if (!normalized) {
            // Unnormalized (e.g. baseline-free what-if cells): raw
            // totals, by cell name.
            std::printf("%-28s %14s %12s\n", "cell", "cycles",
                        "off-chip");
            for (std::size_t i : idx) {
                const app::CellResult &c = result.cells[i];
                Cycles exec = 0;
                std::uint64_t ddr = 0;
                for (const app::PhaseResult &p : c.phases) {
                    exec += p.execCycles;
                    ddr += p.ddrAccesses;
                }
                std::printf("%-28s %14llu %12llu\n",
                            c.scenario.name.c_str(),
                            static_cast<unsigned long long>(exec),
                            static_cast<unsigned long long>(ddr));
            }
            continue;
        }
        std::ostringstream os;
        app::printOutcomeTable(os, result.groupOutcomes(g));
        std::fputs(os.str().c_str(), stdout);
    }

    if (outFile.empty())
        outFile = "CAMPAIGN_" + spec.name + ".json";
    JsonReporter rep(spec.name);
    result.report(rep);
    rep.writeTo(outFile);
    std::printf("\n%zu cells in %.2fs; wrote %s\n",
                result.cells.size(), elapsed, outFile.c_str());

    // Contained failures surface at the very end — the sweep and the
    // JSON are complete, but the exit code must not claim success.
    if (const std::size_t failures = result.failureCount();
        failures > 0) {
        std::fprintf(stderr, "%zu cell(s) failed:\n", failures);
        for (const app::CellResult &c : result.cells)
            if (c.failed)
                std::fprintf(stderr, "  %s (attempts: %u): %s\n",
                             c.scenario.name.c_str(), c.attempts,
                             c.error.c_str());
        return 1;
    }
    return 0;
}

// ------------------------------------------------------------- serve

int
cmdServe(Args &args)
{
    serve::ServeSpec spec;
    std::vector<double> tenantWeights;
    bool sawTenantWeights = false;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--spec")) {
            spec = serve::parseServeSpecFile(args.value());
        } else if (args.next("--soc")) {
            spec.soc = validatedSoc(args.value());
        } else if (args.next("--requests")) {
            spec.requests = args.number(100000000);
        } else if (args.next("--threads")) {
            spec.threads = static_cast<unsigned>(args.number(256));
        } else if (args.next("--swap-interval")) {
            spec.swapInterval = args.number(100000000);
        } else if (args.next("--train")) {
            spec.trainIterations =
                static_cast<unsigned>(args.number(100000));
        } else if (args.next("--shards")) {
            spec.trainShards =
                static_cast<unsigned>(args.number(100000));
        } else if (args.next("--merge")) {
            spec.merge = validatedMerge(args.value());
        } else if (args.next("--explore")) {
            spec.explore = validatedExplore(args.value());
        } else if (args.next("--model")) {
            spec.model = validatedModel(args.value());
        } else if (args.next("--tenants")) {
            spec.tenants.clear();
            for (const std::string &part :
                 app::splitList(args.value(), ',')) {
                const std::string src = app::trimText(part);
                const std::string err =
                    serve::checkTenantSource(src);
                if (!err.empty()) {
                    std::fprintf(stderr, "fatal: %s\n", err.c_str());
                    return 2;
                }
                serve::TenantSpec t;
                t.source = src;
                spec.tenants.push_back(std::move(t));
            }
            if (spec.tenants.empty()) {
                std::fprintf(stderr, "fatal: --tenants needs at "
                                     "least one source\n");
                return 2;
            }
        } else if (args.next("--tenant-weights")) {
            sawTenantWeights = true;
            tenantWeights.clear();
            const std::string flag = args.argv[args.i];
            for (const std::string &part :
                 app::splitList(args.value(), ',')) {
                const std::string text = app::trimText(part);
                double w = 0.0;
                std::size_t used = 0;
                try {
                    w = std::stod(text, &used);
                } catch (const std::exception &) {
                    used = 0;
                }
                if (used != text.size() || !(w > 0.0) ||
                    !std::isfinite(w)) {
                    std::fprintf(stderr,
                                 "fatal: bad value '%s' in %s "
                                 "(positive numbers only)\n",
                                 text.c_str(), flag.c_str());
                    return 2;
                }
                tenantWeights.push_back(w);
            }
        } else if (args.next("--arrival-rate")) {
            // Like args.seconds() but 0 (unpaced) stays legal.
            const std::string text = args.value();
            double rate = -1.0;
            std::size_t used = 0;
            try {
                rate = std::stod(text, &used);
            } catch (const std::exception &) {
                used = 0;
            }
            if (used != text.size() || !(rate >= 0.0) ||
                !std::isfinite(rate) || rate > 1e9) {
                std::fprintf(stderr,
                             "fatal: bad value '%s' for "
                             "--arrival-rate (requests/sec in "
                             "[0, 1e9])\n",
                             text.c_str());
                return 2;
            }
            spec.arrivalRate = rate;
        } else if (args.next("--seed")) {
            spec.seed = args.number(UINT64_MAX);
        } else if (args.next("--train-seed")) {
            spec.trainSeed = args.number(UINT64_MAX);
        } else if (args.next("--agent-seed")) {
            spec.agentSeed = args.number(UINT64_MAX);
        } else if (args.next("--decision-log")) {
            spec.decisionLog = args.value();
        } else if (args.next("--save-state")) {
            spec.saveState = args.value();
        } else if (args.next("--load-state")) {
            spec.loadState = args.value();
        } else if (args.next("--resume")) {
            std::fprintf(stderr,
                         "fatal: --resume applies to `campaign`; a "
                         "serve session resumes its model with "
                         "--load-state FILE instead\n");
            return 2;
        } else if (args.next("--state-dir")) {
            std::fprintf(stderr,
                         "fatal: --state-dir applies to `campaign`; "
                         "serve persists its model with --save-state "
                         "FILE instead\n");
            return 2;
        } else if (args.next("--workers")) {
            std::fprintf(stderr,
                         "fatal: --workers applies to `campaign`; "
                         "serve concurrency is --threads N\n");
            return 2;
        } else if (args.next("--jobs")) {
            std::fprintf(stderr,
                         "fatal: --jobs applies to batch "
                         "subcommands; serve concurrency is "
                         "--threads N\n");
            return 2;
        } else if (args.next("--fault")) {
            std::fprintf(stderr,
                         "fatal: --fault applies to `campaign` "
                         "(serve drains on SIGINT/SIGTERM instead)\n");
            return 2;
        } else {
            usage();
        }
    }
    if (sawTenantWeights) {
        if (tenantWeights.size() != spec.tenants.size()) {
            std::fprintf(stderr,
                         "fatal: --tenant-weights has %zu entries "
                         "for %zu tenants\n",
                         tenantWeights.size(), spec.tenants.size());
            return 2;
        }
        for (std::size_t i = 0; i < tenantWeights.size(); ++i)
            spec.tenants[i].weight = tenantWeights[i];
    }
    serve::labelTenants(spec);
    try {
        serve::validateServeSpec(spec);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    }

    std::printf("serving %llu request(s) on %s over %u thread(s), "
                "hot-swapping every %llu (%llu generation(s))...\n",
                static_cast<unsigned long long>(spec.requests),
                spec.soc.c_str(), spec.threads,
                static_cast<unsigned long long>(spec.swapInterval),
                static_cast<unsigned long long>(
                    serve::generationCount(spec)));

    // Ctrl-C drains cleanly: workers stop claiming, in-flight
    // requests finish, and everything measured so far is reported.
    app::installCampaignSignalHandlers();
    app::clearCampaignStop();
    const serve::ServeResult result = serve::runServe(spec);

    std::printf("\nserved %llu/%llu request(s) in %.2fs (%.1f/s), "
                "%llu hot swap(s)%s\n",
                static_cast<unsigned long long>(result.served),
                static_cast<unsigned long long>(result.requested),
                result.wallSeconds,
                result.wallSeconds > 0.0
                    ? static_cast<double>(result.served) /
                          result.wallSeconds
                    : 0.0,
                static_cast<unsigned long long>(result.hotSwaps),
                result.interrupted ? " (interrupted, drained cleanly)"
                                   : "");
    std::printf("decision latency: p50 %.3gus p90 %.3gus p99 "
                "%.3gus\n",
                result.decisionLatency.quantile(0.50) * 1e6,
                result.decisionLatency.quantile(0.90) * 1e6,
                result.decisionLatency.quantile(0.99) * 1e6);
    std::printf("service latency:  p50 %.3gms p90 %.3gms p99 "
                "%.3gms\n",
                result.serviceLatency.quantile(0.50) * 1e3,
                result.serviceLatency.quantile(0.90) * 1e3,
                result.serviceLatency.quantile(0.99) * 1e3);
    std::printf("\n%-14s %10s %14s %12s\n", "tenant", "served",
                "reward-sum", "reward-mean");
    for (const serve::TenantOutcome &t : result.tenants) {
        std::printf("%-14s %10llu %14.4f %12.6f\n", t.label.c_str(),
                    static_cast<unsigned long long>(t.served),
                    t.rewardSum,
                    t.served > 0
                        ? t.rewardSum / static_cast<double>(t.served)
                        : 0.0);
    }
    if (!spec.decisionLog.empty())
        std::printf("\nwrote decision log %s\n",
                    spec.decisionLog.c_str());
    if (!spec.saveState.empty() && result.state)
        std::printf("saved serving%s state to %s\n",
                    result.state->hasStaging ? "+staging" : "",
                    spec.saveState.c_str());
    else if (!spec.saveState.empty())
        std::printf("no state saved: drained before generation 0 "
                    "was trained\n");
    return result.interrupted ? 130 : 0;
}

// -------------------------------------------------------------- list

int
cmdList()
{
    std::printf("SoC presets:");
    for (std::string_view n : soc::knownSocNames())
        std::printf(" %s", std::string(n).c_str());
    std::printf("\npolicies:");
    for (const std::string &n : app::standardPolicyNames())
        std::printf(" %s", n.c_str());
    std::printf(" manual@SIZE cohmeleon@MODEL");
    std::printf("\nmodel backends: tabular perceptron:tables=T,bits=B");
    std::printf("\ncampaigns:");
    for (const std::string &n : app::namedCampaignNames())
        std::printf(" %s", n.c_str());
    std::printf("\nfigure apps:");
    for (const std::string &n : app::figureAppNames())
        std::printf(" %s", n.c_str());
    std::printf("\n");
    return 0;
}

// ------------------------------------------------- deprecated aliases

/** The pre-subcommand flat-flag interface, kept alive for scripts:
 *  maps onto the same scenario/campaign machinery. */
int
legacyMain(Args &args)
{
    std::fprintf(stderr,
                 "note: the flat flags are deprecated; see "
                 "'cohmeleon_run --help' for the subcommands\n");

    app::ScenarioSpec s;
    s.trainApp = app::TrainAppShape::kDense;
    s.collectRecords = true;
    bool policySet = false;
    bool evalOnly = false;
    bool compare = false;
    unsigned trainJobs = 0;
    bool trainShardsSet = false;
    unsigned jobs = 0;
    s.trainShards = 4; // the legacy --train-jobs default shard count

    for (; args.i < args.argc; ++args.i) {
        if (args.next("--soc"))
            s.soc = validatedSoc(args.value());
        else if (args.next("--policy")) {
            s.policy = validatedPolicy(args.value());
            policySet = true;
        } else if (args.next("--app")) {
            s.appSource = app::AppSource::kFile;
            s.appFile = args.value();
        } else if (args.next("--train"))
            s.trainIterations =
                static_cast<unsigned>(args.number(1'000'000));
        else if (args.next("--seed"))
            s.evalSeed = args.number(UINT64_MAX);
        else if (args.next("--save-qtable"))
            s.saveQtable = args.value();
        else if (args.next("--load-qtable"))
            s.loadQtable = args.value();
        else if (args.next("--save-model"))
            s.saveModel = args.value();
        else if (args.next("--load-model"))
            s.loadModel = args.value();
        else if (args.next("--train-jobs")) {
            trainJobs = static_cast<unsigned>(args.number(1024));
            if (trainJobs == 0)
                usage();
        } else if (args.next("--train-shards")) {
            s.trainShards = static_cast<unsigned>(args.number(4096));
            trainShardsSet = true;
            if (s.trainShards == 0)
                usage();
        } else if (args.next("--eval"))
            evalOnly = true;
        else if (args.next("--stats"))
            s.captureStats = true;
        else if (args.next("--compare"))
            compare = true;
        else if (args.next("--jobs")) {
            jobs = static_cast<unsigned>(args.number(1024));
            if (jobs == 0) // 0 is the internal "unset" sentinel
                usage();
        } else
            usage();
    }

    fatalIf(!compare && jobs != 0, "--jobs only applies to --compare");
    fatalIf(evalOnly && s.loadModel.empty(),
            "--eval needs a model to evaluate (--load-model)");
    fatalIf(evalOnly && (trainJobs != 0 || !s.saveModel.empty()),
            "--eval is the training-free split; it cannot be "
            "combined with --train-jobs or --save-model");
    fatalIf(!s.loadModel.empty() && trainJobs != 0,
            "--load-model replaces training; drop --train-jobs");
    fatalIf(trainShardsSet && trainJobs == 0,
            "--train-shards only applies to the parallel driver; "
            "add --train-jobs N");
    fatalIf(!s.loadModel.empty() && !s.loadQtable.empty(),
            "--load-model and --load-qtable are exclusive");
    s.freezeLoaded = evalOnly;

    if (compare) {
        fatalIf(policySet || !s.appFile.empty() ||
                    !s.saveQtable.empty() || !s.loadQtable.empty() ||
                    !s.saveModel.empty() || !s.loadModel.empty() ||
                    trainJobs != 0 || evalOnly || s.captureStats,
                "--compare runs all eight policies on a random "
                "app; it cannot be combined with --policy, "
                "--app, --stats, or the model options");
        std::vector<std::string> argvText = {
            "--soc", s.soc, "--train",
            std::to_string(s.trainIterations), "--seed",
            std::to_string(s.evalSeed)};
        if (jobs != 0) {
            argvText.push_back("--jobs");
            argvText.push_back(std::to_string(jobs));
        }
        std::vector<char *> argvPtrs;
        for (std::string &t : argvText)
            argvPtrs.push_back(t.data());
        Args cargs{static_cast<int>(argvPtrs.size()),
                   argvPtrs.data(), 0};
        return cmdCompare(cargs);
    }

    s.trainShards = trainJobs != 0 ? s.trainShards : 0;
    const soc::SocConfig cfg = app::resolveSoc(s);
    const app::CellResult result = app::runScenario(s);
    printCellResult(result, cfg);
    if (!s.saveQtable.empty())
        std::printf("saved Q-table to %s\n", s.saveQtable.c_str());
    if (!s.saveModel.empty())
        std::printf("saved model to %s\n", s.saveModel.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    try {
        if (argc < 2)
            usage();
        const std::string cmd = argv[1];
        Args args{argc, argv, 2};
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "train")
            return cmdTrain(args);
        if (cmd == "compare")
            return cmdCompare(args);
        if (cmd == "campaign")
            return cmdCampaign(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "list")
            return cmdList();
        if (cmd == "--help" || cmd == "-h" || cmd == "help")
            usage();
        if (!cmd.empty() && cmd.front() == '-') {
            Args largs{argc, argv, 1};
            return legacyMain(largs);
        }
        usage();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
