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
 * Flags are spec keys. `--KEY VALUE` sets key KEY of the subcommand's
 * spec grammar: a scenario key for run/train/compare, a serve-spec
 * key for serve, a campaign file's top-level key for campaign. It
 * goes through the same per-key dispatch the file parsers use, so a
 * key has one parser, one cap and one diagnostic however it is set,
 * and a malformed value fails with that diagnostic prefixed by the
 * flag (exit code 2). Flags override a --scenario / --spec file. A
 * few flags are aliases (kAliases); the rest (--jobs, --state-dir,
 * ...) drive the run and are not spec keys.
 *
 * `run` executes one scenario cell, `train` is the deterministic
 * sharded trainer (a comma list of SoCs selects cross-SoC transfer
 * training), `compare` runs the paper's eight-policy protocol,
 * `campaign` expands a registered name or a .campaign file, and
 * `serve` runs the long-lived policy service. All results are
 * independent of --jobs / --threads.
 */

#include <algorithm>
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

/** Flags whose name is not their spec key (run/train/compare). A
 *  null value takes the next argument. */
struct Alias
{
    const char *flag;
    const char *key;
    const char *value;
};

constexpr Alias kAliases[] = {
    {"--app", "app-file", nullptr},
    {"--figure-app", "app", nullptr},
    {"--stats", "stats", "true"},
    {"--exact-attribution", "attribution", "exact"},
    {"--eval", "freeze-loaded", "true"},
    {"-o", "save-model", nullptr},
};

[[noreturn]] void
usage()
{
    std::printf(
        "usage: cohmeleon_run <subcommand> [options]\n"
        "\n"
        "Options are spec keys: --KEY VALUE sets key KEY (see README\n"
        "'Running experiments'), overriding a --scenario/--spec file.\n"
        "\n"
        "  run       one scenario cell (scenario keys)\n"
        "    --scenario FILE    base .scenario file\n"
        "  train     sharded training -> checkpoint (scenario keys;\n"
        "            --soc A,B trains across SoCs; -o FILE required)\n"
        "    --jobs N\n"
        "  compare   the eight-policy protocol (scenario keys)\n"
        "    --jobs N\n"
        "  campaign  NAME|FILE (top-level campaign keys: --max-retries,\n"
        "            --fault, --workers, --lease-ttl, --cell-timeout)\n"
        "    --jobs N  -o/--out FILE  --full  --print\n"
        "    --state-dir DIR  --resume  --respawn-budget N\n"
        "  serve     long-lived policy service (serve-spec keys)\n"
        "    --spec FILE        base .serve file\n"
        "  list      known SoCs, policies, campaigns, figure apps\n"
        "\n"
        "aliases (run/train/compare):\n");
    for (const Alias &a : kAliases)
        std::printf("  %-20s %s = %s\n", a.flag, a.key,
                    a.value != nullptr ? a.value : "VALUE");
    std::exit(2);
}

/** One flag diagnostic line, exit code 2. */
[[noreturn]] void
flagFatal(const std::string &flag, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s: %s\n", flag.c_str(), msg.c_str());
    std::exit(2);
}

/** Run @p apply; a FatalError becomes @p flag's diagnostic. */
template <typename F>
void
asFlag(const std::string &flag, F &&apply)
{
    try {
        apply();
    } catch (const FatalError &e) {
        flagFatal(flag, e.what());
    }
}

/** Flag cursor. */
struct Args
{
    int argc;
    char **argv;
    int i;

    std::string flag() const { return argv[i]; }

    bool is(const char *f) const { return std::strcmp(argv[i], f) == 0; }

    std::string
    value()
    {
        if (i + 1 >= argc)
            flagFatal(argv[i], "needs a value");
        return argv[++i];
    }

    /** A non-spec count flag (--jobs, --respawn-budget). */
    unsigned
    count(unsigned cap)
    {
        const std::string f = flag();
        const std::string text = value();
        unsigned n = 0;
        asFlag(f, [&] {
            n = app::parseU32At(text, 0);
            fatalIf(n > cap, "'", text, "' too large (cap: ", cap, ")");
        });
        return n;
    }
};

/** The file named by @p flag's value (the last one wins), if any:
 *  the base the other flags override wherever it sits. */
const char *
baseFile(const Args &args, const char *flag)
{
    const char *file = nullptr;
    for (int i = args.i; i + 1 < args.argc; ++i)
        if (std::strcmp(args.argv[i], flag) == 0)
            file = args.argv[i + 1];
    return file;
}

/**
 * Walk the flags from args.i. @p own consumes the subcommand's
 * non-spec flags (returning true); every other flag becomes a spec
 * line (`--KEY VALUE`, or an alias when @p aliases) for @p apply,
 * whose failure is that flag's one-line diagnostic.
 */
template <typename Own, typename Apply>
void
forEachFlag(Args &args, bool aliases, Own &&own, Apply &&apply)
{
    for (; args.i < args.argc; ++args.i) {
        if (own(args))
            continue;
        const std::string flag = args.flag();
        app::ConfigLine line; // no = 0: no "line N:" in diagnostics
        const Alias *alias = nullptr;
        for (const Alias &a : kAliases)
            if (aliases && flag == a.flag)
                alias = &a;
        if (alias != nullptr) {
            line.key = alias->key;
            line.value =
                alias->value != nullptr ? alias->value : args.value();
        } else if (flag.size() > 2 && flag.compare(0, 2, "--") == 0) {
            line.key = flag.substr(2);
            line.value = app::trimText(args.value());
        } else {
            usage();
        }
        asFlag(flag, [&] { apply(line); });
    }
}

bool
jobsFlag(Args &args, unsigned &jobs)
{
    if (!args.is("--jobs"))
        return false;
    jobs = args.count(1024);
    return true;
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
    if (const char *file = baseFile(args, "--scenario")) {
        std::ifstream in(file);
        fatalIf(!in, "cannot open scenario file '", file, "'");
        s = app::parseScenario(in);
    }
    s.collectRecords = true;
    bool evalOnly = false;
    forEachFlag(
        args, true,
        [&](Args &a) {
            evalOnly = evalOnly || a.is("--eval");
            if (!a.is("--scenario"))
                return false;
            a.value();
            return true;
        },
        [&](const app::ConfigLine &l) { app::applyScenarioKey(s, l); });
    fatalIf(evalOnly && s.loadModel.empty(),
            "--eval needs a model to evaluate (--load-model)");
    fatalIf(evalOnly && (s.trainShards != 0 || !s.saveModel.empty()),
            "--eval is the training-free split; it cannot be "
            "combined with --shards or --save-model");

    const soc::SocConfig cfg = app::resolveSoc(s);
    const app::CellResult result = app::runScenario(s);
    printCellResult(result, cfg);
    if (!s.saveModel.empty())
        std::printf("saved model to %s\n", s.saveModel.c_str());
    return 0;
}

// ------------------------------------------------------------- train

int
cmdTrain(Args &args)
{
    app::ScenarioSpec s;
    s.trainShards = 4;
    s.trainApp = app::TrainAppShape::kDense;
    std::vector<std::string> socNames = {s.soc};
    unsigned jobs = 0;
    forEachFlag(
        args, true, [&](Args &a) { return jobsFlag(a, jobs); },
        [&](const app::ConfigLine &l) {
            if (l.key != "soc")
                return app::applyScenarioKey(s, l);
            // A comma list of SoCs selects cross-SoC transfer training.
            socNames.clear();
            app::ConfigLine one = l;
            for (const std::string &n : app::splitList(l.value, ',')) {
                one.value = n;
                app::applyScenarioKey(s, one);
                socNames.push_back(n);
            }
        });
    fatalIf(s.saveModel.empty(),
            "train produces a checkpoint; name it with -o FILE");
    fatalIf(s.trainShards == 0, "--shards must be positive");
    const app::TrainingOptions topts = app::trainingOptionsOf(s);

    std::vector<soc::SocConfig> cfgs;
    for (const std::string &n : socNames) {
        app::ScenarioSpec probe = s;
        probe.soc = n;
        cfgs.push_back(app::resolveSoc(probe));
    }

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
        // Cross-SoC transfer: shards per SoC, one merge in global
        // shard order.
        tres = app::trainAcrossSocs(cfgs, topts, runner);
    }
    tres.checkpoint.saveFile(s.saveModel);
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
    std::printf("saved model to %s\n", s.saveModel.c_str());
    return 0;
}

// ----------------------------------------------------------- compare

int
cmdCompare(Args &args)
{
    // The paper's protocol as a one-group campaign: dense training
    // apps so a policy's row can be cross-checked against its
    // standalone run at the same seed.
    app::CampaignSpec spec;
    spec.name = "compare";
    spec.base.trainApp = app::TrainAppShape::kDense;
    unsigned jobs = 0;
    forEachFlag(
        args, true, [&](Args &a) { return jobsFlag(a, jobs); },
        [&](const app::ConfigLine &l) {
            app::applyScenarioKey(spec.base, l);
        });
    spec.base.trainIterations = std::max(1u, spec.base.trainIterations);
    spec.policies = app::standardPolicyNames();
    spec.baseline = "fixed-non-coh-dma";

    app::ParallelRunner runner(jobs);
    std::printf("comparing the eight policies on %s "
                "(%u thread(s))...\n",
                spec.base.soc.c_str(), runner.threads());
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
    // The flags' keys are checked as they are read and applied once
    // the campaign they override is loaded.
    app::CampaignSpec checked;
    std::vector<app::ConfigLine> overrides;
    forEachFlag(
        args, false,
        [&](Args &a) {
            if (jobsFlag(a, jobs))
                return true;
            if (a.is("--out") || a.is("-o"))
                outFile = a.value();
            else if (a.is("--full"))
                full = true;
            else if (a.is("--print"))
                printOnly = true;
            else if (a.is("--state-dir"))
                ropts.stateDir = a.value();
            else if (a.is("--resume"))
                ropts.resume = true;
            else if (a.is("--respawn-budget"))
                ropts.respawnBudget = a.count(1000);
            else if (a.argv[a.i][0] != '-' && source.empty())
                source = a.argv[a.i];
            else
                return false;
            return true;
        },
        [&](const app::ConfigLine &l) {
            app::applyCampaignKey(checked, l);
            overrides.push_back(l);
        });
    if (source.empty()) {
        std::fprintf(stderr,
                     "fatal: campaign needs a registered name or a "
                     "file (registered:");
        for (const std::string &n : app::namedCampaignNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, ")\n");
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
    for (const app::ConfigLine &l : overrides)
        app::applyCampaignKey(spec, l);

    if (printOnly) {
        std::fputs(app::serializeCampaign(spec).c_str(), stdout);
        return 0;
    }

    const auto needsStateDir = [&](bool set, const char *what) {
        if (set && ropts.stateDir.empty()) {
            std::fprintf(stderr, "fatal: %s needs --state-dir DIR\n",
                         what);
            std::exit(2);
        }
    };
    needsStateDir(ropts.resume, "--resume");
    needsStateDir(spec.workers > 0,
                  "workers (the fleet claims cells through it)");
    needsStateDir(spec.cellTimeoutSec > 0.0,
                  "cell-timeout (the watchdog runs in the worker-fleet "
                  "supervisor)");

    const unsigned workers = spec.workers;
    // Crash/sigint plans key on per-process write ordinals, which are
    // not deterministic across a fleet; the fleet-native fault is
    // kill-worker@N.
    if (workers > 0 &&
        (spec.fault.kind == app::FaultPlan::Kind::kCrashBeforeWrite ||
         spec.fault.kind == app::FaultPlan::Kind::kCrashAfterWrite ||
         spec.fault.kind == app::FaultPlan::Kind::kSigintAfterWrite)) {
        std::fprintf(stderr,
                     "fatal: workers cannot be combined with fault "
                     "'%s' (write ordinals are per-process; use "
                     "kill-worker@N to crash a fleet)\n",
                     app::toString(spec.fault).c_str());
        return 2;
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
        try {
            app::superviseCampaignFleet(spec, ropts);
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
    // Flags of other subcommands, pointed at serve's equivalent.
    static const std::map<std::string, const char *> kElsewhere = {
        {"--resume", "applies to `campaign`; a serve session resumes "
                     "its model with --load-state FILE"},
        {"--state-dir", "applies to `campaign`; serve persists its "
                        "model with --save-state FILE"},
        {"--workers", "applies to `campaign`; serve concurrency is "
                      "--threads N"},
        {"--jobs", "applies to batch subcommands; serve concurrency is "
                   "--threads N"},
        {"--fault", "applies to `campaign` (serve drains on "
                    "SIGINT/SIGTERM instead)"},
    };
    const char *file = baseFile(args, "--spec");
    serve::ServeSpecBuilder builder(
        file != nullptr ? serve::parseServeSpecFile(file)
                        : serve::ServeSpec{});
    forEachFlag(
        args, false,
        [&](Args &a) {
            if (const auto hint = kElsewhere.find(a.flag());
                hint != kElsewhere.end())
                flagFatal(a.flag(), hint->second);
            if (!a.is("--spec"))
                return false;
            a.value();
            return true;
        },
        [&](const app::ConfigLine &l) {
            // Validating after every flag pins a failure on the flag
            // that caused it; tenant weights wait for build().
            builder.apply(l);
            serve::validateServeSpec(builder.spec());
        });
    serve::ServeSpec spec;
    asFlag("--tenant-weights", [&] {
        spec = builder.build();
        serve::validateServeSpec(spec);
    });

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
        usage();
    } catch (const std::exception &e) {
        // FatalError and anything else: one line, never terminate().
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
