/**
 * @file
 * The repository benchmark: three workloads (protocol, train, serve)
 * driven through the program's public entry points, with output
 * checks on every operation.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--small] [--workdir DIR] [--commit ID]
 *
 * --trace 0 runs set-up + operation pairs untraced until S seconds of
 * operations have been measured and prints the end-to-end metrics.
 * --trace 1 alternates an untraced reference operation with a traced
 * one, checks that both produce the same digest, and prints the
 * per-layer metrics. The last line of standard output is the result
 * object; an "env" line before it records the build and machine.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/experiment.hh"
#include "app/parallel_runner.hh"
#include "app/random_app.hh"
#include "app/training_driver.hh"
#include "layers.hh"
#include "policy/checkpoint.hh"
#include "policy/cohmeleon_policy.hh"
#include "policy/serve_state.hh"
#include "serve/serve_loop.hh"
#include "serve/serve_spec.hh"
#include "sim/rng.hh"
#include "sim/wall_timer.hh"
#include "soc/soc_presets.hh"
#include "trace.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{
namespace
{

using namespace cohmeleon;

// Each run cycles through this many seed-derived input sets; every
// repeat of a set must reproduce its first digest.
constexpr unsigned kInputSets = 2;

// The src/ modules a span may be named after; anything else is the
// benchmark's own work and counts as "other".
const std::vector<std::string> kLayers = {
    "soc", "app", "sim", "noc",    "mem", "coh",
    "acc", "rt",  "policy", "rl", "serve"};

std::string
hexDigest(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a 64
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** What one operation produced, for the output checks. */
struct OpOutput
{
    std::string digest;
    std::uint64_t invocations = 0;
    std::string failure; ///< empty when every invariant held
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Threads the workload runs, the calling thread included. */
    virtual unsigned threads() const = 0;
    /** Derive input set @p index from @p seed (not timed). */
    virtual void select(std::uint64_t seed, unsigned index) = 0;
    /** The timed set-up before an operation. */
    virtual void setup() = 0;
    /** Untimed release of what setup() holds, before the next one. */
    virtual void teardown() {}
    /** Set-ups per operation (cheap ones repeat so that their median
     *  is steady); each replaces the previous one. */
    virtual unsigned setupRepeats() const { return 1; }
    /** One untraced operation on the set-up state. */
    virtual OpOutput op() = 0;
    /** The untraced side of a traced pair: the program's own entry
     *  point for the whole operation, set-up included. */
    virtual OpOutput reference()
    {
        teardown();
        setup();
        return op();
    }
    /** Set-up and operation again, through public calls wrapped in
     *  spans; must reproduce reference()'s digest. */
    virtual OpOutput traced(Tracer &tracer, LayerCounts &counts) = 0;
    /** Per-layer metrics particular to the workload (the caller adds
     *  the shared ones). Names absent here are reported as 0. */
    virtual void layerMetrics(std::map<std::string, double> &out) = 0;
    virtual const soc::SocConfig &socConfig() const = 0;
};

// ------------------------------------------------------------------
// protocol: the paper's eight-policy comparison on soc1

class ProtocolWorkload final : public Workload
{
  public:
    explicit ProtocolWorkload(bool small)
        : cfg_(soc::makeSocByName("soc1"))
    {
        opts_.trainIterations = small ? 2 : 10;
        opts_.collectRecords = false;
    }

    unsigned threads() const override { return 1; }
    const soc::SocConfig &socConfig() const override { return cfg_; }

    void
    select(std::uint64_t seed, unsigned index) override
    {
        opts_.agentSeed = app::experimentSeed(seed, index);
        index_ = index;
        const app::ProtocolApps apps = app::makeProtocolApps(cfg_, opts_);
        evalPhases_ = apps.eval.phases.size();
        invocations_ = std::uint64_t(apps.train.totalInvocations()) *
                           opts_.trainIterations +
                       std::uint64_t(apps.eval.totalInvocations()) *
                           app::standardPolicyNames().size();
    }

    void
    setup() override
    {
        apps_ = app::makeProtocolApps(cfg_, opts_);
        policies_.clear();
        for (const std::string &name : app::standardPolicyNames())
            policies_.push_back(app::makePolicyByName(name, cfg_, opts_));
    }

    OpOutput
    op() override
    {
        std::vector<app::PolicyOutcome> outcomes;
        const auto &names = app::standardPolicyNames();
        for (std::size_t i = 0; i < names.size(); ++i) {
            rt::CoherencePolicy &policy = *policies_[i];
            if (auto *cohm =
                    dynamic_cast<policy::CohmeleonPolicy *>(&policy))
                app::trainCohmeleon(*cohm, cfg_, apps_->train,
                                    opts_.trainIterations);
            app::PolicyOutcome o;
            o.policy = names[i];
            o.phases = app::runPolicyOnApp(policy, cfg_, apps_->eval,
                                           opts_.collectRecords)
                           .phases;
            outcomes.push_back(std::move(o));
        }
        app::normalizeOutcomes(outcomes);
        return finish(outcomes);
    }

    OpOutput
    reference() override
    {
        return finish(app::evaluatePolicies(cfg_, opts_));
    }

    OpOutput
    traced(Tracer &tracer, LayerCounts &counts) override
    {
        {
            const Scope span(tracer, "app.make_apps");
            apps_ = app::makeProtocolApps(cfg_, opts_);
        }
        policies_.clear();
        for (const std::string &name : app::standardPolicyNames()) {
            const Scope span(tracer, "policy.make");
            policies_.push_back(app::makePolicyByName(name, cfg_, opts_));
        }
        std::vector<app::PolicyOutcome> outcomes;
        const auto &names = app::standardPolicyNames();
        for (std::size_t i = 0; i < names.size(); ++i) {
            rt::CoherencePolicy &policy = *policies_[i];
            if (auto *cohm =
                    dynamic_cast<policy::CohmeleonPolicy *>(&policy)) {
                for (unsigned it = 0; it < opts_.trainIterations; ++it) {
                    tracedRunApp(policy, cfg_, apps_->train, false,
                                 tracer, counts);
                    TracedPolicy(policy, tracer, counts).onIterationEnd();
                }
                cohm->freeze();
            }
            app::PolicyOutcome o;
            o.policy = names[i];
            o.phases = tracedRunApp(policy, cfg_, apps_->eval,
                                    opts_.collectRecords, tracer, counts)
                           .phases;
            outcomes.push_back(std::move(o));
        }
        {
            const Scope span(tracer, "app.normalize");
            app::normalizeOutcomes(outcomes);
        }
        return finish(outcomes);
    }

    void
    layerMetrics(std::map<std::string, double> &out) override
    {
        out["policy.cohmeleon_exec_norm"] = cohmeleonExec_;
        out["policy.cohmeleon_ddr_norm"] = cohmeleonDdr_;
    }

  private:
    OpOutput
    finish(const std::vector<app::PolicyOutcome> &outcomes)
    {
        OpOutput out;
        std::ostringstream table;
        if (outcomes.size() != app::standardPolicyNames().size())
            out.failure = "outcome table has the wrong number of rows";
        for (const app::PolicyOutcome &o : outcomes) {
            table << o.policy << ' ' << exact(o.geoExec) << ' '
                  << exact(o.geoDdr) << '\n';
            if (o.phases.size() != evalPhases_)
                out.failure = o.policy + " ran the wrong phase count";
            for (std::size_t p = 0; p < o.phases.size(); ++p) {
                const app::PhaseResult &r = o.phases[p];
                table << ' ' << r.name << ' ' << r.execCycles << ' '
                      << r.ddrAccesses << ' ' << exact(o.execNorm[p])
                      << ' ' << exact(o.ddrNorm[p]) << '\n';
                if (r.execCycles == 0 || !std::isfinite(o.execNorm[p]) ||
                    !std::isfinite(o.ddrNorm[p]))
                    out.failure = o.policy + " has an empty phase";
            }
            if (o.policy == "cohmeleon" && index_ == 0) {
                cohmeleonExec_ = o.geoExec;
                cohmeleonDdr_ = o.geoDdr;
            }
        }
        if (!outcomes.empty() &&
            (outcomes.front().geoExec != 1.0 ||
             outcomes.front().geoDdr != 1.0))
            out.failure = "baseline row is not normalized to 1";
        out.digest = hexDigest(table.str());
        out.invocations = invocations_;
        return out;
    }

    soc::SocConfig cfg_;
    app::EvalOptions opts_;
    std::optional<app::ProtocolApps> apps_;
    std::vector<std::unique_ptr<rt::CoherencePolicy>> policies_;
    unsigned index_ = 0;
    std::size_t evalPhases_ = 0;
    std::uint64_t invocations_ = 0;
    double cohmeleonExec_ = 0.0; ///< of input set 0, like the counts
    double cohmeleonDdr_ = 0.0;
};

// ------------------------------------------------------------------
// Sharded training through public calls (train and serve set-up)

struct ShardOut
{
    rl::Model model;
    rl::RewardTracker tracker;
    app::ShardReport report;
    LayerCounts counts;
    double seconds = 0.0;
    std::thread::id thread;
};

/** app::TrainingDriver::train() for one SoC, rebuilt from public
 *  calls with spans; the checkpoint must be byte-identical. */
policy::PolicyCheckpoint
tracedTrain(const soc::SocConfig &cfg, const app::TrainingOptions &opts,
            app::ParallelRunner &runner, Tracer &tracer,
            LayerCounts &counts, std::vector<ShardOut> &shards,
            double &fanoutSeconds)
{
    const std::size_t total = opts.shards;
    {
        const Scope fanout(tracer, "app.parallel_map");
        const SpanRef root = fanout.ref();
        const WallTimer wall;
        shards = runner.map<ShardOut>(total, [&](std::size_t i) {
            const Scope span(tracer, "app.shard", root);
            const WallTimer timer;
            ShardOut out;
            policy::CohmeleonParams params;
            params.weights = opts.weights;
            params.agent.decayIterations = opts.iterations;
            params.agent.seed = app::experimentSeed(opts.agentSeed, i);
            params.agent.explore = opts.explore;
            params.agent.model = opts.model;
            policy::CohmeleonPolicy policy(params);

            const std::uint64_t appSeed =
                app::experimentSeed(opts.trainSeed, i);
            std::optional<soc::Soc> naming;
            {
                const Scope build(tracer, "soc.build");
                naming.emplace(cfg);
            }
            out.counts.socBuilds += 1;
            app::AppSpec trainApp;
            {
                const Scope gen(tracer, "app.generate");
                trainApp = app::generateRandomApp(*naming, Rng(appSeed),
                                                  opts.appParams);
            }
            for (unsigned it = 0; it < opts.iterations; ++it) {
                tracedRunApp(policy, cfg, trainApp, false, tracer,
                             out.counts);
                TracedPolicy(policy, tracer, out.counts)
                    .onIterationEnd();
            }
            out.model = policy.agent().model();
            out.tracker = policy.rewardTracker();
            out.report.seed = appSeed;
            out.report.invocations =
                std::uint64_t(trainApp.totalInvocations()) *
                opts.iterations;
            out.report.qtableVisits = out.model.totalVisits();
            out.seconds = timer.seconds();
            out.thread = std::this_thread::get_id();
            return out;
        });
        fanoutSeconds = wall.seconds();
    }

    const Scope fold(tracer, "app.fold");
    policy::PolicyCheckpoint c;
    c.weights = opts.weights;
    c.agent.decayIterations = opts.iterations;
    c.agent.seed = opts.agentSeed;
    c.agent.explore = opts.explore;
    c.agent.model = opts.model;
    c.merge = opts.merge;
    c.iteration = opts.iterations;
    c.frozen = true;
    c.model = rl::Model(opts.model);
    c.rngState = Rng(app::experimentSeed(opts.agentSeed, total)).state();
    for (const ShardOut &s : shards) {
        {
            const Scope merge(tracer, "rl.merge");
            c.model.merge(s.model, opts.merge);
        }
        c.tracker.mergeFrom(s.tracker);
        counts.add(s.counts);
    }
    return c;
}

double
imbalance(const std::vector<std::uint64_t> &invocations)
{
    if (invocations.empty())
        return 0.0;
    double sum = 0.0;
    double max = 0.0;
    for (const std::uint64_t v : invocations) {
        sum += static_cast<double>(v);
        max = std::max(max, static_cast<double>(v));
    }
    return sum > 0.0 ? max / (sum / static_cast<double>(invocations.size()))
                     : 0.0;
}

// ------------------------------------------------------------------
// train: sharded parallel training on soc0

class TrainWorkload final : public Workload
{
  public:
    explicit TrainWorkload(bool small)
    {
        opts_.shards = small ? 4 : 8;
        opts_.iterations = small ? 1 : 2;
    }

    unsigned threads() const override { return kWidth; }
    unsigned setupRepeats() const override { return 31; }
    const soc::SocConfig &socConfig() const override { return cfg_; }

    void
    select(std::uint64_t seed, unsigned index) override
    {
        opts_.agentSeed = app::experimentSeed(seed, index);
    }

    void
    setup() override
    {
        cfg_ = soc::makeSocByName("soc0");
        runner_ = std::make_unique<app::ParallelRunner>(kWidth);
    }

    void teardown() override { runner_.reset(); }

    OpOutput
    op() override
    {
        app::TrainingDriver driver(*runner_);
        const app::TrainingResult r = driver.train(cfg_, opts_);
        OpOutput out = finish(r.checkpoint);
        out.invocations = r.totalInvocations;
        std::vector<std::uint64_t> inv;
        std::uint64_t sum = 0;
        for (const app::ShardReport &s : r.shards) {
            inv.push_back(s.invocations);
            sum += s.invocations;
        }
        if (r.shards.size() != opts_.shards || sum != r.totalInvocations)
            out.failure = "shard reports do not add up";
        imbalance_ = imbalance(inv);
        return out;
    }

    OpOutput
    traced(Tracer &tracer, LayerCounts &counts) override
    {
        teardown();
        {
            const Scope span(tracer, "app.runner_start");
            setup();
        }
        std::vector<ShardOut> shards;
        double fanout = 0.0;
        const policy::PolicyCheckpoint c = tracedTrain(
            cfg_, opts_, *runner_, tracer, counts, shards, fanout);
        OpOutput out = finish(c);
        std::map<std::thread::id, double> perThread;
        for (const ShardOut &s : shards) {
            out.invocations += s.report.invocations;
            shardSum_ += s.seconds;
            perThread[s.thread] += s.seconds;
        }
        double critical = 0.0;
        for (const auto &[id, sec] : perThread)
            critical = std::max(critical, sec);
        shardCritical_ += critical;
        fanout_ += fanout;
        tracedOps_ += 1;
        return out;
    }

    void
    layerMetrics(std::map<std::string, double> &out) override
    {
        const double ops = std::max(1u, tracedOps_);
        out["app.shard_critical_s"] = shardCritical_ / ops;
        out["app.shard_sum_s"] = shardSum_ / ops;
        out["app.parallel_eff"] =
            fanout_ > 0.0 ? shardSum_ / (kWidth * fanout_) : 0.0;
        out["app.shard_imbalance"] = imbalance_;
    }

  private:
    static constexpr unsigned kWidth = 4;

    OpOutput
    finish(const policy::PolicyCheckpoint &c)
    {
        OpOutput out;
        const std::string bytes = c.serialized();
        out.digest = hexDigest(bytes);
        std::istringstream is(bytes);
        if (!c.frozen || !c.model.allFinite())
            out.failure = "checkpoint is not a frozen finite model";
        else if (policy::PolicyCheckpoint::load(is).serialized() != bytes)
            out.failure = "checkpoint does not round-trip";
        return out;
    }

    soc::SocConfig cfg_ = soc::makeSocByName("soc0");
    app::TrainingOptions opts_;
    std::unique_ptr<app::ParallelRunner> runner_;
    double imbalance_ = 0.0;
    double shardSum_ = 0.0;
    double shardCritical_ = 0.0;
    double fanout_ = 0.0;
    unsigned tracedOps_ = 0;
};

// ------------------------------------------------------------------
// serve: the hot-swapping policy service on soc1

class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(bool small, const std::string &workdir)
        : cfg_(soc::makeSocByName("soc1"))
    {
        spec_.soc = "soc1";
        spec_.threads = 3;
        spec_.requests = small ? 48 : 320;
        spec_.swapInterval = small ? 16 : 64;
        spec_.trainIterations = small ? 1 : 3;
        spec_.trainShards = small ? 1 : 2;
        serve::labelTenants(spec_);
        spec_.loadState = workdir + "/serve-gen0-" +
                          std::to_string(::getpid()) + ".state";
    }

    ~ServeWorkload() override
    {
        std::error_code ec;
        std::filesystem::remove(spec_.loadState, ec);
    }

    unsigned threads() const override { return spec_.threads + 1; }
    const soc::SocConfig &socConfig() const override { return cfg_; }

    void
    select(std::uint64_t seed, unsigned index) override
    {
        spec_.seed = app::experimentSeed(seed, 2 * index);
        spec_.agentSeed = app::experimentSeed(seed, 2 * index + 1);
    }

    void
    setup() override
    {
        policy::ServeState state;
        state.serving = trainGen0();
        state.saveFile(spec_.loadState);
    }

    OpOutput
    op() override
    {
        return finish(serve::runServe(spec_));
    }

    /** A fresh session that trains generation 0 itself: the traced
     *  session, which loads it, must log the same decisions. */
    OpOutput
    reference() override
    {
        serve::ServeSpec fresh = spec_;
        fresh.loadState.clear();
        return finish(serve::runServe(fresh));
    }

    OpOutput
    traced(Tracer &tracer, LayerCounts &counts) override
    {
        policy::ServeState state;
        {
            app::ParallelRunner serial(1);
            std::vector<ShardOut> shards;
            double fanout = 0.0;
            state.serving = tracedTrain(cfg_, gen0Options(), serial,
                                        tracer, counts, shards, fanout)
                                .model;
        }
        {
            const Scope span(tracer, "bench.state_file");
            state.saveFile(spec_.loadState);
        }
        const Scope span(tracer, "serve.run_serve");
        serve::ServeResult r = serve::runServe(spec_);
        const OpOutput out = finish(r);
        r.outcomes.clear();
        traced_.push_back(std::move(r));
        return out;
    }

    void
    layerMetrics(std::map<std::string, double> &out) override
    {
        const double n =
            std::max<double>(1.0, static_cast<double>(traced_.size()));
        double busy = 0.0, decide = 0.0, p50 = 0.0, p99 = 0.0,
               mean = 0.0, rps = 0.0, swaps = 0.0, served = 0.0;
        for (const serve::ServeResult &r : traced_) {
            busy += r.serviceLatency.sum() /
                    (spec_.threads * r.wallSeconds);
            decide += r.decisionLatency.mean() * 1e6;
            p50 += r.serviceLatency.quantile(0.5) * 1e3;
            p99 += r.serviceLatency.quantile(0.99) * 1e3;
            mean += r.serviceLatency.mean() * 1e3;
            rps += static_cast<double>(r.served) / r.wallSeconds;
            swaps = static_cast<double>(r.hotSwaps);
            served = static_cast<double>(r.served);
        }
        out["serve.busy_frac"] = busy / n;
        const WallTimer trainer;
        trainGen0();
        out["serve.trainer_gen_s"] = trainer.seconds();
        out["serve.hot_swaps"] = swaps;
        out["serve.decide_mean_us"] = decide / n;
        out["serve.service_p50_ms"] = p50 / n;
        out["serve.service_p99_ms"] = p99 / n;
        out["serve.service_mean_ms"] = mean / n;
        out["serve.requests_per_s"] = rps / n;
        // Every request simulates one single-invocation app on a
        // freshly built SoC inside runServe().
        out["soc.builds"] += served;
        out["app.runs"] += served;
        out["rt.invocations"] += served;
    }

  private:
    rl::Model
    trainGen0() const
    {
        app::ParallelRunner serial(1);
        app::TrainingDriver driver(serial);
        return driver.train(cfg_, gen0Options()).checkpoint.model;
    }

    /** The options runServe() trains generation 0 with. */
    app::TrainingOptions
    gen0Options() const
    {
        app::TrainingOptions opts;
        opts.iterations = spec_.trainIterations;
        opts.shards = spec_.trainShards;
        opts.trainSeed = app::experimentSeed(spec_.trainSeed, 0);
        opts.agentSeed = app::experimentSeed(spec_.agentSeed, 0);
        opts.weights = spec_.weights;
        opts.merge = spec_.merge;
        opts.explore = spec_.explore;
        opts.model = spec_.model;
        return opts;
    }

    OpOutput
    finish(const serve::ServeResult &r)
    {
        OpOutput out;
        out.digest = hexDigest(r.decisionLog);
        out.invocations = r.served;
        const std::string tail =
            "end served " + std::to_string(r.served) + "\n";
        if (r.served != r.requested || r.interrupted)
            out.failure = "served " + std::to_string(r.served) + " of " +
                          std::to_string(r.requested) + " requests";
        else if (r.hotSwaps < 2)
            out.failure = "fewer than two hot swaps";
        else if (r.decisionLog.size() < tail.size() ||
                 r.decisionLog.compare(r.decisionLog.size() - tail.size(),
                                       tail.size(), tail) != 0)
            out.failure = "decision log is truncated";
        return out;
    }

    soc::SocConfig cfg_;
    serve::ServeSpec spec_;
    std::vector<serve::ServeResult> traced_; ///< without outcomes
};

// ------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;
    std::string workdir = ".bench_build";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload protocol|train|serve "
                 "--seed N --seconds S --trace 0|1 [--small] "
                 "[--workdir DIR] [--commit ID]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--small") {
            a.small = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--workdir")
                a.workdir = v;
            else if (k == "--commit")
                a.commit = v;
            else
                usage("unknown option " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Median microseconds of the public Soc constructor and reset(). */
void
socMicro(const soc::SocConfig &cfg, std::map<std::string, double> &out)
{
    std::vector<double> build;
    std::vector<double> reset;
    for (int i = 0; i < 31; ++i) {
        const WallTimer b;
        soc::Soc soc(cfg);
        build.push_back(b.seconds() * 1e6);
        const WallTimer r;
        soc.reset();
        reset.push_back(r.seconds() * 1e6);
    }
    out["soc.build_us"] = median(build);
    out["soc.reset_us"] = median(reset);
}

/** Shared per-layer metrics from span totals and the first traced
 *  operation's counts. */
void
sharedLayerMetrics(const std::map<std::string, SpanTotals> &spans,
                   const LayerCounts &c, unsigned ops,
                   std::uint64_t allEvents,
                   std::map<std::string, double> &out)
{
    const auto get = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? SpanTotals{} : it->second;
    };
    const double perOp = 1.0 / std::max(1u, ops);
    const SpanTotals run = get("app.run_app");
    const SpanTotals decide = get("policy.decide");
    const SpanTotals learn = get("rl.feedback");
    const SpanTotals merge = get("rl.merge");

    out["soc.builds"] = static_cast<double>(c.socBuilds);
    out["app.run_s"] = run.selfSeconds * perOp;
    out["app.runs"] = static_cast<double>(c.appRuns);
    out["sim.events"] = static_cast<double>(c.events);
    out["sim.ns_per_event"] =
        allEvents ? run.selfSeconds * 1e9 / static_cast<double>(allEvents)
                  : 0.0;
    out["sim.cycles"] = static_cast<double>(c.simCycles);
    out["noc.packets"] = static_cast<double>(c.nocPackets);
    out["noc.flits"] = static_cast<double>(c.nocFlits);
    out["noc.wait_cycles"] = static_cast<double>(c.nocWaitCycles);
    out["mem.l2_refs"] = static_cast<double>(c.l2Refs);
    out["mem.l2_writebacks"] = static_cast<double>(c.l2Writebacks);
    out["mem.l2_recalls"] = static_cast<double>(c.l2Recalls);
    out["mem.llc_refs"] = static_cast<double>(c.llcRefs);
    out["mem.llc_hit_pct"] =
        c.llcRefs ? 100.0 * c.llcHits / static_cast<double>(c.llcRefs)
                  : 0.0;
    out["mem.llc_evictions"] = static_cast<double>(c.llcEvictions);
    out["mem.ddr_reads"] = static_cast<double>(c.ddrReads);
    out["mem.ddr_writes"] = static_cast<double>(c.ddrWrites);
    const double ddr = static_cast<double>(c.ddrReads + c.ddrWrites);
    out["mem.ddr_rowhit_pct"] = ddr > 0.0 ? 100.0 * c.ddrRowHits / ddr : 0.0;
    for (const coh::CoherenceMode m : coh::kAllModes)
        out["coh.mode." + std::string(coh::toString(m))] =
            static_cast<double>(c.modes[static_cast<std::size_t>(m)]);
    out["rt.invocations"] = static_cast<double>(c.invocations);
    out["acc.comm_frac"] =
        c.activeCycles ? static_cast<double>(c.commCycles) /
                             static_cast<double>(c.activeCycles)
                       : 0.0;
    out["policy.decide_us"] =
        decide.count ? decide.seconds * 1e6 / decide.count : 0.0;
    out["policy.decides"] = static_cast<double>(c.decides);
    out["rl.feedback_us"] =
        learn.count ? learn.seconds * 1e6 / learn.count : 0.0;
    out["rl.updates"] = static_cast<double>(c.updates);
    out["rl.merge_ms"] = merge.count ? merge.seconds * 1e3 / merge.count
                                     : 0.0;
}

/** Every per-layer metric name with its unit, in output order. */
const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"soc.build_us", "us"},
        {"soc.reset_us", "us"},
        {"soc.builds", "count"},
        {"app.run_s", "s"},
        {"app.runs", "count"},
        {"app.shard_critical_s", "s"},
        {"app.shard_sum_s", "s"},
        {"app.parallel_eff", "ratio"},
        {"app.shard_imbalance", "ratio"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.cycles", "cycles"},
        {"noc.packets", "count"},
        {"noc.flits", "count"},
        {"noc.wait_cycles", "cycles"},
        {"mem.l2_refs", "count"},
        {"mem.l2_writebacks", "count"},
        {"mem.l2_recalls", "count"},
        {"mem.llc_refs", "count"},
        {"mem.llc_hit_pct", "%"},
        {"mem.llc_evictions", "count"},
        {"mem.ddr_reads", "count"},
        {"mem.ddr_writes", "count"},
        {"mem.ddr_rowhit_pct", "%"},
        {"coh.mode.non-coh-dma", "count"},
        {"coh.mode.llc-coh-dma", "count"},
        {"coh.mode.coh-dma", "count"},
        {"coh.mode.full-coh", "count"},
        {"rt.invocations", "count"},
        {"acc.comm_frac", "ratio"},
        {"policy.decide_us", "us"},
        {"policy.decides", "count"},
        {"policy.cohmeleon_exec_norm", "ratio"},
        {"policy.cohmeleon_ddr_norm", "ratio"},
        {"rl.feedback_us", "us"},
        {"rl.updates", "count"},
        {"rl.merge_ms", "ms"},
        {"serve.busy_frac", "ratio"},
        {"serve.trainer_gen_s", "s"},
        {"serve.hot_swaps", "count"},
        {"serve.decide_mean_us", "us"},
        {"serve.service_p50_ms", "ms"},
        {"serve.service_p99_ms", "ms"},
        {"serve.service_mean_ms", "ms"},
        {"serve.requests_per_s", "1/s"},
        {"trace.overhead_s", "s"},
        {"trace.coverage_pct", "%"},
        {"trace.other_s", "s"},
        {"trace.spans", "count"},
    };
    return units;
}

int
run(const Args &args)
{
    std::filesystem::create_directories(args.workdir);
    std::unique_ptr<Workload> wl;
    if (args.workload == "protocol")
        wl = std::make_unique<ProtocolWorkload>(args.small);
    else if (args.workload == "train")
        wl = std::make_unique<TrainWorkload>(args.small);
    else if (args.workload == "serve")
        wl = std::make_unique<ServeWorkload>(args.small, args.workdir);
    else
        usage("unknown workload '" + args.workload + "'");

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<unsigned, std::string> firstDigest;
    const auto check = [&](const OpOutput &out, unsigned set,
                           const char *what) {
        attempted += 1;
        std::string why = out.failure;
        const auto [it, fresh] = firstDigest.emplace(set, out.digest);
        if (why.empty() && !fresh && it->second != out.digest)
            why = "digest " + out.digest + " differs from " + it->second;
        if (!why.empty()) {
            failed += 1;
            std::cerr << "perfbench: " << what << " check failed: " << why
                      << '\n';
        }
    };

    std::vector<Metric> metrics;
    if (!args.trace) {
        std::vector<double> setups;
        double invocations = 0.0;
        double opSeconds = 0.0;
        for (unsigned n = 0; n == 0 || opSeconds < args.seconds; ++n) {
            const unsigned set = n % kInputSets;
            wl->select(args.seed, set);
            for (unsigned r = 0; r < wl->setupRepeats(); ++r) {
                wl->teardown();
                const WallTimer setupTimer;
                wl->setup();
                setups.push_back(setupTimer.seconds());
            }
            const WallTimer opTimer;
            const OpOutput out = wl->op();
            const double sec = opTimer.seconds();
            opSeconds += sec;
            invocations += static_cast<double>(out.invocations);
            std::cerr << "op " << n << ": " << sec << " s\n";
            check(out, set, "operation");
        }
        // A shared host's memory speed drifts in phases of about a
        // minute; the rate over the whole run follows them a little less
        // than the median operation's rate does.
        metrics.push_back(
            {"invocations_per_s", invocations / opSeconds, "1/s"});
        metrics.push_back({"setup_s", median(setups), "s"});
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    } else {
        Tracer tracer;
        LayerCounts firstCounts;
        unsigned ops = 0;
        std::uint64_t allEvents = 0;
        double tracedWall = 0.0;
        double referenceWall = 0.0;
        const WallTimer runTimer;
        for (unsigned n = 0; n == 0 || runTimer.seconds() < args.seconds;
             ++n) {
            const unsigned set = n % kInputSets;
            wl->select(args.seed, set);
            const auto runReference = [&] {
                const WallTimer timer;
                const OpOutput ref = wl->reference();
                referenceWall += timer.seconds();
                check(ref, set, "reference");
            };
            // Alternate which side runs first, so neither always pays
            // for a cold start.
            if (n % 2 == 0)
                runReference();
            LayerCounts counts;
            const WallTimer tracedTimer;
            const OpOutput traced = wl->traced(tracer, counts);
            tracedWall += tracedTimer.seconds();
            check(traced, set, "traced");
            if (n % 2 == 1)
                runReference();
            if (n == 0)
                firstCounts = counts;
            allEvents += counts.events;
            ops += 1;
        }
        const std::map<std::string, SpanTotals> spans = tracer.totals();
        std::map<std::string, double> values;
        for (const auto &[name, unit] : layerMetricUnits())
            values[name] = 0.0;
        sharedLayerMetrics(spans, firstCounts, ops, allEvents, values);
        wl->layerMetrics(values);
        socMicro(wl->socConfig(), values);
        const double covered = tracer.mainThreadLayerSelfSeconds(kLayers);
        values["trace.overhead_s"] = (tracedWall - referenceWall) / ops;
        values["trace.coverage_pct"] = 100.0 * covered / tracedWall;
        values["trace.other_s"] = (tracedWall - covered) / ops;
        values["trace.spans"] = static_cast<double>(tracer.spanCount());
        if (values["trace.coverage_pct"] < 90.0) {
            failed += 1;
            std::cerr << "perfbench: spans cover only "
                      << values["trace.coverage_pct"]
                      << "% of the traced wall time\n";
        }
        for (const auto &[name, unit] : layerMetricUnits())
            metrics.push_back({name, values[name], unit});
        tracer.writeJson(args.workdir + "/spans-" + args.workload + "-" +
                         std::to_string(args.seed) + ".json");
    }

    std::cout << "digests {";
    for (const auto &[set, digest] : firstDigest)
        std::cout << (set ? ", " : "") << '"' << set << "\": \"" << digest
                  << '"';
    std::cout << "}\n";
    std::cout << "env {\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"threads\": " << wl->threads()
              << ", \"workload\": " << jsonString(args.workload)
              << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"commit\": " << jsonString(args.commit)
              << ", \"seed\": " << args.seed
              << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";

    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << metrics[i].value
           << ", \"unit\": " << jsonString(metrics[i].unit) << '}';
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
