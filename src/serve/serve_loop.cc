#include "serve/serve_loop.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "app/experiment.hh"
#include "app/fault.hh"
#include "app/training_driver.hh"
#include "policy/cohmeleon_policy.hh"
#include "rl/table_handle.hh"
#include "rt/runtime.hh"
#include "sim/atomic_file.hh"
#include "sim/logging.hh"
#include "sim/wall_timer.hh"
#include "soc/soc_presets.hh"

namespace cohmeleon::serve
{

namespace
{

/**
 * Frozen greedy reader of one pinned model generation. Serving
 * never explores (exploration lives in the background training
 * shards), so decisions are a pure function of (request, model) —
 * no per-request RNG, nothing shared between workers, and the
 * decide() stopwatch stays outside every decision input. Works for
 * any learned-model backend: features are sensed once and handed to
 * the model whole, so tabular reads reproduce the historic Q-table
 * lookups bit-exactly while feature backends see the raw inputs.
 */
class ServingPolicy final : public rt::CoherencePolicy
{
  public:
    explicit ServingPolicy(const rl::Model &model) : model_(model) {}

    coh::CoherenceMode
    decide(const rt::DecisionContext &ctx,
           std::uint64_t &tagOut) override
    {
        const WallTimer timer;
        const rl::ModelFeatures f = rl::ModelFeatures::fromInputs(
            policy::CohmeleonPolicy::senseInputs(ctx));
        const unsigned state = f.state;
        const unsigned action = model_.bestAction(f, ctx.availableModes);
        tagOut = static_cast<std::uint64_t>(state) * rl::kNumActions +
                 action;
        if (!decided_) {
            state_ = state;
            action_ = action;
            decided_ = true;
        }
        decideSeconds_ += timer.seconds();
        return static_cast<coh::CoherenceMode>(action);
    }

    std::string_view name() const override { return "cohmeleon-serve"; }

    unsigned state() const { return state_; }
    unsigned action() const { return action_; }
    double decideSeconds() const { return decideSeconds_; }

  private:
    const rl::Model &model_;
    unsigned state_ = 0;
    unsigned action_ = 0;
    bool decided_ = false;
    double decideSeconds_ = 0.0;
};

/** The single-invocation application one request simulates. */
app::AppSpec
requestApp(const ServeRequest &req)
{
    app::ChainStep step;
    step.accName = req.accName;
    step.footprintBytes = req.footprintBytes;
    app::ThreadSpec thread;
    thread.chain.push_back(std::move(step));
    thread.loops = 1;
    app::PhaseSpec phase;
    phase.name = "serve";
    phase.threads.push_back(std::move(thread));
    app::AppSpec spec;
    spec.name = "req" + std::to_string(req.seq);
    spec.phases.push_back(std::move(phase));
    return spec;
}

/** The training options of generation @p gen: the spec's cadence
 *  with seeds derived from (seed, generation), so every generation's
 *  fresh shard models are a pure function of (spec, gen). */
app::TrainingOptions
generationOptions(const ServeSpec &spec, std::uint64_t gen)
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
    return opts;
}

/**
 * The session's training work, shared by the trainer and the
 * decision workers. Every generation the session trains is
 * spec.trainShards independent (generation, shard) jobs, numbered in
 * (generation, shard) order and claimed from one counter by
 *
 *   - the trainer, for the generation it folds next, and
 *   - any worker whose request waits on an unpublished generation:
 *     it trains the next job instead of blocking, then re-checks.
 *
 * The trainer alone takes finished shards back, in job order, and
 * folds them. At most spec.threads + 1 jobs (the lookahead window)
 * are claimed but not yet taken, so finished shard models never pile
 * up however long the session runs.
 *
 * Publication is mirrored here (ready_), so a worker waits for "my
 * generation, a job to run, or the drain" on one condition variable.
 * The drain latches under the same mutex: afterwards nothing is
 * claimed or marked published, so the generations workers may serve
 * are frozen and the served requests stay a prefix of the trace.
 */
class TrainingJobs
{
  public:
    /** Jobs for generations [firstTrained, endGen); the first
     *  @p ready generations are already published. */
    TrainingJobs(const ServeSpec &spec, const soc::SocConfig &cfg,
                 std::uint64_t firstTrained, std::uint64_t endGen,
                 std::uint64_t ready)
        : spec_(spec), cfg_(cfg), firstGen_(firstTrained),
          jobs_(endGen > firstTrained
                    ? (endGen - firstTrained) * spec.trainShards
                    : 0),
          slots_(spec.threads + 1), ready_(ready)
    {
    }

    /** Worker side: true once generation @p gen is published, false
     *  when the session drains first. Trains jobs while it waits. */
    bool
    awaitGeneration(std::uint64_t gen)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (gen >= ready_) {
            if (draining())
                return false;
            if (claimable())
                runNext(lock);
            else
                cv_.wait_for(lock, kStopPoll);
        }
        return true;
    }

    /**
     * Trainer side: generation @p gen's fresh model, its shards
     * folded in shard-index order; the trainer runs that
     * generation's unclaimed jobs itself. Empty on drain.
     */
    std::optional<rl::Model>
    foldGeneration(std::uint64_t gen)
    {
        app::TrainingResult fold = app::beginFold(
            generationOptions(spec_, gen), spec_.trainShards);
        for (unsigned i = 0; i < spec_.trainShards; ++i) {
            std::optional<app::TrainedShard> shard = takeNext();
            if (!shard)
                return std::nullopt;
            app::foldShard(fold, *shard);
        }
        return std::move(fold.checkpoint.model);
    }

    /** Trainer side: generation @p gen is published. False when the
     *  drain came first, and the workers will not see it. */
    bool
    markPublished(std::uint64_t gen)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining())
            return false;
        ready_ = gen + 1;
        cv_.notify_all();
        return true;
    }

    /** Latch the drain and wake every waiter. */
    void
    stop()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
        cv_.notify_all();
    }

    /** Jobs claimed so far (every claimed job runs to completion). */
    std::uint64_t
    claimed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return claimed_;
    }

  private:
    /** How often a waiter re-checks the asynchronous stop latch. */
    static constexpr std::chrono::milliseconds kStopPoll{20};

    /** Latch the campaign stop flag (set from signal handlers and
     *  failing threads) into stopped_. Caller holds mutex_. */
    bool
    draining()
    {
        if (!stopped_ && app::campaignStopRequested()) {
            stopped_ = true;
            cv_.notify_all();
        }
        return stopped_;
    }

    /** Whether another job may be claimed. Caller holds mutex_ and
     *  has checked draining(). */
    bool
    claimable() const
    {
        return claimed_ < jobs_ &&
               claimed_ - taken_ < slots_.size();
    }

    /** Claim and run the next job outside the lock; park its shard in
     *  the job's window slot. */
    void
    runNext(std::unique_lock<std::mutex> &lock)
    {
        const std::uint64_t job = claimed_++;
        const std::uint64_t gen = firstGen_ + job / spec_.trainShards;
        lock.unlock();
        app::TrainedShard shard =
            app::trainShard(cfg_, generationOptions(spec_, gen),
                            job % spec_.trainShards);
        lock.lock();
        slots_[job % slots_.size()] = std::move(shard);
        cv_.notify_all();
    }

    /** The next shard in job order, for the fold. */
    std::optional<app::TrainedShard>
    takeNext()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const std::uint64_t job = taken_;
        // The trainer trains only the generation it folds, so it is
        // free to fold the moment a worker lands that generation's
        // last shard.
        const std::uint64_t genEnd =
            (job / spec_.trainShards + 1) * spec_.trainShards;
        std::optional<app::TrainedShard> &slot =
            slots_[job % slots_.size()];
        while (job >= claimed_ || !slot) {
            if (draining())
                return std::nullopt;
            if (claimed_ < genEnd && claimable())
                runNext(lock);
            else
                cv_.wait_for(lock, kStopPoll);
        }
        std::optional<app::TrainedShard> shard = std::move(slot);
        slot.reset();
        ++taken_;
        cv_.notify_all();
        return shard;
    }

    const ServeSpec &spec_;
    const soc::SocConfig &cfg_;
    const std::uint64_t firstGen_; ///< generation of job 0
    const std::uint64_t jobs_;     ///< jobs in the whole session

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    /** Finished, not yet taken shards: job j parks in j % size. */
    std::vector<std::optional<app::TrainedShard>> slots_;
    std::uint64_t claimed_ = 0; ///< next job to claim
    std::uint64_t taken_ = 0;   ///< next job to fold
    std::uint64_t ready_;       ///< generations workers may serve
    bool stopped_ = false;
};

} // namespace

std::string
renderDecisionLog(const ServeSpec &spec,
                  const std::vector<ServeRequest> &trace,
                  const ServeResult &result)
{
    std::ostringstream os;
    os.precision(17);
    os << "cohmeleon-serve-log 1\n";
    os << "serve " << spec.name << '\n';
    os << "soc " << spec.soc << '\n';
    os << "seed " << spec.seed << '\n';
    os << "requests " << spec.requests << '\n';
    os << "swap-interval " << spec.swapInterval << '\n';
    os << "generations " << result.generations << '\n';
    os << "tenants ";
    for (std::size_t i = 0; i < spec.tenants.size(); ++i)
        os << (i ? "," : "") << spec.tenants[i].label;
    os << '\n';
    for (std::uint64_t seq = 0; seq < result.served; ++seq) {
        const RequestOutcome &o = result.outcomes[seq];
        const ServeRequest &req = trace[seq];
        os << "req " << seq << " tenant "
           << spec.tenants[o.tenant].label << " acc " << req.accName
           << " bytes " << req.footprintBytes << " gen "
           << o.generation << " state " << o.state << " mode "
           << coh::toString(o.mode) << " reward " << o.reward << '\n';
    }
    os << "end served " << result.served << '\n';
    return os.str();
}

ServeResult
runServe(const ServeSpec &spec)
{
    validateServeSpec(spec);
    const WallTimer sessionTimer;
    const soc::SocConfig cfg = soc::makeSocByName(spec.soc);
    const std::vector<ServeRequest> trace =
        generateRequestTrace(spec, cfg);

    // Generation 0 and, when staged, 1 come from a loaded serving
    // checkpoint (taken as-is); every other generation is trained.
    std::optional<policy::ServeState> loaded;
    if (!spec.loadState.empty()) {
        loaded = policy::ServeState::loadFile(spec.loadState);
        fatalIf(!(loaded->serving.spec() == spec.model), "serve state '",
                spec.loadState, "' holds a '",
                rl::toString(loaded->serving.spec()),
                "' model but the spec serves '",
                rl::toString(spec.model), "'");
    }
    generationOptions(spec, 0).validate();

    ServeResult result;
    result.requested = spec.requests;
    result.generations = generationCount(spec);
    result.outcomes.resize(trace.size());
    result.tenants.resize(spec.tenants.size());
    for (std::size_t t = 0; t < spec.tenants.size(); ++t)
        result.tenants[t].label = spec.tenants[t].label;

    rl::SwapTableHandle handle(generationReadQuota(trace, spec));
    const std::uint64_t maxGen = result.generations - 1;
    const std::uint64_t firstGen = loaded ? 1 : 0;
    const rl::Model *preStaged =
        loaded && loaded->hasStaging ? &loaded->staging : nullptr;
    const std::uint64_t firstTrained = preStaged ? 2 : firstGen;
    if (loaded)
        handle.publish(0, loaded->serving);
    TrainingJobs jobs(spec, cfg, firstTrained, maxGen + 1, firstGen);

    std::atomic<std::uint64_t> cursor{0};
    std::mutex errorMutex;
    std::string firstError;
    const auto recordError = [&](const std::string &what) {
        {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (firstError.empty())
                firstError = what;
        }
        app::requestCampaignStop();
    };

    // The pacing baseline: arrival offsets delay when a request
    // starts, but never reach a decision or the log.
    // determinism: allow(wall-clock, open-loop pacing baseline - delays work only, results stay pure functions of the spec)
    const auto runStart = std::chrono::steady_clock::now();

    // ---- trainer: folds and publishes every generation in order -----
    std::thread trainer([&] {
        try {
            rl::Model current =
                loaded ? loaded->serving : rl::Model(spec.model);
            for (std::uint64_t gen = firstGen; gen <= maxGen; ++gen) {
                if (gen == 1 && preStaged) {
                    current = *preStaged;
                } else {
                    std::optional<rl::Model> fresh =
                        jobs.foldGeneration(gen);
                    if (!fresh)
                        break; // drained
                    if (gen == 0)
                        current = std::move(*fresh);
                    else
                        current.merge(*fresh, spec.merge);
                }
                if (!handle.publish(gen, current) ||
                    !jobs.markPublished(gen))
                    break; // drain cancelled the remaining swaps
            }
        } catch (const std::exception &e) {
            recordError(std::string("serve trainer failed: ") +
                        e.what());
            handle.abortWaits();
        }
    });

    // ---- decision workers -------------------------------------------
    std::vector<LogHistogram> decisionLocal(spec.threads);
    std::vector<LogHistogram> serviceLocal(spec.threads);
    std::vector<std::thread> workers;
    workers.reserve(spec.threads);
    for (unsigned w = 0; w < spec.threads; ++w) {
        workers.emplace_back([&, w] {
            try {
                while (true) {
                    if (app::campaignStopRequested())
                        break;
                    const std::uint64_t seq = cursor.fetch_add(1);
                    if (seq >= trace.size())
                        break;
                    const ServeRequest &req = trace[seq];
                    if (spec.arrivalRate > 0.0) {
                        // Open-loop pacing: hold the request until
                        // its virtual arrival offset from runStart.
                        std::this_thread::sleep_until(
                            runStart + std::chrono::duration<double>(
                                           req.arrivalSec));
                    }
                    // Train while the generation is not out yet; a
                    // drain drops the request unserved.
                    if (!jobs.awaitGeneration(req.generation))
                        break;
                    const rl::Model &model =
                        handle.acquire(req.generation);
                    ServingPolicy policy(model);
                    const WallTimer serviceTimer;
                    const app::AppResult run = app::runPolicyOnApp(
                        policy, cfg, requestApp(req),
                        /*collectRecords=*/true);
                    const double serviceSec = serviceTimer.seconds();
                    handle.release(req.generation);

                    panic_if(run.phases.size() != 1 ||
                                 run.phases[0].invocations.size() != 1,
                             "request app must produce exactly one "
                             "invocation");
                    const rt::InvocationRecord &rec =
                        run.phases[0].invocations[0];
                    RequestOutcome &out = result.outcomes[seq];
                    out.served = true;
                    out.tenant = req.tenant;
                    out.generation = req.generation;
                    out.state = policy.state();
                    out.action = policy.action();
                    out.mode = rec.mode;
                    out.acc = static_cast<std::uint32_t>(rec.acc);
                    out.footprintBytes = req.footprintBytes;
                    out.measure =
                        policy::CohmeleonPolicy::measureOf(rec);
                    decisionLocal[w].record(policy.decideSeconds());
                    serviceLocal[w].record(serviceSec);
                }
            } catch (const std::exception &e) {
                recordError(std::string("serve worker failed: ") +
                            e.what());
            }
        });
    }

    for (std::thread &t : workers)
        t.join();
    const bool interrupted = app::campaignStopRequested();

    // Nobody will acquire another generation: stop the training jobs,
    // release the trainer from swaps with no remaining readers, then
    // reap it.
    jobs.stop();
    handle.abortWaits();
    trainer.join();

    {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError.empty())
            fatal(firstError);
    }

    // ---- deterministic post-drain accounting ------------------------
    // A drain drops the claimed requests whose generation was still
    // training; generations only grow along the trace, so the served
    // requests are a prefix of it.
    std::uint64_t served = 0;
    while (served < trace.size() && result.outcomes[served].served)
        ++served;
    for (std::uint64_t seq = served; seq < trace.size(); ++seq)
        panic_if(result.outcomes[seq].served, "request ", seq,
                 " served past the drained prefix ", served);
    result.served = served;
    result.interrupted = interrupted && served < trace.size();
    result.hotSwaps = handle.publishedGen();
    result.trainingJobs = jobs.claimed();

    // Per-tenant attribution folds in trace order, so tenant reward
    // histories are independent of which worker served what.
    std::vector<rl::RewardTracker> trackers(spec.tenants.size());
    for (std::uint64_t seq = 0; seq < served; ++seq) {
        RequestOutcome &out = result.outcomes[seq];
        panic_if(!out.served,
                 "claimed request ", seq, " was never served");
        out.reward = trackers[out.tenant].reward(out.acc, out.measure,
                                                 spec.weights);
        result.tenants[out.tenant].served += 1;
        result.tenants[out.tenant].rewardSum += out.reward;
    }

    for (unsigned w = 0; w < spec.threads; ++w) {
        result.decisionLatency.merge(decisionLocal[w]);
        result.serviceLatency.merge(serviceLocal[w]);
    }

    // Serving + staging snapshot: the elder live buffer serves, the
    // younger (when the trainer ran ahead of the drain) is staged
    // for the next session's generation 1. None when the session
    // drained before generation 0 was trained.
    if (handle.live()) {
        policy::ServeState &state = result.state.emplace();
        const std::uint64_t published = result.hotSwaps;
        const std::uint64_t lastServedGen =
            served == 0 ? 0 : trace[served - 1].generation;
        if (published <= lastServedGen) {
            state.servingGen = published;
            state.serving = handle.tableAt(published);
        } else {
            state.servingGen = published - 1;
            state.serving = handle.tableAt(published - 1);
            state.hasStaging = true;
            state.staging = handle.tableAt(published);
        }
    }

    result.decisionLog = renderDecisionLog(spec, trace, result);
    if (!spec.decisionLog.empty())
        atomicWriteFile(spec.decisionLog, result.decisionLog);
    if (!spec.saveState.empty() && result.state)
        result.state->saveFile(spec.saveState);
    result.wallSeconds = sessionTimer.seconds();
    return result;
}

} // namespace cohmeleon::serve
