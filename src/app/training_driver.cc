#include "app/training_driver.hh"

#include "sim/logging.hh"

namespace cohmeleon::app
{

AppResult
runTrainingIteration(policy::CohmeleonPolicy &policy,
                     const soc::SocConfig &cfg, const AppSpec &trainApp)
{
    return runTrainingIteration(policy, cfg, trainApp, RuntimeKnobs{});
}

AppResult
runTrainingIteration(policy::CohmeleonPolicy &policy,
                     const soc::SocConfig &cfg, const AppSpec &trainApp,
                     const RuntimeKnobs &knobs)
{
    soc::Soc soc(cfg);
    rt::EspRuntime runtime(soc, policy);
    knobs.applyTo(soc, runtime);
    AppRunner runner(soc, runtime);
    runner.setCollectRecords(false);
    AppResult result = runner.runApp(trainApp);
    policy.onIterationEnd();
    return result;
}

void
TrainingOptions::validate() const
{
    fatalIf(shards == 0, "training needs at least one shard");
    fatalIf(iterations == 0, "training needs at least one iteration");
    merge.validate();
    explore.validate();
    model.validate();
}

TrainedShard
trainShard(const soc::SocConfig &cfg, const TrainingOptions &opts,
           std::size_t shard)
{
    policy::CohmeleonParams params;
    params.weights = opts.weights;
    params.agent.decayIterations = opts.iterations;
    params.agent.seed = experimentSeed(opts.agentSeed, shard);
    params.agent.explore = opts.explore;
    params.agent.model = opts.model;
    policy::CohmeleonPolicy policy(params);

    const std::uint64_t appSeed = experimentSeed(opts.trainSeed, shard);
    const AppSpec app =
        generateRandomApp(cfg, Rng(appSeed), opts.appParams);

    for (unsigned it = 0; it < opts.iterations; ++it)
        runTrainingIteration(policy, cfg, app, opts.knobs);

    TrainedShard out;
    out.model = policy.agent().model();
    out.tracker = policy.rewardTracker();
    out.report.seed = appSeed;
    out.report.invocations =
        static_cast<std::uint64_t>(app.totalInvocations()) *
        opts.iterations;
    out.report.qtableVisits = out.model.totalVisits();
    return out;
}

TrainingResult
beginFold(const TrainingOptions &opts, std::size_t total)
{
    opts.validate();
    TrainingResult result;
    policy::PolicyCheckpoint &c = result.checkpoint;
    c.weights = opts.weights;
    c.agent.decayIterations = opts.iterations;
    c.agent.seed = opts.agentSeed;
    c.agent.explore = opts.explore;
    c.agent.model = opts.model;
    c.merge = opts.merge;
    c.iteration = opts.iterations;
    c.frozen = true;
    c.model = rl::Model(opts.model);
    // The merged model's evaluation stream: a fresh stream derived
    // past the shard range, a pure function of the options.
    c.rngState = Rng(experimentSeed(opts.agentSeed, total)).state();
    return result;
}

void
foldShard(TrainingResult &result, const TrainedShard &shard)
{
    policy::PolicyCheckpoint &c = result.checkpoint;
    c.model.merge(shard.model, c.merge);
    c.tracker.mergeFrom(shard.tracker);
    result.shards.push_back(shard.report);
    result.totalInvocations += shard.report.invocations;
}

TrainingResult
TrainingDriver::train(const soc::SocConfig &cfg,
                      const TrainingOptions &opts)
{
    // The single-SoC driver is the one-config transfer: same shard
    // seeds (global index == shard index), same fold, same rngState
    // derivation, byte-identical checkpoints.
    return trainAcrossSocs({cfg}, opts, runner_);
}

TrainingResult
trainAcrossSocs(const std::vector<soc::SocConfig> &cfgs,
                const TrainingOptions &opts, ParallelRunner &runner)
{
    fatalIf(cfgs.empty(), "training needs at least one SoC");
    const std::size_t total = cfgs.size() * opts.shards;
    TrainingResult result = beginFold(opts, total);

    // One flat fan-out over the (config, shard) grid. Each shard is
    // an isolated single-threaded simulation seeded by its global
    // (config-major) index — a pure function of (cfgs, opts, index),
    // so the pool width is invisible in the results and no two
    // shards anywhere share an app or an exploration stream.
    const std::vector<TrainedShard> shards = runner.map<TrainedShard>(
        total, [&](std::size_t i) {
            return trainShard(cfgs[i / opts.shards], opts, i);
        });

    // Sequential fold in global shard order — the one place order
    // matters, and it is fixed here, never by the scheduler.
    for (const TrainedShard &s : shards)
        foldShard(result, s);
    return result;
}

AppResult
TrainingDriver::evaluate(const policy::PolicyCheckpoint &checkpoint,
                         const soc::SocConfig &cfg,
                         const AppSpec &evalApp)
{
    const std::unique_ptr<policy::CohmeleonPolicy> policy =
        checkpoint.makePolicy();
    return runPolicyOnApp(*policy, cfg, evalApp);
}

} // namespace cohmeleon::app
