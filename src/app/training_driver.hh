/**
 * @file
 * Training at scale: deterministic parallel Q-learning across many
 * SoC instances.
 *
 * The paper trains one agent online on one SoC. To train orders of
 * magnitude more invocations, the driver splits training into a fixed
 * number of logical *shards*: shard i trains its own agent (seeded
 * experimentSeed(agentSeed, i), exploring per the configured
 * ExploreSpec) on its own random application instance (seeded
 * experimentSeed(trainSeed, i)) for the full decay schedule, and the
 * shard tables then fold into one model via the configured MergeSpec
 * (QTable::merge(), visit-weighted by default) in shard-index order.
 *
 * Thread-count invariance is by construction: the shard count is a
 * training parameter, the thread pool only decides *which thread*
 * runs each shard, every shard is an isolated single-threaded
 * simulation, and the sequential fold order is fixed. Training with
 * --train-jobs 1, 2, or 8 therefore produces byte-identical
 * checkpoints (tests/test_training.cc and test_parallel.cc assert
 * this).
 */

#ifndef COHMELEON_APP_TRAINING_DRIVER_HH
#define COHMELEON_APP_TRAINING_DRIVER_HH

#include <cstdint>
#include <vector>

#include "app/experiment.hh"
#include "app/parallel_runner.hh"
#include "policy/checkpoint.hh"

namespace cohmeleon::app
{

/** Knobs of one parallel training run. */
struct TrainingOptions
{
    unsigned iterations = 10; ///< passes per shard == decay horizon
    unsigned shards = 4;      ///< logical shards (NOT thread count)
    std::uint64_t trainSeed = 2021; ///< base seed for shard apps
    std::uint64_t agentSeed = 7;    ///< base seed for shard agents
    rl::RewardWeights weights;      ///< paper defaults
    /** How the shard tables fold into the merged model. */
    rl::MergeSpec merge;
    /** How every shard agent schedules exploration. */
    rl::ExploreSpec explore;
    /** Which learned-model backend every shard trains (and the fold
     *  produces). */
    rl::ModelSpec model;
    /** Shape of the per-shard training applications. */
    RandomAppParams appParams;
    /** Runtime perturbations applied to every shard SoC. */
    RuntimeKnobs knobs;

    TrainingOptions() { appParams = denseTrainingParams(); }

    /** @throws FatalError on zero shards or iterations, or an
     *  invalid merge/explore/model spec */
    void validate() const;
};

/** What one shard contributed to the merged model. */
struct ShardReport
{
    std::uint64_t seed = 0;         ///< the shard app's derived seed
    std::uint64_t invocations = 0;  ///< accelerator invocations run
    std::uint64_t qtableVisits = 0; ///< learn() updates applied
};

/** Everything one trained shard hands the fold. */
struct TrainedShard
{
    rl::Model model;
    rl::RewardTracker tracker;
    ShardReport report;
};

/** Outcome of TrainingDriver::train(). */
struct TrainingResult
{
    /** The merged model: frozen, schedule complete, with the summed
     *  visit counts and the merged reward history. */
    policy::PolicyCheckpoint checkpoint;
    std::vector<ShardReport> shards;
    std::uint64_t totalInvocations = 0;
};

/**
 * Train-freeze-evaluate driver over a ParallelRunner. The runner's
 * width controls wall time only, never results.
 */
class TrainingDriver
{
  public:
    explicit TrainingDriver(ParallelRunner &runner) : runner_(runner) {}

    /** Parallel sharded training; returns the merged frozen model. */
    TrainingResult train(const soc::SocConfig &cfg,
                         const TrainingOptions &opts);

    /** Evaluation split: restore @p checkpoint into a fresh policy
     *  and run @p evalApp on a fresh SoC. Pure function of
     *  (checkpoint, cfg, evalApp). */
    static AppResult evaluate(const policy::PolicyCheckpoint &checkpoint,
                              const soc::SocConfig &cfg,
                              const AppSpec &evalApp);

  private:
    ParallelRunner &runner_;
};

/**
 * One training pass: run @p trainApp once on a fresh SoC with
 * @p policy learning online, then advance the decay schedule. The
 * unit both trainCohmeleon() and the Figure-8 bench are built from.
 */
AppResult runTrainingIteration(policy::CohmeleonPolicy &policy,
                               const soc::SocConfig &cfg,
                               const AppSpec &trainApp);

/** runTrainingIteration() with runtime knobs applied to the fresh
 *  SoC (exact attribution, availability masks). */
AppResult runTrainingIteration(policy::CohmeleonPolicy &policy,
                               const soc::SocConfig &cfg,
                               const AppSpec &trainApp,
                               const RuntimeKnobs &knobs);

/**
 * The per-shard step: train global shard @p shard of a run on @p cfg
 * (agent seeded experimentSeed(opts.agentSeed, shard), app seeded
 * experimentSeed(opts.trainSeed, shard)) for the full decay
 * schedule. An isolated single-threaded simulation and a pure
 * function of (cfg, opts, shard), so any thread may run it.
 */
TrainedShard trainShard(const soc::SocConfig &cfg,
                        const TrainingOptions &opts, std::size_t shard);

/**
 * Start the fold of a run over @p total shards: validates @p opts and
 * returns the frozen checkpoint header with an empty model. Feed
 * every shard to foldShard() in global shard-index order.
 */
TrainingResult beginFold(const TrainingOptions &opts, std::size_t total);

/** Fold the next shard (in global shard-index order) into @p result
 *  under the checkpoint's merge strategy. */
void foldShard(TrainingResult &result, const TrainedShard &shard);

/**
 * Cross-SoC transfer training (the Figure-9-grid ROADMAP item):
 * opts.shards shards are trained on *each* of @p cfgs — shard seeds
 * derived from the global (config-major) shard index, so every shard
 * sees a distinct application and exploration stream — and all
 * cfgs.size() x opts.shards tables fold into one model in global
 * index order. Like TrainingDriver::train(), the result is a pure
 * function of (cfgs, opts), never of @p runner's width.
 */
TrainingResult trainAcrossSocs(const std::vector<soc::SocConfig> &cfgs,
                               const TrainingOptions &opts,
                               ParallelRunner &runner);

} // namespace cohmeleon::app

#endif // COHMELEON_APP_TRAINING_DRIVER_HH
