/**
 * @file
 * Execution engine for the declarative scenario/campaign layer
 * (app/scenario.hh).
 *
 * CampaignRunner expands a CampaignSpec into independent cells,
 * optionally runs the cross-SoC transfer-training stage first
 * (shards trained on every [train] SoC, merged visit-weighted into
 * one model the cohmeleon evaluation cells restore frozen), fans the
 * cells over a ParallelRunner, and normalizes each (soc, seed,
 * shards) group against its baseline cell on the calling thread.
 * Every cell is an isolated single-threaded simulation that is a
 * pure function of its ScenarioSpec, and the normalization order is
 * fixed — so a campaign's results, including the rendered JSON, are
 * byte-identical for any --jobs value (tests assert this).
 *
 * The figure benches (fig3/fig9/ablation) are thin wrappers over
 * campaigns registered in namedCampaign(); their tables print from
 * CellResults with the pre-refactor bytes.
 */

#ifndef COHMELEON_APP_CAMPAIGN_RUNNER_HH
#define COHMELEON_APP_CAMPAIGN_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "app/fault.hh"
#include "app/parallel_runner.hh"
#include "app/scenario.hh"
#include "app/training_driver.hh"
#include "sim/json_writer.hh"

namespace cohmeleon::app
{

/** Per-accelerator averages of one concurrent (Figure-3 style) cell:
 *  mean wall cycles and mean attributed off-chip accesses per
 *  invocation. */
struct ConcurrentAccMean
{
    double exec = 0.0;
    double ddr = 0.0;
};

/** How a cell's policy got its model (for reporting). */
struct TrainSummary
{
    enum class Source : std::uint8_t
    {
        kNone,     ///< the policy does not learn
        kOnline,   ///< trained online inside the cell
        kSharded,  ///< sharded deterministic training inside the cell
        kLoaded,   ///< restored from a checkpoint file
        kTransfer, ///< the campaign's merged cross-SoC model
    };

    Source source = Source::kNone;
    std::uint64_t invocations = 0; ///< training invocations executed
    std::uint64_t qUpdates = 0;    ///< Q-table visits in the model
    std::uint64_t entriesCovered = 0;
    unsigned iteration = 0; ///< schedule position of the model
};

/** Measured outcome of one cell. */
struct CellResult
{
    ScenarioSpec scenario; ///< the fully resolved cell
    std::size_t group = 0; ///< normalization group index
    bool isBaseline = false;
    std::string appName; ///< evaluation application (protocol cells)

    /// Protocol cells:
    std::vector<PhaseResult> phases;
    std::vector<double> execNorm; ///< per phase, vs the group baseline
    std::vector<double> ddrNorm;

    /// Concurrent cells:
    std::vector<ConcurrentAccMean> accMeans;

    /** Aggregate normalized metrics vs the group baseline: geometric
     *  mean over phases (protocol) or arithmetic mean over the
     *  running accelerators (concurrent, as Figure 3 averages). */
    double geoExec = 1.0;
    double geoDdr = 1.0;

    TrainSummary training;
    std::string statsDump; ///< filled when scenario.captureStats

    /** Failure containment: a cell whose every attempt threw is
     *  recorded instead of aborting the campaign. */
    bool failed = false;
    std::string error;     ///< last attempt's diagnostic
    unsigned attempts = 1; ///< attempts executed (1 = first try won)
};

/** Everything a campaign produced, in expansion order. */
struct CampaignResult
{
    std::string name;
    std::vector<CellResult> cells;
    std::size_t groupCount = 0;

    /** Indices of @p group's cells, in expansion order. */
    std::vector<std::size_t> groupCells(std::size_t group) const;

    /** Adapt @p group's protocol cells to the PolicyOutcome shape the
     *  table printers consume. */
    std::vector<PolicyOutcome> groupOutcomes(std::size_t group) const;

    /** First cell whose scenario is named @p cellName (nullptr when
     *  absent). */
    const CellResult *find(const std::string &cellName) const;

    /** Number of cells recorded as contained failures. */
    std::size_t failureCount() const;

    /** Append the structured result to @p rep (deterministic: no
     *  timings, stable key order). */
    void report(JsonReporter &rep) const;

    /** The report() JSON as a string (for byte-level comparisons). */
    std::string json() const;
};

/**
 * The execution-harness options that are not campaign keys:
 * persistence, resumability, and the fleet's respawn patience (the
 * retry budget, fault plan and fleet knobs are CampaignSpec keys).
 * None of them changes what a cell computes — a resumed campaign
 * renders JSON byte-identical to an uninterrupted run of the same
 * spec.
 */
struct CampaignRunOptions
{
    /** Campaign state directory (cell results + manifest stream into
     *  it as cells complete). Empty = in-memory only. */
    std::string stateDir;

    /** Validate stateDir against the spec and skip the cells its
     *  manifest records as complete. Requires stateDir. */
    bool resume = false;

    /** How many abnormal worker deaths the supervisor replaces before
     *  giving up (throwing CampaignIncomplete once no worker is
     *  left). Fleet mode only; not spec-settable (it tunes the
     *  harness's patience, not the campaign). */
    unsigned respawnBudget = 8;
};

/** Expand-and-execute driver over a ParallelRunner. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(ParallelRunner &runner) : runner_(runner) {}

    /**
     * The campaign's cells in execution order: the cross-product of
     * the axes (policy-major within a group, acc-count innermost),
     * grouped by (soc, seed, shards, merge, explore); concurrent
     * campaigns prepend
     * their per-accelerator single-run baseline cells to each group;
     * explicit cells follow as one final group (and are the whole
     * campaign when no axis is given).
     */
    static std::vector<ScenarioSpec> expand(const CampaignSpec &spec);

    /** Run the whole campaign (transfer stage, cells, normalization).
     *  @throws FatalError on invalid specs */
    CampaignResult run(const CampaignSpec &spec);

    /**
     * run() with an execution harness: stream results into a state
     * directory, resume a prior run from its manifest, contain and
     * retry throwing cells, inject scripted faults. Throwing cells
     * become CellResult failure entries (check failureCount());
     * @throws CampaignInterrupted when SIGINT/SIGTERM stopped the
     * sweep with cells unrun (the manifest is flushed first), and
     * FatalError on invalid specs or a state dir that fails
     * validation.
     */
    CampaignResult run(const CampaignSpec &spec,
                       const CampaignRunOptions &opts);

  private:
    ParallelRunner &runner_;
};

/**
 * Execute one scenario cell in isolation — the CLI `run`
 * subcommand's unit. Pure function of @p spec (modulo the files it
 * reads/writes).
 */
CellResult runScenario(const ScenarioSpec &spec);

/**
 * The sharded-training knobs a scenario describes: iterations (at
 * least 1, as the protocol trains), shards, seeds, strategies, the
 * learned-model backend (a "cohmeleon@MODEL" policy overrides the
 * model key), the training-app shape and the runtime perturbations.
 */
TrainingOptions trainingOptionsOf(const ScenarioSpec &spec);

/**
 * Supervised multi-process campaign execution: fork
 * spec.workers worker processes (each runs runCampaignWorker() and
 * _Exit()s), then supervise — reap exits, reclaim the leases of dead
 * workers (bumping the cross-process attempt counter), respawn
 * abnormal deaths within opts.respawnBudget, SIGKILL workers whose
 * cell outlives spec.cellTimeoutSec, contain cells whose attempt
 * budget is exhausted as recorded failures, and forward
 * SIGINT/SIGTERM to the fleet so an interrupted run flushes and
 * resumes exactly like the in-process path.
 *
 * Call from a single-threaded process (it forks), with
 * opts.stateDir set and spec.workers > 0. On return every slot is in
 * the manifest; re-run CampaignRunner::run with resume=true and no
 * fault to assemble the result — byte-identical to an in-process run
 * by construction.
 *
 * @throws CampaignInterrupted on SIGINT/SIGTERM with cells unrun,
 *         CampaignIncomplete when the fleet died faster than the
 *         respawn budget with cells unrun, FatalError on invalid
 *         specs or a state directory another live fleet holds
 */
void superviseCampaignFleet(const CampaignSpec &spec,
                            const CampaignRunOptions &opts);

/**
 * One fleet worker's life: attach to opts.stateDir, then claim—run—
 * record—release cells until none are claimable or a stop is
 * requested. A background thread heartbeats the held lease's mtime.
 * Runs injected faults (crash/kill-worker/hang plans die for real).
 * Exposed for tests; superviseCampaignFleet() forks these.
 * @return the worker's exit code (0 = clean)
 */
int runCampaignWorker(const CampaignSpec &spec,
                      const CampaignRunOptions &opts);

/** Names of the registered campaigns ("fig3", "fig9", "ablation",
 *  "transfer", "smoke", "faulty"). */
const std::vector<std::string> &namedCampaignNames();
bool isNamedCampaign(const std::string &name);

/**
 * Look up a registered campaign. @p fullScale selects the paper-scale
 * variant where the figure benches distinguish one
 * (COHMELEON_BENCH_FULL).
 * @throws FatalError for unknown names
 */
CampaignSpec namedCampaign(const std::string &name, bool fullScale);

} // namespace cohmeleon::app

#endif // COHMELEON_APP_CAMPAIGN_RUNNER_HH
