/**
 * @file
 * The declarative experiment-description layer.
 *
 * The paper's evaluation is a grid — policies x SoC presets x app
 * instances x seeds (Figures 3-9) — and every sweep this repo runs is
 * a point set in that grid. A ScenarioSpec is one cell: which SoC
 * (preset plus optional inline cache-geometry tweaks), which
 * application (config file, random-generator parameters, or a
 * registered figure app), which policy, how Cohmeleon trains
 * (iterations, logical shards, checkpoint paths), which seeds, and
 * which runtime perturbations apply (availability masks, exact DDR
 * attribution). A CampaignSpec is a sweep: cross-products over SoCs,
 * policies, seeds, and shard counts, an explicit normalization
 * baseline, an optional cross-SoC transfer-training stage, and
 * optional hand-picked cells.
 *
 * Both have a line-oriented text format extending the application
 * config syntax ('#' comments, 'key = value', '[section]' headers;
 * see the .campaign files under examples/):
 *
 *     campaign = demo
 *     baseline = fixed-non-coh-dma
 *
 *     [scenario]            # the base cell every axis value overrides
 *     soc = soc1
 *     train = 10
 *
 *     [axes]                # cross-product axes
 *     policy = fixed-non-coh-dma, manual, cohmeleon
 *     seed = 2022, 3033
 *     merge = visit-weighted, recency@0.5, reward-norm
 *     explore = linear, floor@0.1
 *     model = tabular, perceptron:tables=16,bits=12
 *
 *     [train]               # optional: train-many-SoCs -> merge
 *     soc = soc0, soc1
 *
 *     [cell extra]          # optional: explicit cells
 *     policy = manual@16K
 *
 * Every diagnostic carries a line number and unknown keys are hard
 * errors, so a typo cannot silently drop an axis. parse(serialize(x))
 * reproduces x exactly (round-trip tested).
 */

#ifndef COHMELEON_APP_SCENARIO_HH
#define COHMELEON_APP_SCENARIO_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/fault.hh"
#include "app/random_app.hh"
#include "coh/coherence_mode.hh"
#include "rl/learned_model.hh"
#include "rl/strategy.hh"
#include "soc/soc_presets.hh"

namespace cohmeleon::app
{

struct ConfigLine;

/** What a cell measures. */
enum class WorkloadKind : std::uint8_t
{
    kProtocol,   ///< the paper's train+evaluate policy protocol
    kConcurrent, ///< Figure-3 style concurrent-accelerator loops
};

/** Where the evaluation application comes from. */
enum class AppSource : std::uint8_t
{
    kRandom, ///< generateRandomApp(evalSeed, appParams)
    kFile,   ///< parseAppSpec(appFile)
    kFigure, ///< a registered figure app (figureApp(figureName))
};

/** Shape of the training application relative to the evaluation one. */
enum class TrainAppShape : std::uint8_t
{
    kSameAsEval, ///< generated from appParams (the Figure-9 setup)
    kDense,      ///< denseTrainingParams() (the CLI/paper density)
};

/** Inline overrides applied on top of a SoC preset. */
struct SocTweaks
{
    std::optional<std::uint64_t> llcSliceBytes;
    std::optional<std::uint64_t> l2Bytes;
    std::optional<std::uint64_t> accL2Bytes;
    std::optional<unsigned> llcWays;
    std::optional<unsigned> l2Ways;
    std::optional<unsigned> accL2Ways;

    bool
    any() const
    {
        return llcSliceBytes || l2Bytes || accL2Bytes || llcWays ||
               l2Ways || accL2Ways;
    }

    bool operator==(const SocTweaks &) const = default;
};

/** One experiment cell. Field defaults mirror the CLI's. */
struct ScenarioSpec
{
    std::string name = "cell";

    // --- platform -------------------------------------------------------
    std::string soc = "soc1"; ///< preset name (soc::makeSocByName)
    SocTweaks socTweaks;      ///< inline config on top of the preset

    // --- workload -------------------------------------------------------
    WorkloadKind workload = WorkloadKind::kProtocol;
    AppSource appSource = AppSource::kRandom;
    std::string appFile;    ///< AppSource::kFile
    std::string figureName; ///< AppSource::kFigure
    RandomAppParams appParams;
    TrainAppShape trainApp = TrainAppShape::kSameAsEval;

    /// Concurrent workload (WorkloadKind::kConcurrent) only:
    unsigned accCount = 1; ///< first N accelerator instances run
    int accIndex = -1;     ///< >= 0: exactly this one instance runs
    std::uint64_t footprintBytes = 256 * 1024;
    unsigned loops = 3;

    // --- policy & training ---------------------------------------------
    std::string policy = "cohmeleon"; ///< may carry args ("manual@16K")
    unsigned trainIterations = 10;
    unsigned trainShards = 0; ///< 0 = online (unsharded) training
    /** How shard tables fold (sharded/transfer training). */
    rl::MergeSpec merge;
    /** Cohmeleon's exploration schedule. */
    rl::ExploreSpec explore;
    /** Cohmeleon's learned-model backend. A "cohmeleon@MODEL" policy
     *  string overrides it for that cell. */
    rl::ModelSpec model;
    std::string loadModel; ///< checkpoint path replacing training
    std::string saveModel; ///< persist the trained checkpoint
    /** Force-freeze a restored checkpoint (the CLI --eval split).
     *  When false, the checkpoint's own frozen flag decides —
     *  unfrozen checkpoints resume learning bit-exactly. */
    bool freezeLoaded = false;

    // --- seeds ----------------------------------------------------------
    std::uint64_t trainSeed = 2021;
    std::uint64_t evalSeed = 2022;
    std::uint64_t agentSeed = 7;

    // --- runtime perturbations -----------------------------------------
    /** Modes masked out of every tile (non-coh-dma not maskable). */
    coh::ModeMask disabledModes = 0;
    /** Per-instance masks, by accelerator instance name. */
    std::vector<std::pair<std::string, coh::ModeMask>> accDisabledModes;
    bool exactAttribution = false;

    // --- bookkeeping ----------------------------------------------------
    bool collectRecords = false; ///< keep per-invocation records
    bool captureStats = false;   ///< dump the SoC stats block

    bool operator==(const ScenarioSpec &) const = default;
};

/** The optional cross-SoC transfer-training stage of a campaign:
 *  shards trained on each listed SoC, merged visit-weighted into one
 *  model that every cohmeleon evaluation cell then restores frozen. */
struct TransferSpec
{
    std::vector<std::string> socs; ///< empty = no transfer stage
    unsigned iterations = 10;
    unsigned shardsPerSoc = 2;
    std::string saveModel; ///< optionally persist the merged model

    bool active() const { return !socs.empty(); }

    bool operator==(const TransferSpec &) const = default;
};

/** A sweep: cross-product axes over a base scenario. Empty axes
 *  default to the base scenario's value. */
struct CampaignSpec
{
    std::string name = "campaign";
    ScenarioSpec base;

    std::vector<std::string> socs;
    std::vector<std::string> policies;
    std::vector<std::uint64_t> seeds;    ///< evaluation seeds
    std::vector<unsigned> shardCounts;   ///< training shard counts
    std::vector<unsigned> accCounts;     ///< concurrent workloads only
    std::vector<rl::MergeSpec> merges;   ///< fold strategies
    std::vector<rl::ExploreSpec> explores; ///< exploration schedules
    std::vector<rl::ModelSpec> models;   ///< learned-model backends

    /**
     * Normalization baseline: the policy whose cell every other cell
     * in the same (soc, seed, shards) group is normalized against.
     * Empty = the group's first cell; "none" disables normalization.
     * Concurrent campaigns ignore it (they normalize against the
     * auto-generated single-accelerator non-coherent-DMA cells, as
     * Figure 3 does).
     */
    std::string baseline;

    TransferSpec transfer;

    /** Hand-picked cells (base overridden per cell). They form one
     *  final normalization group of their own. When no axis is given
     *  they are the whole campaign (the ablation layout). */
    std::vector<ScenarioSpec> cells;

    /** Execution-harness keys (`fault =`, `max-retries =`,
     *  `workers =`, `lease-ttl =`, `cell-timeout =`): a scripted
     *  fault, the per-cell retry budget for throwing cells, and the
     *  supervised worker-fleet knobs (process count, lease staleness
     *  TTL in seconds, per-cell watchdog timeout in seconds). All are
     *  cleared from the identity --resume validates against — they
     *  change how the campaign is driven, not what it computes, so a
     *  run may be resumed at any worker count. */
    FaultPlan fault;
    unsigned maxRetries = 0;
    unsigned workers = 0;        ///< 0 = in-process (no fleet)
    double leaseTtlSec = 0.0;    ///< 0 = the harness default (30s)
    double cellTimeoutSec = 0.0; ///< 0 = no watchdog

    bool operator==(const CampaignSpec &) const = default;
};

/** Build the cell's SocConfig: preset lookup + inline tweaks.
 *  @throws FatalError for unknown presets/inconsistent tweaks */
soc::SocConfig resolveSoc(const ScenarioSpec &spec);

/**
 * Parse one scenario (bare key lines, no sections).
 * @throws FatalError with a line number on malformed input,
 *         unknown keys included
 */
ScenarioSpec parseScenario(std::istream &is);
ScenarioSpec parseScenarioString(const std::string &text);

/**
 * The per-key dispatch behind parseScenario(), also fed the CLI's
 * `--KEY VALUE` flags, so a key has one parser and one diagnostic
 * wherever it is set.
 * @throws FatalError naming the line (when @p line has one)
 */
void applyScenarioKey(ScenarioSpec &spec, const ConfigLine &line);

/** The same for a campaign file's top-level keys: `campaign`,
 *  `baseline` and the execution-harness keys. */
void applyCampaignKey(CampaignSpec &spec, const ConfigLine &line);

/** Parse a campaign file (see the file comment for the format).
 *  @throws FatalError with a line number on malformed input */
CampaignSpec parseCampaign(std::istream &is);
CampaignSpec parseCampaignString(const std::string &text);

/** Canonical text renderings; parse(serialize(x)) == x. */
std::string serializeScenario(const ScenarioSpec &spec);
std::string serializeCampaign(const CampaignSpec &spec);

/** Registered figure applications ("fig5").
 *  @throws FatalError for unknown names */
AppSpec figureApp(const std::string &name);
const std::vector<std::string> &figureAppNames();

/**
 * Validate a policy name as the campaign/CLI layers accept it: the
 * eight standard names plus the parameterized "manual@SIZE" and
 * "cohmeleon@MODEL" forms (a thin wrapper over parsePolicyName()).
 * @return empty on success, else a diagnostic listing known forms
 */
std::string checkPolicyName(const std::string &name);

} // namespace cohmeleon::app

#endif // COHMELEON_APP_SCENARIO_HH
