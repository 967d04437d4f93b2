/**
 * @file
 * Declarative description of one serving session: the open-loop
 * request stream (tenant mix, arrival pacing, seeds), the decision
 * loop's width, and the background training cadence (swap interval,
 * per-generation shard/iteration counts, merge/explore strategies).
 *
 * Everything downstream — the request trace, the generation
 * schedule, every trained model — is a pure function of this spec,
 * which is what lets the same serve run replay byte-identically at
 * any thread count (`threads` and `arrival-rate` affect wall-clock
 * behaviour only, never a decision).
 *
 * The text form follows the scenario/campaign grammar ('#' comments,
 * 'key = value', line-numbered diagnostics, unknown keys are hard
 * errors):
 *
 *     serve = demo
 *     soc = soc1
 *     requests = 192
 *     threads = 2
 *     swap-interval = 64
 *     train = 3
 *     shards = 2
 *     merge = visit-weighted
 *     explore = linear
 *     model = tabular
 *     tenants = random, fig5
 *     tenant-weights = 2, 1
 *     arrival-rate = 0
 *     seed = 2024
 *
 * parse(serialize(x)) == x exactly (round-trip tested).
 */

#ifndef COHMELEON_SERVE_SERVE_SPEC_HH
#define COHMELEON_SERVE_SERVE_SPEC_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rl/learned_model.hh"
#include "rl/reward.hh"
#include "rl/strategy.hh"

namespace cohmeleon::app
{
struct ConfigLine;
} // namespace cohmeleon::app

namespace cohmeleon::serve
{

/** One request source in the tenant mix. */
struct TenantSpec
{
    /** "random" (seeded random single-invocation requests) or a
     *  registered figure app name (its invocations round-robin). */
    std::string source = "random";
    /** Relative share of the arrival stream (> 0). */
    double weight = 1.0;
    /** Display label ("t0-random"); derived, not a spec key. */
    std::string label;

    bool
    operator==(const TenantSpec &o) const
    {
        return source == o.source && weight == o.weight;
    }
};

/** One serving session (see the file comment). */
struct ServeSpec
{
    std::string name = "serve";
    std::string soc = "soc1"; ///< preset name (soc::makeSocByName)

    std::uint64_t requests = 192; ///< request budget for the session
    unsigned threads = 1;         ///< decision worker threads
    /** Requests per model generation: after every swapInterval
     *  requests the next background-trained model takes over. */
    std::uint64_t swapInterval = 64;

    unsigned trainIterations = 3; ///< per-generation training passes
    unsigned trainShards = 2;     ///< per-generation training shards
    rl::MergeSpec merge;          ///< how shard tables fold
    rl::ExploreSpec explore;      ///< shard exploration schedule
    rl::ModelSpec model;          ///< learned-model backend served
    rl::RewardWeights weights;    ///< reward attribution weights

    std::vector<TenantSpec> tenants; ///< default: random, random

    /** Open-loop arrival pacing in requests/sec; 0 serves unpaced.
     *  Wall-clock only — arrival times never reach a decision. */
    double arrivalRate = 0.0;

    std::uint64_t seed = 2024;      ///< tenant draw + request stream
    std::uint64_t trainSeed = 2021; ///< per-generation shard apps
    std::uint64_t agentSeed = 7;    ///< per-generation shard agents

    std::string loadState;   ///< resume from a serving checkpoint
    std::string saveState;   ///< persist the serving+staging state
    std::string decisionLog; ///< write the per-request decision log

    ServeSpec() : tenants(2) {}

    bool operator==(const ServeSpec &o) const;
};

/** Validate a tenant source name.
 *  @return empty on success, else a diagnostic listing the known
 *          values (random + the registered figure apps) */
std::string checkTenantSource(const std::string &source);

/** Derive the display labels ("t<i>-<source>") for @p spec's
 *  tenants. Idempotent; call after any tenant edit. */
void labelTenants(ServeSpec &spec);

/**
 * Semantic validation beyond parsing: counts positive and within
 * their caps (requests and swap-interval <= 1e8, train and shards
 * <= 1e5, threads <= 256), a known SoC preset, a non-empty tenant
 * mix with valid sources and positive finite weights, pacing in
 * [0, 1e9] requests/sec.
 * @throws FatalError with a one-line diagnostic on the first problem
 */
void validateServeSpec(const ServeSpec &spec);

/**
 * The per-key dispatch behind parseServeSpecString(), also fed the
 * CLI's `--KEY VALUE` flags on top of a base spec. `tenant-weights`
 * stays pending until build(), so it may precede `tenants`.
 */
class ServeSpecBuilder
{
  public:
    explicit ServeSpecBuilder(ServeSpec base = {})
        : spec_(std::move(base))
    {}

    /** Apply one key. @throws FatalError naming the line (when
     *  @p line has one) on a malformed value or an unknown key */
    void apply(const app::ConfigLine &line);

    /** The spec so far, pending tenant weights applied and tenants
     *  labelled (not yet validateServeSpec()ed).
     *  @throws FatalError when the weights do not match the tenants */
    ServeSpec build() const;

    /** The spec so far without the pending tenant weights. */
    const ServeSpec &spec() const { return spec_; }

  private:
    ServeSpec spec_;
    std::vector<double> weights_; ///< pending tenant-weights
    unsigned weightsLine_ = 0;
};

/** Parse the text form. @throws FatalError with "serve spec line N:
 *  ..." diagnostics on malformed input or unknown keys */
ServeSpec parseServeSpecString(const std::string &text);

/** Read and parse a serve spec file. @throws FatalError */
ServeSpec parseServeSpecFile(const std::string &path);

/** Canonical text form; parseServeSpecString(serialize(x)) == x. */
std::string serializeServeSpec(const ServeSpec &spec);

} // namespace cohmeleon::serve

#endif // COHMELEON_SERVE_SERVE_SPEC_HH
