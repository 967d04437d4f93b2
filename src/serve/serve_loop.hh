/**
 * @file
 * The long-lived policy service: a multi-threaded decision loop over
 * the deterministic request trace, backed by the double-buffered
 * Q-table handle, with background training hot-swapping fresh models
 * in at fixed request boundaries.
 *
 * Execution shape (spec.threads + 1 threads, no more):
 *
 *   - N worker threads claim trace slots from one atomic cursor (so
 *     the claimed set is always a sequence prefix), pin the request's
 *     assigned model generation via SwapTableHandle::acquire(), run
 *     the single-invocation request app on a fresh SoC (the same
 *     runPolicyOnApp() isolation the sweep drivers use), and record
 *     the outcome into the request's pre-sized slot — completion
 *     order never matters.
 *   - Training is a shared claim queue of (generation, shard) jobs:
 *     generation g's fresh shard models depend only on (spec, g), so
 *     they can be trained ahead. The trainer thread claims the jobs
 *     of the generation it folds next; a worker whose request's
 *     generation is not yet published trains the next job instead of
 *     blocking, then re-checks. At most threads + 1 jobs are claimed
 *     but not yet folded (the lookahead window), so memory does not
 *     grow with the session.
 *   - The trainer alone folds: each generation's shards in
 *     shard-index order into a fresh model, merged into the previous
 *     generation under the spec's merge strategy; then publish()
 *     swaps it into service, strictly in generation order. Without a
 *     loaded state, generation 0 is trained through the same queue;
 *     a loaded staged generation 1 is taken as-is.
 *   - SIGINT/SIGTERM drain reuses the campaign latch: workers stop
 *     claiming requests, nothing claims another training job,
 *     in-flight requests and jobs finish, a request still waiting on
 *     an untrained generation is dropped (so the served requests stay
 *     a trace prefix), and everything measured so far is reported
 *     (exit code 130 at the CLI, like campaigns).
 *
 * Determinism: every decision is a pure function of (request,
 * generation table), the generation schedule is fixed by the spec,
 * and per-tenant rewards fold sequentially in trace order after the
 * drain — so the decision log is byte-identical at any thread count.
 * Who trained a job, and whether a worker trained before serving,
 * changes latency only: wall-clock touches latency stats
 * (LogHistogram) and pacing, never a decision.
 */

#ifndef COHMELEON_SERVE_SERVE_LOOP_HH
#define COHMELEON_SERVE_SERVE_LOOP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coh/coherence_mode.hh"
#include "policy/serve_state.hh"
#include "rl/reward.hh"
#include "serve/request_gen.hh"
#include "serve/serve_spec.hh"
#include "sim/histogram.hh"

namespace cohmeleon::serve
{

/** What serving one request decided and measured. */
struct RequestOutcome
{
    bool served = false;
    unsigned tenant = 0;
    std::uint64_t generation = 0; ///< model generation that decided
    unsigned state = 0;           ///< encoded Q-table row
    unsigned action = 0;          ///< chosen action index
    coh::CoherenceMode mode = coh::CoherenceMode::kNonCohDma;
    std::uint32_t acc = 0;        ///< target accelerator id
    std::uint64_t footprintBytes = 0;
    rl::InvocationMeasure measure; ///< reward inputs
    double reward = 0.0;           ///< per-tenant attributed reward
};

/** Per-tenant attribution totals. */
struct TenantOutcome
{
    std::string label;
    std::uint64_t served = 0;
    double rewardSum = 0.0;
};

/** Everything a serve session produced. */
struct ServeResult
{
    std::uint64_t requested = 0;
    std::uint64_t served = 0; ///< == requested unless interrupted
    bool interrupted = false;

    std::uint64_t generations = 0; ///< schedule length (>= 1)
    std::uint64_t hotSwaps = 0;    ///< generations actually published
    /** (generation, shard) training jobs claimed. Each claimed job
     *  runs to completion; none is claimed once a drain begins. */
    std::uint64_t trainingJobs = 0;

    std::vector<RequestOutcome> outcomes; ///< slot per request (seq)
    std::vector<TenantOutcome> tenants;

    /** Canonical decision log: byte-identical across thread counts
     *  for the same spec (latencies deliberately excluded). */
    std::string decisionLog;

    LogHistogram decisionLatency; ///< seconds per decide()
    LogHistogram serviceLatency;  ///< seconds per request simulation
    double wallSeconds = 0.0;     ///< whole-session stopwatch

    /** Serving + staging snapshot at drain (spec.saveState target);
     *  empty when the session drained before generation 0 existed. */
    std::optional<policy::ServeState> state;
};

/**
 * Run one serving session to completion (or to a graceful drain when
 * the campaign stop latch trips). Callers wanting signal-driven
 * drain install the campaign handlers first, exactly like campaign
 * runs do.
 * @throws FatalError on an invalid spec or unloadable state file
 */
ServeResult runServe(const ServeSpec &spec);

/** Render @p result's canonical decision log text (exposed for
 *  tests; runServe() already fills result.decisionLog with it). */
std::string renderDecisionLog(const ServeSpec &spec,
                              const std::vector<ServeRequest> &trace,
                              const ServeResult &result);

} // namespace cohmeleon::serve

#endif // COHMELEON_SERVE_SERVE_LOOP_HH
