/**
 * @file
 * Deterministic open-loop request trace for the serving loop.
 *
 * The whole trace — which tenant each request belongs to, which
 * accelerator it invokes with what footprint, its virtual arrival
 * time, and which model generation must decide it — is generated up
 * front as a pure function of (ServeSpec, SoC config). Workers then
 * claim trace slots in sequence order, so replaying the same spec
 * produces the same decisions at any thread count: nothing about a
 * request depends on when or on which thread it is served.
 *
 * Tenant draws come from one stream RNG (seeded by spec.seed); each
 * request's content comes from its own RNG derived via
 * experimentSeed(tenant stream, index within tenant), mirroring how
 * the sweep drivers isolate per-experiment streams. `random` tenants
 * draw an accelerator uniformly and a footprint from the standard
 * size-class mix; figure tenants replay their app's invocations
 * round-robin.
 *
 * The generation schedule is the determinism half of the hot-swap
 * contract: request seq is decided by generation seq / swapInterval
 * (capped at the final generation), never by "whichever table is
 * current", so the swap points sit at the same request boundaries in
 * every run.
 */

#ifndef COHMELEON_SERVE_REQUEST_GEN_HH
#define COHMELEON_SERVE_REQUEST_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_spec.hh"
#include "soc/soc.hh"

namespace cohmeleon::serve
{

/** One request in the arrival stream. */
struct ServeRequest
{
    std::uint64_t seq = 0;         ///< position in the stream
    unsigned tenant = 0;           ///< index into spec.tenants
    std::uint64_t seqInTenant = 0; ///< position in the tenant's stream
    std::string accName;           ///< target accelerator instance
    std::uint64_t footprintBytes = 0;
    /** Virtual arrival offset in seconds (pacing only; 0 when the
     *  stream is unpaced). Never influences a decision. */
    double arrivalSec = 0.0;
    /** Model generation that must decide this request. */
    std::uint64_t generation = 0;
};

/** Generation of request @p seq under @p spec's swap schedule:
 *  seq / swapInterval, capped at the last generation a full run
 *  reaches. */
std::uint64_t generationOf(std::uint64_t seq, const ServeSpec &spec);

/** Number of model generations a full run of @p spec serves
 *  (generation 0 plus one per complete swap interval boundary). */
std::uint64_t generationCount(const ServeSpec &spec);

/**
 * Generate the full trace for @p spec on SoC @p cfg (the spec's
 * preset). Requests name accelerators by cfg.accNames(), the names a
 * Soc built from @p cfg gives its instances.
 * @throws FatalError when @p cfg is inconsistent (SocConfig::validate)
 *         or a figure tenant's app references an accelerator the
 *         serving SoC does not have
 */
std::vector<ServeRequest>
generateRequestTrace(const ServeSpec &spec, const soc::SocConfig &cfg);

/** acquire() quota per generation for the swap-table handle: how
 *  many of @p trace's requests each generation decides. */
std::vector<std::uint64_t>
generationReadQuota(const std::vector<ServeRequest> &trace,
                    const ServeSpec &spec);

} // namespace cohmeleon::serve

#endif // COHMELEON_SERVE_REQUEST_GEN_HH
