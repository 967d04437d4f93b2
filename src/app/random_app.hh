/**
 * @file
 * Random evaluation-application generator.
 *
 * The paper's protocol trains Cohmeleon on "a randomly configured
 * instance of the evaluation application" and tests on a different
 * instance, both "designed to be as diverse as possible in terms of
 * operating conditions" (Section 5/6): phases vary in thread count,
 * workload-size classes, chain lengths, and loop counts.
 */

#ifndef COHMELEON_APP_RANDOM_APP_HH
#define COHMELEON_APP_RANDOM_APP_HH

#include "app/app_spec.hh"
#include "sim/rng.hh"

namespace cohmeleon::app
{

/** Shape of the generated applications. */
struct RandomAppParams
{
    unsigned phases = 4;
    unsigned minThreads = 1;
    unsigned maxThreads = 8; ///< capped at the SoC's accelerator count
    unsigned minChain = 1;
    unsigned maxChain = 3;
    unsigned maxLoops = 2;
    /** Workload-size class weights (S, M, L, XL). */
    double wS = 0.30;
    double wM = 0.30;
    double wL = 0.25;
    double wXL = 0.15;
    /** Relative jitter applied to each class's footprint. */
    double sizeJitter = 0.25;

    bool operator==(const RandomAppParams &) const = default;
};

/** Draw a size class according to the weights in @p p. */
SizeClass drawSizeClass(Rng &rng, const RandomAppParams &p);

/**
 * Generate one random application instance for SoC @p cfg. Chain
 * steps name accelerators by cfg.accNames(), the names a Soc built
 * from @p cfg gives its instances, so no Soc is needed to draw an app.
 * @throws FatalError when @p cfg is inconsistent (SocConfig::validate)
 *         or @p params describes no application
 */
AppSpec generateRandomApp(const soc::SocConfig &cfg, Rng rng,
                          const RandomAppParams &params = {});

/** The same, for a caller that already holds a built @p soc. */
inline AppSpec
generateRandomApp(const soc::Soc &soc, Rng rng,
                  const RandomAppParams &params = {})
{
    return generateRandomApp(soc.config(), rng, params);
}

} // namespace cohmeleon::app

#endif // COHMELEON_APP_RANDOM_APP_HH
