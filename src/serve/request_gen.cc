#include "serve/request_gen.hh"

#include <algorithm>
#include <cmath>

#include "app/parallel_runner.hh"
#include "app/random_app.hh"
#include "app/scenario.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace cohmeleon::serve
{

namespace
{

/** A figure tenant's invocation stream: the app's chain steps
 *  flattened in execution order (phase, thread, loop, chain). */
std::vector<app::ChainStep>
flattenFigureApp(const std::string &name, const soc::SocConfig &cfg,
                 const std::vector<std::string> &accNames)
{
    const app::AppSpec spec = app::figureApp(name);
    std::vector<app::ChainStep> steps;
    for (const app::PhaseSpec &phase : spec.phases) {
        for (const app::ThreadSpec &thread : phase.threads) {
            for (unsigned loop = 0; loop < thread.loops; ++loop)
                for (const app::ChainStep &step : thread.chain)
                    steps.push_back(step);
        }
    }
    fatalIf(steps.empty(), "figure app '", name,
            "' has no invocations to serve");
    for (const app::ChainStep &step : steps)
        fatalIf(std::find(accNames.begin(), accNames.end(),
                          step.accName) == accNames.end(),
                "figure tenant '", name, "' invokes accelerator '",
                step.accName, "', which SoC '", cfg.name,
                "' does not have");
    return steps;
}

} // namespace

std::uint64_t
generationOf(std::uint64_t seq, const ServeSpec &spec)
{
    const std::uint64_t last =
        spec.requests == 0 ? 0
                           : (spec.requests - 1) / spec.swapInterval;
    return std::min(seq / spec.swapInterval, last);
}

std::uint64_t
generationCount(const ServeSpec &spec)
{
    return spec.requests == 0
               ? 1
               : (spec.requests - 1) / spec.swapInterval + 1;
}

std::vector<ServeRequest>
generateRequestTrace(const ServeSpec &spec, const soc::SocConfig &cfg)
{
    validateServeSpec(spec);
    cfg.validate();
    const std::vector<std::string> accNames = cfg.accNames();

    // Per-tenant invocation streams for the figure tenants.
    std::vector<std::vector<app::ChainStep>> figureSteps(
        spec.tenants.size());
    double totalWeight = 0.0;
    for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
        if (spec.tenants[t].source != "random")
            figureSteps[t] =
                flattenFigureApp(spec.tenants[t].source, cfg, accNames);
        totalWeight += spec.tenants[t].weight;
    }

    const app::RandomAppParams sizeParams; // the standard class mix
    Rng stream(spec.seed);
    std::vector<std::uint64_t> perTenant(spec.tenants.size(), 0);
    std::vector<ServeRequest> trace;
    trace.reserve(spec.requests);
    double arrival = 0.0;

    for (std::uint64_t seq = 0; seq < spec.requests; ++seq) {
        ServeRequest req;
        req.seq = seq;
        req.generation = generationOf(seq, spec);

        // Weighted tenant draw from the stream RNG.
        double x = stream.uniformReal() * totalWeight;
        unsigned tenant = 0;
        for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
            tenant = static_cast<unsigned>(t);
            if ((x -= spec.tenants[t].weight) < 0.0)
                break;
        }
        req.tenant = tenant;
        req.seqInTenant = perTenant[tenant]++;

        // Open-loop arrival: exponential gaps at the requested rate.
        if (spec.arrivalRate > 0.0) {
            const double u = stream.uniformReal();
            arrival += -std::log1p(-u) / spec.arrivalRate;
            req.arrivalSec = arrival;
        }

        // Request content from the tenant's isolated stream.
        Rng r(app::experimentSeed(
            app::experimentSeed(spec.seed, tenant + 1),
            req.seqInTenant));
        if (spec.tenants[tenant].source == "random") {
            req.accName = accNames[r.uniformInt(accNames.size())];
            const app::SizeClass cls =
                app::drawSizeClass(r, sizeParams);
            const double jitter =
                1.0 + sizeParams.sizeJitter *
                          (2.0 * r.uniformReal() - 1.0);
            std::uint64_t bytes = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(app::sizeForClass(
                                 cls, cfg)) *
                             jitter));
            req.footprintBytes =
                std::max<std::uint64_t>(bytes, 2 * kLineBytes);
        } else {
            const std::vector<app::ChainStep> &steps =
                figureSteps[tenant];
            const app::ChainStep &step =
                steps[req.seqInTenant % steps.size()];
            req.accName = step.accName;
            req.footprintBytes = step.footprintBytes;
        }
        trace.push_back(std::move(req));
    }
    return trace;
}

std::vector<std::uint64_t>
generationReadQuota(const std::vector<ServeRequest> &trace,
                    const ServeSpec &spec)
{
    std::vector<std::uint64_t> quota(generationCount(spec), 0);
    for (const ServeRequest &req : trace)
        ++quota[req.generation];
    return quota;
}

} // namespace cohmeleon::serve
