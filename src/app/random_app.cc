#include "app/random_app.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace cohmeleon::app
{

SizeClass
drawSizeClass(Rng &rng, const RandomAppParams &p)
{
    const double total = p.wS + p.wM + p.wL + p.wXL;
    fatalIf(total <= 0.0, "size-class weights must not all be zero");
    double x = rng.uniformReal() * total;
    if ((x -= p.wS) < 0.0)
        return SizeClass::kS;
    if ((x -= p.wM) < 0.0)
        return SizeClass::kM;
    if ((x -= p.wL) < 0.0)
        return SizeClass::kL;
    return SizeClass::kXL;
}

AppSpec
generateRandomApp(const soc::SocConfig &cfg, Rng rng,
                  const RandomAppParams &params)
{
    cfg.validate();
    fatalIf(params.phases == 0, "application needs at least one phase");
    fatalIf(params.minThreads == 0 ||
                params.minThreads > params.maxThreads,
            "bad thread-count range");
    fatalIf(params.minChain == 0 || params.minChain > params.maxChain,
            "bad chain-length range");

    const std::vector<std::string> names = cfg.accNames();
    const auto numAccs = static_cast<unsigned>(names.size());
    const unsigned maxThreads =
        std::min(params.maxThreads, numAccs);
    const unsigned minThreads = std::min(params.minThreads, maxThreads);

    AppSpec app;
    app.name = "random-app";

    for (unsigned ph = 0; ph < params.phases; ++ph) {
        PhaseSpec phase;
        phase.name = "phase" + std::to_string(ph);

        const unsigned threads = static_cast<unsigned>(
            rng.uniformRange(minThreads, maxThreads));
        for (unsigned t = 0; t < threads; ++t) {
            ThreadSpec thread;
            thread.loops = static_cast<unsigned>(
                rng.uniformRange(1, params.maxLoops));

            const unsigned chainLen = static_cast<unsigned>(
                rng.uniformRange(params.minChain,
                                 std::min<std::int64_t>(
                                     params.maxChain, numAccs)));

            // The whole chain operates serially on one dataset.
            const SizeClass cls = drawSizeClass(rng, params);
            const double jitter =
                1.0 + params.sizeJitter *
                          (2.0 * rng.uniformReal() - 1.0);
            std::uint64_t bytes = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(
                                 sizeForClass(cls, cfg)) *
                             jitter));
            bytes = std::max<std::uint64_t>(bytes, 2 * kLineBytes);

            // Distinct instances within one chain.
            std::vector<unsigned> ids(numAccs);
            for (unsigned i = 0; i < numAccs; ++i)
                ids[i] = i;
            for (unsigned i = 0; i < chainLen; ++i) {
                const auto j = static_cast<unsigned>(
                    rng.uniformRange(i, numAccs - 1));
                std::swap(ids[i], ids[j]);
            }

            for (unsigned i = 0; i < chainLen; ++i) {
                ChainStep step;
                step.accName = names[ids[i]];
                step.footprintBytes = bytes;
                thread.chain.push_back(std::move(step));
            }
            phase.threads.push_back(std::move(thread));
        }
        app.phases.push_back(std::move(phase));
    }
    return app;
}

} // namespace cohmeleon::app
