#include "layers.hh"

#include <optional>
#include <sstream>

#include "policy/cohmeleon_policy.hh"

namespace perfbench
{

using namespace cohmeleon;

void
LayerCounts::add(const LayerCounts &o)
{
    socBuilds += o.socBuilds;
    appRuns += o.appRuns;
    events += o.events;
    simCycles += o.simCycles;
    nocPackets += o.nocPackets;
    nocFlits += o.nocFlits;
    nocWaitCycles += o.nocWaitCycles;
    l2Refs += o.l2Refs;
    l2Writebacks += o.l2Writebacks;
    l2Recalls += o.l2Recalls;
    llcRefs += o.llcRefs;
    llcHits += o.llcHits;
    llcEvictions += o.llcEvictions;
    ddrReads += o.ddrReads;
    ddrWrites += o.ddrWrites;
    ddrRowHits += o.ddrRowHits;
    for (std::size_t m = 0; m < modes.size(); ++m)
        modes[m] += o.modes[m];
    invocations += o.invocations;
    commCycles += o.commCycles;
    activeCycles += o.activeCycles;
    decides += o.decides;
    updates += o.updates;
}

void
LayerCounts::addStats(const std::string &statsBlock)
{
    // Lines look like "mem0.llc: refs 115260 hit% 48.2 ...": a
    // component name ending in ':' and then key/value pairs.
    std::istringstream lines(statsBlock);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream is(line);
        std::string component;
        is >> component;
        if (component.empty() || component.back() != ':')
            continue;
        component.pop_back();
        const std::string kind =
            component.substr(component.rfind('.') + 1);
        std::string key;
        double value = 0.0;
        double refs = 0.0;
        double reads = 0.0;
        while (is >> key) {
            std::string text;
            is >> text;
            if (text.find('/') != std::string::npos)
                continue; // "occupancy 0/512"
            value = std::stod(text);
            const auto u = static_cast<std::uint64_t>(value);
            if (kind == "l2") {
                if (key == "refs")
                    l2Refs += u;
                else if (key == "writebacks")
                    l2Writebacks += u;
                else if (key == "recalls")
                    l2Recalls += u;
            } else if (kind == "llc") {
                if (key == "refs") {
                    llcRefs += u;
                    refs = value;
                } else if (key == "hit%") {
                    llcHits += refs * value / 100.0;
                } else if (key == "evictions") {
                    llcEvictions += u;
                }
            } else if (kind == "ddr") {
                if (key == "reads") {
                    ddrReads += u;
                    reads = value;
                } else if (key == "writes") {
                    ddrWrites += u;
                    reads += value;
                } else if (key == "rowhit%") {
                    ddrRowHits += reads * value / 100.0;
                }
            } else if (component == "noc") {
                if (key == "packets")
                    nocPackets += u;
                else if (key == "flits")
                    nocFlits += u;
                else if (key == "wait-cycles")
                    nocWaitCycles += u;
            }
        }
    }
}

TracedPolicy::TracedPolicy(rt::CoherencePolicy &inner, Tracer &tracer,
                           LayerCounts &counts)
    : inner_(inner), tracer_(tracer), counts_(counts)
{}

bool
TracedPolicy::learning() const
{
    const auto *cohm = dynamic_cast<const policy::CohmeleonPolicy *>(
        &inner_);
    return cohm != nullptr && !cohm->agent().frozen();
}

coh::CoherenceMode
TracedPolicy::decide(const rt::DecisionContext &ctx,
                     std::uint64_t &tagOut)
{
    const Scope span(tracer_, "policy.decide");
    counts_.decides += 1;
    return inner_.decide(ctx, tagOut);
}

void
TracedPolicy::feedback(const rt::InvocationRecord &rec)
{
    counts_.invocations += 1;
    counts_.modes[static_cast<std::size_t>(rec.mode)] += 1;
    counts_.commCycles += rec.accCommCycles;
    counts_.activeCycles += rec.accTotalCycles;
    if (learning()) {
        const Scope span(tracer_, "rl.feedback");
        counts_.updates += 1;
        inner_.feedback(rec);
    } else {
        const Scope span(tracer_, "policy.feedback");
        inner_.feedback(rec);
    }
}

void
TracedPolicy::onIterationEnd()
{
    const Scope span(tracer_, "rl.iteration_end");
    inner_.onIterationEnd();
}

app::AppResult
tracedRunApp(rt::CoherencePolicy &policy, const soc::SocConfig &cfg,
             const app::AppSpec &app, bool collectRecords,
             Tracer &tracer, LayerCounts &counts)
{
    std::optional<soc::Soc> soc;
    {
        const Scope span(tracer, "soc.build");
        soc.emplace(cfg);
    }
    counts.socBuilds += 1;
    TracedPolicy traced(policy, tracer, counts);
    std::optional<rt::EspRuntime> runtime;
    {
        const Scope span(tracer, "rt.runtime");
        runtime.emplace(*soc, traced);
    }
    app::AppRunner runner(*soc, *runtime);
    runner.setCollectRecords(collectRecords);
    app::AppResult result;
    {
        const Scope span(tracer, "app.run_app");
        result = runner.runApp(app);
    }
    counts.appRuns += 1;
    {
        const Scope span(tracer, "bench.stats");
        counts.events += soc->eq().executed();
        counts.simCycles += soc->eq().now();
        std::ostringstream os;
        soc->dumpStats(os);
        counts.addStats(os.str());
    }
    return result;
}

} // namespace perfbench
