/**
 * @file
 * Per-layer counters for the traced runs, and the calls into the
 * program that record them: a forwarding rt::CoherencePolicy that
 * spans every decide/feedback, and one traced app run on a fresh SoC.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <string>

#include "app/app_runner.hh"
#include "coh/coherence_mode.hh"
#include "rt/runtime.hh"
#include "soc/soc.hh"
#include "trace.hh"

namespace perfbench
{

/** Deterministic work counts of one traced operation. */
struct LayerCounts
{
    std::uint64_t socBuilds = 0;
    std::uint64_t appRuns = 0;
    std::uint64_t events = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t nocPackets = 0;
    std::uint64_t nocFlits = 0;
    std::uint64_t nocWaitCycles = 0;
    std::uint64_t l2Refs = 0;
    std::uint64_t l2Writebacks = 0;
    std::uint64_t l2Recalls = 0;
    std::uint64_t llcRefs = 0;
    double llcHits = 0.0; ///< refs x hit% / 100, summed per slice
    std::uint64_t llcEvictions = 0;
    std::uint64_t ddrReads = 0;
    std::uint64_t ddrWrites = 0;
    double ddrRowHits = 0.0; ///< accesses x rowhit% / 100
    std::array<std::uint64_t, cohmeleon::coh::kNumModes> modes{};
    std::uint64_t invocations = 0;
    std::uint64_t commCycles = 0;
    std::uint64_t activeCycles = 0;
    std::uint64_t decides = 0;
    std::uint64_t updates = 0;

    void add(const LayerCounts &o);

    /** Add the memory-hierarchy and NoC totals of a
     *  soc::Soc::dumpStats() block. */
    void addStats(const std::string &statsBlock);
};

/**
 * Forwards every call to @p inner, timing decide() as
 * "policy.decide" and feedback() as "rl.feedback" when the inner
 * policy is learning (else "policy.feedback").
 */
class TracedPolicy final : public cohmeleon::rt::CoherencePolicy
{
  public:
    TracedPolicy(cohmeleon::rt::CoherencePolicy &inner, Tracer &tracer,
                 LayerCounts &counts);

    cohmeleon::coh::CoherenceMode
    decide(const cohmeleon::rt::DecisionContext &ctx,
           std::uint64_t &tagOut) override;
    void feedback(const cohmeleon::rt::InvocationRecord &rec) override;
    std::string_view name() const override { return inner_.name(); }
    cohmeleon::Cycles
    decisionCost() const override
    {
        return inner_.decisionCost();
    }
    void onIterationEnd() override;

  private:
    bool learning() const;

    cohmeleon::rt::CoherencePolicy &inner_;
    Tracer &tracer_;
    LayerCounts &counts_;
};

/**
 * Run @p app under @p policy on a fresh SoC built from @p cfg, as
 * app::runPolicyOnApp() and app::runTrainingIteration() do, with
 * spans around the SoC build, the runtime, AppRunner::runApp and the
 * statistics read-back.
 */
cohmeleon::app::AppResult
tracedRunApp(cohmeleon::rt::CoherencePolicy &policy,
             const cohmeleon::soc::SocConfig &cfg,
             const cohmeleon::app::AppSpec &app, bool collectRecords,
             Tracer &tracer, LayerCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
