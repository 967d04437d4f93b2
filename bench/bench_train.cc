/**
 * @file
 * Training-at-scale benchmark: throughput and determinism of the
 * parallel sharded training driver.
 *
 * Trains the same sharded model serially (1 thread) and with every
 * available hardware thread, verifies the two checkpoints are
 * byte-identical (the subsystem's headline invariant — aborts if
 * not), round-trips the model through save/load, and evaluates the
 * restored model against the fixed-non-coherent-DMA baseline.
 * Results print as a table and are written to BENCH_train.json.
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "app/parallel_runner.hh"
#include "app/training_driver.hh"
#include "bench_util.hh"
#include "policy/checkpoint.hh"
#include "policy/fixed.hh"
#include "sim/stats.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

int
main()
{
    setQuiet(true);
    banner("Training at scale: parallel sharded Q-learning",
           "Section 4.2/5 training loop, sharded and merged "
           "deterministically");

    const soc::SocConfig cfg =
        fullScale() ? soc::makeSoc0() : soc::makeSoc1();

    app::TrainingOptions opts;
    opts.shards = fullScale() ? 8 : 4;
    opts.iterations = fullScale() ? 10 : 3;

    JsonReporter json("train");
    json.addString("soc", cfg.name);
    json.add("shards", opts.shards);
    json.add("iterations", opts.iterations);

    // Serial reference: one thread, same shards.
    app::ParallelRunner serialRunner(1);
    app::TrainingDriver serialDriver(serialRunner);
    const WallTimer serialTimer;
    const app::TrainingResult serial = serialDriver.train(cfg, opts);
    const double serialSec = serialTimer.seconds();

    // Parallel run: every available thread, same shards.
    app::ParallelRunner parallelRunner;
    app::TrainingDriver parallelDriver(parallelRunner);
    const WallTimer parallelTimer;
    const app::TrainingResult parallel =
        parallelDriver.train(cfg, opts);
    const double parallelSec = parallelTimer.seconds();

    const std::string serialBytes = serial.checkpoint.serialized();
    const std::string parallelBytes =
        parallel.checkpoint.serialized();
    panic_if(serialBytes != parallelBytes,
             "parallel training diverged from serial: checkpoints "
             "differ");

    // Save -> load must reproduce the checkpoint byte for byte.
    std::stringstream persisted(serialBytes);
    const policy::PolicyCheckpoint restored =
        policy::PolicyCheckpoint::load(persisted);
    panic_if(restored.serialized() != serialBytes,
             "checkpoint save/load round trip is lossy");

    const double invocs =
        static_cast<double>(serial.totalInvocations);
    std::printf("%-28s %12s %12s\n", "", "serial", "parallel");
    std::printf("%-28s %12u %12u\n", "threads", 1u,
                parallelRunner.threads());
    std::printf("%-28s %12.2f %12.2f\n", "train wall time (s)",
                serialSec, parallelSec);
    std::printf("%-28s %12.0f %12.0f\n", "invocations/sec",
                invocs / serialSec, invocs / parallelSec);
    std::printf("%-28s %12llu\n", "train invocations",
                static_cast<unsigned long long>(
                    serial.totalInvocations));
    std::printf("%-28s %12llu\n", "q-table updates",
                static_cast<unsigned long long>(
                    serial.checkpoint.model.totalVisits()));
    std::printf("%-28s %12llu / %u\n", "entries covered",
                static_cast<unsigned long long>(
                    serial.checkpoint.model.updatedEntries()),
                rl::StateTuple::kNumStates * rl::kNumActions);
    std::printf("%-28s %12s\n", "checkpoints identical", "yes");
    std::printf("%-28s %12.2fx\n", "speedup",
                serialSec / parallelSec);

    // Evaluation split: the restored model vs the baseline on a
    // fresh evaluation instance.
    app::EvalOptions eopts;
    const app::AppSpec evalApp = app::generateRandomApp(
        cfg, Rng(eopts.evalSeed), eopts.appParams);
    policy::FixedPolicy baseline(coh::CoherenceMode::kNonCohDma);
    const app::AppResult base =
        app::runPolicyOnApp(baseline, cfg, evalApp);
    const app::AppResult eval =
        app::TrainingDriver::evaluate(restored, cfg, evalApp);
    std::vector<double> execRatios;
    std::vector<double> ddrRatios;
    for (std::size_t i = 0; i < eval.phases.size(); ++i) {
        execRatios.push_back(app::safeRatio(
            static_cast<double>(eval.phases[i].execCycles),
            static_cast<double>(base.phases[i].execCycles)));
        ddrRatios.push_back(app::safeRatio(
            static_cast<double>(eval.phases[i].ddrAccesses),
            static_cast<double>(base.phases[i].ddrAccesses)));
    }
    const double evalExec = geometricMean(execRatios);
    const double evalDdr = geometricMean(ddrRatios);
    std::printf("%-28s %12.3f\n", "eval exec (norm)", evalExec);
    std::printf("%-28s %12.3f\n", "eval off-chip (norm)", evalDdr);

    json.add("threads", parallelRunner.threads());
    json.add("serial_seconds", serialSec);
    json.add("parallel_seconds", parallelSec);
    json.add("speedup", serialSec / parallelSec);
    json.add("train_invocations", invocs);
    json.add("invocations_per_sec_serial", invocs / serialSec);
    json.add("invocations_per_sec_parallel", invocs / parallelSec);
    json.add("qtable_updates",
             static_cast<double>(
                 serial.checkpoint.model.totalVisits()));
    json.add("entries_covered",
             static_cast<double>(
                 serial.checkpoint.model.updatedEntries()));
    json.add("checkpoints_identical", 1.0);
    json.add("eval_exec_norm", evalExec);
    json.add("eval_ddr_norm", evalDdr);
    const std::string file = json.write();
    std::printf("\nwrote %s\n", file.c_str());
    return 0;
}
