/** @file Tests for the supervised worker-fleet execution layer:
 *  lease-based cell claiming (O_EXCL exclusion, TTL-stale reclaim,
 *  cross-process kill counters), the fleet supervisor (respawn
 *  budget, --cell-timeout watchdog containment, orphan-lease sweep),
 *  the kill-worker@N / hang@SLOT fault plans against real forked
 *  processes, and the headline invariant: a fleet run's JSON is
 *  byte-identical to the in-process run at every worker count, with
 *  and without injected worker deaths — even after SIGKILLing the
 *  supervisor itself. */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "app/campaign_runner.hh"
#include "app/campaign_state.hh"
#include "app/fault.hh"
#include "app/heartbeat.hh"
#include "sim/atomic_file.hh"
#include "test_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::app;

namespace
{

/** Wall-clock scale for watchdog timeouts: under ThreadSanitizer a
 *  healthy cell runs an order of magnitude slower, so a 1-second
 *  --cell-timeout would watchdog-kill good attempts and the tests
 *  would (wrongly) see extra contained failures. The hang@ cells
 *  sleep forever, so scaling the timeout up never masks a real
 *  hang — it only keeps healthy cells off the kill list. */
#if defined(__SANITIZE_THREAD__)
constexpr double kTimeScale = 20.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kTimeScale = 20.0;
#else
constexpr double kTimeScale = 1.0;
#endif
#else
constexpr double kTimeScale = 1.0;
#endif

/** Same tiny, fast protocol campaign the resilience tests use. */
CampaignSpec
tinyCampaign()
{
    CampaignSpec c;
    c.name = "tiny";
    c.baseline = "fixed-non-coh-dma";
    c.base.soc = "soc1";
    c.base.trainIterations = 2;
    c.base.appParams.phases = 2;
    c.base.appParams.maxThreads = 3;
    c.base.appParams.maxLoops = 1;
    c.policies = {"fixed-non-coh-dma", "manual", "cohmeleon"};
    return c;
}

/** tinyCampaign()'s uninterrupted JSON, computed once. */
const std::string &
cleanTinyJson()
{
    static const std::string json = [] {
        ParallelRunner serial(1);
        return CampaignRunner(serial).run(tinyCampaign()).json();
    }();
    return json;
}

/** Resume-and-render: the state dir's content as final JSON. */
std::string
resumedJson(const CampaignSpec &c, const std::string &stateDir)
{
    CampaignRunOptions opts;
    opts.stateDir = stateDir;
    opts.resume = true;
    ParallelRunner serial(1);
    return CampaignRunner(serial).run(c, opts).json();
}

std::size_t
manifestDoneCount(const std::string &stateDir)
{
    const std::string manifest = readFile(stateDir + "/MANIFEST");
    std::size_t n = 0;
    for (std::size_t p = manifest.find("\ndone ");
         p != std::string::npos; p = manifest.find("\ndone ", p + 1))
        ++n;
    return n;
}

std::string
diagnosticOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** A state dir initialized for tinyCampaign() with shared mode on —
 *  the raw material for direct lease-layer tests. The spec text is
 *  the campaign's identity (tinyCampaign sets no harness keys, so
 *  plain serializeCampaign() is already it). */
std::string
initializeSharedTiny(CampaignStateDir &state)
{
    const std::string spec = serializeCampaign(tinyCampaign());
    state.initialize(spec, 3);
    state.openShared();
    return spec;
}

} // namespace

// -------------------------------------------------- spec harness keys

TEST(WorkersSpecKeys, RoundTripAndDiagnostics)
{
    CampaignSpec c = tinyCampaign();
    c.workers = 4;
    c.leaseTtlSec = 45;
    c.cellTimeoutSec = 2.5;
    const std::string text = serializeCampaign(c);
    EXPECT_NE(text.find("workers = 4"), std::string::npos);
    EXPECT_NE(text.find("lease-ttl = 45"), std::string::npos);
    EXPECT_NE(text.find("cell-timeout = 2.5"), std::string::npos);
    const CampaignSpec reparsed = parseCampaignString(text);
    EXPECT_EQ(reparsed, c);
    EXPECT_EQ(serializeCampaign(reparsed), text);

    // The defaults stay off the wire (old files parse, old tools can
    // read fleet-free specs).
    EXPECT_EQ(serializeCampaign(tinyCampaign())
                  .find("workers = "),
              std::string::npos);

    std::string msg = diagnosticOf([] {
        parseCampaignString("campaign = x\nworkers = 0\n");
    });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("positive"), std::string::npos) << msg;
    msg = diagnosticOf([] {
        parseCampaignString("campaign = x\nlease-ttl = 0\n");
    });
    EXPECT_NE(msg.find("(0, 86400]"), std::string::npos) << msg;
    msg = diagnosticOf([] {
        parseCampaignString("campaign = x\ncell-timeout = -1\n");
    });
    EXPECT_NE(msg.find("(0, 86400]"), std::string::npos) << msg;
    // The unknown-key list advertises the fleet keys.
    msg = diagnosticOf(
        [] { parseCampaignString("campaign = x\nwhat = 1\n"); });
    EXPECT_NE(msg.find("workers"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cell-timeout"), std::string::npos) << msg;
}

// ------------------------------------------------------- lease layer

TEST(WorkersLeases, ClaimsAreExclusiveAcrossInstances)
{
    const test::TempDir dir("lease_excl");
    CampaignStateDir a(dir.file("state"));
    const std::string spec = initializeSharedTiny(a);
    CampaignStateDir b(dir.file("state"));
    EXPECT_EQ(b.attach(spec, 3), 0u);

    // Two claimers drain the slots without ever colliding: O_EXCL
    // lease creation is the claim, so even two instances in ONE
    // process (where fcntl locks cannot exclude) stay disjoint.
    const auto c0 = a.claimNext(30.0);
    const auto c1 = b.claimNext(30.0);
    const auto c2 = a.claimNext(30.0);
    ASSERT_TRUE(c0 && c1 && c2);
    EXPECT_EQ(c0->slot, 0u);
    EXPECT_EQ(c1->slot, 1u);
    EXPECT_EQ(c2->slot, 2u);
    EXPECT_EQ(c0->priorKills, 0u);
    EXPECT_FALSE(a.claimNext(30.0));
    EXPECT_FALSE(b.claimNext(30.0));

    // Released slots are claimable again; heartbeats on a dropped
    // lease report the loss.
    EXPECT_TRUE(a.heartbeat(0));
    a.release(0);
    EXPECT_FALSE(a.heartbeat(0));
    const auto again = b.claimNext(30.0);
    ASSERT_TRUE(again);
    EXPECT_EQ(again->slot, 0u);
}

TEST(WorkersLeases, TtlStaleLeasesAreReclaimedInPlace)
{
    const test::TempDir dir("lease_ttl");
    CampaignStateDir a(dir.file("state"));
    const std::string spec = initializeSharedTiny(a);
    ASSERT_TRUE(a.claimNext(30.0));

    // A fresh heartbeat protects the lease...
    CampaignStateDir b(dir.file("state"));
    b.attach(spec, 3);
    EXPECT_EQ(b.claimNext(30.0)->slot, 1u);
    b.release(1);

    // ...but once the heartbeat goes TTL-stale (here: backdated an
    // hour), the next claimer treats slot 0 as orphaned.
    const std::string lease = dir.file("state/leases/slot0.lease");
    std::filesystem::last_write_time(
        lease, std::filesystem::last_write_time(lease) -
                   std::chrono::hours(1));
    const auto reclaimed = b.claimNext(0.5);
    ASSERT_TRUE(reclaimed);
    EXPECT_EQ(reclaimed->slot, 0u);
}

TEST(WorkersLeases, SupervisorReclaimBumpsTheKillCounter)
{
    const test::TempDir dir("lease_kills");
    CampaignStateDir a(dir.file("state"));
    initializeSharedTiny(a);

    // Reaping a dead worker whose cell never finished charges the
    // slot one killed attempt; the next claimer sees it and numbers
    // its attempts after the lost ones.
    ASSERT_EQ(a.claimNext(30.0)->slot, 0u);
    const auto lost = a.reclaimWorkerLease(::getpid());
    ASSERT_TRUE(lost);
    EXPECT_EQ(lost->slot, 0u);
    EXPECT_EQ(lost->priorKills, 1u);
    const auto retry = a.claimNext(30.0);
    ASSERT_TRUE(retry);
    EXPECT_EQ(retry->slot, 0u);
    EXPECT_EQ(retry->priorKills, 1u);

    // A second death on the same slot keeps counting.
    ASSERT_TRUE(a.reclaimWorkerLease(::getpid()));
    EXPECT_EQ(a.claimNext(30.0)->priorKills, 2u);

    // A lease whose slot IS done reclaims silently — the worker died
    // after its result landed, so nothing was lost.
    CellResult r;
    r.scenario.name = "done-cell";
    r.failed = true;
    r.error = "placeholder";
    a.record(0, "done-cell", r, nullptr);
    EXPECT_FALSE(a.reclaimWorkerLease(::getpid()));
    EXPECT_EQ(a.doneCount(), 1u);
    // And with no lease held, there is nothing to reclaim.
    EXPECT_FALSE(a.reclaimWorkerLease(::getpid()));
}

TEST(WorkersLeases, HeartbeatRacesClaimRecordReleaseCleanly)
{
    // The runCampaignWorker() thread structure, concentrated: the
    // production LeaseHeartbeat (cranked to a 1ms beat) refreshes
    // whatever lease is held while the main thread claims, records,
    // and releases slots on the same shared directory. The
    // assertions are mild (every slot lands exactly once) — the real
    // check is the TSan CI leg, which fails this test on any data
    // race between the heartbeat path and the claim/record/manifest
    // machinery.
    const test::TempDir dir("lease_race");
    CampaignStateDir state(dir.file("state"));
    initializeSharedTiny(state);

    {
        LeaseHeartbeat hb(state, std::chrono::milliseconds(1));
        for (;;) {
            const auto claim = state.claimNext(30.0);
            if (!claim)
                break;
            hb.arm(claim->slot);
            CellResult r;
            r.scenario.name = "race-cell";
            r.failed = true;
            r.error = "placeholder";
            state.record(claim->slot, "race-cell", r, nullptr);
            hb.disarm();
            state.release(claim->slot);
        }
    }

    EXPECT_EQ(state.doneCount(), 3u);
    EXPECT_FALSE(state.claimNext(30.0));
}

TEST(WorkersLeases, BusyDirectoryIsRefusedNotStolen)
{
    const test::TempDir dir("lease_busy");
    const std::string sd = dir.file("state");
    CampaignStateDir holder(sd);
    initializeSharedTiny(holder);
    ASSERT_TRUE(holder.claimNext(30.0));

    // The lease's pid (this test) is alive and its heartbeat is
    // fresh: a second fleet must refuse to run rather than fight the
    // first over cells.
    CampaignSpec c = tinyCampaign();
    c.workers = 1;
    CampaignRunOptions opts;
    opts.stateDir = sd;
    opts.resume = true;
    const std::string msg = diagnosticOf(
        [&] { superviseCampaignFleet(c, opts); });
    EXPECT_NE(msg.find("busy"), std::string::npos) << msg;

    // Once the holder is provably dead (stale heartbeat), the same
    // call sweeps the orphan and completes the campaign.
    const std::string lease = sd + "/leases/slot0.lease";
    std::filesystem::last_write_time(
        lease, std::filesystem::last_write_time(lease) -
                   std::chrono::hours(1));
    superviseCampaignFleet(c, opts);
    EXPECT_EQ(resumedJson(tinyCampaign(), sd), cleanTinyJson());
}

// ---------------------------------------------------- fleet execution

TEST(WorkersFleet, JsonIsByteIdenticalAtEveryWorkerCount)
{
    CampaignSpec c = tinyCampaign();
    for (const unsigned workers : {1u, 2u, 4u}) {
        const test::TempDir dir("fleet");
        const std::string sd = dir.file("state");
        CampaignRunOptions opts;
        opts.stateDir = sd;
        c.workers = workers;
        superviseCampaignFleet(c, opts);
        EXPECT_EQ(manifestDoneCount(sd), 3u) << workers;
        EXPECT_EQ(resumedJson(c, sd), cleanTinyJson())
            << "workers " << workers;
    }
}

TEST(WorkersFleet, OptionValidationFailsFast)
{
    CampaignSpec c = tinyCampaign();
    c.workers = 2;
    CampaignRunOptions opts; // no stateDir
    EXPECT_THROW(superviseCampaignFleet(c, opts), FatalError);
    const test::TempDir dir("fleet_opts");
    opts.stateDir = dir.file("state");
    c.workers = 0;
    EXPECT_THROW(superviseCampaignFleet(c, opts), FatalError);
}

TEST(WorkersFleet, KilledWorkersAreRespawnedAndTheRunCompletes)
{
    // kill-worker@0 SIGKILLs a real forked worker right after its
    // first result lands in the manifest. The supervisor reclaims
    // the dead worker's lease (silently — the slot is done),
    // respawns, and the fleet finishes with nothing lost.
    CampaignSpec c = tinyCampaign();
    const test::TempDir dir("fleet_kill");
    const std::string sd = dir.file("state");
    CampaignRunOptions opts;
    opts.stateDir = sd;
    c.workers = 2;
    c.fault = faultPlanFromString("kill-worker@0");
    superviseCampaignFleet(c, opts);
    EXPECT_EQ(resumedJson(tinyCampaign(), sd), cleanTinyJson());
}

TEST(WorkersFleet, RespawnBudgetExhaustionLeavesAResumableManifest)
{
    CampaignSpec c = tinyCampaign();
    const test::TempDir dir("fleet_budget");
    const std::string sd = dir.file("state");
    CampaignRunOptions opts;
    opts.stateDir = sd;
    c.workers = 1;
    c.fault = faultPlanFromString("kill-worker@0");
    opts.respawnBudget = 0;
    EXPECT_THROW(superviseCampaignFleet(c, opts),
                 CampaignIncomplete);
    EXPECT_EQ(manifestDoneCount(sd), 1u);

    // A resume at a different worker count — fault gone — completes
    // the run byte-identically.
    opts.resume = true;
    c.workers = 2;
    c.fault = FaultPlan{};
    superviseCampaignFleet(c, opts);
    EXPECT_EQ(resumedJson(tinyCampaign(), sd), cleanTinyJson());
}

TEST(WorkersFleet, WatchdogKillIsAContainedRetry)
{
    // hang@1 wedges slot 1's first attempt past the watchdog; the
    // supervisor SIGKILLs the worker, charges the slot one killed
    // attempt, and the respawned worker's retry (attempt 2) wins.
    CampaignSpec c = tinyCampaign();
    const test::TempDir dir("fleet_hang");
    const std::string sd = dir.file("state");
    CampaignRunOptions opts;
    opts.stateDir = sd;
    c.workers = 1;
    c.maxRetries = 1;
    c.fault = faultPlanFromString("hang@1");
    c.cellTimeoutSec = 1.0 * kTimeScale;
    superviseCampaignFleet(c, opts);

    // The watchdog containment must be indistinguishable from an
    // in-process contained retry of the same shape: one failed
    // attempt on slot 1, success on attempt 2.
    CampaignSpec inproc = tinyCampaign();
    inproc.fault = faultPlanFromString("fail@1:1");
    inproc.maxRetries = 1;
    ParallelRunner serial(1);
    EXPECT_EQ(resumedJson(tinyCampaign(), sd),
              CampaignRunner(serial).run(inproc).json());
}

TEST(WorkersFleet, WatchdogExhaustedBudgetRecordsAContainedFailure)
{
    CampaignSpec c = tinyCampaign();
    const test::TempDir dir("fleet_hang_fail");
    const std::string sd = dir.file("state");
    CampaignRunOptions opts;
    opts.stateDir = sd;
    c.workers = 1;
    c.maxRetries = 0; // the first watchdog kill exhausts the cell
    c.fault = faultPlanFromString("hang@1");
    c.cellTimeoutSec = 1.0 * kTimeScale;
    superviseCampaignFleet(c, opts);
    EXPECT_EQ(manifestDoneCount(sd), 3u);

    CampaignRunOptions resume;
    resume.stateDir = sd;
    resume.resume = true;
    ParallelRunner serial(1);
    const CampaignResult result =
        CampaignRunner(serial).run(tinyCampaign(), resume);
    EXPECT_EQ(result.failureCount(), 1u);
    const CellResult *hung = result.find("soc1/manual");
    ASSERT_NE(hung, nullptr);
    EXPECT_TRUE(hung->failed);
    EXPECT_EQ(hung->attempts, 1u);
    EXPECT_NE(hung->error.find("--cell-timeout watchdog"),
              std::string::npos)
        << hung->error;
}

// ------------------------------------------------------- death tests

TEST(WorkersFleetDeathTest, KillWorkerPlanKillsTheProcessForReal)
{
    CampaignSpec c = tinyCampaign();
    const test::TempDir dir("worker_kill");
    const std::string sd = dir.file("state");
    CampaignStateDir setup(sd);
    initializeSharedTiny(setup);

    CampaignRunOptions opts;
    opts.stateDir = sd;
    c.workers = 1;
    c.fault = faultPlanFromString("kill-worker@1");
    EXPECT_EXIT({ runCampaignWorker(c, opts); },
                ::testing::KilledBySignal(SIGKILL), "");

    // The SIGKILL fired after the second result write was durable:
    // both results survive, and the dead worker's lease is swept as
    // an orphan by the next fleet (stale-lease reclamation after
    // kill-worker@N).
    EXPECT_EQ(manifestDoneCount(sd), 2u);
    EXPECT_TRUE(std::filesystem::exists(sd + "/leases/slot1.lease"));
    CampaignRunOptions finish;
    finish.stateDir = sd;
    finish.resume = true;
    c.fault = FaultPlan{};
    superviseCampaignFleet(c, finish);
    EXPECT_EQ(resumedJson(tinyCampaign(), sd), cleanTinyJson());
}

TEST(WorkersFleetDeathTest, SigkilledSupervisorResumesByteIdentically)
{
    CampaignSpec c = tinyCampaign();
    const test::TempDir dir("super_kill");
    const std::string sd = dir.file("state");

    // A one-worker fleet with hang@2 and no watchdog finishes slots
    // 0 and 1, then wedges forever on slot 2. Once both results are
    // on disk we SIGKILL the supervisor's whole process group —
    // supervisor and worker die mid-run with a lease still held.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setpgid(0, 0); // workers inherit the group — one kill(-pid)
        CampaignSpec hung = c;
        hung.workers = 1;
        hung.fault = faultPlanFromString("hang@2");
        CampaignRunOptions opts;
        opts.stateDir = sd;
        try {
            superviseCampaignFleet(hung, opts);
        } catch (...) {
        }
        std::_Exit(0);
    }
    bool twoDone = false;
    for (int spins = 0; spins < 3000 && !twoDone; ++spins) {
        try {
            twoDone = manifestDoneCount(sd) >= 2;
        } catch (const FatalError &) {
            // The manifest does not exist yet.
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL); // in case the group never formed
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(twoDone) << "fleet never recorded two cells";
    EXPECT_EQ(manifestDoneCount(sd), 2u);

    // Resume paths after the massacre: the in-process resume ignores
    // leases entirely; a fresh fleet sweeps the dead holder's lease.
    // Both reproduce the uninterrupted bytes. The dead worker may
    // linger as an unreaped zombie (kill(pid, 0) still succeeds), so
    // the sweep leans on the TTL: its heartbeat stopped at SIGKILL
    // time, and a short TTL makes that decisive.
    CampaignRunOptions fleet;
    fleet.stateDir = sd;
    fleet.resume = true;
    c.workers = 2;
    c.leaseTtlSec = 0.5;
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    superviseCampaignFleet(c, fleet);
    EXPECT_EQ(resumedJson(c, sd), cleanTinyJson());
}
