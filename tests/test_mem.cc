/** @file Unit tests for address map, allocator, cache array, DRAM,
 *  and the version tracker. */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/page_allocator.hh"
#include "mem/version_tracker.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace cohmeleon;
using namespace cohmeleon::mem;

// ------------------------------------------------------------- AddressMap

TEST(AddressMap, ContiguousPartitions)
{
    AddressMap map(4, 1024 * 1024);
    EXPECT_EQ(map.totalBytes(), 4ull * 1024 * 1024);
    EXPECT_EQ(map.partitionOf(0), 0u);
    EXPECT_EQ(map.partitionOf(1024 * 1024 - 1), 0u);
    EXPECT_EQ(map.partitionOf(1024 * 1024), 1u);
    EXPECT_EQ(map.partitionOf(map.totalBytes() - 1), 3u);
    EXPECT_EQ(map.base(2), 2ull * 1024 * 1024);
}

TEST(AddressMap, RejectsBadGeometry)
{
    EXPECT_THROW(AddressMap(0, 1024), FatalError);
    EXPECT_THROW(AddressMap(2, 100), FatalError); // not line multiple
}

// ---------------------------------------------------------- PageAllocator

TEST(PageAllocator, RoundRobinStripesAcrossPartitions)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a = alloc.allocate(4 * 64 * 1024);
    EXPECT_EQ(a.numPages(), 4u);
    EXPECT_EQ(a.partitionsUsed(map).size(), 2u);
    EXPECT_EQ(a.footprintOnPartition(map, 0), 2ull * 64 * 1024);
    EXPECT_EQ(a.footprintOnPartition(map, 1), 2ull * 64 * 1024);
}

TEST(PageAllocator, SinglePolicyKeepsOnePartition)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a =
        alloc.allocate(3 * 64 * 1024, StripePolicy::kSingle);
    EXPECT_EQ(a.partitionsUsed(map).size(), 1u);
}

TEST(PageAllocator, OffsetAddressing)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a = alloc.allocate(2 * 64 * 1024);
    EXPECT_EQ(a.addrOfOffset(0), a.pageBases()[0]);
    EXPECT_EQ(a.addrOfOffset(64 * 1024), a.pageBases()[1]);
    EXPECT_EQ(a.addrOfOffset(64 * 1024 + 128),
              a.pageBases()[1] + 128);
    EXPECT_EQ(a.addrOfLine(1), a.pageBases()[0] + kLineBytes);
}

TEST(PageAllocator, PartialLastPageCountsLiveBytesOnly)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a = alloc.allocate(96 * 1024); // 1.5 pages
    EXPECT_EQ(a.numPages(), 2u);
    EXPECT_EQ(a.bytes(), 96ull * 1024);
    std::uint64_t total = 0;
    for (unsigned p = 0; p < 2; ++p)
        total += a.footprintOnPartition(map, p);
    EXPECT_EQ(total, 96ull * 1024);
}

TEST(PageAllocator, FreeReturnsPages)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const std::uint64_t before = alloc.freePages();
    const Allocation a = alloc.allocate(5 * 64 * 1024);
    EXPECT_EQ(alloc.freePages(), before - 5);
    alloc.free(a);
    EXPECT_EQ(alloc.freePages(), before);
}

TEST(PageAllocator, ExhaustionIsFatal)
{
    AddressMap map(1, 128 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    (void)alloc.allocate(128 * 1024);
    EXPECT_THROW(alloc.allocate(64 * 1024), FatalError);
}

TEST(PageAllocator, PagesAreUniqueAndAligned)
{
    AddressMap map(4, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    std::set<Addr> seen;
    for (int i = 0; i < 8; ++i) {
        const Allocation a = alloc.allocate(2 * 64 * 1024);
        for (Addr base : a.pageBases()) {
            EXPECT_EQ(base % (64 * 1024), 0u);
            EXPECT_TRUE(seen.insert(base).second);
        }
    }
}

// ------------------------------------------------------------- CacheArray

TEST(CacheArray, GeometryChecks)
{
    CacheArray arr("c", 8 * 1024, 4);
    EXPECT_EQ(arr.ways(), 4u);
    EXPECT_EQ(arr.sets(), 32u);
    EXPECT_EQ(arr.lineCapacity(), 128u);
    EXPECT_THROW(CacheArray("bad", 8 * 1024 + 64, 4), FatalError);
    EXPECT_THROW(CacheArray("bad", 192 * 64, 1), FatalError); // 192 sets
}

TEST(CacheArray, FindMissesWhenEmpty)
{
    CacheArray arr("c", 4 * 1024, 4);
    EXPECT_FALSE(arr.find(0x1000));
    EXPECT_EQ(arr.validLines(), 0u);
}

TEST(CacheArray, InsertAndFind)
{
    CacheArray arr("c", 4 * 1024, 4);
    LineRef slot = arr.victimFor(0x1000);
    ASSERT_TRUE(slot);
    slot.lineAddr() = 0x1000;
    slot.state() = CState::kShared;
    arr.touch(slot);
    EXPECT_EQ(arr.find(0x1000), slot);
    EXPECT_EQ(arr.validLines(), 1u);
}

TEST(CacheArray, LruEvictsOldest)
{
    // Direct-mapped-like scenario: fill one set (4 ways) then overflow.
    CacheArray arr("c", 4 * 1024, 4);
    const unsigned sets = arr.sets(); // 16
    std::vector<Addr> sameSet;
    for (unsigned i = 0; i < 5; ++i)
        sameSet.push_back(static_cast<Addr>(i) * sets * kLineBytes);

    for (unsigned i = 0; i < 4; ++i) {
        LineRef slot = arr.victimFor(sameSet[i]);
        EXPECT_FALSE(slot.valid()); // still free ways
        slot.lineAddr() = sameSet[i];
        slot.state() = CState::kShared;
        arr.touch(slot);
    }
    // Refresh line 0 so line 1 becomes LRU.
    arr.touch(arr.find(sameSet[0]));
    LineRef victim = arr.victimFor(sameSet[4]);
    ASSERT_TRUE(victim.valid());
    EXPECT_EQ(victim.lineAddr(), sameSet[1]);
}

TEST(CacheArray, InvalidateAllClears)
{
    CacheArray arr("c", 4 * 1024, 4);
    for (int i = 0; i < 10; ++i) {
        LineRef slot = arr.victimFor(i * kLineBytes);
        slot.lineAddr() = i * kLineBytes;
        slot.state() = CState::kModified;
        arr.touch(slot);
    }
    EXPECT_EQ(arr.validLines(), 10u);
    arr.invalidateAll();
    EXPECT_EQ(arr.validLines(), 0u);
    EXPECT_FALSE(arr.find(0));
}

TEST(CacheArray, ForEachValidVisitsExactlyValidLines)
{
    CacheArray arr("c", 4 * 1024, 4);
    for (int i = 0; i < 7; ++i) {
        LineRef slot = arr.victimFor(i * kLineBytes);
        slot.lineAddr() = i * kLineBytes;
        slot.state() = CState::kExclusive;
        arr.touch(slot);
    }
    int visited = 0;
    arr.forEachValid([&](LineRef) { ++visited; });
    EXPECT_EQ(visited, 7);
}

TEST(CacheArray, ClearForgetsLruHistory)
{
    // A cleared slot must not inherit its previous occupant's LRU
    // tick: refilled-but-untouched slots are the oldest candidates.
    CacheArray arr("c", 4 * 1024, 4);
    const unsigned sets = arr.sets();
    std::vector<Addr> sameSet;
    for (unsigned i = 0; i < 5; ++i)
        sameSet.push_back(static_cast<Addr>(i) * sets * kLineBytes);

    for (unsigned i = 0; i < 4; ++i) {
        LineRef slot = arr.victimFor(sameSet[i]);
        slot.lineAddr() = sameSet[i];
        slot.state() = CState::kShared;
        arr.touch(slot);
    }
    // Way 0 becomes the most recently used...
    arr.touch(arr.find(sameSet[0]));
    EXPECT_GT(arr.find(sameSet[0]).lastUse(),
              arr.find(sameSet[3]).lastUse());

    // ...then everything is invalidated and refilled without touch.
    arr.invalidateAll();
    for (unsigned i = 0; i < 4; ++i) {
        LineRef slot = arr.victimFor(sameSet[i]);
        slot.lineAddr() = sameSet[i];
        slot.state() = CState::kShared;
        EXPECT_EQ(slot.lastUse(), 0u); // no inherited tick
    }
    // With no stale history, the LRU victim is the first way, not
    // whatever way happened to be oldest before the invalidation.
    EXPECT_EQ(arr.victimFor(sameSet[4]), arr.find(sameSet[0]));
}

TEST(CacheArray, StateNames)
{
    EXPECT_STREQ(toString(CState::kInvalid), "I");
    EXPECT_STREQ(toString(CState::kShared), "S");
    EXPECT_STREQ(toString(CState::kExclusive), "E");
    EXPECT_STREQ(toString(CState::kModified), "M");
}

// ------------------------------------------------------------------ DRAM

TEST(Dram, RowHitsAreFasterThanMisses)
{
    DramController d("ddr", DramParams{});
    const Cycles first = d.access(0, 0, false); // row miss
    const Cycles second = d.access(first, 64, false); // same row: hit
    EXPECT_EQ(d.rowMisses(), 1u);
    EXPECT_EQ(d.rowHits(), 1u);
    EXPECT_GT(first - 0, second - first);
}

TEST(Dram, RowSwitchPaysPenalty)
{
    DramParams p;
    DramController d("ddr", p);
    d.access(0, 0, false);
    const Cycles t1 = d.access(1000, 0 + p.rowBytes, false);
    EXPECT_EQ(t1 - 1000, p.lineService + p.rowMissPenalty);
}

TEST(Dram, CountsReadsAndWrites)
{
    DramController d("ddr", DramParams{});
    d.access(0, 0, false);
    d.access(0, 64, true);
    d.access(0, 128, true);
    EXPECT_EQ(d.reads(), 1u);
    EXPECT_EQ(d.writes(), 2u);
    EXPECT_EQ(d.accesses(), 3u);
}

TEST(Dram, ChannelSerializesRequests)
{
    DramController d("ddr", DramParams{});
    const Cycles a = d.access(0, 0, false);
    const Cycles b = d.access(0, 64, false);
    EXPECT_GT(b, a);
    EXPECT_GT(d.busyCycles(), 0u);
}

TEST(Dram, StreamingApproachesLineServiceRate)
{
    DramParams p;
    DramController d("ddr", p);
    Cycles last = 0;
    const int n = 256;
    for (int i = 0; i < n; ++i)
        last = d.access(0, static_cast<Addr>(i) * kLineBytes, false);
    // One row miss per 2KB row; the rest stream at lineService.
    const double perLine = static_cast<double>(last) / n;
    EXPECT_LT(perLine, p.lineService + 2.0);
    EXPECT_GE(perLine, static_cast<double>(p.lineService));
}

TEST(Dram, ResetClearsCountersAndRow)
{
    DramController d("ddr", DramParams{});
    d.access(0, 0, false);
    d.reset();
    EXPECT_EQ(d.accesses(), 0u);
    EXPECT_EQ(d.rowHits() + d.rowMisses(), 0u);
    d.access(0, 0, false);
    EXPECT_EQ(d.rowMisses(), 1u); // row buffer was closed by reset
}

// --------------------------------------------------------- VersionTracker

TEST(VersionTracker, BumpsMonotonically)
{
    VersionTracker v;
    const auto v1 = v.bumpLatest(0x40);
    const auto v2 = v.bumpLatest(0x40);
    const auto v3 = v.bumpLatest(0x80);
    EXPECT_LT(v1, v2);
    EXPECT_LT(v2, v3);
    EXPECT_EQ(v.latest(0x40), v2);
    EXPECT_EQ(v.latest(0x80), v3);
    EXPECT_EQ(v.latest(0xc0), 0u);
}

TEST(VersionTracker, FreshReadsPass)
{
    VersionTracker v;
    const auto stamp = v.bumpLatest(0x40);
    v.checkRead(0x40, stamp, "test");
    EXPECT_EQ(v.violations(), 0u);
}

TEST(VersionTracker, StaleReadsAreCaught)
{
    VersionTracker v;
    const auto old = v.bumpLatest(0x40);
    v.bumpLatest(0x40);
    v.checkRead(0x40, old, "test");
    EXPECT_EQ(v.violations(), 1u);
    ASSERT_EQ(v.violationLog().size(), 1u);
    EXPECT_NE(v.violationLog()[0].find("test"), std::string::npos);
}

TEST(VersionTracker, DramImageSeparateFromLatest)
{
    VersionTracker v;
    const auto stamp = v.bumpLatest(0x40);
    EXPECT_EQ(v.dramVersion(0x40), 0u); // not yet written back
    v.setDramVersion(0x40, stamp);
    EXPECT_EQ(v.dramVersion(0x40), stamp);
}

TEST(VersionTracker, DisabledTrackerIsSilent)
{
    VersionTracker v;
    v.setEnabled(false);
    v.bumpLatest(0x40);
    v.checkRead(0x40, 12345, "test");
    EXPECT_EQ(v.violations(), 0u);
}

TEST(VersionTracker, ResetForgetsHistory)
{
    VersionTracker v;
    v.bumpLatest(0x40);
    v.checkRead(0x40, 0, "test");
    EXPECT_EQ(v.violations(), 1u);
    v.reset();
    EXPECT_EQ(v.violations(), 0u);
    EXPECT_EQ(v.latest(0x40), 0u);
}

namespace
{

/** Line-granular reference for VersionTracker: one map entry per
 *  written line, no blocks, chunks or directory. */
struct TrackerReference
{
    std::unordered_map<Addr, std::uint64_t> latest;
    std::unordered_map<Addr, std::uint64_t> dram;
    std::uint64_t counter = 0;
    std::uint64_t violations = 0;

    static std::uint64_t
    at(const std::unordered_map<Addr, std::uint64_t> &m, Addr a)
    {
        const auto it = m.find(a);
        return it == m.end() ? 0 : it->second;
    }
};

/** Every line of @p blocks 64-line blocks: half of them one
 *  contiguous run, half scattered over a wide key space, so the
 *  directory both fills densely and probes past collisions. */
std::vector<Addr>
trackerLines(Rng &rng, unsigned blocks)
{
    std::set<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < blocks / 2; ++k)
        keys.insert(1000 + k);
    while (keys.size() < blocks)
        keys.insert(rng.uniformInt(std::uint64_t{1} << 24));
    std::vector<Addr> lines;
    for (const std::uint64_t key : keys) {
        for (std::uint64_t sub = 0; sub < 64; ++sub)
            lines.push_back(((key << 6) | sub) << kLineShift);
    }
    return lines;
}

/** Counts tracker reads that disagree with the reference; reports
 *  only the first, so one bug does not print thousands of lines. */
class TrackerCompare
{
  public:
    void
    expect(std::uint64_t got, std::uint64_t want, const char *what,
           Addr a)
    {
        if (got != want && mismatches_++ == 0)
            ADD_FAILURE() << what << " of line 0x" << std::hex << a
                          << std::dec << ": " << got << " != " << want;
    }

    unsigned mismatches() const { return mismatches_; }

  private:
    unsigned mismatches_ = 0;
};

/** @p ops seeded random tracker calls on @p lines, mirrored on @p ref. */
void
driveTrackerMix(VersionTracker &v, TrackerReference &ref,
                const std::vector<Addr> &lines, Rng &rng, unsigned ops,
                TrackerCompare &cmp)
{
    for (unsigned op = 0; op < ops; ++op) {
        const Addr a = lines[rng.uniformInt(lines.size())];
        const std::uint64_t latest = TrackerReference::at(ref.latest, a);
        const std::uint64_t dram = TrackerReference::at(ref.dram, a);
        // Fresh half the time, else any stamp handed out so far.
        const std::uint64_t held =
            rng.bernoulli(0.5) ? latest : rng.uniformInt(ref.counter + 1);
        switch (rng.uniformInt(7)) {
          case 0:
            cmp.expect(v.bumpLatest(a), ++ref.counter, "bumpLatest", a);
            ref.latest[a] = ref.counter;
            break;
          case 1:
            v.setDramVersion(a, held);
            ref.dram[a] = held;
            break;
          case 2:
            v.bumpDramWrite(a);
            ref.latest[a] = ref.dram[a] = ++ref.counter;
            break;
          case 3:
            cmp.expect(v.latest(a), latest, "latest", a);
            break;
          case 4:
            cmp.expect(v.dramVersion(a), dram, "dramVersion", a);
            break;
          case 5:
            v.checkRead(a, held, "mix");
            ref.violations += held != latest;
            break;
          default:
            v.checkDramRead(a, "mix");
            ref.violations += dram != latest;
            break;
        }
    }
    cmp.expect(v.violations(), ref.violations, "violations", 0);
}

/** Both stamps of every line in @p lines against @p ref. */
void
expectLines(const VersionTracker &v, const TrackerReference &ref,
            const std::vector<Addr> &lines, TrackerCompare &cmp)
{
    for (const Addr a : lines) {
        cmp.expect(v.latest(a), TrackerReference::at(ref.latest, a),
                   "latest", a);
        cmp.expect(v.dramVersion(a), TrackerReference::at(ref.dram, a),
                   "dramVersion", a);
    }
}

} // namespace

TEST(VersionTracker, MatchesLineMapAcrossChunksAndReset)
{
    Rng rng(2024);
    // 400 blocks: more than six 64-block chunks, and the 256-slot
    // directory grows twice (at 192 and 384 blocks).
    const std::vector<Addr> lines = trackerLines(rng, 400);
    VersionTracker v;
    TrackerCompare cmp;

    // Round 1: stamp both arrays of every line, so every block that
    // is handed out holds nonzero stamps throughout, then the mix.
    TrackerReference ref;
    for (const Addr a : lines) {
        v.bumpDramWrite(a);
        ref.latest[a] = ref.dram[a] = ++ref.counter;
    }
    driveTrackerMix(v, ref, lines, rng, 200000, cmp);
    expectLines(v, ref, lines, cmp);
    EXPECT_GT(v.violations(), 0u);

    // Round 2 reuses the chunks: every previously written line reads
    // 0, and a block handed out again must not leak round-1 stamps
    // into lines round 2 has not written.
    v.reset();
    EXPECT_EQ(v.violations(), 0u);
    EXPECT_TRUE(v.violationLog().empty());
    TrackerReference fresh;
    expectLines(v, fresh, lines, cmp);
    driveTrackerMix(v, fresh, lines, rng, 20000, cmp);
    expectLines(v, fresh, lines, cmp);
    EXPECT_LT(fresh.latest.size(), lines.size() / 2);
    EXPECT_EQ(cmp.mismatches(), 0u);
}
