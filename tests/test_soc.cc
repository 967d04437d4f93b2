/** @file Tests for SoC assembly, tile placement, the Table-4 presets,
 *  the hardware monitors, and CPU-side data paths. */

#include <gtest/gtest.h>

#include "serve/request_gen.hh"
#include "soc/soc.hh"
#include "soc/soc_presets.hh"
#include "test_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::soc;

TEST(SocConfig, ValidateCatchesOverfullMesh)
{
    SocConfig cfg = test::tinySocConfig();
    cfg.meshCols = 2;
    cfg.meshRows = 2;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(SocConfig, ValidateCatchesUnknownAccType)
{
    SocConfig cfg = test::tinySocConfig();
    soc::AccInstanceCfg bad;
    bad.type = "flux-capacitor";
    cfg.accs.push_back(std::move(bad));
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(SocConfig, AccNamesAreTheBuiltSocsInstanceNames)
{
    std::vector<SocConfig> cfgs;
    for (std::string_view name : knownSocNames())
        cfgs.push_back(makeSocByName(name));
    // Instances without a name are named type + index.
    SocConfig unnamed = makeSoc5();
    unnamed.name = "soc5-unnamed";
    for (AccInstanceCfg &a : unnamed.accs)
        a.name.clear();
    cfgs.push_back(unnamed);

    for (const SocConfig &cfg : cfgs) {
        const std::vector<std::string> names = cfg.accNames();
        const Soc soc(cfg);
        ASSERT_EQ(names.size(), soc.numAccs()) << cfg.name;
        for (AccId i = 0; i < soc.numAccs(); ++i)
            EXPECT_EQ(names[i], soc.accelerator(i).config().name)
                << cfg.name << " instance " << i;
    }
    EXPECT_EQ(unnamed.accNames()[3], unnamed.accs[3].type + "3");
}

TEST(SocConfig, FigureTenantOnMissingAcceleratorIsOneLine)
{
    // fig5 invokes tgen0..tgen11; soc1 has only tgen0..tgen6.
    serve::ServeSpec spec;
    spec.soc = "soc1";
    spec.tenants = {{"fig5", 1.0, ""}};
    serve::labelTenants(spec);
    std::string diag;
    try {
        serve::generateRequestTrace(spec, makeSoc1());
    } catch (const FatalError &e) {
        diag = e.what();
    }
    EXPECT_NE(diag.find("figure tenant 'fig5' invokes accelerator "
                        "'tgen7', which SoC 'soc1' does not have"),
              std::string::npos)
        << diag;
    EXPECT_EQ(diag.find('\n'), std::string::npos) << diag;
}

TEST(SocConfig, TotalLlcIsSliceTimesMemTiles)
{
    SocConfig cfg = test::tinySocConfig();
    EXPECT_EQ(cfg.totalLlcBytes(), 2ull * 32 * 1024);
}

TEST(Soc, PlacesMemTilesAtCorners)
{
    Soc soc(test::tinySocConfig());
    const auto &roles = soc.tileRoles();
    EXPECT_EQ(roles[soc.topo().idOf({0, 0})], TileType::kMem);
    EXPECT_EQ(roles[soc.topo().idOf({3, 2})], TileType::kMem);
    unsigned cpus = 0;
    unsigned accs = 0;
    unsigned mems = 0;
    unsigned aux = 0;
    for (TileType t : roles) {
        cpus += t == TileType::kCpu;
        accs += t == TileType::kAcc;
        mems += t == TileType::kMem;
        aux += t == TileType::kAux;
    }
    EXPECT_EQ(cpus, 2u);
    EXPECT_EQ(accs, 4u);
    EXPECT_EQ(mems, 2u);
    EXPECT_EQ(aux, 1u);
}

TEST(Soc, FindAccByNameAndType)
{
    Soc soc(test::tinySocConfig());
    EXPECT_EQ(soc.findAcc("fft0"), 0u);
    EXPECT_EQ(soc.findAcc("tgen0"), 3u);
    EXPECT_THROW(soc.findAcc("nope"), FatalError);
    EXPECT_EQ(soc.accsOfType("fft"), std::vector<AccId>{0});
    EXPECT_TRUE(soc.accsOfType("gemm").empty());
}

TEST(Soc, AccWithoutPrivateCacheLacksFullyCoh)
{
    SocConfig cfg = test::tinySocConfig();
    cfg.accs[1].privateCache = false;
    Soc soc(cfg);
    EXPECT_FALSE(coh::maskHas(soc.bridge(1).availableModes(),
                              coh::CoherenceMode::kFullyCoh));
    EXPECT_TRUE(coh::maskHas(soc.bridge(0).availableModes(),
                             coh::CoherenceMode::kFullyCoh));
}

TEST(Soc, CpuWriteWarmsCaches)
{
    Soc soc(test::tinySocConfig());
    mem::Allocation a = soc.allocator().allocate(16 * 1024);
    const Cycles done = soc.cpuWriteRange(0, 0, a, 16 * 1024);
    EXPECT_GT(done, 0u);
    // 16KB through an 8KB L2: the L2 is full and the LLC holds spill.
    EXPECT_GT(soc.cpuL2(0).array().validLines(), 0u);
    EXPECT_GT(soc.ms().slice(0).array().validLines() +
                  soc.ms().slice(1).array().validLines(),
              0u);
}

TEST(Soc, CpuReadAfterWriteIsCoherent)
{
    Soc soc(test::tinySocConfig());
    mem::Allocation a = soc.allocator().allocate(32 * 1024);
    const Cycles w = soc.cpuWriteRange(0, 0, a, 32 * 1024);
    soc.cpuReadRange(w, 1, a, 32 * 1024); // the *other* CPU reads
    EXPECT_EQ(soc.ms().versions().violations(), 0u);
}

TEST(Soc, ResetRestoresCleanState)
{
    Soc soc(test::tinySocConfig());
    mem::Allocation a = soc.allocator().allocate(16 * 1024);
    soc.cpuWriteRange(0, 0, a, 16 * 1024);
    soc.reset();
    EXPECT_EQ(soc.eq().now(), 0u);
    EXPECT_EQ(soc.cpuL2(0).array().validLines(), 0u);
    EXPECT_EQ(soc.ms().totalDramAccesses(), 0u);
    // Allocator was rebuilt: full capacity available again.
    EXPECT_EQ(soc.allocator().freePages(),
              soc.map().totalBytes() / soc.config().pageBytes);
}

// ----------------------------------------------------------- Table 4

namespace
{

struct Table4Row
{
    const char *name;
    unsigned accs;
    unsigned meshCols;
    unsigned meshRows;
    unsigned cpus;
    unsigned ddrs;
    std::uint64_t llcSliceKb;
    std::uint64_t l2Kb;
};

class Table4Test : public ::testing::TestWithParam<Table4Row>
{
};

} // namespace

TEST_P(Table4Test, MatchesPaperParameters)
{
    const Table4Row row = GetParam();
    const SocConfig cfg = makeSocByName(row.name);
    EXPECT_EQ(cfg.accs.size(), row.accs);
    EXPECT_EQ(cfg.meshCols, row.meshCols);
    EXPECT_EQ(cfg.meshRows, row.meshRows);
    EXPECT_EQ(cfg.cpus, row.cpus);
    EXPECT_EQ(cfg.memTiles, row.ddrs);
    EXPECT_EQ(cfg.llcSliceBytes, row.llcSliceKb * 1024);
    EXPECT_EQ(cfg.l2Bytes, row.l2Kb * 1024);
    // And the SoC actually builds.
    EXPECT_NO_THROW(Soc{cfg});
}

INSTANTIATE_TEST_SUITE_P(
    PaperSocs, Table4Test,
    ::testing::Values(Table4Row{"soc0", 12, 5, 5, 4, 4, 512, 64},
                      Table4Row{"soc1", 7, 4, 4, 2, 4, 256, 32},
                      Table4Row{"soc2", 9, 4, 4, 4, 2, 512, 32},
                      Table4Row{"soc3", 16, 5, 5, 4, 4, 256, 64},
                      Table4Row{"soc4", 11, 5, 4, 2, 4, 256, 32},
                      Table4Row{"soc5", 8, 4, 4, 1, 4, 256, 32},
                      Table4Row{"soc6", 9, 4, 4, 1, 2, 256, 32}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(SocPresets, Soc3HasFiveAccsWithoutPrivateCache)
{
    const SocConfig cfg = makeSoc3();
    unsigned without = 0;
    for (const auto &a : cfg.accs)
        without += a.privateCache ? 0 : 1;
    EXPECT_EQ(without, 5u);
}

TEST(SocPresets, Soc5IsTheAutonomousDrivingMix)
{
    Soc soc(makeSoc5());
    EXPECT_EQ(soc.accsOfType("fft").size(), 2u);
    EXPECT_EQ(soc.accsOfType("viterbi").size(), 2u);
    EXPECT_EQ(soc.accsOfType("conv2d").size(), 2u);
    EXPECT_EQ(soc.accsOfType("gemm").size(), 2u);
}

TEST(SocPresets, Soc6IsThreeVisionPipelines)
{
    Soc soc(makeSoc6());
    EXPECT_EQ(soc.accsOfType("nightvision").size(), 3u);
    EXPECT_EQ(soc.accsOfType("autoencoder").size(), 3u);
    EXPECT_EQ(soc.accsOfType("mlp").size(), 3u);
}

TEST(SocPresets, Figure9ListNamesBuildableSocs)
{
    for (std::string_view name : figure9SocNames())
        EXPECT_NO_THROW(makeSocByName(name));
    EXPECT_EQ(figure9SocNames().size(), 8u);
}

TEST(SocPresets, TgenFlavorsDiffer)
{
    const SocConfig streaming = makeSoc0(TgenFlavor::kStreaming);
    const SocConfig irregular = makeSoc0(TgenFlavor::kIrregular);
    for (const auto &a : streaming.accs)
        EXPECT_EQ(a.profile->pattern, acc::AccessPattern::kStreaming);
    for (const auto &a : irregular.accs)
        EXPECT_EQ(a.profile->pattern, acc::AccessPattern::kIrregular);
}

TEST(SocPresets, UnknownNameIsFatal)
{
    EXPECT_THROW(makeSocByName("soc99"), FatalError);
}

// ---------------------------------------------------------------- monitors

TEST(Monitors, DdrRegsTrackControllerCounts)
{
    Soc soc(test::tinySocConfig());
    const std::uint32_t before = soc.monitors().readDdrAccessReg(0);
    soc.ms().dramRead(0, 0, 2);
    soc.ms().dramRead(100, kLineBytes, 2);
    const std::uint32_t after = soc.monitors().readDdrAccessReg(0);
    EXPECT_EQ(HardwareMonitors::delta32(before, after), 2u);
}

TEST(Monitors, Delta32HandlesWraparound)
{
    EXPECT_EQ(HardwareMonitors::delta32(0xfffffff0u, 0x00000010u),
              0x20u);
    EXPECT_EQ(HardwareMonitors::delta32(5, 5), 0u);
}

TEST(Monitors, TotalSumsAllControllers)
{
    Soc soc(test::tinySocConfig());
    soc.ms().dramRead(0, 0, 2);                           // partition 0
    soc.ms().dramRead(0, soc.map().base(1), 2);           // partition 1
    EXPECT_EQ(soc.monitors().ddrAccessesTotal(), 2u);
    EXPECT_EQ(soc.monitors().numDdrRegs(), 2u);
    EXPECT_EQ(soc.monitors().ddrAccesses64(0), 1u);
    EXPECT_EQ(soc.monitors().ddrAccesses64(1), 1u);
}
