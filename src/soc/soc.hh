/**
 * @file
 * Assembly of one complete SoC: the tile grid, the NoC, the memory
 * hierarchy, the accelerators with their sockets (DMA bridge, TLB,
 * optional private cache, coherence-mode config register), the CPUs,
 * and the hardware monitors.
 *
 * Mirrors ESP's tile-based organization: processor tiles (CPU + L2),
 * accelerator tiles (engine + socket), memory tiles (LLC slice + DDR
 * controller), and an auxiliary tile (paper Section 4.3).
 */

#ifndef COHMELEON_SOC_SOC_HH
#define COHMELEON_SOC_SOC_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "acc/accelerator.hh"
#include "acc/tlb.hh"
#include "coh/dma_bridge.hh"
#include "mem/memory_system.hh"
#include "mem/page_allocator.hh"
#include "noc/noc_model.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "soc/monitors.hh"

namespace cohmeleon::soc
{

/** Software-side overhead constants of the invocation path. */
struct SwTimingParams
{
    Cycles driverInvoke = 1200;  ///< driver entry, config registers
    Cycles statusTracking = 200; ///< sense bookkeeping per invocation
    Cycles evaluateCost = 320;   ///< monitor reads + reward math
    Cycles tlbPerPage = 30;      ///< TLB install cost per entry
};

/** One accelerator instance in the SoC configuration. */
struct AccInstanceCfg
{
    std::string type;           ///< preset name or "tgen"
    std::string name;           ///< instance name (auto if empty)
    bool privateCache = true;   ///< enables the fully-coherent mode
    /** For "tgen": explicit traffic profile. */
    std::optional<acc::TrafficProfile> profile;
};

/** Full parameterization of one SoC (Table 4 of the paper). */
struct SocConfig
{
    std::string name = "soc";
    unsigned meshCols = 4;
    unsigned meshRows = 4;
    unsigned cpus = 2;
    unsigned memTiles = 2;

    std::uint64_t llcSliceBytes = 256 * 1024;
    unsigned llcWays = 8;
    std::uint64_t l2Bytes = 32 * 1024; ///< CPU private caches
    unsigned l2Ways = 4;
    std::uint64_t accL2Bytes = 32 * 1024; ///< accelerator private caches
    unsigned accL2Ways = 4;

    std::vector<AccInstanceCfg> accs;

    std::uint64_t dramPartitionBytes = 64ull * 1024 * 1024;
    std::uint64_t pageBytes = 64 * 1024;

    mem::MemTimingParams memTiming;
    noc::NocParams nocParams;
    SwTimingParams sw;
    std::uint64_t seed = 1;

    std::uint64_t totalLlcBytes() const
    {
        return static_cast<std::uint64_t>(memTiles) * llcSliceBytes;
    }

    /** Accelerator instance names in id order: an instance's
     *  `name`, or its type followed by its index when that is empty.
     *  Soc's accelerators carry exactly these names, so apps and
     *  request traces are named from the config alone. */
    std::vector<std::string> accNames() const;

    /** @throws FatalError on inconsistent configuration */
    void validate() const;
};

/** Role of a grid tile. */
enum class TileType : std::uint8_t
{
    kEmpty,
    kCpu,
    kAcc,
    kMem,
    kAux,
};

/** One assembled SoC instance. */
class Soc
{
  public:
    explicit Soc(SocConfig cfg);

    // --- Infrastructure -------------------------------------------------
    EventQueue &eq() { return eq_; }
    const noc::MeshTopology &topo() const { return topo_; }
    noc::NocModel &noc() { return *noc_; }
    const mem::AddressMap &map() const { return map_; }
    mem::PageAllocator &allocator() { return *allocator_; }
    mem::MemorySystem &ms() { return *ms_; }
    HardwareMonitors &monitors() { return *monitors_; }
    const SocConfig &config() const { return cfg_; }
    Rng &rng() { return rng_; }

    // --- CPUs ------------------------------------------------------------
    unsigned numCpus() const { return cfg_.cpus; }
    TileId cpuTile(unsigned cpu) const { return cpuTiles_[cpu]; }
    mem::L2Cache &cpuL2(unsigned cpu) { return *cpuL2s_[cpu]; }

    /**
     * CPU-side sequential write of the first @p bytes of @p alloc
     * through the cache hierarchy (application data initialization —
     * this is what makes accelerator data "warm").
     * @return completion time
     */
    Cycles cpuWriteRange(Cycles now, unsigned cpu,
                         const mem::Allocation &alloc,
                         std::uint64_t bytes);

    /** CPU-side sequential read (output consumption). */
    Cycles cpuReadRange(Cycles now, unsigned cpu,
                        const mem::Allocation &alloc,
                        std::uint64_t bytes);

    // --- Accelerators -----------------------------------------------------
    unsigned numAccs() const
    {
        return static_cast<unsigned>(accs_.size());
    }
    acc::Accelerator &accelerator(AccId id) { return *accs_[id]; }
    const acc::Accelerator &
    accelerator(AccId id) const
    {
        return *accs_[id];
    }
    coh::DmaBridge &bridge(AccId id) { return *bridges_[id]; }
    acc::Tlb &tlb(AccId id) { return *tlbs_[id]; }
    TileId accTile(AccId id) const { return accTiles_[id]; }

    /** @return id of the instance named @p name.
     *  @throws FatalError if absent */
    AccId findAcc(std::string_view name) const;

    /** Ids of all instances of type @p typeName, ascending. */
    std::vector<AccId> accsOfType(std::string_view typeName) const;

    /** Tile-role map (row-major), for diagnostics and tests. */
    const std::vector<TileType> &tileRoles() const { return roles_; }

    /**
     * Dump an aggregate statistics block: per-cache hit rates,
     * per-slice directory activity, DRAM utilization and row-buffer
     * locality, and NoC load.
     */
    void dumpStats(std::ostream &os) const;

    /** Clear all caches, counters, link state, and the clock. */
    void reset();

  private:
    void placeTiles();

    SocConfig cfg_;
    EventQueue eq_;
    noc::MeshTopology topo_;
    std::unique_ptr<noc::NocModel> noc_;
    mem::AddressMap map_;
    std::unique_ptr<mem::PageAllocator> allocator_;
    std::unique_ptr<mem::MemorySystem> ms_;
    std::unique_ptr<HardwareMonitors> monitors_;
    Rng rng_;

    std::vector<TileType> roles_;
    std::vector<TileId> memTiles_;
    std::vector<TileId> cpuTiles_;
    std::vector<TileId> accTiles_;
    std::vector<mem::L2Cache *> cpuL2s_;
    std::vector<std::unique_ptr<coh::DmaBridge>> bridges_;
    std::vector<std::unique_ptr<acc::Tlb>> tlbs_;
    std::vector<std::unique_ptr<acc::Accelerator>> accs_;
};

} // namespace cohmeleon::soc

#endif // COHMELEON_SOC_SOC_HH
