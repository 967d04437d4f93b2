#include "soc/soc.hh"

#include <algorithm>
#include <ostream>

#include "acc/presets.hh"
#include "sim/logging.hh"

namespace cohmeleon::soc
{

void
SocConfig::validate() const
{
    fatalIf(cpus == 0, "SoC needs at least one CPU");
    fatalIf(memTiles == 0, "SoC needs at least one memory tile");
    fatalIf(memTiles > 4, "at most four memory tiles are supported");
    fatalIf(accs.empty(), "SoC needs at least one accelerator");
    const unsigned tiles = meshCols * meshRows;
    fatalIf(cpus + memTiles + accs.size() + 1 > tiles,
            "SoC '", name, "' does not fit in a ", meshCols, "x",
            meshRows, " mesh");
    for (const auto &a : accs)
        fatalIf(!acc::isPreset(a.type), "unknown accelerator type '",
                a.type, "'");
}

std::vector<std::string>
SocConfig::accNames() const
{
    std::vector<std::string> names;
    names.reserve(accs.size());
    for (std::size_t i = 0; i < accs.size(); ++i)
        names.push_back(accs[i].name.empty()
                            ? accs[i].type + std::to_string(i)
                            : accs[i].name);
    return names;
}

Soc::Soc(SocConfig cfg)
    : cfg_(std::move(cfg)),
      topo_(cfg_.meshCols, cfg_.meshRows),
      map_(cfg_.memTiles, cfg_.dramPartitionBytes),
      rng_(cfg_.seed)
{
    cfg_.validate();

    noc_ = std::make_unique<noc::NocModel>(topo_, cfg_.nocParams);
    allocator_ =
        std::make_unique<mem::PageAllocator>(map_, cfg_.pageBytes);

    placeTiles();

    ms_ = std::make_unique<mem::MemorySystem>(
        *noc_, map_, cfg_.memTiming, cfg_.llcSliceBytes, cfg_.llcWays,
        memTiles_);
    monitors_ = std::make_unique<HardwareMonitors>(*ms_);

    // Processor tiles: CPU + private L2.
    for (unsigned c = 0; c < cfg_.cpus; ++c) {
        cpuL2s_.push_back(&ms_->addL2("cpu" + std::to_string(c) + ".l2",
                                      cpuTiles_[c], cfg_.l2Bytes,
                                      cfg_.l2Ways));
    }

    // Accelerator tiles: engine + socket (bridge, TLB, optional L2).
    const std::vector<std::string> names = cfg_.accNames();
    for (std::size_t i = 0; i < cfg_.accs.size(); ++i) {
        const AccInstanceCfg &ic = cfg_.accs[i];
        const AccId id = static_cast<AccId>(i);
        const TileId tile = accTiles_[i];
        const std::string &instName = names[i];

        acc::AccConfig accCfg =
            ic.profile ? acc::makeTrafficGen(instName, *ic.profile)
                       : acc::makePreset(ic.type, instName);

        mem::L2Cache *priv = nullptr;
        if (ic.privateCache) {
            priv = &ms_->addL2(instName + ".l2", tile, cfg_.accL2Bytes,
                               cfg_.accL2Ways);
        }
        bridges_.push_back(
            std::make_unique<coh::DmaBridge>(*ms_, tile, priv));
        tlbs_.push_back(std::make_unique<acc::Tlb>(*ms_, tile,
                                                   cfg_.sw.tlbPerPage));
        accs_.push_back(std::make_unique<acc::Accelerator>(
            std::move(accCfg), id, tile, *bridges_.back(), eq_,
            rng_.split()));
    }
}

void
Soc::placeTiles()
{
    const unsigned tiles = topo_.tileCount();
    roles_.assign(tiles, TileType::kEmpty);

    // Memory tiles at the mesh corners, as in ESP floorplans.
    const std::vector<noc::Coord> corners = {
        {0, 0},
        {static_cast<int>(topo_.cols()) - 1,
         static_cast<int>(topo_.rows()) - 1},
        {0, static_cast<int>(topo_.rows()) - 1},
        {static_cast<int>(topo_.cols()) - 1, 0},
    };
    for (unsigned m = 0; m < cfg_.memTiles; ++m) {
        const TileId t = topo_.idOf(corners[m]);
        roles_[t] = TileType::kMem;
        memTiles_.push_back(t);
    }

    // Auxiliary tile on the first free slot, then CPUs, then
    // accelerators, row-major.
    auto nextFree = [&](TileId from) {
        TileId t = from;
        while (roles_[t] != TileType::kEmpty)
            ++t;
        return t;
    };

    TileId cursor = nextFree(0);
    roles_[cursor] = TileType::kAux;

    for (unsigned c = 0; c < cfg_.cpus; ++c) {
        cursor = nextFree(cursor);
        roles_[cursor] = TileType::kCpu;
        cpuTiles_.push_back(cursor);
    }
    for (std::size_t i = 0; i < cfg_.accs.size(); ++i) {
        cursor = nextFree(cursor);
        roles_[cursor] = TileType::kAcc;
        accTiles_.push_back(cursor);
    }
}

Cycles
Soc::cpuWriteRange(Cycles now, unsigned cpu, const mem::Allocation &alloc,
                   std::uint64_t bytes)
{
    panic_if(cpu >= cfg_.cpus, "bad cpu index");
    const std::uint64_t lines = linesFor(std::min(bytes, alloc.bytes()));
    Cycles t = now;
    for (std::uint64_t l = 0; l < lines; ++l)
        t = cpuL2s_[cpu]->write(t, alloc.addrOfLine(l)).done;
    return t;
}

Cycles
Soc::cpuReadRange(Cycles now, unsigned cpu, const mem::Allocation &alloc,
                  std::uint64_t bytes)
{
    panic_if(cpu >= cfg_.cpus, "bad cpu index");
    const std::uint64_t lines = linesFor(std::min(bytes, alloc.bytes()));
    Cycles t = now;
    for (std::uint64_t l = 0; l < lines; ++l)
        t = cpuL2s_[cpu]->read(t, alloc.addrOfLine(l)).done;
    return t;
}

AccId
Soc::findAcc(std::string_view name) const
{
    for (std::size_t i = 0; i < accs_.size(); ++i) {
        if (accs_[i]->config().name == name)
            return static_cast<AccId>(i);
    }
    fatal("no accelerator instance named '", std::string(name), "'");
}

std::vector<AccId>
Soc::accsOfType(std::string_view typeName) const
{
    std::vector<AccId> ids;
    for (std::size_t i = 0; i < accs_.size(); ++i) {
        if (accs_[i]->config().typeName == typeName)
            ids.push_back(static_cast<AccId>(i));
    }
    return ids;
}

void
Soc::dumpStats(std::ostream &os) const
{
    auto pct = [](std::uint64_t part, std::uint64_t whole) {
        return whole == 0 ? 0.0
                          : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
    };

    os << "=== " << cfg_.name << " stats @ cycle " << eq_.now()
       << " ===\n";

    // unique_ptr does not propagate constness, so the stats reads
    // below go through the mutable MemorySystem reference.
    mem::MemorySystem &ms = *ms_;
    for (unsigned i = 0; i < ms.numL2s(); ++i) {
        auto &l2 = ms.l2(i);
        const std::uint64_t refs = l2.hits() + l2.misses();
        os << l2.name() << ": refs " << refs << " hit% "
           << pct(l2.hits(), refs) << " writebacks "
           << l2.writebacks() << " recalls " << l2.recallsServed()
           << " occupancy " << l2.array().validLines() << "/"
           << l2.array().lineCapacity() << '\n';
    }
    for (unsigned p = 0; p < ms.numPartitions(); ++p) {
        auto &slice = ms.slice(p);
        const std::uint64_t refs = slice.hits() + slice.misses();
        os << slice.name() << ": refs " << refs << " hit% "
           << pct(slice.hits(), refs) << " recalls "
           << slice.recalls() << " invals " << slice.invalidations()
           << " evictions " << slice.evictions() << '\n';
        const auto &dram = slice.dram();
        os << dram.name() << ": reads " << dram.reads() << " writes "
           << dram.writes() << " rowhit% "
           << pct(dram.rowHits(), dram.rowHits() + dram.rowMisses())
           << " busy " << dram.busyCycles() << '\n';
    }
    os << "noc: packets " << noc_->packets() << " flits "
       << noc_->flits() << " wait-cycles " << noc_->totalWaitCycles()
       << '\n';
    for (const auto &accel : accs_) {
        os << accel->config().name << ": invocations "
           << accel->invocationsCompleted() << '\n';
    }
}

void
Soc::reset()
{
    panic_if(eq_.pending() != 0, "reset with events in flight");
    eq_.reset();
    noc_->reset();
    ms_->reset();
    allocator_ =
        std::make_unique<mem::PageAllocator>(map_, cfg_.pageBytes);
}

} // namespace cohmeleon::soc
