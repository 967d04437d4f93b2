#include "mem/version_tracker.hh"

#include <sstream>

namespace cohmeleon::mem
{

void
VersionTracker::initDirectory(std::size_t capacity)
{
    dir_.assign(capacity, DirEntry{});
    growAt_ = capacity - capacity / 4; // grow at 75% occupancy
    hashShift_ = 64;
    while ((std::size_t{1} << (64 - hashShift_)) < capacity)
        --hashShift_;
    cachedKey_ = kEmptyKey;
    cachedBlock_ = nullptr;
}

VersionTracker::Block *
VersionTracker::newBlock()
{
    const std::size_t chunk = blocksUsed_ / kChunkBlocks;
    if (chunk == chunks_.size())
        chunks_.push_back(std::make_unique<Block[]>(kChunkBlocks));
    Block *b = &chunks_[chunk][blocksUsed_ % kChunkBlocks];
    ++blocksUsed_;
    *b = Block{}; // a chunk kept across reset() holds old stamps
    return b;
}

VersionTracker::Block *
VersionTracker::blockFor(Addr lineAddr)
{
    const std::uint64_t key = blockKeyOf(lineAddr);
    if (key == cachedKey_)
        return cachedBlock_;
    const std::size_t mask = dir_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(hashOf(key) >> hashShift_);
    while (true) {
        DirEntry &e = dir_[idx];
        if (e.key == key) {
            cachedKey_ = key;
            cachedBlock_ = e.block;
            return e.block;
        }
        if (e.key == kEmptyKey) {
            if (blocksUsed_ >= growAt_) {
                growDirectory();
                return blockFor(key << (kLineShift + kBlockShift));
            }
            e.key = key;
            e.block = newBlock();
            cachedKey_ = key;
            cachedBlock_ = e.block;
            return e.block;
        }
        idx = (idx + 1) & mask;
    }
}

void
VersionTracker::growDirectory()
{
    std::vector<DirEntry> old = std::move(dir_);
    initDirectory(old.size() * 2);
    const std::size_t mask = dir_.size() - 1;
    for (const DirEntry &e : old) {
        if (e.key == kEmptyKey)
            continue;
        std::size_t idx =
            static_cast<std::size_t>(hashOf(e.key) >> hashShift_);
        while (dir_[idx].key != kEmptyKey)
            idx = (idx + 1) & mask;
        dir_[idx] = e;
    }
}

void
VersionTracker::recordViolation(Addr lineAddr, std::uint64_t held,
                                std::uint64_t want, const char *reader)
{
    ++violations_;
    if (violationLog_.size() < kMaxLoggedViolations) {
        std::ostringstream os;
        os << reader << " read line 0x" << std::hex << lineAddr
           << std::dec << " version " << held << ", latest is " << want;
        violationLog_.push_back(os.str());
    }
}

void
VersionTracker::reset()
{
    counter_ = 0;
    violations_ = 0;
    blocksUsed_ = 0; // keep the chunks; newBlock() zeroes what it reuses
    initDirectory(kInitialDirCapacity);
    violationLog_.clear();
}

} // namespace cohmeleon::mem
