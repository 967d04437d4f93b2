/**
 * @file
 * Coherence correctness checker.
 *
 * Every write anywhere in the system stamps the written line with a
 * globally increasing version. Cached copies and the DRAM image carry
 * the stamp of the data they hold. Whenever a consumer reads a line,
 * the held stamp is compared against the newest stamp for that line;
 * a mismatch means the protocol (or the software-managed flushing a
 * coherence mode requires) served stale data.
 *
 * The runtime performs the flushes each mode requires, so production
 * runs must report zero violations; the property tests also drive the
 * modes *without* the required flushes and assert that the checker
 * catches the resulting staleness.
 *
 * The tracker is charged on every line of every DMA burst, so its
 * storage is organized for burst locality: stamps live in blocks of
 * 64 consecutive lines ({latest[64], dram[64]} per block, 1 KiB,
 * handed out on first write), reached through an open-addressed block
 * directory with a one-entry cache. A contiguous or moderately
 * strided burst resolves one directory probe per block instead of two
 * node-based map lookups per line. The DMA paths use the fused
 * checkDramRead() / bumpDramWrite() helpers, which touch the line's
 * block once.
 *
 * Blocks are carved from fixed chunks of 64 blocks (64 KiB) that are
 * never moved or freed before the tracker is, so a Block pointer, held
 * by the directory and the one-entry cache, stays valid for the
 * tracker's life. A training SoC touches a few thousand blocks; one
 * growing vector would need a 4 MB buffer (6 MB while it moves).
 * glibc serves such buffers with mmap and, once one is freed, raises
 * its mmap and trim thresholds, so every thread that ran a simulation
 * would keep megabytes of freed memory resident. Chunks stay below
 * the 128 KiB mmap threshold and are reused across reset(), which
 * only rewinds the hand-out cursor; a block is zeroed when it is
 * handed out.
 */

#ifndef COHMELEON_MEM_VERSION_TRACKER_HH
#define COHMELEON_MEM_VERSION_TRACKER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cohmeleon::mem
{

/** Global latest-write registry plus the DRAM version image. */
class VersionTracker
{
  public:
    VersionTracker() { initDirectory(kInitialDirCapacity); }

    /** Record a new write to @p lineAddr. @return the new stamp. */
    std::uint64_t
    bumpLatest(Addr lineAddr)
    {
        if (!enabled_)
            return 0;
        return blockFor(lineAddr)->latest[subOf(lineAddr)] = ++counter_;
    }

    /** Newest stamp for @p lineAddr (0 if never written). */
    std::uint64_t
    latest(Addr lineAddr) const
    {
        const Block *b = findBlock(lineAddr);
        return b ? b->latest[subOf(lineAddr)] : 0;
    }

    /** DRAM image: stamp of the data currently in main memory. */
    std::uint64_t
    dramVersion(Addr lineAddr) const
    {
        const Block *b = findBlock(lineAddr);
        return b ? b->dram[subOf(lineAddr)] : 0;
    }

    void
    setDramVersion(Addr lineAddr, std::uint64_t version)
    {
        if (!enabled_)
            return;
        blockFor(lineAddr)->dram[subOf(lineAddr)] = version;
    }

    /**
     * Check a read observation: @p held is the stamp of the data the
     * reader was served. Counts (and remembers a few) violations.
     *
     * @param reader short description for diagnostics
     */
    void
    checkRead(Addr lineAddr, std::uint64_t held, const char *reader)
    {
        if (!enabled_)
            return;
        const Block *b = findBlock(lineAddr);
        const std::uint64_t want = b ? b->latest[subOf(lineAddr)] : 0;
        if (held != want)
            recordViolation(lineAddr, held, want, reader);
    }

    /** Fused checkRead(a, dramVersion(a), reader): one block access
     *  for the non-coherent-DMA read path. */
    void
    checkDramRead(Addr lineAddr, const char *reader)
    {
        if (!enabled_)
            return;
        const Block *b = findBlock(lineAddr);
        if (!b)
            return; // never written: DRAM holds version 0 == latest 0
        const unsigned sub = subOf(lineAddr);
        if (b->dram[sub] != b->latest[sub])
            recordViolation(lineAddr, b->dram[sub], b->latest[sub],
                            reader);
    }

    /** Fused setDramVersion(a, bumpLatest(a)): one block access for
     *  the non-coherent-DMA write path. */
    void
    bumpDramWrite(Addr lineAddr)
    {
        if (!enabled_)
            return;
        Block *b = blockFor(lineAddr);
        const unsigned sub = subOf(lineAddr);
        b->latest[sub] = b->dram[sub] = ++counter_;
    }

    std::uint64_t violations() const { return violations_; }
    const std::vector<std::string> &violationLog() const
    {
        return violationLog_;
    }

    /** Enable/disable checking (off saves time in large sweeps). */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    void reset();

  private:
    static constexpr std::size_t kMaxLoggedViolations = 16;
    static constexpr std::size_t kInitialDirCapacity = 256;
    /** Lines per block; blocks are aligned groups of consecutive
     *  lines, so a burst walks within a block. */
    static constexpr unsigned kBlockShift = 6;
    static constexpr std::size_t kBlockLines = std::size_t{1}
                                               << kBlockShift;
    /** Blocks per chunk: 64 KiB, below glibc's mmap threshold. */
    static constexpr std::size_t kChunkBlocks = 64;
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    struct Block
    {
        std::uint64_t latest[kBlockLines] = {};
        std::uint64_t dram[kBlockLines] = {};
    };

    /** Directory slot: block key -> its block. */
    struct DirEntry
    {
        std::uint64_t key = kEmptyKey;
        Block *block = nullptr;
    };

    static std::uint64_t
    blockKeyOf(Addr lineAddr)
    {
        return (lineAddr >> kLineShift) >> kBlockShift;
    }

    static unsigned
    subOf(Addr lineAddr)
    {
        return static_cast<unsigned>(lineAddr >> kLineShift) &
               (kBlockLines - 1);
    }

    static std::uint64_t
    hashOf(std::uint64_t key)
    {
        return key * 0x9E3779B97F4A7C15ull; // Fibonacci hashing
    }

    /** Directory probe, read-only; null if the block was never
     *  written. Refreshes the one-entry cache on a hit. */
    const Block *
    findBlock(Addr lineAddr) const
    {
        const std::uint64_t key = blockKeyOf(lineAddr);
        if (key == cachedKey_)
            return cachedBlock_;
        const std::size_t mask = dir_.size() - 1;
        std::size_t idx =
            static_cast<std::size_t>(hashOf(key) >> hashShift_);
        while (true) {
            const DirEntry &e = dir_[idx];
            if (e.key == key) {
                cachedKey_ = key;
                cachedBlock_ = e.block;
                return e.block;
            }
            if (e.key == kEmptyKey)
                return nullptr;
            idx = (idx + 1) & mask;
        }
    }

    Block *blockFor(Addr lineAddr); ///< insert-if-absent variant
    Block *newBlock();              ///< next zeroed block

    void initDirectory(std::size_t capacity);
    void growDirectory();
    void recordViolation(Addr lineAddr, std::uint64_t held,
                         std::uint64_t want, const char *reader);

    bool enabled_ = true;
    std::uint64_t counter_ = 0;
    std::uint64_t violations_ = 0;
    std::vector<DirEntry> dir_;
    /** Fixed-size block arrays; never moved, kept across reset(). */
    std::vector<std::unique_ptr<Block[]>> chunks_;
    std::size_t blocksUsed_ = 0; ///< blocks handed out since reset()
    std::size_t growAt_ = 0;
    unsigned hashShift_ = 0; ///< 64 - log2(directory size)
    mutable std::uint64_t cachedKey_ = kEmptyKey;
    mutable Block *cachedBlock_ = nullptr;
    std::vector<std::string> violationLog_;
};

} // namespace cohmeleon::mem

#endif // COHMELEON_MEM_VERSION_TRACKER_HH
