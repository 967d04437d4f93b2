/**
 * @file
 * Double-buffered, generation-published learned-model handle: the
 * swap point between the serving loop's concurrent readers and the
 * background trainer's staged models.
 *
 * Two Model slots alternate roles. The published slot serves
 * decisions; the other is the staging buffer the trainer writes the
 * next generation into. publish() flips the roles atomically (one
 * mutex-guarded index bump), so readers never observe a
 * half-written table and serving never stalls on a swap — a reader
 * either still pins the old generation or picks up the new one.
 * Generation 0 is either given at construction or published later
 * like any other (its readers then block until it arrives).
 *
 * Determinism is the point of the generation protocol. A wall-clock
 * swap ("whatever table happens to be current") would make decisions
 * depend on scheduling, so instead every request is assigned its
 * generation up front (seq / swap-interval) and acquire(gen) blocks
 * until that generation is published. Replaying the same request
 * trace therefore reads exactly the same table contents at any
 * thread count, which is what makes the serve decision log
 * byte-identical across widths.
 *
 * The same assignment bounds the trainer's lead: publish(g)
 * overwrites the slot holding generation g-2, so it waits until
 * every reader of g-2 has come and gone (the per-generation read
 * quota passed at construction). That back-pressure — trainer at
 * most two generations ahead of the slowest reader — is what makes
 * two buffers sufficient.
 *
 * Synchronization is one mutex + condition variable: acquire/release
 * bracket whole request simulations (milliseconds), so lock cost is
 * noise, and the simple protocol is trivially TSan-clean (the TSan
 * CI leg runs the serve loop under load).
 */

#ifndef COHMELEON_RL_TABLE_HANDLE_HH
#define COHMELEON_RL_TABLE_HANDLE_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "rl/learned_model.hh"

namespace cohmeleon::rl
{

/** Swap-safe serving/staging pair of models (see file comment). */
class SwapTableHandle
{
  public:
    /**
     * Nothing published yet: generation 0 arrives through
     * publish(0, ...), and its readers block until then.
     * @p readsPerGen   exactly how many acquire() calls each
     *                  generation will receive in a full run; the
     *                  size is the generation count
     */
    explicit SwapTableHandle(std::vector<std::uint64_t> readsPerGen);

    /** @p initial is generation 0, published immediately. */
    SwapTableHandle(Model initial,
                    std::vector<std::uint64_t> readsPerGen);

    std::uint64_t generations() const;

    /** Whether generation 0 has been published. */
    bool live() const;

    /** Highest published generation (== hot-swap count so far);
     *  0 while nothing is live. */
    std::uint64_t publishedGen() const;

    /**
     * Pin generation @p gen for reading, blocking until the trainer
     * publishes it. The reference stays valid until the matching
     * release(gen).
     * @throws FatalError after abortWaits() (drain cancelled the
     *         remaining generations)
     */
    const Model &acquire(std::uint64_t gen);

    /** Drop the pin taken by acquire(@p gen). */
    void release(std::uint64_t gen);

    /**
     * Stage @p table as generation @p gen (the next one: 0 while
     * nothing is live, else publishedGen() + 1) and swap it into
     * service. Blocks until generation gen-2 has
     * retired (all its reads happened and released).
     * @return false when abortWaits() cancelled the publish — the
     *         drain path's signal that no reader will ever want this
     *         generation
     */
    bool publish(std::uint64_t gen, Model table);

    /**
     * Drain support: wake every blocked acquire()/publish() and make
     * further publishes no-ops. Call after the serving workers have
     * been joined, so a trainer blocked on a generation nobody will
     * read exits instead of deadlocking.
     */
    void abortWaits();

    /**
     * Quiescent access to a live generation's table, for the
     * serving+staging checkpoint after the drain: the handle must be
     * live() and @p gen must be publishedGen() or (when
     * publishedGen() > 0) publishedGen()-1.
     * Not safe while readers or the trainer are still running.
     */
    const Model &tableAt(std::uint64_t gen) const;

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    Model slots_[2];                       ///< gen g lives in g % 2
    std::vector<std::uint64_t> readsPerGen_;
    std::vector<std::uint64_t> retired_;    ///< completed reads per gen
    std::uint64_t live_ = 0;                ///< generations published
    bool aborted_ = false;
};

} // namespace cohmeleon::rl

#endif // COHMELEON_RL_TABLE_HANDLE_HH
