#include "rl/table_handle.hh"

#include <utility>

#include "sim/logging.hh"

namespace cohmeleon::rl
{

SwapTableHandle::SwapTableHandle(std::vector<std::uint64_t> readsPerGen)
    : readsPerGen_(std::move(readsPerGen)),
      retired_(readsPerGen_.size(), 0)
{
    fatalIf(readsPerGen_.empty(),
            "swap table needs at least one generation");
}

SwapTableHandle::SwapTableHandle(Model initial,
                                 std::vector<std::uint64_t> readsPerGen)
    : SwapTableHandle(std::move(readsPerGen))
{
    publish(0, std::move(initial));
}

std::uint64_t
SwapTableHandle::generations() const
{
    return readsPerGen_.size();
}

bool
SwapTableHandle::live() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return live_ > 0;
}

std::uint64_t
SwapTableHandle::publishedGen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return live_ == 0 ? 0 : live_ - 1;
}

const Model &
SwapTableHandle::acquire(std::uint64_t gen)
{
    std::unique_lock<std::mutex> lock(mutex_);
    panic_if(gen >= readsPerGen_.size(),
             "acquire of generation beyond the schedule");
    cv_.wait(lock, [&] { return aborted_ || live_ > gen; });
    fatalIf(aborted_, "swap table aborted while waiting for "
                      "generation ", gen);
    // The publish back-pressure keeps the trainer at most two
    // generations ahead, so the requested table is still resident.
    panic_if(live_ > gen + 2,
             "generation ", gen, " already overwritten (published ",
             live_ - 1, ")");
    return slots_[gen % 2];
}

void
SwapTableHandle::release(std::uint64_t gen)
{
    std::lock_guard<std::mutex> lock(mutex_);
    panic_if(gen >= retired_.size(), "release of unknown generation");
    panic_if(retired_[gen] >= readsPerGen_[gen],
             "generation ", gen, " released more often than its ",
             "read quota");
    ++retired_[gen];
    cv_.notify_all();
}

bool
SwapTableHandle::publish(std::uint64_t gen, Model table)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_)
        return false;
    panic_if(gen != live_,
             "publish out of order: expected generation ", live_,
             ", got ", gen);
    panic_if(gen >= readsPerGen_.size(),
             "publish of generation beyond the schedule");
    if (gen >= 2) {
        // The target slot still holds generation gen-2; wait for its
        // read quota to retire before overwriting it.
        const std::uint64_t old = gen - 2;
        cv_.wait(lock, [&] {
            return aborted_ || retired_[old] == readsPerGen_[old];
        });
        if (aborted_)
            return false;
    }
    slots_[gen % 2] = std::move(table);
    live_ = gen + 1;
    cv_.notify_all();
    return true;
}

void
SwapTableHandle::abortWaits()
{
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    cv_.notify_all();
}

const Model &
SwapTableHandle::tableAt(std::uint64_t gen) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    panic_if(gen + 1 != live_ && gen + 2 != live_,
             "tableAt wants a generation that is not resident");
    return slots_[gen % 2];
}

} // namespace cohmeleon::rl
