#include "sim/core.h"

#include <algorithm>

#include "common/logging.h"

namespace reaper {
namespace sim {

Core::Core(const CoreConfig &cfg, const Trace &trace, bool loop)
    : cfg_(cfg), trace_(trace), loop_(loop)
{
    if (cfg.windowSize == 0 || cfg.issueWidth == 0)
        panic("Core: windowSize and issueWidth must be > 0");
    if (cfg.cpuPerMemCycle <= 0)
        panic("Core: cpuPerMemCycle must be > 0");
    if (trace_.entries.empty()) {
        done_ = true;
    } else {
        bubblesLeft_ = trace_.entries.front().bubbles;
    }
}

double
Core::ipc() const
{
    return cpuCycles_ ? static_cast<double>(retired_) /
                            static_cast<double>(cpuCycles_)
                      : 0.0;
}

bool
Core::traceDone() const
{
    return done_ && windowLoad() == 0;
}

void
Core::windowRetire()
{
    uint64_t ready_end =
        outstanding_.empty() ? tailSeq_ : outstanding_.front();
    uint64_t n = std::min<uint64_t>(cfg_.issueWidth, ready_end - headSeq_);
    headSeq_ += n;
    retired_ += n;
}

void
Core::loadCompleted(uint64_t seq)
{
    auto it = std::find(outstanding_.begin(), outstanding_.end(), seq);
    if (it == outstanding_.end())
        panic("Core: completion for a load that is not outstanding");
    outstanding_.erase(it);
    blocked_ = false;
}

bool
Core::computeBlocked() const
{
    if (!windowFull() || outstanding_.empty() ||
        outstanding_.front() != headSeq_)
        return false;
    return done_ || bubblesLeft_ > 0 || !trace_.entries[tracePos_].isWrite;
}

void
Core::cpuCycle(const SendFn &send)
{
    ++cpuCycles_;
    windowRetire();

    uint32_t issued = 0;
    while (issued < cfg_.issueWidth && !done_) {
        if (bubblesLeft_ > 0) {
            // A run of bubbles enters the window in one step.
            uint64_t n = std::min<uint64_t>(
                {bubblesLeft_, cfg_.issueWidth - issued,
                 cfg_.windowSize - windowLoad()});
            if (n == 0)
                break; // window full
            tailSeq_ += n;
            bubblesLeft_ -= static_cast<uint32_t>(n);
            issued += static_cast<uint32_t>(n);
            continue;
        }

        const TraceEntry &e = trace_.entries[tracePos_];
        MemRequest req;
        req.addr = e.addr;
        req.isWrite = e.isWrite;
        req.coreId = cfg_.id;
        if (e.isWrite) {
            if (!send(req))
                break; // write queue full: stall this cycle
            ++retired_; // stores are posted and retire immediately
        } else {
            if (windowFull() || outstanding_.size() >= cfg_.mshrs)
                break;
            uint64_t seq = tailSeq_;
            req.onComplete = [this, seq]() { loadCompleted(seq); };
            if (!send(req))
                break;
            outstanding_.push_back(seq);
            ++tailSeq_;
        }
        ++issued;

        // Advance to the next trace record.
        ++tracePos_;
        if (tracePos_ >= trace_.entries.size()) {
            if (loop_) {
                tracePos_ = 0;
            } else {
                done_ = true;
                break;
            }
        }
        bubblesLeft_ = trace_.entries[tracePos_].bubbles;
    }
    blocked_ = computeBlocked();
}

} // namespace sim
} // namespace reaper
