/**
 * @file
 * Trace-driven out-of-order core model (Table 2: 4 GHz, 3-wide issue,
 * 128-entry instruction window, 8 MSHRs per core).
 *
 * The model mirrors Ramulator's simple OOO core: non-memory
 * instructions retire immediately once issued; loads occupy a window
 * slot until their data returns; stores are posted. The core runs at a
 * configurable multiple of the memory-controller clock (4 GHz vs
 * 1.6 GHz -> 2.5 CPU cycles per controller cycle).
 */

#ifndef REAPER_SIM_CORE_H
#define REAPER_SIM_CORE_H

#include <functional>
#include <vector>

#include "sim/request.h"
#include "sim/trace.h"

namespace reaper {
namespace sim {

/** Core configuration. */
struct CoreConfig
{
    int id = 0;
    uint32_t windowSize = 128;
    uint32_t issueWidth = 3;
    uint32_t mshrs = 8;
    /** CPU cycles per memory-controller cycle (4 GHz / 1.6 GHz). */
    double cpuPerMemCycle = 2.5;
};

/**
 * Function the core uses to send a memory access into the memory
 * hierarchy. Returns false if the hierarchy cannot accept it this
 * cycle (queue full); the core stalls and retries.
 */
using SendFn = std::function<bool(const MemRequest &)>;

/** One trace-driven core. */
class Core
{
  public:
    /**
     * @param cfg core parameters
     * @param trace the access trace (borrowed; must outlive the core)
     * @param loop restart the trace at the end (fixed-duration runs)
     */
    Core(const CoreConfig &cfg, const Trace &trace, bool loop = true);

    // Load completion callbacks capture `this`: no copy, hence no move.
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Advance one memory-controller cycle. */
    void tick(const SendFn &send);

    uint64_t retiredInstructions() const { return retired_; }
    uint64_t cpuCycles() const { return cpuCycles_; }
    /** Instructions per CPU cycle so far. */
    double ipc() const;
    /** Whether a non-looping core has consumed its whole trace. */
    bool traceDone() const;
    uint32_t outstandingReads() const
    {
        return static_cast<uint32_t>(outstanding_.size());
    }
    int id() const { return cfg_.id; }

  private:
    /** One CPU cycle: retire then issue. */
    void cpuCycle(const SendFn &send);

    uint64_t windowLoad() const { return tailSeq_ - headSeq_; }
    bool windowFull() const { return windowLoad() == cfg_.windowSize; }
    /** Retire up to issueWidth ready entries from the window head. */
    void windowRetire();
    void loadCompleted(uint64_t seq);
    /**
     * Whether no CPU cycle can change anything but the cycle count
     * until the oldest load returns: the window is full, its head is
     * an outstanding load, and the next op needs a window slot (a
     * store retires without one).
     */
    bool computeBlocked() const;

    CoreConfig cfg_;
    const Trace &trace_;
    bool loop_;

    // Instruction window as sequence numbers: entries headSeq_ ..
    // tailSeq_-1 are in flight, and every one is ready except the
    // loads listed (ascending) in outstanding_.
    uint64_t headSeq_ = 0; ///< oldest entry
    uint64_t tailSeq_ = 0; ///< next entry
    std::vector<uint64_t> outstanding_;
    bool blocked_ = false; ///< computeBlocked() as of the last cycle

    size_t tracePos_ = 0;
    uint32_t bubblesLeft_ = 0;

    uint64_t retired_ = 0;
    uint64_t cpuCycles_ = 0;
    double cpuCredit_ = 0.0;
    bool done_ = false;
};

inline void
Core::tick(const SendFn &send)
{
    cpuCredit_ += cfg_.cpuPerMemCycle;
    while (cpuCredit_ >= 1.0) {
        cpuCredit_ -= 1.0;
        if (blocked_)
            ++cpuCycles_; // only the head load's return can unblock
        else
            cpuCycle(send);
    }
}

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_CORE_H
