/**
 * @file
 * Cycle-level DRAM memory controller for one channel: FR-FCFS
 * scheduling, bank timing state machines, write draining, and refresh
 * (the component whose overhead the whole paper is about).
 *
 * Modeled after the controller configuration of Table 2: 64-entry
 * read/write queues, FR-FCFS [Rixner et al.], open- or closed-row
 * policy, all-bank refresh every tREFI with banks blocked for tRFCab.
 */

#ifndef REAPER_SIM_MEMCTRL_H
#define REAPER_SIM_MEMCTRL_H

#include <deque>
#include <queue>
#include <vector>

#include "sim/request.h"
#include "sim/timing.h"

namespace reaper {
namespace sim {

/** Row-buffer management policy. */
enum class RowPolicy
{
    Open,   ///< leave rows open (single-core, Table 2)
    Closed, ///< auto-precharge after each access (multi-core)
};

/** Request scheduling policy. */
enum class SchedulerPolicy
{
    FrFcfs, ///< first-ready row hits before oldest (Table 2)
    Fcfs,   ///< strictly oldest-first (ablation baseline)
};

/** Refresh command granularity. */
enum class RefreshGranularity
{
    AllBank, ///< REFab: all banks blocked for tRFCab (Table 2)
    PerBank, ///< REFpb: banks refreshed round-robin, one at a time
};

/** Controller configuration. */
struct MemCtrlConfig
{
    TimingParams timing{};
    uint32_t banks = 8;
    uint64_t rowsPerBank = 32768;
    uint32_t rowBytes = 2048;
    size_t queueCapacity = 64;
    size_t writeDrainHigh = 48; ///< start draining writes
    size_t writeDrainLow = 16;  ///< stop draining writes
    RowPolicy rowPolicy = RowPolicy::Open;
    SchedulerPolicy scheduler = SchedulerPolicy::FrFcfs;
    RefreshGranularity refreshGranularity = RefreshGranularity::AllBank;
    /**
     * Refresh interval as a multiple of the default 64 ms window
     * (e.g. 16.0 for a 1024 ms target). 0 disables refresh entirely
     * (the paper's "no refresh" upper bound).
     */
    double refreshWindowScale = 1.0;
};

/** DRAM command counts for the power model. */
struct CommandCounts
{
    uint64_t act = 0;
    uint64_t pre = 0;
    uint64_t rd = 0;
    uint64_t wr = 0;
    uint64_t refab = 0;
    uint64_t refpb = 0;
};

/** Controller statistics. */
struct MemCtrlStats
{
    CommandCounts commands;
    uint64_t readsServed = 0;
    uint64_t writesServed = 0;
    uint64_t refreshStallCycles = 0; ///< cycles all banks blocked by REF
    uint64_t readLatencySum = 0;     ///< sum of read queueing+service

    /** CAS commands that reused an already-open row. */
    uint64_t rowHits() const
    {
        uint64_t cas = commands.rd + commands.wr;
        return cas > commands.act ? cas - commands.act : 0;
    }
    /** Row-hit fraction of all column accesses. */
    double rowHitRate() const
    {
        uint64_t cas = commands.rd + commands.wr;
        return cas ? static_cast<double>(rowHits()) /
                         static_cast<double>(cas)
                   : 0.0;
    }
};

/** One-channel FR-FCFS memory controller. */
class MemoryController
{
  public:
    explicit MemoryController(const MemCtrlConfig &cfg);

    /**
     * Enqueue a request (address must be pre-decoded into `dram`
     * coordinates by the caller). Returns false when the queue is
     * full; the caller must retry later.
     */
    bool enqueue(const MemRequest &req, const DramAddr &dram);

    /** Advance one controller cycle. */
    void tick();

    Cycle now() const { return now_; }
    size_t readQueueSize() const { return readQueue_.size(); }
    size_t writeQueueSize() const { return writeQueue_.size(); }
    bool hasPendingWork() const;
    const MemCtrlStats &stats() const { return stats_; }
    const MemCtrlConfig &config() const { return cfg_; }

  private:
    struct Entry
    {
        MemRequest req;
        DramAddr dram;
    };

    struct Bank
    {
        bool open = false;
        uint64_t openRow = 0;
        Cycle nextAct = 0;
        Cycle nextRead = 0;
        Cycle nextWrite = 0;
        Cycle nextPre = 0;
    };

    /** tick() when not waiting: complete, refresh, schedule. */
    void fullTick();
    /** Whether the bank can accept an ACT this cycle (incl. channel
     *  tRRD/tFAW constraints). */
    bool canActivate(const Bank &b) const;
    /** Issue one command for the given queue; true if issued. */
    bool serviceQueue(std::vector<Entry> &queue, bool is_write);
    void issueActivate(Bank &b, uint64_t row);
    void issuePrecharge(Bank &b);
    void maybeStartRefresh();
    void maybeStartPerBankRefresh();
    /** Deliver due read data; true if any read completed. */
    bool completeReads();
    /**
     * After a tick that changed no state, the first cycle at which a
     * timing threshold the tick compared against can flip: until then
     * every tick would do the same nothing.
     */
    Cycle nextWake() const;

    MemCtrlConfig cfg_;
    Cycle now_ = 0;
    std::vector<Bank> banks_;
    std::vector<Entry> readQueue_;
    std::vector<Entry> writeQueue_;
    bool drainingWrites_ = false;
    bool commandIssued_ = false; ///< one command per cycle
    /** Ticks before this cycle only advance now_ (see nextWake);
     *  enqueue() resets it. */
    Cycle wakeAt_ = 0;

    // Channel-level constraints.
    Cycle nextActChannel_ = 0;
    std::deque<Cycle> actWindow_; ///< timestamps of last ACTs (tFAW)
    Cycle busFreeAt_ = 0;
    Cycle readTurnaroundAt_ = 0;  ///< earliest RD after a WR (tWTR)

    // Refresh.
    Cycle refreshDue_ = 0;
    bool refreshPending_ = false;     ///< all-bank refresh waiting
    int pendingRefreshBank_ = -1;     ///< per-bank refresh waiting
    uint32_t refreshBankRr_ = 0;      ///< per-bank round-robin cursor
    Cycle refreshEndsAt_ = 0;
    Cycle effectiveRefi_ = 0; ///< scaled command interval; 0 = disabled

    // In-flight read completions: (cycle, entry index) FIFO.
    std::queue<std::pair<Cycle, MemRequest>> inflight_;

    MemCtrlStats stats_;
};

inline void
MemoryController::tick()
{
    if (now_ >= wakeAt_) {
        fullTick();
        return;
    }
    // Waiting: nothing can change this cycle. Account what a full tick
    // would: an all-bank refresh in progress stalls every bank.
    if (now_ < refreshEndsAt_)
        ++stats_.refreshStallCycles;
    ++now_;
}

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_MEMCTRL_H
