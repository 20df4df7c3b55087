#include "sim/memctrl.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace reaper {
namespace sim {

MemoryController::MemoryController(const MemCtrlConfig &cfg)
    : cfg_(cfg), banks_(cfg.banks)
{
    if (cfg.banks == 0)
        panic("MemoryController: banks must be > 0");
    if (cfg.writeDrainLow >= cfg.writeDrainHigh)
        panic("MemoryController: writeDrainLow must be < writeDrainHigh");
    if (cfg.refreshWindowScale < 0)
        panic("MemoryController: negative refreshWindowScale");
    if (cfg.refreshWindowScale > 0) {
        double refi = static_cast<double>(cfg.timing.tREFI) *
                      cfg.refreshWindowScale;
        if (cfg.refreshGranularity == RefreshGranularity::PerBank) {
            // One bank per command: commands come banks-times as
            // often, each covering 1/banks of the rows.
            refi /= static_cast<double>(cfg.banks);
        }
        effectiveRefi_ = static_cast<Cycle>(std::llround(refi));
        refreshDue_ = effectiveRefi_;
    } else {
        effectiveRefi_ = 0; // no refresh
    }
}

bool
MemoryController::enqueue(const MemRequest &req, const DramAddr &dram)
{
    auto &queue = req.isWrite ? writeQueue_ : readQueue_;
    if (queue.size() >= cfg_.queueCapacity)
        return false;
    Entry e{req, dram};
    e.req.arrival = now_;
    queue.push_back(std::move(e));
    wakeAt_ = 0;
    if (req.isWrite && req.onComplete) {
        // Writes are posted: ack the producer immediately.
        req.onComplete();
    }
    return true;
}

bool
MemoryController::hasPendingWork() const
{
    return !readQueue_.empty() || !writeQueue_.empty() ||
           !inflight_.empty();
}

bool
MemoryController::canActivate(const Bank &b) const
{
    if (now_ < b.nextAct || now_ < nextActChannel_)
        return false;
    if (actWindow_.size() >= 4 &&
        now_ < actWindow_.front() + cfg_.timing.tFAW)
        return false;
    return true;
}

void
MemoryController::issueActivate(Bank &b, uint64_t row)
{
    b.open = true;
    b.openRow = row;
    b.nextRead = std::max(b.nextRead, now_ + cfg_.timing.tRCD);
    b.nextWrite = std::max(b.nextWrite, now_ + cfg_.timing.tRCD);
    b.nextPre = std::max(b.nextPre, now_ + cfg_.timing.tRAS);
    b.nextAct = now_ + cfg_.timing.tRC;
    nextActChannel_ = now_ + cfg_.timing.tRRD;
    actWindow_.push_back(now_);
    while (actWindow_.size() > 4)
        actWindow_.pop_front();
    ++stats_.commands.act;
    commandIssued_ = true;
}

void
MemoryController::issuePrecharge(Bank &b)
{
    b.open = false;
    b.nextAct = std::max(b.nextAct, now_ + cfg_.timing.tRP);
    ++stats_.commands.pre;
    commandIssued_ = true;
}

void
MemoryController::maybeStartPerBankRefresh()
{
    if (now_ < refreshDue_ && pendingRefreshBank_ < 0)
        return;
    if (pendingRefreshBank_ < 0) {
        pendingRefreshBank_ = static_cast<int>(refreshBankRr_);
        refreshBankRr_ = (refreshBankRr_ + 1) % cfg_.banks;
    }
    Bank &b = banks_[static_cast<size_t>(pendingRefreshBank_)];
    if (b.open) {
        if (!commandIssued_ && now_ >= b.nextPre)
            issuePrecharge(b);
        return;
    }
    if (now_ < b.nextAct || commandIssued_)
        return; // still precharging (or busy from a prior refresh)
    b.nextAct = now_ + cfg_.timing.tRFCpb;
    refreshDue_ += effectiveRefi_;
    pendingRefreshBank_ = -1;
    ++stats_.commands.refpb;
    commandIssued_ = true;
}

void
MemoryController::maybeStartRefresh()
{
    if (effectiveRefi_ == 0)
        return;
    if (cfg_.refreshGranularity == RefreshGranularity::PerBank) {
        maybeStartPerBankRefresh();
        return;
    }
    if (now_ < refreshEndsAt_) {
        ++stats_.refreshStallCycles;
        return;
    }
    if (now_ < refreshDue_)
        return;
    refreshPending_ = true;

    // Close open banks as soon as their tRAS allows, then refresh.
    bool all_closed = true;
    for (Bank &b : banks_) {
        if (b.open) {
            all_closed = false;
            if (!commandIssued_ && now_ >= b.nextPre) {
                issuePrecharge(b);
                all_closed = std::all_of(
                    banks_.begin(), banks_.end(),
                    [](const Bank &x) { return !x.open; });
            }
            break;
        }
    }
    if (!all_closed)
        return;
    // All banks precharged: wait for tRP to elapse on the last PRE,
    // expressed through nextAct; the refresh occupies tRFCab.
    Cycle start = now_;
    for (const Bank &b : banks_)
        start = std::max(start, b.nextAct);
    if (start > now_)
        return; // banks still precharging
    if (commandIssued_)
        return;
    refreshEndsAt_ = now_ + cfg_.timing.tRFCab;
    for (Bank &b : banks_)
        b.nextAct = refreshEndsAt_;
    refreshDue_ += effectiveRefi_;
    refreshPending_ = false;
    ++stats_.commands.refab;
    commandIssued_ = true;
}

bool
MemoryController::serviceQueue(std::vector<Entry> &queue, bool is_write)
{
    if (queue.empty() || commandIssued_)
        return false;
    // While a refresh is waiting for banks to close, hold all request
    // traffic so tRAS/tRTP windows drain and the refresh can start.
    if (refreshPending_)
        return false;

    // FR-FCFS scans the whole queue for ready row hits; plain FCFS
    // only ever considers the oldest request.
    size_t scan_limit = cfg_.scheduler == SchedulerPolicy::Fcfs
                            ? std::min<size_t>(1, queue.size())
                            : queue.size();

    auto try_cas = [&](size_t idx) -> bool {
        Entry &e = queue[idx];
        if (static_cast<int>(e.dram.bank) == pendingRefreshBank_)
            return false; // bank draining for a per-bank refresh
        Bank &b = banks_[e.dram.bank];
        if (!b.open || b.openRow != e.dram.row)
            return false;
        Cycle ready = is_write ? b.nextWrite : b.nextRead;
        if (now_ < ready || now_ < busFreeAt_)
            return false;
        if (!is_write && now_ < readTurnaroundAt_)
            return false;

        const TimingParams &t = cfg_.timing;
        busFreeAt_ = now_ + t.tBURST;
        if (is_write) {
            ++stats_.commands.wr;
            ++stats_.writesServed;
            readTurnaroundAt_ = std::max(
                readTurnaroundAt_, now_ + t.tWL + t.tBURST + t.tWTR);
            b.nextPre = std::max(b.nextPre,
                                 now_ + t.tWL + t.tBURST + t.tWR);
        } else {
            ++stats_.commands.rd;
            ++stats_.readsServed;
            b.nextPre = std::max(b.nextPre, now_ + t.tRTP);
            Cycle done = now_ + t.tRL + t.tBURST;
            stats_.readLatencySum += done - e.req.arrival;
            inflight_.emplace(done, e.req);
        }
        b.nextRead = std::max(b.nextRead, now_ + t.tCCD);
        b.nextWrite = std::max(b.nextWrite, now_ + t.tCCD);

        if (cfg_.rowPolicy == RowPolicy::Closed) {
            // Approximate auto-precharge: close the row once the
            // access completes (timing is folded into nextAct).
            b.open = false;
            b.nextAct = std::max(b.nextAct, b.nextPre + t.tRP);
            ++stats_.commands.pre;
        }
        queue.erase(queue.begin() + static_cast<long>(idx));
        commandIssued_ = true;
        return true;
    };

    // Pass 1: oldest-first ready row hit.
    for (size_t i = 0; i < scan_limit; ++i) {
        if (try_cas(i))
            return true;
    }

    // Pass 2: progress the oldest request whose bank needs ACT/PRE.
    for (size_t i = 0; i < scan_limit; ++i) {
        Entry &e = queue[i];
        if (static_cast<int>(e.dram.bank) == pendingRefreshBank_)
            continue; // bank draining for a per-bank refresh
        Bank &b = banks_[e.dram.bank];
        if (b.open && b.openRow != e.dram.row) {
            // Row conflict: precharge when allowed (row hits to this
            // bank were already served in pass 1).
            if (now_ >= b.nextPre) {
                issuePrecharge(b);
                return true;
            }
            continue;
        }
        if (!b.open && canActivate(b)) {
            issueActivate(b, e.dram.row);
            return true;
        }
    }
    return false;
}

bool
MemoryController::completeReads()
{
    bool completed = false;
    while (!inflight_.empty() && inflight_.front().first <= now_) {
        MemRequest req = std::move(inflight_.front().second);
        inflight_.pop();
        if (req.onComplete)
            req.onComplete();
        completed = true;
    }
    return completed;
}

Cycle
MemoryController::nextWake() const
{
    Cycle wake = std::numeric_limits<Cycle>::max();
    auto consider = [&](Cycle c) {
        if (c > now_ && c < wake)
            wake = c;
    };
    auto consider_bank = [&](const Bank &b) {
        consider(b.nextAct);
        consider(b.nextPre);
        consider(b.nextRead);
        consider(b.nextWrite);
    };
    if (!inflight_.empty())
        consider(inflight_.front().first);
    consider(busFreeAt_);
    consider(readTurnaroundAt_);
    consider(nextActChannel_);
    if (actWindow_.size() >= 4)
        consider(actWindow_.front() + cfg_.timing.tFAW);
    if (effectiveRefi_ != 0) {
        consider(refreshDue_);
        consider(refreshEndsAt_);
    }
    // Requests only look at their own bank; a refresh looks at all.
    bool refreshing = refreshPending_ || pendingRefreshBank_ >= 0 ||
                      (effectiveRefi_ != 0 && now_ >= refreshDue_);
    if (refreshing) {
        for (const Bank &b : banks_)
            consider_bank(b);
    } else {
        for (const Entry &e : readQueue_)
            consider_bank(banks_[e.dram.bank]);
        for (const Entry &e : writeQueue_)
            consider_bank(banks_[e.dram.bank]);
    }
    return wake;
}

void
MemoryController::fullTick()
{
    const bool was_pending = refreshPending_;
    const int was_pending_bank = pendingRefreshBank_;
    const bool was_draining = drainingWrites_;

    commandIssued_ = false;
    bool completed = completeReads();
    maybeStartRefresh();

    if (!drainingWrites_ && writeQueue_.size() >= cfg_.writeDrainHigh)
        drainingWrites_ = true;
    if (drainingWrites_ && writeQueue_.size() <= cfg_.writeDrainLow)
        drainingWrites_ = false;
    // Opportunistic write drain when there is nothing else to do.
    bool drain = drainingWrites_ || readQueue_.empty();

    if (drain) {
        if (!serviceQueue(writeQueue_, true))
            serviceQueue(readQueue_, false);
    } else {
        if (!serviceQueue(readQueue_, false))
            serviceQueue(writeQueue_, true);
    }
    // A tick that changed no state repeats until a threshold flips.
    if (!commandIssued_ && !completed && refreshPending_ == was_pending &&
        pendingRefreshBank_ == was_pending_bank &&
        drainingWrites_ == was_draining)
        wakeAt_ = nextWake();
    ++now_;
}

} // namespace sim
} // namespace reaper
