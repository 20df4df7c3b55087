#include "ledger.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_nextId{1};
std::atomic<uint32_t> g_nextTid{1};

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Ledger &
Ledger::global()
{
    static Ledger ledger;
    return ledger;
}

Ledger::Buffer &
Ledger::buffer()
{
    thread_local std::shared_ptr<Buffer> mine;
    if (!mine) {
        mine = std::make_shared<Buffer>();
        mine->tid = g_nextTid.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mtx_);
        buffers_.push_back(mine);
    }
    return *mine;
}

uint64_t
Ledger::nextId()
{
    return g_nextId.fetch_add(1, std::memory_order_relaxed);
}

void
Ledger::append(uint64_t id, const char *name, uint64_t startNs,
               uint64_t endNs, uint64_t parent, uint64_t req)
{
    Buffer &b = buffer();
    b.spans.push_back({name, id, parent, req, startNs, endNs, b.tid});
}

void
Ledger::record(const char *name, uint64_t startNs, uint64_t endNs,
               uint64_t parent, uint64_t req)
{
    if (on_)
        append(nextId(), name, startNs, endNs, parent, req);
}

std::vector<SpanRecord>
Ledger::collect() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    std::vector<SpanRecord> out;
    for (const auto &b : buffers_)
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
}

std::map<std::string, LayerTotals>
Ledger::totals() const
{
    std::vector<SpanRecord> spans = collect();
    std::unordered_map<uint64_t, uint64_t> childNs;
    for (const SpanRecord &s : spans)
        if (s.parent != 0)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, LayerTotals> out;
    for (const SpanRecord &s : spans) {
        LayerTotals &t = out[s.name];
        uint64_t dur = s.endNs - s.startNs;
        auto it = childNs.find(s.id);
        uint64_t children = it == childNs.end() ? 0 : it->second;
        t.count += 1;
        t.totalNs += dur;
        uint64_t self = dur > children ? dur - children : 0;
        t.selfNs += self;
        t.durNs.push_back(static_cast<double>(dur));
        t.selfEachNs.push_back(static_cast<double>(self));
    }
    return out;
}

bool
Ledger::writeJsonl(const std::string &path) const
{
    std::ofstream os(path);
    for (const SpanRecord &s : collect())
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"req\":" << s.req
           << ",\"tid\":" << s.tid << ",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << "}\n";
    os.flush();
    return static_cast<bool>(os);
}

void
Ledger::clear()
{
    std::lock_guard<std::mutex> lock(mtx_);
    for (const auto &b : buffers_)
        b->spans.clear();
}

Scope::Scope(const char *name, uint64_t req) : name_(name), req_(req)
{
    Ledger &l = Ledger::global();
    if (!l.on())
        return;
    Ledger::Buffer &b = l.buffer();
    parent_ = b.open.empty() ? 0 : b.open.back();
    id_ = Ledger::nextId();
    b.open.push_back(id_);
    startNs_ = nowNs();
}

Scope::~Scope()
{
    if (id_ == 0)
        return;
    uint64_t end = nowNs();
    Ledger &l = Ledger::global();
    Ledger::Buffer &b = l.buffer();
    b.open.pop_back();
    l.append(id_, name_, startNs_, end, parent_, req_);
}

} // namespace perfbench
