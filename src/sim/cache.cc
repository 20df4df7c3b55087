#include "sim/cache.h"

#include "common/logging.h"

namespace reaper {
namespace sim {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    if (cfg.lineBytes == 0 || cfg.ways == 0)
        panic("Cache: lineBytes and ways must be > 0");
    uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    if (lines == 0 || lines % cfg.ways != 0)
        panic("Cache: size must be a multiple of ways * lineBytes");
    sets_ = lines / cfg.ways;
    tags_.resize(lines);
    lruStamps_.resize(lines);
    dirty_.resize(lines);
}

uint64_t
Cache::setOf(uint64_t addr) const
{
    return (addr / cfg_.lineBytes) % sets_;
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return (addr / cfg_.lineBytes) / sets_;
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t *tags = &tags_[setOf(addr) * cfg_.ways];
    uint64_t key = tagOf(addr) + 1;
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == key)
            return true;
    }
    return false;
}

CacheAccess
Cache::access(uint64_t addr, bool is_write)
{
    CacheAccess result;
    uint64_t set = setOf(addr);
    uint64_t base = set * cfg_.ways;
    uint64_t key = tagOf(addr) + 1;
    for (uint64_t i = base; i < base + cfg_.ways; ++i) {
        if (tags_[i] == key) {
            result.hit = true;
            lruStamps_[i] = ++stamp_;
            dirty_[i] = dirty_[i] || is_write;
            ++stats_.hits;
            return result;
        }
    }
    ++stats_.misses;
    // Victim: first invalid way, otherwise least-recently used.
    uint64_t victim = base;
    for (uint64_t i = base; i < base + cfg_.ways; ++i) {
        if (tags_[i] == 0) {
            victim = i;
            break;
        }
        if (lruStamps_[i] < lruStamps_[victim])
            victim = i;
    }
    // Allocate over the LRU (or an invalid) way.
    if (tags_[victim] != 0 && dirty_[victim]) {
        result.writeback = true;
        result.writebackAddr =
            ((tags_[victim] - 1) * sets_ + set) * cfg_.lineBytes;
        ++stats_.writebacks;
    }
    tags_[victim] = key;
    dirty_[victim] = is_write;
    lruStamps_[victim] = ++stamp_;
    return result;
}

} // namespace sim
} // namespace reaper
