/**
 * @file
 * Set-associative last-level cache with LRU replacement and write-back
 * write-allocate policy (Table 2: 8 MB, 16-way, 64 B lines).
 */

#ifndef REAPER_SIM_CACHE_H
#define REAPER_SIM_CACHE_H

#include <cstdint>
#include <vector>

#include "sim/timing.h"

namespace reaper {
namespace sim {

/** Cache configuration. */
struct CacheConfig
{
    uint64_t sizeBytes = 8ull * 1024 * 1024;
    uint32_t ways = 16;
    uint32_t lineBytes = 64;
    Cycle hitLatency = 12; ///< controller cycles (~30 CPU cycles)
};

/** Result of one cache access. */
struct CacheAccess
{
    bool hit = false;
    bool writeback = false;    ///< a dirty victim must be written back
    uint64_t writebackAddr = 0;
};

/** Cache statistics. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    double
    missRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** LRU set-associative cache model (tags only; no data payload). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access one line. On a miss the line is allocated (write misses
     * allocate without fetching: the whole line is overwritten).
     * @return hit/miss plus any dirty victim writeback.
     */
    CacheAccess access(uint64_t addr, bool is_write);

    /** Whether the line is currently cached (no LRU side effects). */
    bool probe(uint64_t addr) const;

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg_; }
    uint64_t numSets() const { return sets_; }

  private:
    uint64_t setOf(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;

    CacheConfig cfg_;
    uint64_t sets_;
    // Per line, sets_ x ways row-major, so a probe reads only tags_.
    std::vector<uint64_t> tags_; ///< tag + 1; 0 = invalid way
    std::vector<uint64_t> lruStamps_;
    std::vector<uint8_t> dirty_;
    uint64_t stamp_ = 0;
    CacheStats stats_;
};

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_CACHE_H
