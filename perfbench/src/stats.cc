#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    size_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    if (n % 2 == 1)
        return samples[n / 2];
    return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double
tailQuantile(size_t n, size_t beyond)
{
    for (double q : {0.99, 0.9, 0.5}) {
        size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(n)));
        if (n >= rank + beyond)
            return q;
    }
    return 0.0;
}

LatencySummary
summarize(const std::vector<double> &samples)
{
    LatencySummary s;
    s.n = samples.size();
    s.p50 = percentile(samples, 0.5);
    s.tailQ = tailQuantile(s.n);
    s.tail = s.tailQ > 0 ? percentile(samples, s.tailQ) : 0.0;
    return s;
}

} // namespace perfbench
