/**
 * @file
 * Numerical helpers: normal CDF/quantile, log-space combinatorics, and
 * binomial tail probabilities used by the ECC reliability model.
 */

#ifndef REAPER_COMMON_MATH_UTIL_H
#define REAPER_COMMON_MATH_UTIL_H

#include <cstdint>

namespace reaper {

/** Standard normal cumulative distribution function Phi(x). */
double normalCdf(double x);

/** Normal CDF with mean mu and standard deviation sigma (sigma > 0). */
double normalCdf(double x, double mu, double sigma);

/**
 * Inverse standard normal CDF (probit). Uses the Acklam rational
 * approximation refined with one Halley step; |error| < 1e-9 over (0, 1).
 */
double normalQuantile(double p);

/** Number of equal-width buckets of u in the normalQuantile brackets. */
constexpr int kQuantileBuckets = 4096;

/**
 * Bracket of normalQuantile over one bucket. Bucket k covers u in
 * [k, k + 1) / kQuantileBuckets; for every u in an interior bucket
 * (0 < k < kQuantileBuckets - 1), lo <= normalQuantile(u) <= hi. The
 * two tail buckets, where the quantile is unbounded, hold lo = -inf and
 * hi = +inf, so a comparison against them never decides anything.
 */
struct QuantileBracket
{
    double lo; ///< normalQuantile(k / kQuantileBuckets) - 1e-6
    double hi; ///< normalQuantile((k + 1) / kQuantileBuckets) + 1e-6
};

/** The kQuantileBuckets brackets, indexed by quantileBucket(u). */
const QuantileBracket *normalQuantileBrackets();

/** Bucket of u in [0, 1) (the scaling by a power of two is exact). */
inline int
quantileBucket(double u)
{
    return static_cast<int>(u * kQuantileBuckets);
}

/** log(n!) via lgamma. */
double logFactorial(uint64_t n);

/** log of the binomial coefficient C(n, k). */
double logChoose(uint64_t n, uint64_t k);

/**
 * Probability of exactly n failures among w independent trials with
 * per-trial probability r, computed in log space: C(w,n) r^n (1-r)^(w-n).
 */
double binomialPmf(uint64_t w, uint64_t n, double r);

/**
 * Upper-tail binomial probability P[X > k] for X ~ Binomial(w, r),
 * i.e. the probability of an uncorrectable error in a w-bit ECC word
 * with k-bit correction capability. Accurate for the very small
 * probabilities (1e-15..1e-25) the UBER model needs.
 */
double binomialTailAbove(uint64_t w, uint64_t k, double r);

/** Clamp x to [lo, hi]. */
double clampTo(double x, double lo, double hi);

/**
 * Solve f(x) = target for a monotonically increasing f on [lo, hi] by
 * bisection; returns the midpoint after converging to rtol relative
 * interval width (or 200 iterations).
 */
template <typename F>
double
bisectIncreasing(F f, double target, double lo, double hi,
                 double rtol = 1e-12)
{
    for (int i = 0; i < 200 && (hi - lo) > rtol * (1.0 + hi); ++i) {
        double mid = 0.5 * (lo + hi);
        if (f(mid) < target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace reaper

#endif // REAPER_COMMON_MATH_UTIL_H
