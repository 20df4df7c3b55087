#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace reaper {

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x * M_SQRT1_2);
}

double
normalCdf(double x, double mu, double sigma)
{
    if (sigma <= 0.0)
        return x >= mu ? 1.0 : 0.0;
    return normalCdf((x - mu) / sigma);
}

double
normalQuantile(double p)
{
    if (p <= 0.0 || p >= 1.0)
        panic("normalQuantile: p must be in (0,1), got %g", p);

    // Acklam's rational approximation.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};

    const double p_low = 0.02425;
    double x;
    if (p < p_low) {
        double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        double q = p - 0.5;
        double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement step using the exact CDF.
    double e = normalCdf(x) - p;
    double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
    x = x - u / (1.0 + 0.5 * x * u);
    return x;
}

const QuantileBracket *
normalQuantileBrackets()
{
    // The refined quantile is monotone to within ~1e-9, far inside the
    // 1e-6 margin, which also absorbs the rounding of a caller's
    // mu + sigma * bound against mu + sigma * normalQuantile(u).
    static const std::vector<QuantileBracket> table = [] {
        constexpr double kMargin = 1e-6;
        constexpr double kWidth = 1.0 / kQuantileBuckets;
        std::vector<QuantileBracket> t(kQuantileBuckets);
        t.front() = {-INFINITY, INFINITY};
        t.back() = {-INFINITY, INFINITY};
        double lower = normalQuantile(kWidth);
        for (int k = 1; k < kQuantileBuckets - 1; ++k) {
            double upper = normalQuantile((k + 1) * kWidth);
            t[k] = {lower - kMargin, upper + kMargin};
            lower = upper;
        }
        return t;
    }();
    return table.data();
}

double
logFactorial(uint64_t n)
{
    return std::lgamma(static_cast<double>(n) + 1.0);
}

double
logChoose(uint64_t n, uint64_t k)
{
    if (k > n)
        return -INFINITY;
    return logFactorial(n) - logFactorial(k) - logFactorial(n - k);
}

double
binomialPmf(uint64_t w, uint64_t n, double r)
{
    if (n > w)
        return 0.0;
    if (r <= 0.0)
        return n == 0 ? 1.0 : 0.0;
    if (r >= 1.0)
        return n == w ? 1.0 : 0.0;
    double logp = logChoose(w, n) + static_cast<double>(n) * std::log(r) +
                  static_cast<double>(w - n) * std::log1p(-r);
    return std::exp(logp);
}

double
binomialTailAbove(uint64_t w, uint64_t k, double r)
{
    if (r <= 0.0)
        return 0.0;
    if (r >= 1.0)
        return k < w ? 1.0 : 0.0;
    // In the rare-error regime (w*r << 1) the series converges within a
    // few terms; sum from the small side for accuracy.
    double sum = 0.0;
    for (uint64_t n = k + 1; n <= w; ++n) {
        double term = binomialPmf(w, n, r);
        sum += term;
        // Terms decay geometrically once n > w*r; stop when negligible.
        if (term < sum * 1e-18 && n > static_cast<uint64_t>(
                static_cast<double>(w) * r) + 2)
            break;
    }
    return std::min(sum, 1.0);
}

double
clampTo(double x, double lo, double hi)
{
    return std::min(std::max(x, lo), hi);
}

} // namespace reaper
