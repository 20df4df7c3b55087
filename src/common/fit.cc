#include "common/fit.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/stats.h"

namespace reaper {

LinearFit
linearFit(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size())
        panic("linearFit: size mismatch (%zu vs %zu)", x.size(), y.size());
    if (x.size() < 2)
        panic("linearFit: need at least 2 points, got %zu", x.size());

    double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
    }
    double denom = n * sxx - sx * sx;
    LinearFit fit;
    if (denom == 0.0) {
        fit.intercept = sy / n;
        return fit;
    }
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;

    double mean_y = sy / n;
    double ss_tot = 0, ss_res = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        double pred = fit.intercept + fit.slope * x[i];
        ss_res += (y[i] - pred) * (y[i] - pred);
        ss_tot += (y[i] - mean_y) * (y[i] - mean_y);
    }
    fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
    return fit;
}

double
PowerLawFit::eval(double x) const
{
    return a * std::pow(x, b);
}

PowerLawFit
powerLawFit(const std::vector<double> &x, const std::vector<double> &y)
{
    std::vector<double> lx, ly;
    lx.reserve(x.size());
    ly.reserve(y.size());
    for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
        if (x[i] > 0 && y[i] > 0) {
            lx.push_back(std::log(x[i]));
            ly.push_back(std::log(y[i]));
        }
    }
    if (lx.size() < 2)
        panic("powerLawFit: need >= 2 positive points, got %zu", lx.size());
    LinearFit lin = linearFit(lx, ly);
    PowerLawFit fit;
    fit.a = std::exp(lin.intercept);
    fit.b = lin.slope;
    fit.r2 = lin.r2;
    return fit;
}

NormalCdfFit
normalCdfFit(const std::vector<double> &x, const std::vector<double> &p,
             int trials)
{
    if (trials < 1)
        panic("normalCdfFit: trials must be >= 1");
    double clamp_lo = 1.0 / (2.0 * trials);
    double clamp_hi = 1.0 - clamp_lo;

    // Saturated observations (p = 0 or 1) carry no slope information
    // and, clamped, would flatten the regression; fit on the interior
    // (transition-region) points when there are enough of them.
    std::vector<double> xs, probits;
    for (size_t i = 0; i < x.size() && i < p.size(); ++i) {
        if (p[i] > clamp_lo && p[i] < clamp_hi) {
            xs.push_back(x[i]);
            probits.push_back(normalQuantile(p[i]));
        }
    }
    if (xs.size() < 3) {
        // Too few interior points: fall back to clamped saturation.
        xs.clear();
        probits.clear();
        for (size_t i = 0; i < x.size() && i < p.size(); ++i) {
            double pi = clampTo(p[i], clamp_lo, clamp_hi);
            xs.push_back(x[i]);
            probits.push_back(normalQuantile(pi));
        }
    }
    NormalCdfFit fit;
    if (xs.size() < 2)
        return fit;
    LinearFit lin = linearFit(xs, probits);
    if (lin.slope <= 0)
        return fit; // CDF must be increasing; degenerate data
    fit.sigma = 1.0 / lin.slope;
    fit.mu = -lin.intercept * fit.sigma;
    fit.valid = true;
    return fit;
}

double
LognormalFit::median() const
{
    return std::exp(muLog);
}

LognormalFit
lognormalFit(const std::vector<double> &samples)
{
    RunningStats rs;
    for (double s : samples) {
        if (s > 0)
            rs.add(std::log(s));
    }
    LognormalFit fit;
    fit.muLog = rs.mean();
    fit.sigmaLog = rs.stddev();
    return fit;
}

} // namespace reaper
