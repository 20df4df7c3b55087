/**
 * @file
 * Curve fitting used by the characterization benches: ordinary least
 * squares, power-law fits (y = a * x^b, as in the paper's Fig. 4), probit
 * regression for per-cell normal failure CDFs (Fig. 6), and lognormal
 * moment fits (Fig. 6b).
 */

#ifndef REAPER_COMMON_FIT_H
#define REAPER_COMMON_FIT_H

#include <vector>

namespace reaper {

/** Result of a simple linear regression y = intercept + slope * x. */
struct LinearFit
{
    double intercept = 0.0;
    double slope = 0.0;
    double r2 = 0.0; ///< coefficient of determination
};

/** Ordinary least squares over paired samples; needs >= 2 points. */
LinearFit linearFit(const std::vector<double> &x,
                    const std::vector<double> &y);

/** Power-law fit y = a * x^b (log-log least squares; x, y must be > 0). */
struct PowerLawFit
{
    double a = 0.0;
    double b = 0.0;
    double r2 = 0.0;

    double eval(double x) const;
};

PowerLawFit powerLawFit(const std::vector<double> &x,
                        const std::vector<double> &y);

/**
 * Fit a normal CDF to observed (x, probability) pairs by probit
 * regression: probit(p) = (x - mu) / sigma. Probabilities at exactly 0/1
 * are clamped inward using the trial count (p -> 1/(2*trials)).
 */
struct NormalCdfFit
{
    double mu = 0.0;
    double sigma = 0.0;
    bool valid = false;
};

NormalCdfFit normalCdfFit(const std::vector<double> &x,
                          const std::vector<double> &p, int trials);

/** Lognormal parameter estimate (mean/stddev of ln x) from samples > 0. */
struct LognormalFit
{
    double muLog = 0.0;
    double sigmaLog = 0.0;

    double median() const;
};

LognormalFit lognormalFit(const std::vector<double> &samples);

} // namespace reaper

#endif // REAPER_COMMON_FIT_H
