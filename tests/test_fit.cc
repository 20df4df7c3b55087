/**
 * @file
 * Tests for the regression/fitting helpers used by the characterization
 * benches (power-law VRT fits, per-cell normal CDF fits, etc.).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/fit.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace reaper {
namespace {

TEST(LinearFit, ExactLine)
{
    std::vector<double> x = {0, 1, 2, 3, 4};
    std::vector<double> y = {1, 3, 5, 7, 9};
    LinearFit f = linearFit(x, y);
    EXPECT_NEAR(f.intercept, 1.0, 1e-12);
    EXPECT_NEAR(f.slope, 2.0, 1e-12);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLine)
{
    Rng r(1);
    std::vector<double> x, y;
    for (int i = 0; i < 500; ++i) {
        double xi = i * 0.1;
        x.push_back(xi);
        y.push_back(-2.0 + 0.5 * xi + r.normal(0.0, 0.1));
    }
    LinearFit f = linearFit(x, y);
    EXPECT_NEAR(f.intercept, -2.0, 0.05);
    EXPECT_NEAR(f.slope, 0.5, 0.01);
    EXPECT_GT(f.r2, 0.95);
}

TEST(LinearFit, ConstantX)
{
    std::vector<double> x = {1, 1, 1};
    std::vector<double> y = {2, 4, 6};
    LinearFit f = linearFit(x, y);
    EXPECT_EQ(f.slope, 0.0);
    EXPECT_NEAR(f.intercept, 4.0, 1e-12);
}

TEST(LinearFit, RejectsBadInput)
{
    EXPECT_DEATH(linearFit({1.0}, {1.0}), "at least 2");
    EXPECT_DEATH(linearFit({1.0, 2.0}, {1.0}), "mismatch");
}

TEST(PowerLawFit, RecoversParameters)
{
    // The Fig. 4 use case: y = a * x^b.
    std::vector<double> x, y;
    for (double xi : {0.064, 0.128, 0.256, 0.512, 1.024, 2.048}) {
        x.push_back(xi);
        y.push_back(0.6 * std::pow(xi, 7.9));
    }
    PowerLawFit f = powerLawFit(x, y);
    EXPECT_NEAR(f.a, 0.6, 1e-9);
    EXPECT_NEAR(f.b, 7.9, 1e-9);
    EXPECT_NEAR(f.eval(1.5), 0.6 * std::pow(1.5, 7.9), 1e-6);
}

TEST(PowerLawFit, IgnoresNonPositivePoints)
{
    std::vector<double> x = {1.0, 2.0, -1.0, 4.0};
    std::vector<double> y = {2.0, 4.0, 8.0, 8.0};
    PowerLawFit f = powerLawFit(x, y); // y = 2x
    EXPECT_NEAR(f.b, 1.0, 1e-9);
}

TEST(NormalCdfFit, RecoversMuSigma)
{
    // The Fig. 6a use case: fit a per-cell failure CDF.
    double mu = 2.0, sigma = 0.1;
    std::vector<double> x, p;
    for (double xi = 1.7; xi <= 2.3; xi += 0.05) {
        x.push_back(xi);
        p.push_back(normalCdf(xi, mu, sigma));
    }
    NormalCdfFit f = normalCdfFit(x, p, 1000000);
    ASSERT_TRUE(f.valid);
    EXPECT_NEAR(f.mu, mu, 1e-3);
    EXPECT_NEAR(f.sigma, sigma, 1e-3);
}

TEST(NormalCdfFit, HandlesSaturatedProbabilities)
{
    // With 16 trials, observed probabilities of exactly 0 and 1 must be
    // clamped rather than producing infinite probits.
    std::vector<double> x = {1.0, 2.0, 3.0};
    std::vector<double> p = {0.0, 0.5, 1.0};
    NormalCdfFit f = normalCdfFit(x, p, 16);
    ASSERT_TRUE(f.valid);
    EXPECT_NEAR(f.mu, 2.0, 1e-6);
    EXPECT_GT(f.sigma, 0.0);
}

TEST(NormalCdfFit, DegenerateData)
{
    NormalCdfFit f = normalCdfFit({1.0}, {0.5}, 16);
    EXPECT_FALSE(f.valid);
    // Decreasing probabilities: no valid increasing CDF.
    NormalCdfFit g = normalCdfFit({1.0, 2.0}, {0.9, 0.1}, 16);
    EXPECT_FALSE(g.valid);
}

TEST(LognormalFit, RecoversParameters)
{
    Rng r(5);
    std::vector<double> samples;
    for (int i = 0; i < 200000; ++i)
        samples.push_back(r.lognormal(-3.0, 0.5));
    LognormalFit f = lognormalFit(samples);
    EXPECT_NEAR(f.muLog, -3.0, 0.01);
    EXPECT_NEAR(f.sigmaLog, 0.5, 0.01);
    EXPECT_NEAR(f.median(), std::exp(-3.0), 0.002);
}

TEST(LognormalFit, IgnoresNonPositive)
{
    LognormalFit f = lognormalFit({std::exp(1.0), -5.0, 0.0,
                                   std::exp(1.0)});
    EXPECT_NEAR(f.muLog, 1.0, 1e-12);
    EXPECT_NEAR(f.sigmaLog, 0.0, 1e-12);
}

} // namespace
} // namespace reaper
