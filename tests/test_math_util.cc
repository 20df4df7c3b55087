/**
 * @file
 * Tests for the numeric helpers behind the retention and ECC models.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "common/rng.h"

namespace reaper {
namespace {

TEST(NormalCdf, StandardValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-6);
    EXPECT_NEAR(normalCdf(3.0), 0.998650, 1e-5);
}

TEST(NormalCdf, WithMeanSigma)
{
    EXPECT_NEAR(normalCdf(5.0, 5.0, 2.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(7.0, 5.0, 2.0), normalCdf(1.0), 1e-12);
}

TEST(NormalCdf, DegenerateSigma)
{
    EXPECT_EQ(normalCdf(4.9, 5.0, 0.0), 0.0);
    EXPECT_EQ(normalCdf(5.1, 5.0, 0.0), 1.0);
    EXPECT_EQ(normalCdf(5.0, 5.0, 0.0), 1.0);
}

TEST(NormalQuantile, InvertsCdf)
{
    for (double p : {1e-9, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6}) {
        double x = normalQuantile(p);
        EXPECT_NEAR(normalCdf(x), p, 1e-9) << "p=" << p;
    }
}

TEST(NormalQuantile, KnownValues)
{
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(normalQuantile(0.975), 1.959963985, 1e-6);
}

TEST(NormalQuantile, RejectsOutOfDomain)
{
    EXPECT_DEATH(normalQuantile(0.0), "normalQuantile");
    EXPECT_DEATH(normalQuantile(1.0), "normalQuantile");
}

// The read path decides most cells from these brackets, so a bracket
// that misses its bucket's quantile would silently change results.

/** Checks u's bucket and, for an interior bucket, its bracket. */
void
expectBracketed(double u, int bucket)
{
    ASSERT_EQ(quantileBucket(u), bucket) << "u=" << u;
    if (bucket == 0 || bucket == kQuantileBuckets - 1)
        return;
    const QuantileBracket &b = normalQuantileBrackets()[bucket];
    double q = normalQuantile(u);
    EXPECT_LE(b.lo, q) << "u=" << u << " bucket " << bucket;
    EXPECT_LE(q, b.hi) << "u=" << u << " bucket " << bucket;
}

TEST(NormalQuantileBrackets, HoldAtEveryBucketEdge)
{
    for (int k = 1; k < kQuantileBuckets; ++k) {
        double edge = static_cast<double>(k) / kQuantileBuckets;
        expectBracketed(std::nextafter(edge, 0.0), k - 1);
        expectBracketed(edge, k);
        expectBracketed(std::nextafter(edge, 1.0), k);
    }
}

TEST(NormalQuantileBrackets, HoldAtRandomPoints)
{
    Rng rng(4096);
    for (int i = 0; i < 1000000; ++i) {
        double u = rng.uniform();
        expectBracketed(u, static_cast<int>(u * kQuantileBuckets));
    }
}

TEST(NormalQuantileBrackets, TailBucketsNeverDecide)
{
    const QuantileBracket *b = normalQuantileBrackets();
    for (int k : {0, kQuantileBuckets - 1}) {
        EXPECT_EQ(b[k].lo, -INFINITY);
        EXPECT_EQ(b[k].hi, INFINITY);
    }
    // The interior brackets are narrow: the bucket's own width in z
    // plus the two margins.
    EXPECT_LT(b[kQuantileBuckets / 2].hi - b[kQuantileBuckets / 2].lo,
              1e-3);
}

TEST(LogFactorial, SmallValues)
{
    EXPECT_NEAR(logFactorial(0), 0.0, 1e-12);
    EXPECT_NEAR(logFactorial(1), 0.0, 1e-12);
    EXPECT_NEAR(logFactorial(5), std::log(120.0), 1e-9);
}

TEST(LogChoose, KnownValues)
{
    EXPECT_NEAR(std::exp(logChoose(5, 2)), 10.0, 1e-9);
    EXPECT_NEAR(std::exp(logChoose(72, 2)), 2556.0, 1e-6);
    EXPECT_EQ(logChoose(3, 5), -INFINITY);
}

TEST(BinomialPmf, SumsToOne)
{
    double sum = 0.0;
    for (uint64_t n = 0; n <= 20; ++n)
        sum += binomialPmf(20, n, 0.3);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BinomialPmf, EdgeProbabilities)
{
    EXPECT_EQ(binomialPmf(10, 0, 0.0), 1.0);
    EXPECT_EQ(binomialPmf(10, 3, 0.0), 0.0);
    EXPECT_EQ(binomialPmf(10, 10, 1.0), 1.0);
    EXPECT_EQ(binomialPmf(10, 9, 1.0), 0.0);
    EXPECT_EQ(binomialPmf(10, 11, 0.5), 0.0);
}

TEST(BinomialTailAbove, MatchesLeadingTerm)
{
    // For tiny r, P[X > k] ~ C(w, k+1) r^(k+1).
    double r = 1e-9;
    double tail = binomialTailAbove(72, 1, r);
    double leading = std::exp(logChoose(72, 2)) * r * r;
    EXPECT_NEAR(tail / leading, 1.0, 1e-3);
}

TEST(BinomialTailAbove, Monotone)
{
    double prev = 0.0;
    for (double r : {1e-10, 1e-8, 1e-6, 1e-4, 1e-2}) {
        double t = binomialTailAbove(64, 0, r);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(BinomialTailAbove, Edges)
{
    EXPECT_EQ(binomialTailAbove(64, 0, 0.0), 0.0);
    EXPECT_EQ(binomialTailAbove(64, 0, 1.0), 1.0);
    EXPECT_EQ(binomialTailAbove(64, 64, 0.5), 0.0);
}

TEST(BinomialTailAbove, ComplementOfPmfSum)
{
    // P[X > k] = 1 - sum_{n<=k} pmf.
    double r = 0.05;
    uint64_t w = 30, k = 2;
    double head = 0.0;
    for (uint64_t n = 0; n <= k; ++n)
        head += binomialPmf(w, n, r);
    EXPECT_NEAR(binomialTailAbove(w, k, r), 1.0 - head, 1e-10);
}

TEST(ClampTo, Basics)
{
    EXPECT_EQ(clampTo(5.0, 0.0, 1.0), 1.0);
    EXPECT_EQ(clampTo(-5.0, 0.0, 1.0), 0.0);
    EXPECT_EQ(clampTo(0.5, 0.0, 1.0), 0.5);
}

TEST(BisectIncreasing, FindsRoot)
{
    auto f = [](double x) { return x * x; };
    double x = bisectIncreasing(f, 2.0, 0.0, 10.0);
    EXPECT_NEAR(x, std::sqrt(2.0), 1e-9);
}

TEST(BisectIncreasing, TargetAtBoundary)
{
    auto f = [](double x) { return x; };
    EXPECT_NEAR(bisectIncreasing(f, 0.0, 0.0, 1.0), 0.0, 1e-9);
    EXPECT_NEAR(bisectIncreasing(f, 1.0, 0.0, 1.0), 1.0, 1e-9);
}

} // namespace
} // namespace reaper
