/**
 * @file
 * Unit tests for src/common: bit ops, RNG, statistics, histogram/PMF,
 * distance measures, table printer, and the Nelder-Mead optimizer.
 */
#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/error.h"
#include "common/histogram.h"
#include "common/multinomial.h"
#include "common/nelder_mead.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/table.h"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------- bitops

TEST(Bitops, GetSetFlip)
{
    BasisState s = 0;
    s = setBit(s, 3, 1);
    EXPECT_EQ(getBit(s, 3), 1);
    EXPECT_EQ(getBit(s, 2), 0);
    s = flipBit(s, 3);
    EXPECT_EQ(s, 0ULL);
    s = setBit(s, 0, 1);
    s = setBit(s, 63, 1);
    EXPECT_EQ(getBit(s, 63), 1);
    EXPECT_EQ(popcount(s), 2);
}

TEST(Bitops, ExtractDepositRoundTrip)
{
    const std::vector<int> positions{1, 3, 4};
    const BasisState state = 0b11010; // bits 1, 3, 4 set
    const BasisState key = extractBits(state, positions);
    EXPECT_EQ(key, 0b111ULL);
    EXPECT_EQ(depositBits(key, positions), state);
}

TEST(Bitops, ExtractOrderMatters)
{
    // Bit j of the key comes from positions[j].
    const BasisState state = 0b01;
    EXPECT_EQ(extractBits(state, {0, 1}), 0b01ULL);
    EXPECT_EQ(extractBits(state, {1, 0}), 0b10ULL);
}

TEST(Bitops, HammingDistance)
{
    EXPECT_EQ(hammingDistance(0b1010, 0b0101), 4);
    EXPECT_EQ(hammingDistance(0b1010, 0b1010), 0);
}

TEST(Bitops, BitstringRoundTrip)
{
    // Q_{n-1}...Q_0 print order.
    EXPECT_EQ(toBitstring(0b110, 3), "110");
    EXPECT_EQ(toBitstring(0b001, 3), "001");
    EXPECT_EQ(fromBitstring("110"), 0b110ULL);
    for (BasisState s = 0; s < 32; ++s)
        EXPECT_EQ(fromBitstring(toBitstring(s, 5)), s);
}

TEST(Bitops, BitstringRejectsGarbage)
{
    EXPECT_THROW(fromBitstring("10a"), std::invalid_argument);
}

// ------------------------------------------------------------------- rng

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(7);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BernoulliRate)
{
    Rng rng(7);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, DiscreteFollowsWeights)
{
    Rng rng(3);
    const std::vector<double> weights{1.0, 3.0};
    int ones = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ones += rng.discrete(weights) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, DiscreteRejectsEmpty)
{
    Rng rng(3);
    EXPECT_THROW(rng.discrete({}), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(11);
    for (int round = 0; round < 50; ++round) {
        const std::vector<int> sample = rng.sampleWithoutReplacement(10, 4);
        ASSERT_EQ(sample.size(), 4u);
        std::set<int> unique(sample.begin(), sample.end());
        EXPECT_EQ(unique.size(), 4u);
        for (int v : sample) {
            EXPECT_GE(v, 0);
            EXPECT_LT(v, 10);
        }
    }
}

TEST(Rng, SampleWithoutReplacementFull)
{
    Rng rng(11);
    const std::vector<int> sample = rng.sampleWithoutReplacement(5, 5);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, LogNormalMedian)
{
    Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.logNormal(std::log(0.03), 1.0));
    EXPECT_NEAR(stats::median(xs), 0.03, 0.003);
}

// ------------------------------------------------------------- statistics

TEST(Statistics, MeanStddev)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
    EXPECT_NEAR(stats::stddev(xs), std::sqrt(1.25), 1e-12);
}

TEST(Statistics, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
}

TEST(Statistics, Geomean)
{
    EXPECT_DOUBLE_EQ(stats::geomean({2.0, 8.0}), 4.0);
    EXPECT_THROW(stats::geomean({1.0, -1.0}), std::invalid_argument);
    EXPECT_THROW(stats::geomean({}), std::invalid_argument);
}

TEST(Statistics, MedianEvenOdd)
{
    EXPECT_DOUBLE_EQ(stats::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(stats::median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Statistics, Percentile)
{
    const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 50.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 30.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 25), 20.0);
}

TEST(Statistics, MinMax)
{
    const std::vector<double> xs{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(stats::min(xs), 1.0);
    EXPECT_DOUBLE_EQ(stats::max(xs), 3.0);
}

// -------------------------------------------------------------- histogram

TEST(Histogram, AddAndCount)
{
    Histogram h(3);
    h.add(0b101);
    h.add(0b101, 4);
    h.add(0b000);
    EXPECT_EQ(h.count(0b101), 5u);
    EXPECT_EQ(h.count(0b000), 1u);
    EXPECT_EQ(h.count(0b111), 0u);
    EXPECT_EQ(h.totalCount(), 6u);
    EXPECT_EQ(h.uniqueOutcomes(), 2u);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a(2), b(2);
    a.add(0b01, 3);
    b.add(0b01, 2);
    b.add(0b10, 5);
    a.merge(b);
    EXPECT_EQ(a.count(0b01), 5u);
    EXPECT_EQ(a.count(0b10), 5u);
    EXPECT_EQ(a.totalCount(), 10u);
}

TEST(Histogram, MergeRejectsMismatch)
{
    Histogram a(2), b(3);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, ToPmfNormalizes)
{
    Histogram h(2);
    h.add(0b00, 1);
    h.add(0b11, 3);
    const Pmf pmf = h.toPmf();
    EXPECT_DOUBLE_EQ(pmf.prob(0b00), 0.25);
    EXPECT_DOUBLE_EQ(pmf.prob(0b11), 0.75);
    EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12);
}

TEST(Histogram, MarginalProjects)
{
    Histogram h(3);
    h.add(0b101, 2); // bits q0=1, q2=1
    h.add(0b100, 3);
    const Histogram m = h.marginal({0, 2});
    // key bit0 = q0, bit1 = q2.
    EXPECT_EQ(m.count(0b11), 2u);
    EXPECT_EQ(m.count(0b10), 3u);
    EXPECT_EQ(m.nQubits(), 2);
}

TEST(Pmf, NormalizeAndPrune)
{
    Pmf p(2);
    p.set(0b00, 2.0);
    p.set(0b01, 6.0);
    p.set(0b10, 1e-15);
    p.normalize();
    EXPECT_NEAR(p.prob(0b00), 0.25, 1e-9);
    p.prune(1e-12);
    EXPECT_EQ(p.support(), 2u);
}

TEST(Pmf, NormalizeZeroMassIsNoop)
{
    Pmf p(2);
    p.normalize();
    EXPECT_EQ(p.support(), 0u);
}

TEST(Pmf, MarginalSumsProbability)
{
    Pmf p(3);
    p.set(0b000, 0.1);
    p.set(0b100, 0.2);
    p.set(0b011, 0.7);
    const Pmf m = p.marginal({0, 1});
    EXPECT_NEAR(m.prob(0b00), 0.3, 1e-12);
    EXPECT_NEAR(m.prob(0b11), 0.7, 1e-12);
}

TEST(Pmf, MarginalFollowsTheGivenBitOrder)
{
    // A non-ascending, non-contiguous subset: key bit j reads outcome
    // bit qubits[j], so {3, 0} puts q3 in bit 0 and q0 in bit 1.
    Pmf p(4);
    p.set(0b1000, 0.5); // q3 = 1
    p.set(0b0001, 0.3); // q0 = 1
    p.set(0b1011, 0.2); // q3 = q1 = q0 = 1
    const Pmf m = p.marginal({3, 0});
    EXPECT_EQ(m.nQubits(), 2);
    EXPECT_NEAR(m.prob(0b01), 0.5, 1e-12);
    EXPECT_NEAR(m.prob(0b10), 0.3, 1e-12);
    EXPECT_NEAR(m.prob(0b11), 0.2, 1e-12);
    EXPECT_EQ(m.prob(0b00), 0.0);

    Histogram h(4);
    h.add(0b1000, 5);
    h.add(0b0001, 3);
    h.add(0b1011, 2);
    const Histogram hm = h.marginal({3, 0});
    EXPECT_EQ(hm.count(0b01), 5u);
    EXPECT_EQ(hm.count(0b10), 3u);
    EXPECT_EQ(hm.count(0b11), 2u);
}

TEST(Pmf, Mode)
{
    Pmf p(2);
    p.set(0b01, 0.6);
    p.set(0b10, 0.4);
    EXPECT_EQ(p.mode(), 0b01ULL);
}

TEST(Pmf, SortedDescending)
{
    Pmf p(2);
    p.set(0b00, 0.2);
    p.set(0b01, 0.5);
    p.set(0b10, 0.3);
    const auto entries = p.sorted();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, 0b01ULL);
    EXPECT_EQ(entries[1].first, 0b10ULL);
    EXPECT_EQ(entries[2].first, 0b00ULL);
}

TEST(Pmf, SampleHistogramMatchesDistribution)
{
    Pmf p(1);
    p.set(0, 0.25);
    p.set(1, 0.75);
    Rng rng(5);
    const Histogram h = p.sampleHistogram(100000, rng);
    EXPECT_EQ(h.totalCount(), 100000u);
    EXPECT_NEAR(static_cast<double>(h.count(1)) / 100000.0, 0.75, 0.01);
}

/** True when @p a and @p b are at the same point of their streams. */
bool
sameStreamState(Rng a, Rng b)
{
    return a.word() == b.word();
}

TEST(MultinomialSampler, ZeroShotsDrawNothingAndConsumeNothing)
{
    const MultinomialSampler sampler(2, {0.25, 0.25, 0.25, 0.25});
    Rng rng(3);
    const Histogram h = sampler.draw(0, rng);
    EXPECT_EQ(h.nQubits(), 2);
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_EQ(h.uniqueOutcomes(), 0u);
    EXPECT_TRUE(sameStreamState(rng, Rng(3)));
}

TEST(MultinomialSampler, RngUseDependsOnlyOnWeightsAndShots)
{
    // One distribution with zero-mass runs, dense (every outcome
    // stored) and sparse (only the positive ones): both split the same
    // dyadic outcome ranges, so they draw the same histogram and leave
    // the stream at the same point.
    std::vector<double> weights(64, 0.0);
    Pmf p(6);
    for (BasisState o : {3u, 4u, 5u, 17u, 18u, 40u, 41u, 42u, 60u}) {
        weights[o] = 1.0 + static_cast<double>(o % 7);
        p.set(o, weights[o]);
    }
    const MultinomialSampler dense(6, weights);
    const MultinomialSampler sparse(p);
    const std::uint64_t k = MultinomialSampler::kLeafShots;
    for (const std::uint64_t shots :
         {std::uint64_t{1}, k - 1, k, k + 1, std::uint64_t{1000}}) {
        Rng a(4), b(4);
        const Histogram hd = dense.draw(shots, a);
        const Histogram hs = sparse.draw(shots, b);
        EXPECT_EQ(hd.counts(), hs.counts()) << shots << " shots";
        EXPECT_TRUE(sameStreamState(a, b)) << shots << " shots";
        EXPECT_FALSE(sameStreamState(a, Rng(4))) << shots << " shots";
    }
}

TEST(MultinomialSampler, SingleOutcomeSupportTakesEveryShot)
{
    Pmf p(3);
    p.set(0b101, 0.7);
    const MultinomialSampler sampler(p);
    Rng rng(5);
    const Histogram h = sampler.draw(1000, rng);
    EXPECT_EQ(h.count(0b101), 1000u);
    EXPECT_EQ(h.uniqueOutcomes(), 1u);
}

TEST(MultinomialSampler, ZeroMassEntriesAreNeverDrawn)
{
    // Leading, interior and trailing zero-weight entries, dense and
    // sparse.
    const MultinomialSampler dense(3, {0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0,
                                       0.0});
    Pmf p(3);
    p.set(0b000, 0.0);
    p.set(0b010, 0.3);
    p.set(0b011, 0.0);
    p.set(0b110, 0.7);
    p.set(0b111, 0.0);
    const MultinomialSampler sparse(p);
    Rng rng(6);
    for (int rep = 0; rep < 20; ++rep) {
        const Histogram hd = dense.draw(50000, rng);
        EXPECT_EQ(hd.uniqueOutcomes(), 2u);
        EXPECT_EQ(hd.count(0b001) + hd.count(0b100), 50000u);
        const Histogram hs = sparse.draw(50000, rng);
        EXPECT_EQ(hs.uniqueOutcomes(), 2u);
        EXPECT_EQ(hs.count(0b010) + hs.count(0b110), 50000u);
    }
}

TEST(MultinomialSampler, CountsSumToShots)
{
    std::vector<double> weights(64);
    Rng gen(7);
    for (double &w : weights)
        w = gen.uniform();
    const MultinomialSampler sampler(6, weights);
    Rng rng(8);
    for (const std::uint64_t shots : {1ULL, 2ULL, 7ULL, 1000ULL, 65536ULL}) {
        const Histogram h = sampler.draw(shots, rng);
        EXPECT_EQ(h.totalCount(), shots);
        std::uint64_t sum = 0;
        for (const auto &[outcome, count] : h.counts()) {
            EXPECT_LT(outcome, 64u);
            sum += count;
        }
        EXPECT_EQ(sum, shots);
    }
}

TEST(MultinomialSampler, FollowsTheDistribution)
{
    Pmf p(2);
    p.set(0b00, 0.1);
    p.set(0b01, 0.2);
    p.set(0b11, 0.7);
    const MultinomialSampler sampler(p);
    Rng rng(9);
    const Pmf observed = sampler.draw(200000, rng).toPmf();
    EXPECT_LT(totalVariationDistance(observed, p), 0.005);
}

TEST(MultinomialSampler, SameSeedSameHistogram)
{
    const MultinomialSampler sampler(3, {1, 2, 3, 4, 5, 6, 7, 8});
    Rng a(10), b(10);
    const Histogram ha = sampler.draw(4096, a);
    const Histogram hb = sampler.draw(4096, b);
    ASSERT_EQ(ha.uniqueOutcomes(), hb.uniqueOutcomes());
    for (const auto &[outcome, count] : ha.counts())
        EXPECT_EQ(count, hb.count(outcome));
}

/** True when @p entries are in strictly ascending outcome order. */
template <class Entries>
bool
strictlyAscending(const Entries &entries)
{
    for (std::size_t i = 1; i < entries.size(); ++i)
        if (!(entries[i - 1].first < entries[i].first))
            return false;
    return true;
}

TEST(MultinomialSampler, DenseZeroRunsFollowTheDistribution)
{
    // 2^10 outcomes with zero-mass runs at the start, the middle and
    // the end; 10^6 shots.
    std::vector<double> weights(1024, 0.0);
    Pmf p(10);
    Rng gen(21);
    for (std::size_t o = 0; o < weights.size(); ++o) {
        if (o < 100 || (o >= 400 && o < 600) || o >= 900)
            continue;
        weights[o] = gen.uniform();
        p.set(o, weights[o]);
    }
    p.normalize();
    const MultinomialSampler sampler(10, weights);
    Rng rng(22);
    const Histogram h = sampler.draw(1000000, rng);
    EXPECT_EQ(h.totalCount(), 1000000u);
    EXPECT_TRUE(strictlyAscending(h.counts()));
    for (const auto &[outcome, count] : h.counts())
        EXPECT_GT(weights[outcome], 0.0) << outcome;
    EXPECT_LT(totalVariationDistance(h.toPmf(), p), 0.02);
}

TEST(MultinomialSampler, CountsMatchBinomialMeanAndVariance)
{
    // Each outcome's count over many seeds is Binomial(n, p_i): a
    // biased split would move the means, a dependent one the
    // variances. n = 200 splits mostly by inversion, n = 5000 by
    // rejection.
    const std::vector<double> weights = {0.5, 3.0, 0.0, 1.0, 7.0, 0.25,
                                         2.0, 0.0, 4.0, 1.5, 0.75, 6.0,
                                         0.0, 0.1, 2.5, 1.0};
    double total = 0.0;
    for (double w : weights)
        total += w;
    const MultinomialSampler sampler(4, weights);
    constexpr int kSeeds = 4000;
    for (const std::uint64_t n : {std::uint64_t{200}, std::uint64_t{5000}}) {
        std::vector<double> sum(weights.size()), sum_sq(weights.size());
        for (int seed = 0; seed < kSeeds; ++seed) {
            Rng rng(1000 + static_cast<std::uint64_t>(seed));
            const Histogram h = sampler.draw(n, rng);
            for (std::size_t o = 0; o < weights.size(); ++o) {
                const double c = static_cast<double>(h.count(o));
                sum[o] += c;
                sum_sq[o] += c * c;
            }
        }
        for (std::size_t o = 0; o < weights.size(); ++o) {
            const double pi = weights[o] / total;
            const double var = static_cast<double>(n) * pi * (1.0 - pi);
            const double mean = sum[o] / kSeeds;
            const double sample_var =
                (sum_sq[o] - kSeeds * mean * mean) / (kSeeds - 1);
            if (pi == 0.0) {
                EXPECT_EQ(sum[o], 0.0);
                continue;
            }
            // Five standard errors of the mean and of the variance.
            EXPECT_NEAR(mean, static_cast<double>(n) * pi,
                        5.0 * std::sqrt(var / kSeeds))
                << "n " << n << " outcome " << o;
            EXPECT_NEAR(sample_var, var, 5.0 * var * std::sqrt(2.0 / kSeeds))
                << "n " << n << " outcome " << o;
        }
    }
}

TEST(MultinomialSampler, DeepZeroMassLeavesAreNeverDrawn)
{
    // Isolated positive outcomes inside long zero runs, drawn with
    // shot counts just below, at and just above the per-shot
    // constant, where the last splits hand over to lookups.
    std::vector<double> weights(4096, 0.0);
    const std::vector<BasisState> positive = {5, 6, 1000, 2049, 4095};
    Pmf p(12);
    for (BasisState o : positive) {
        weights[o] = 1.0 + static_cast<double>(o % 3);
        p.set(o, weights[o]);
    }
    p.set(7, 0.0); // a stored zero-mass entry (sparse form)
    const MultinomialSampler dense(12, weights);
    const MultinomialSampler sparse(p);
    const std::uint64_t k = MultinomialSampler::kLeafShots;
    Rng rng(23);
    for (const std::uint64_t shots : {k - 1, k, k + 1, 2 * k + 1}) {
        for (int rep = 0; rep < 500; ++rep) {
            for (const MultinomialSampler *s : {&dense, &sparse}) {
                const Histogram h = s->draw(shots, rng);
                EXPECT_EQ(h.totalCount(), shots);
                for (const auto &[outcome, count] : h.counts()) {
                    EXPECT_NE(std::find(positive.begin(), positive.end(),
                                        outcome),
                              positive.end())
                        << outcome << " at " << shots << " shots";
                }
            }
        }
    }
}

TEST(MultinomialSampler, OneShotAndTwoToTheTwentyShots)
{
    std::vector<double> weights(256);
    Rng gen(24);
    for (double &w : weights)
        w = gen.uniform() < 0.3 ? 0.0 : gen.uniform();
    const MultinomialSampler sampler(8, weights);
    Pmf p(8);
    for (std::size_t o = 0; o < weights.size(); ++o)
        if (weights[o] > 0.0)
            p.set(o, weights[o]);
    p.normalize();

    Rng rng(25);
    for (int rep = 0; rep < 200; ++rep) {
        const Histogram one = sampler.draw(1, rng);
        ASSERT_EQ(one.uniqueOutcomes(), 1u);
        EXPECT_EQ(one.totalCount(), 1u);
        EXPECT_GT(weights[one.counts().front().first], 0.0);
    }
    const Histogram many = sampler.draw(std::uint64_t{1} << 20, rng);
    EXPECT_EQ(many.totalCount(), std::uint64_t{1} << 20);
    EXPECT_TRUE(strictlyAscending(many.counts()));
    EXPECT_LT(totalVariationDistance(many.toPmf(), p), 0.01);
}

TEST(FlatContainers, EntriesStayAscendingAndUnique)
{
    Pmf p(4);
    for (BasisState o : {9u, 2u, 14u, 2u, 0u, 7u, 14u})
        p.accumulate(o, 0.1);
    p.set(5, 0.2);
    p.set(1, 0.05);
    p.set(9, 0.3);
    EXPECT_TRUE(strictlyAscending(p.probabilities()));
    EXPECT_EQ(p.support(), 7u);
    EXPECT_DOUBLE_EQ(p.prob(2), 0.2);
    EXPECT_DOUBLE_EQ(p.prob(9), 0.3);

    p.normalize();
    EXPECT_TRUE(strictlyAscending(p.probabilities()));
    p.prune(0.1);
    EXPECT_TRUE(strictlyAscending(p.probabilities()));
    EXPECT_EQ(p.prob(1), 0.0);

    const Pmf m = p.marginal({3, 0, 2});
    EXPECT_TRUE(strictlyAscending(m.probabilities()));
    EXPECT_NEAR(m.totalMass(), p.totalMass(), 1e-15);

    Histogram h(4), g(4);
    for (BasisState o : {12u, 3u, 12u, 0u, 8u})
        h.add(o, 2);
    for (BasisState o : {15u, 3u, 1u})
        g.add(o);
    EXPECT_TRUE(strictlyAscending(h.counts()));
    h.merge(g);
    EXPECT_TRUE(strictlyAscending(h.counts()));
    EXPECT_EQ(h.count(3), 3u);
    EXPECT_EQ(h.totalCount(), 13u);
    const Histogram hm = h.marginal({2, 3, 0});
    EXPECT_TRUE(strictlyAscending(hm.counts()));
    EXPECT_EQ(hm.totalCount(), h.totalCount());
}

TEST(FlatContainers, BulkBuildsSumRepeatsInTheirGivenOrder)
{
    // The entries constructors equal inserting one entry at a time.
    const Pmf::Entries entries = {{6, 0.1}, {2, 0.3}, {6, 1e-17},
                                  {6, 0.2}, {0, 0.4}, {2, 1e-16}};
    Pmf incremental(3);
    for (const auto &[outcome, p] : entries)
        incremental.accumulate(outcome, p);
    const Pmf bulk(3, entries);
    EXPECT_EQ(bulk.probabilities(), incremental.probabilities());
    EXPECT_TRUE(strictlyAscending(bulk.probabilities()));

    const Histogram h(3, {{5, 1}, {1, 2}, {5, 3}});
    EXPECT_TRUE(strictlyAscending(h.counts()));
    EXPECT_EQ(h.count(5), 4u);
    EXPECT_EQ(h.totalCount(), 6u);
}

TEST(FlatContainers, WideAndNarrowMarginalsAgreeBitForBit)
{
    // A narrow fold goes through a dense scratch, a wide one (2^k far
    // above the support) through one sort; both sum a key's terms in
    // outcome order.
    Pmf p(40);
    Rng gen(26);
    for (int i = 0; i < 300; ++i)
        p.accumulate(gen.word() >> 24, gen.uniform());
    const std::vector<int> narrow = {39, 3, 17, 8};
    const std::vector<int> wide = {30, 1,  2,  33, 4,  5,  36, 7,
                                   8,  9,  10, 11, 12, 13, 14, 15,
                                   16, 17, 18, 19, 20, 21, 22};
    for (const std::vector<int> *qubits : {&narrow, &wide}) {
        Pmf expected(static_cast<int>(qubits->size()));
        for (const auto &[outcome, prob] : p.probabilities())
            expected.accumulate(extractBits(outcome, *qubits), prob);
        const Pmf m = p.marginal(*qubits);
        EXPECT_EQ(m.probabilities(), expected.probabilities());
    }
}

TEST(MultinomialSampler, RejectsBadWeights)
{
    EXPECT_THROW(MultinomialSampler(1, {0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(MultinomialSampler(1, {0.5, -0.1}), std::invalid_argument);
    EXPECT_THROW(MultinomialSampler(Pmf(2)), std::invalid_argument);
}

TEST(Distances, TvdBasics)
{
    Pmf p(1), q(1);
    p.set(0, 1.0);
    q.set(1, 1.0);
    EXPECT_NEAR(totalVariationDistance(p, q), 1.0, 1e-12);
    EXPECT_NEAR(totalVariationDistance(p, p), 0.0, 1e-12);
}

TEST(Distances, TvdHalfOverlap)
{
    Pmf p(1), q(1);
    p.set(0, 0.5);
    p.set(1, 0.5);
    q.set(0, 1.0);
    EXPECT_NEAR(totalVariationDistance(p, q), 0.5, 1e-12);
}

TEST(Distances, HellingerBounds)
{
    Pmf p(1), q(1);
    p.set(0, 1.0);
    q.set(1, 1.0);
    EXPECT_NEAR(hellingerDistance(p, q), 1.0, 1e-12);
    EXPECT_NEAR(hellingerDistance(p, p), 0.0, 1e-9);
}

TEST(Distances, KlDivergenceZeroForIdentical)
{
    Pmf p(2);
    p.set(0b00, 0.5);
    p.set(0b11, 0.5);
    EXPECT_NEAR(klDivergence(p, p), 0.0, 1e-12);
}

TEST(Distances, MismatchedSizesRejected)
{
    Pmf p(1), q(2);
    p.set(0, 1.0);
    q.set(0, 1.0);
    EXPECT_THROW(totalVariationDistance(p, q), std::invalid_argument);
    EXPECT_THROW(hellingerDistance(p, q), std::invalid_argument);
}

// ------------------------------------------------------------------ table

TEST(Table, AlignsColumns)
{
    ConsoleTable t({"name", "v"});
    t.addRow({"x", "1.00"});
    t.addRow({"longer", "2"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(ConsoleTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(ConsoleTable::num(2.0, 0), "2");
}

// ------------------------------------------------------------ nelder-mead

TEST(NelderMead, MinimizesQuadratic)
{
    const auto result = nelderMead(
        [](const std::vector<double> &x) {
            return (x[0] - 1.0) * (x[0] - 1.0) +
                   (x[1] + 2.0) * (x[1] + 2.0);
        },
        {0.0, 0.0});
    EXPECT_NEAR(result.x[0], 1.0, 1e-3);
    EXPECT_NEAR(result.x[1], -2.0, 1e-3);
    EXPECT_LT(result.value, 1e-5);
}

TEST(NelderMead, MinimizesRosenbrock)
{
    NelderMeadOptions options;
    options.maxIterations = 5000;
    options.tolerance = 1e-12;
    const auto result = nelderMead(
        [](const std::vector<double> &x) {
            const double a = 1.0 - x[0];
            const double b = x[1] - x[0] * x[0];
            return a * a + 100.0 * b * b;
        },
        {-1.0, 1.0}, options);
    EXPECT_NEAR(result.x[0], 1.0, 1e-2);
    EXPECT_NEAR(result.x[1], 1.0, 1e-2);
}

TEST(NelderMead, RejectsEmptyStart)
{
    EXPECT_THROW(
        nelderMead([](const std::vector<double> &) { return 0.0; }, {}),
        std::invalid_argument);
}

// ------------------------------------------------------------- errors

/** The message @p call throws as @p Exception ("" if none). */
template <typename Exception, typename Call>
std::string
thrownMessage(Call call)
{
    try {
        call();
    } catch (const Exception &e) {
        return e.what();
    }
    return "";
}

TEST(Error, LiteralAndStringMessagesThrowAlike)
{
    // The const char * overloads throw the same types and messages as
    // the std::string ones, and nothing when the check passes.
    const std::string text = "Topology: qubit out of range";
    EXPECT_NO_THROW(fatalIf(false, "Topology: qubit out of range"));
    EXPECT_NO_THROW(panicIf(false, "Topology: qubit out of range"));
    EXPECT_EQ(thrownMessage<std::invalid_argument>(
                  [] { fatalIf(true, "Topology: qubit out of range"); }),
              text);
    EXPECT_EQ(thrownMessage<std::invalid_argument>(
                  [&] { fatalIf(true, text); }),
              text);
    EXPECT_EQ(thrownMessage<std::logic_error>(
                  [] { panicIf(true, "Topology: qubit out of range"); }),
              "internal error: " + text);
    EXPECT_EQ(thrownMessage<std::logic_error>([&] { panicIf(true, text); }),
              "internal error: " + text);
}

} // namespace
} // namespace jigsaw
