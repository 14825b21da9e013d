// GeometricSkipTable against the reference skip map it is built from:
// every threshold's neighbourhood, draw 0, random draws, and whole noisy
// transcripts must agree bit for bit, since the table replaces the
// reference on the transports' noise path and every golden depends on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/bitstring.h"
#include "common/error.h"
#include "common/rng.h"

namespace nb {
namespace {

constexpr std::uint64_t kDrawLimit = std::uint64_t{1} << 53;

/// The per-rate checks, one test per rate so each stays well inside the
/// per-test timeout under the Debug sanitizer builds.
class GeometricSkipTableAtRate : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Rates, GeometricSkipTableAtRate,
                         ::testing::Values(0.45, 0.3, 0.17, 0.1, 0.05, 0.01, 0.001));

TEST_P(GeometricSkipTableAtRate, ThresholdsAreTheReferenceBoundaries) {
    const GeometricSkipTable table(GetParam());
    const double l = table.log1p_neg_p();
    for (std::size_t s = 0; s < table.size(); ++s) {
        const std::uint64_t b = table.threshold(s);
        ASSERT_GE(b, 1u);
        if (b < kDrawLimit) {
            EXPECT_LE(geometric_skip_reference(b, l), s) << "s=" << s;
        }
        if (b > 1) {
            EXPECT_GT(geometric_skip_reference(b - 1, l), s) << "s=" << s;
        }
    }
}

TEST_P(GeometricSkipTableAtRate, EveryThresholdNeighbourhoodMatchesReference) {
    // Every draw within 2048 of a threshold, where an off-by-one in the
    // table or a non-monotone step of the computed log would show. At
    // p = 0.001 the table stops at its cap, so the draws below the last
    // threshold exercise the reference fallback.
    constexpr std::uint64_t radius = 2048;
    const GeometricSkipTable table(GetParam());
    const double l = table.log1p_neg_p();
    std::uint64_t checked_below = kDrawLimit;  // windows descend with s
    std::size_t mismatches = 0;
    for (std::size_t s = 0; s < table.size(); ++s) {
        const std::uint64_t b = table.threshold(s);
        const std::uint64_t lo = b > radius ? b - radius : 0;
        const std::uint64_t hi = std::min(b + radius, checked_below);
        for (std::uint64_t draw = lo; draw < hi; ++draw) {
            mismatches += table.skip(draw) != geometric_skip_reference(draw, l) ? 1 : 0;
        }
        checked_below = std::min(checked_below, lo);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST_P(GeometricSkipTableAtRate, DrawZeroMatchesReference) {
    const GeometricSkipTable table(GetParam());
    const double l = table.log1p_neg_p();
    EXPECT_EQ(table.skip(0), geometric_skip_reference(0, l));
    // The u = 0 clamp makes draw 0 and draw 1 the same uniform.
    EXPECT_EQ(geometric_skip_reference(0, l), geometric_skip_reference(1, l));
}

TEST_P(GeometricSkipTableAtRate, RandomDrawsMatchReference) {
    const GeometricSkipTable table(GetParam());
    const double l = table.log1p_neg_p();
    Rng rng(0x5eed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t draw = rng.next_u64() >> 11;
        mismatches += table.skip(draw) != geometric_skip_reference(draw, l) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(GeometricSkipTable, CapFallsBackToReference) {
    // Small rates have skips past the cap; their draws must still map
    // exactly, through the reference.
    const GeometricSkipTable table(0.001);
    ASSERT_EQ(table.size(), GeometricSkipTable::kMaxEntries);
    const std::uint64_t last = table.threshold(table.size() - 1);
    for (const std::uint64_t draw : {std::uint64_t{1}, last / 2, last - 1}) {
        EXPECT_GE(table.skip(draw), table.size());
        EXPECT_EQ(table.skip(draw), geometric_skip_reference(draw, table.log1p_neg_p()));
    }
    // Larger rates fit every skip: the last threshold is draw 1.
    const GeometricSkipTable full(0.1);
    EXPECT_LT(full.size(), GeometricSkipTable::kMaxEntries);
    EXPECT_EQ(full.threshold(full.size() - 1), 1u);
    EXPECT_EQ(full.size() - 1, geometric_skip_reference(1, full.log1p_neg_p()));
}

TEST(GeometricSkipTable, NextSkipConsumesOneDrawLikeRng) {
    const GeometricSkipTable table(0.1);
    Rng by_table(9);
    Rng by_rng(9);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(table.next_skip(by_table), by_rng.geometric_skip_with(table.log1p_neg_p()));
    }
    EXPECT_EQ(by_table.next_u64(), by_rng.next_u64());
}

TEST(GeometricSkipTable, RejectsRatesOutsideOpenUnitInterval) {
    EXPECT_THROW(GeometricSkipTable(0.0), precondition_error);
    EXPECT_THROW(GeometricSkipTable(1.0), precondition_error);
    EXPECT_THROW(GeometricSkipTable(-0.1), precondition_error);
}

TEST(GeometricSkipTable, ApplyNoiseMatchesReferenceAtEveryLength) {
    for (const double p : {0.45, 0.17, 0.1, 0.05, 0.001}) {
        const GeometricSkipTable table(p);
        for (const std::size_t length : {1u, 63u, 64u, 65u, 960u, 8640u}) {
            for (std::uint64_t seed = 0; seed < 50; ++seed) {
                Rng by_table(seed);
                Rng by_reference(seed);
                Bitstring with_table(length);
                Bitstring with_reference(length);
                with_table.apply_noise(by_table, table);
                with_reference.apply_noise(by_reference, p);
                ASSERT_EQ(with_table, with_reference) << "p=" << p << " length=" << length;
                // Same draws consumed, so later stream use is unchanged too.
                ASSERT_EQ(by_table.next_u64(), by_reference.next_u64());
            }
        }
    }
}

TEST(GeometricSkipTable, SharedReadOnlyAcrossThreads) {
    // One table serves every decode worker of a transport.
    const GeometricSkipTable table(0.1);
    constexpr std::size_t workers = 4;
    constexpr std::size_t transcripts = 200;
    std::vector<std::vector<Bitstring>> results(workers);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&table, &results, w] {
            for (std::size_t i = 0; i < transcripts; ++i) {
                Rng rng = Rng(w).derive(i);
                Bitstring heard(8640);
                heard.apply_noise(rng, table);
                results[w].push_back(std::move(heard));
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    for (std::size_t w = 0; w < workers; ++w) {
        for (std::size_t i = 0; i < transcripts; ++i) {
            Rng rng = Rng(w).derive(i);
            Bitstring expected(8640);
            expected.apply_noise(rng, 0.1);
            ASSERT_EQ(results[w][i], expected);
        }
    }
}

}  // namespace
}  // namespace nb
