// The bitsliced phase-1 kernel is a pure data-layout optimization: for
// every candidate matrix, transcript, and reject limit, accept_all must
// report exactly the per-candidate results of the scalar
// accepts_codeword / Bitstring::and_not_count_below kernels. These property
// tests drive randomized codewords (mixed weights, decoys included),
// randomized noisy transcripts, degenerate transcripts, lane-boundary
// column counts, and reject-limit edge values through both kernels.
#include <gtest/gtest.h>

#include <vector>

#include "codes/beep_code.h"
#include "codes/decoders.h"
#include "common/bitslice.h"
#include "common/bitstring.h"
#include "common/rng.h"

namespace nb {
namespace {

std::vector<Bitstring> random_columns(Rng& rng, std::size_t count, std::size_t length) {
    std::vector<Bitstring> columns;
    columns.reserve(count);
    for (std::size_t c = 0; c < count; ++c) {
        // Mix of densities, including empty and full columns.
        const std::size_t weight = rng.next_below(length + 1);
        columns.push_back(Bitstring::random_with_weight(rng, length, weight));
    }
    return columns;
}

void expect_matches_scalar(const BitsliceMatrix& matrix,
                           const std::vector<Bitstring>& columns, const Bitstring& transcript,
                           std::size_t limit, BitsliceScratch& scratch) {
    std::vector<std::uint64_t> accept;
    matrix.and_not_below(transcript, limit, scratch, accept);
    ASSERT_EQ(accept.size(), matrix.lane_words());
    for (std::size_t c = 0; c < columns.size(); ++c) {
        const bool scalar = columns[c].and_not_count_below(transcript, limit);
        const bool sliced = (accept[c / 64] >> (c % 64)) & 1u;
        ASSERT_EQ(sliced, scalar) << "column " << c << " limit " << limit;
    }
    // Padding bits beyond the column count must stay zero.
    for (std::size_t bit = columns.size(); bit < 64 * matrix.lane_words(); ++bit) {
        ASSERT_FALSE((accept[bit / 64] >> (bit % 64)) & 1u) << "padding bit " << bit;
    }
}

TEST(Bitslice, MatchesScalarKernelOnRandomInputs) {
    Rng rng(0x5711ce);
    for (std::size_t trial = 0; trial < 30; ++trial) {
        const std::size_t length = 1 + rng.next_below(300);
        // Cross lane boundaries: 1..~190 columns covers 1, 2 and 3 lanes.
        const std::size_t count = 1 + rng.next_below(190);
        const auto columns = random_columns(rng, count, length);
        const BitsliceMatrix matrix(columns);
        ASSERT_EQ(matrix.rows(), length);
        ASSERT_EQ(matrix.columns(), count);
        BitsliceScratch scratch;
        Bitstring transcript = Bitstring::random(rng, length);
        transcript.apply_noise(rng, 0.3);
        for (const std::size_t limit :
             {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8},
              length / 4 + 1, length, length + 5}) {
            expect_matches_scalar(matrix, columns, transcript, limit, scratch);
        }
    }
}

TEST(Bitslice, MatchesScalarOnDegenerateTranscripts) {
    Rng rng(0xdead);
    const std::size_t length = 130;
    const auto columns = random_columns(rng, 70, length);
    const BitsliceMatrix matrix(columns);
    BitsliceScratch scratch;
    const Bitstring all_zero(length);
    const Bitstring all_one = ~Bitstring(length);
    for (const std::size_t limit : {std::size_t{0}, std::size_t{1}, std::size_t{33}, length}) {
        expect_matches_scalar(matrix, columns, all_zero, limit, scratch);
        expect_matches_scalar(matrix, columns, all_one, limit, scratch);
    }
}

TEST(Bitslice, ScratchReuseAcrossLimitsAndMatrices) {
    // One scratch serving interleaved (matrix, limit) pairs must rebuild its
    // bias planes whenever the pair changes and still match the scalar
    // kernel every time.
    Rng rng(0xabc);
    const std::size_t length = 200;
    const auto columns_a = random_columns(rng, 100, length);
    const auto columns_b = random_columns(rng, 65, length);
    const BitsliceMatrix matrix_a(columns_a);
    const BitsliceMatrix matrix_b(columns_b);
    BitsliceScratch scratch;
    for (std::size_t trial = 0; trial < 8; ++trial) {
        Bitstring transcript = Bitstring::random(rng, length);
        expect_matches_scalar(matrix_a, columns_a, transcript, 20, scratch);
        expect_matches_scalar(matrix_b, columns_b, transcript, 20, scratch);
        expect_matches_scalar(matrix_a, columns_a, transcript, 21, scratch);
    }
    // A matrix rebuilt in place is a new matrix to the scratch, even at
    // the same limit.
    BitsliceMatrix rebuilt(columns_a);
    const Bitstring transcript = Bitstring::random(rng, length);
    expect_matches_scalar(rebuilt, columns_a, transcript, 20, scratch);
    rebuilt.build(columns_b);
    expect_matches_scalar(rebuilt, columns_b, transcript, 20, scratch);
    rebuilt.build({});
    EXPECT_TRUE(rebuilt.empty());
}

TEST(Bitslice, EmptyMatrixAcceptsNothing) {
    const BitsliceMatrix matrix;
    BitsliceScratch scratch;
    std::vector<std::uint64_t> accept{0xffffffffffffffffull};
    matrix.and_not_below(Bitstring(10), 3, scratch, accept);
    EXPECT_TRUE(accept.empty());
}

TEST(Bitslice, SplitConstructionConcatenatesColumnSets) {
    Rng rng(0x51);
    const std::size_t length = 90;
    const auto first = random_columns(rng, 70, length);
    const auto second = random_columns(rng, 10, length);
    const BitsliceMatrix split(first, second);
    auto all = first;
    all.insert(all.end(), second.begin(), second.end());
    const BitsliceMatrix joined(all);
    ASSERT_EQ(split.columns(), joined.columns());
    BitsliceScratch scratch_split;
    BitsliceScratch scratch_joined;
    const Bitstring transcript = Bitstring::random(rng, length);
    for (const std::size_t limit : {std::size_t{1}, std::size_t{10}, std::size_t{40}}) {
        std::vector<std::uint64_t> accept_split;
        std::vector<std::uint64_t> accept_joined;
        split.and_not_below(transcript, limit, scratch_split, accept_split);
        joined.and_not_below(transcript, limit, scratch_joined, accept_joined);
        EXPECT_EQ(accept_split, accept_joined);
    }
    for (std::size_t c = 0; c < all.size(); ++c) {
        EXPECT_EQ(split.column_weight(c), all[c].count());
    }
}

TEST(Bitslice, AcceptAllMatchesPhase1Decoder) {
    // The decoder-level entry point, over genuine beep-code codewords and
    // decoys at the Lemma 9 reject limit — including transcripts built from
    // real superimpositions.
    Rng rng(0x900d);
    const BeepCode code(288, 24, 0xc0de);
    std::vector<Bitstring> codewords;
    for (std::uint64_t r = 0; r < 150; ++r) {
        codewords.push_back(code.codeword(rng.next_u64()));
    }
    const BitsliceMatrix matrix(codewords);
    for (const double epsilon : {0.0, 0.1, 0.45}) {
        const Phase1Decoder decoder(code, epsilon);
        BitsliceScratch scratch;
        for (std::size_t trial = 0; trial < 6; ++trial) {
            Bitstring heard(code.length());
            const std::size_t superimposed = 1 + rng.next_below(8);
            for (std::size_t s = 0; s < superimposed; ++s) {
                heard |= codewords[rng.next_below(codewords.size())];
            }
            heard.apply_noise(rng, 0.1);
            std::vector<std::uint64_t> accept;
            decoder.accept_all(heard, matrix, scratch, accept);
            for (std::size_t c = 0; c < codewords.size(); ++c) {
                ASSERT_EQ((accept[c / 64] >> (c % 64)) & 1u,
                          decoder.accepts_codeword(heard, codewords[c]) ? 1u : 0u)
                    << "epsilon " << epsilon << " candidate " << c;
            }
        }
    }
}

}  // namespace
}  // namespace nb
