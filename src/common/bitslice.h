// Bitsliced (column-transposed) bit matrix with vertical-counter threshold
// kernels.
//
// The phase-1 decoder's hot question is "which of these C candidate
// codewords have fewer than `limit` of their 1s missing from the heard
// transcript?" (Lemma 9). Answered one candidate at a time, that is C scans
// of the b-bit transcript. This matrix stores the candidates TRANSPOSED —
// row p holds bit p of every candidate, packed 64 candidates per lane word —
// so one pass over the transcript scores all candidates simultaneously:
// visiting the transcript's 1-rows and adding each row's lane words into
// per-candidate vertical counters computes every candidate's intersection
// count word-parallel across candidates.
//
// The counters are bit-planes (plane k holds bit k of all candidates'
// counters) and are *bias-initialized*: candidate c's counter starts at
// 2^K - t_c, where t_c = weight_c - limit + 1 is the intersection count at
// which c becomes accepted. A ripple-carry out of the top plane then fires
// exactly when the count reaches t_c, and the carry-out word IS the
// acceptance bitmask — no final comparison pass. Overflowed counters wrap
// and may carry again; the mask accumulates with sticky OR, so re-overflow
// is harmless.
//
// This layout and kernel follow the data-plane systems the ROADMAP points
// at: transpose the hot data once (per Codebook round), then answer each
// query with dense word-parallel arithmetic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/bitstring.h"
#include "common/simd/simd.h"

namespace nb {

class BitsliceMatrix;

/// Reusable workspace for BitsliceMatrix::and_not_below: the bias planes
/// (rebuilt only when the (matrix, limit) pair changes) and the working
/// counter planes. One scratch per worker thread; calls never allocate once
/// warm.
class BitsliceScratch {
public:
    BitsliceScratch() = default;

private:
    friend class BitsliceMatrix;

    AlignedWords bias_;     ///< plane-major counter init values
    AlignedWords planes_;   ///< working counters, plane-major
    AlignedWords low_;      ///< 3-bit chunk counters + carry buffer (4 planes)
    AlignedWords always_;   ///< columns accepted at any count
    std::uint64_t bias_epoch_ = 0;        ///< matrix epoch the bias was built for
    std::size_t bias_limit_ = 0;
    std::size_t plane_count_ = 0;
};

class BitsliceMatrix {
public:
    BitsliceMatrix() = default;

    /// Transpose the concatenation of two column sets (all columns must
    /// share one length). The split constructor lets the codebook slice its
    /// node codewords and decoy codewords into one matrix without first
    /// concatenating them.
    BitsliceMatrix(std::span<const Bitstring> columns,
                   std::span<const Bitstring> extra_columns = {}) {
        build(columns, extra_columns);
    }

    /// Re-transpose in place, reusing this matrix's storage: a rebuild no
    /// larger than the last allocates nothing. The matrix gets a new epoch,
    /// so no scratch keeps the old bias planes.
    void build(std::span<const Bitstring> columns,
               std::span<const Bitstring> extra_columns = {});

    std::size_t rows() const noexcept { return rows_; }          ///< transcript length b
    std::size_t columns() const noexcept { return columns_; }    ///< candidate count

    /// Lane words per row, padded to a whole cache line (multiple of 8) so
    /// the SIMD kernels process full vectors with no tail branch; padding
    /// lanes hold zero columns and never set accept bits.
    std::size_t lane_words() const noexcept { return lane_words_; }
    bool empty() const noexcept { return columns_ == 0; }

    /// 1-count of column c (cached at transposition time).
    std::uint32_t column_weight(std::size_t c) const { return weights_[c]; }

    /// Row p as lane words (bit c of word c/64 = column c's bit at row p).
    std::span<const std::uint64_t> row(std::size_t p) const {
        return {rows_data_.data() + p * lane_words_, lane_words_};
    }

    /// The Lemma 9 acceptance test for every column at once: after the call,
    /// bit c of `accept` (word c/64, bit c%64) is set iff
    ///     popcount(column_c AND NOT other) < limit,
    /// i.e. iff column_c.and_not_count_below(other, limit) — the bitsliced
    /// counterpart of the scalar kernel, bit-identical by construction.
    /// `accept` is resized to lane_words(); padding bits beyond columns()
    /// are zero. Precondition: other.size() == rows(). The hot pass runs on
    /// the dispatch table for `kernel` (see common/simd/simd.h); every
    /// kernel produces the identical mask.
    void and_not_below(const Bitstring& other, std::size_t limit, BitsliceScratch& scratch,
                       std::vector<std::uint64_t>& accept,
                       simd::Kernel kernel = simd::Kernel::auto_best) const;

    /// Reserve `scratch` for and_not_below on this matrix at any limit, so
    /// that call allocates nothing. Lets a pool size every worker's scratch
    /// before a parallel loop, whichever worker later runs the call.
    void reserve_scratch(BitsliceScratch& scratch) const;

private:
    void prepare_scratch(std::size_t limit, BitsliceScratch& scratch) const;

    std::size_t rows_ = 0;
    std::size_t columns_ = 0;
    std::size_t lane_words_ = 0;
    /// Identity for scratch bias caching: unique per transposition, shared
    /// by copies (which hold identical content). Keying the cache on an
    /// epoch instead of the matrix address keeps a scratch from false-
    /// hitting when a destroyed matrix's storage is reused for a new one.
    std::uint64_t epoch_ = 0;
    AlignedWords rows_data_;                 ///< rows * lane_words, row-major
    std::vector<std::uint32_t> weights_;     ///< per-column 1-counts
};

}  // namespace nb
