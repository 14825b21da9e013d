// Word-major structure-of-arrays dictionary for the phase-2 Hamming scans.
//
// A nearest-codeword scan visits every candidate's encoding; stored as one
// Bitstring per candidate, each visit strides to a fresh heap block and the
// vector kernels would need gathers. This layout transposes the dictionary
// once per round: word w of candidate c sits at data()[w * stride() + c],
// with the candidate dimension padded to a whole cache line, so a vector
// register spans adjacent *candidates* of one word index and the per-word
// broadcast-XOR-popcount loop (SimdOps::hamming_all) runs over contiguous
// aligned loads. Padding columns hold zero words and are simply ignored by
// callers (their "distances" are popcount(received); no entry indexes them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/aligned.h"
#include "common/bitstring.h"

namespace nb {

class WordSoa {
public:
    WordSoa() = default;

    /// Transpose `columns` (all the same bit length) into word-major layout.
    /// Replaces any previous contents; an empty span yields empty().
    void build(std::span<const Bitstring> columns);

    bool empty() const noexcept { return count_ == 0; }
    std::size_t count() const noexcept { return count_; }    ///< real columns
    std::size_t stride() const noexcept { return stride_; }  ///< padded columns
    std::size_t words() const noexcept { return words_; }    ///< words per column
    std::size_t bits() const noexcept { return bits_; }      ///< bits per column

    const std::uint64_t* data() const noexcept { return data_.data(); }

    /// Hamming distance of column `c` to `received` (words() packed words) —
    /// the strided single-column read the nearest-entry hint shortcut takes
    /// before committing to the full hamming_all sweep.
    std::size_t column_distance(const std::uint64_t* received, std::size_t c) const;

private:
    AlignedWords data_;
    std::size_t count_ = 0;
    std::size_t stride_ = 0;
    std::size_t words_ = 0;
    std::size_t bits_ = 0;
};

}  // namespace nb
