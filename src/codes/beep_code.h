// Beep codes (paper Definition 3, Theorem 4).
//
// An (a, k, delta)-beep code of length b maps inputs to b-bit codewords of
// weight exactly delta*b/k such that almost every superimposition (bitwise
// OR) of k codewords is decodable: it does not 5*delta^2*b/k-intersect any
// codeword outside the superimposed set.
//
// Theorem 4 proves such codes of length b = c^2 * k * a (delta = 1/c) exist
// and that uniform random weight-(b/(ck)) codewords give one with probability
// >= 1 - 2^-a. We realize exactly that randomized construction, lazily:
// codeword(r) is generated on demand by a PRNG keyed by (code seed, r), so no
// 2^a-sized table is ever materialized. All nodes share the code seed (the
// code is public); only the inputs r are per-node random.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitstring.h"
#include "common/rng.h"

namespace nb {

class BeepCode {
public:
    /// A code with explicit length and codeword weight.
    /// Precondition: 0 < weight <= length.
    BeepCode(std::size_t length, std::size_t weight, std::uint64_t seed);

    /// Theorem 4 parameterization: an (a, k, 1/c)-beep code of length
    /// b = c^2 * k * a with codeword weight c * a.
    static BeepCode theorem4(std::size_t a, std::size_t k, std::size_t c, std::uint64_t seed);

    /// The codeword for input r: a weight-`weight()` string of length
    /// `length()`, a pure function of (seed, r).
    Bitstring codeword(std::uint64_t r) const;

    /// Sorted positions of the 1s of codeword(r) (the combined code writes
    /// the distance codeword into these positions, Notation 7).
    std::vector<std::size_t> one_positions(std::uint64_t r) const;

    /// codeword(r) and one_positions(r) from one sampler pass, written into
    /// caller-owned buffers whose storage is reused: Rng::distinct_bits
    /// samples straight into the codeword's words, and the positions are
    /// read off them in order. The codebook builds every round's codewords
    /// this way, allocation-free once its buffers are warm.
    void codeword_into(std::uint64_t r, Bitstring& codeword,
                       std::vector<std::size_t>& positions) const;

    std::size_t length() const noexcept { return length_; }
    std::size_t weight() const noexcept { return weight_; }
    std::uint64_t seed() const noexcept { return seed_; }

private:
    /// The stream codeword r is drawn from.
    Rng stream(std::uint64_t r) const { return Rng(seed_).derive(0x62656570u, r); }

    std::size_t length_;
    std::size_t weight_;
    std::uint64_t seed_;
};

}  // namespace nb
