// Word-packed dynamic bitstring.
//
// This is the workhorse type of the library: beep-code codewords, per-phase
// beep schedules and heard transcripts are all Bitstrings. Operations needed
// by the paper's constructions are provided directly:
//   * superimposition (bitwise OR, Section 1.4),
//   * intersection counts  1(s AND s')           (Definition 2),
//   * Hamming distance                           (Definition 5),
//   * subsequence gather at the 1-positions of a codeword (Notation 7),
//   * i.i.d. Bernoulli(epsilon) noise            (noisy beeping model).
// All bulk operations are word-parallel (64 bits at a time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd/simd.h"

namespace nb {

class Bitstring {
public:
    /// Empty bitstring.
    Bitstring() noexcept = default;

    /// All-zero bitstring of `size` bits.
    explicit Bitstring(std::size_t size);

    /// Bitstring from a 0/1 character string, e.g. "10110".
    static Bitstring from_string(const std::string& bits);

    /// Uniformly random bitstring of `size` bits.
    static Bitstring random(Rng& rng, std::size_t size);

    /// random() into a caller-owned string, reusing its word storage.
    static void random_into(Rng& rng, std::size_t size, Bitstring& out);

    /// Become the `bits`-bit string held in packed word storage (the layout
    /// words() exposes), reusing this string's storage: no allocation once
    /// it holds that many words. `words` must hold ceil(bits / 64) words or
    /// more; unused high bits of the last word are cleared. The transport
    /// batch stores delivered messages as raw word runs.
    void assign_words(std::span<const std::uint64_t> words, std::size_t bits);

    /// Random bitstring of `size` bits with exactly `weight` ones
    /// (uniform over all such strings). Precondition: weight <= size.
    static Bitstring random_with_weight(Rng& rng, std::size_t size, std::size_t weight);

    /// random_with_weight() into a caller-owned string: Rng::distinct_bits
    /// samples straight into its words, reusing their storage.
    static void random_with_weight_into(Rng& rng, std::size_t size, std::size_t weight,
                                        Bitstring& out);

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Value of bit `index`. Precondition: index < size().
    bool test(std::size_t index) const;

    /// Set bit `index` to `value`. Precondition: index < size().
    void set(std::size_t index, bool value = true);

    /// Flip bit `index`. Precondition: index < size().
    void flip(std::size_t index);

    /// Number of 1s (the paper's 1(s), Definition 2).
    std::size_t count() const noexcept;

    /// Number of positions where both this and `other` are 1, i.e.
    /// 1(this AND other). Precondition: sizes match.
    std::size_t intersect_count(const Bitstring& other) const;

    /// Number of positions where this is 1 and `other` is 0, i.e.
    /// 1(this AND NOT other). This is the paper's "intersection with the
    /// complement" used throughout Lemmas 8-10. Precondition: sizes match.
    std::size_t and_not_count(const Bitstring& other) const;

    /// True iff 1(this AND NOT other) < limit — the Lemma 9 acceptance test
    /// as a packed-word kernel: popcounts of this & ~other accumulate word
    /// by word and the scan exits as soon as the running count reaches
    /// `limit`, so rejected candidates (the common case in a dictionary
    /// scan) cost only a prefix of the string. Precondition: sizes match.
    bool and_not_count_below(const Bitstring& other, std::size_t limit) const;

    /// Hamming distance d_H(this, other). Precondition: sizes match.
    std::size_t hamming_distance(const Bitstring& other) const;

    /// True iff 1(this AND other) >= threshold: "this d-intersects other"
    /// (Definition 2).
    bool intersects(const Bitstring& other, std::size_t threshold) const {
        return intersect_count(other) >= threshold;
    }

    Bitstring& operator|=(const Bitstring& other);
    Bitstring& operator&=(const Bitstring& other);
    Bitstring& operator^=(const Bitstring& other);

    friend Bitstring operator|(Bitstring lhs, const Bitstring& rhs) { return lhs |= rhs; }
    friend Bitstring operator&(Bitstring lhs, const Bitstring& rhs) { return lhs &= rhs; }
    friend Bitstring operator^(Bitstring lhs, const Bitstring& rhs) { return lhs ^= rhs; }

    /// Bitwise complement (within size() bits).
    Bitstring operator~() const;

    bool operator==(const Bitstring& other) const noexcept;
    bool operator!=(const Bitstring& other) const noexcept { return !(*this == other); }

    /// Sorted positions of all 1 bits (the paper's 1_i(s), Notation 7,
    /// as a whole vector: result[i-1] == position of the i-th 1).
    std::vector<std::size_t> one_positions() const;

    /// Call `fn(position)` for every 1 bit in ascending order.
    template <typename Fn>
    void for_each_one(Fn&& fn) const {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t word = words_[w];
            while (word != 0) {
                const int bit = __builtin_ctzll(word);
                fn(w * 64 + static_cast<std::size_t>(bit));
                word &= word - 1;
            }
        }
    }

    /// Reset to an all-zero string of `size` bits, reusing word storage.
    void reset(std::size_t size);

    /// The low `width` bits starting at `pos`, as an integer (bit `pos` is
    /// the result's bit 0). Word-parallel: at most two word reads.
    /// Precondition: width <= 64 and pos + width <= size().
    std::uint64_t load_bits(std::size_t pos, std::size_t width) const;

    /// Write the low `width` bits of `value` at `pos` (bit 0 of `value`
    /// lands at `pos`), overwriting. Word-parallel: at most two word writes.
    /// Precondition: width <= 64, pos + width <= size(), and `value` fits.
    void store_bits(std::size_t pos, std::uint64_t value, std::size_t width);

    /// The suffix [from, size()) written into `out` (not this string) as a
    /// Bitstring of size() - from bits, reusing its word storage — a
    /// word-parallel shift, replacing bit-by-bit extraction loops (the
    /// codebook uses it to strip payload presence bits).
    /// Precondition: from <= size().
    void tail_into(std::size_t from, Bitstring& out) const;

    /// Gather the bits of this string at the given positions, in order:
    /// result[i] = this[positions[i]]. Used to extract the subsequence
    /// y_{v,w} at the 1-positions of C(r_w) (Section 4, Lemma 10).
    Bitstring gather(const std::vector<std::size_t>& positions) const;

    /// gather() into a caller-owned result (resized to positions.size()),
    /// assembling output words in a register instead of per-bit writes; the
    /// transports use this with per-worker scratch strings so the phase-2
    /// hot loop performs no allocation.
    void gather_into(std::span<const std::size_t> positions, Bitstring& out) const;

    /// gather_into at mask.one_positions(), without the position vector:
    /// out[i] = this[p_i] where p_i is the i-th 1-position of `mask`
    /// (ascending), i.e. the Notation 7 subsequence y at the 1-positions of
    /// a codeword, taken straight off the packed codeword words. Dispatches
    /// to the SIMD layer's word-wise PEXT walk — bit-identical to the
    /// position-list gather on every kernel (property-tested). Precondition:
    /// sizes match.
    void gather_mask_into(const Bitstring& mask, Bitstring& out,
                          simd::Kernel kernel = simd::Kernel::auto_best) const;

    /// Scatter `values` into a fresh string of this size at `positions`:
    /// result[positions[i]] = values[i], other bits 0. This implements the
    /// combined code CD (Notation 7): scatter D(m) into the 1-positions of
    /// C(r). Precondition: values.size() == positions.size().
    static Bitstring scatter(std::size_t size, const std::vector<std::size_t>& positions,
                             const Bitstring& values);

    /// scatter() into a caller-owned result (not `values`), reusing its
    /// word storage.
    static void scatter_into(std::size_t size, std::span<const std::size_t> positions,
                             const Bitstring& values, Bitstring& out);

    /// Flip each bit independently with probability `epsilon` — the noisy
    /// beeping channel. Uses geometric skip sampling: O(#flips) expected work.
    void apply_noise(Rng& rng, double epsilon);

    /// apply_noise(rng, table.p()) with the skips looked up in `table`
    /// instead of computed: the same draws and the same flips, without a
    /// logarithm per flip.
    void apply_noise(Rng& rng, const GeometricSkipTable& table);

    /// Same flip distribution but consuming exactly one Bernoulli draw per
    /// bit, matching RoundEngine's per-round draws; used to cross-validate
    /// the two beep engines bit-for-bit.
    void apply_noise_dense(Rng& rng, double epsilon);

    /// In-place OR of another bitstring, word-parallel (superimposition).
    void superimpose(const Bitstring& other) { *this |= other; }

    /// "10110..." rendering for tests and debugging.
    std::string to_string() const;

    /// 64-bit content hash (FNV-1a over words and size). Stable across runs;
    /// used to key pseudo-random codeword generation by message content.
    std::uint64_t hash() const noexcept;

    /// Raw word storage (read-only); the last word's unused high bits are 0.
    const std::vector<std::uint64_t>& words() const noexcept { return words_; }

private:
    void check_same_size(const Bitstring& other, const char* operation) const;
    void clear_padding() noexcept;

    /// The one noise gap walk: flip the bit after each skip `next_skip()`
    /// returns until a skip runs past the end.
    template <typename NextSkip>
    void flip_at_gaps(NextSkip next_skip);

    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
};

}  // namespace nb
