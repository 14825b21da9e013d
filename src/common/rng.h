// Deterministic pseudo-random number generation.
//
// Every randomized component in the library draws from an explicit Rng so a
// run is a pure function of (inputs, seed). The generator is xoshiro256**
// seeded via splitmix64; independent per-node / per-purpose streams are
// derived with Rng::derive(), which mixes a stream id into the seed so that
// streams are statistically independent and order-insensitive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nb {

/// splitmix64 step: the standard 64-bit finalizer-based generator, used for
/// seeding and for hash-mixing stream ids.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// One-shot stateless mix of a 64-bit value (splitmix64 finalizer).
std::uint64_t mix64(std::uint64_t value) noexcept;

/// The reference geometric-skip map, a pure function of one 53-bit draw
/// (`next_u64() >> 11`): floor(log(u) / log1p_neg_p) for u = draw * 2^-53,
/// with draw 0 clamped to u = 2^-53 and results >= 9.2e18 saturated to
/// UINT64_MAX. Rng::geometric_skip_with and GeometricSkipTable are both
/// defined by it, so every skip the library draws is this map of one draw.
std::uint64_t geometric_skip_reference(std::uint64_t draw, double log1p_neg_p) noexcept;

/// xoshiro256** generator with convenience sampling methods.
class Rng {
public:
    /// Construct from a 64-bit seed (expanded through splitmix64).
    explicit Rng(std::uint64_t seed = 0) noexcept;

    /// Next raw 64-bit output.
    std::uint64_t next_u64() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound). Precondition: bound > 0.
    std::uint64_t next_below(std::uint64_t bound);

    /// Uniform integer in [lo, hi]. Precondition: lo <= hi.
    std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

    /// Uniform double in [0, 1).
    double next_double() noexcept;

    /// Bernoulli trial with success probability p in [0, 1].
    bool bernoulli(double p);

    /// bernoulli(p) as an integer compare, for loops that draw many trials
    /// at a few fixed rates: `threshold` is bernoulli_threshold(p), and the
    /// result and the draws consumed are bernoulli(p)'s.
    bool bernoulli_below(std::uint64_t threshold) noexcept {
        if (threshold == 0) {
            return false;  // p <= 0: no draw
        }
        if (threshold == kBernoulliAlways) {
            return true;  // p >= 1: no draw
        }
        return (next_u64() >> 11) < threshold;
    }

    /// bernoulli_below's threshold for p in [0, 1]: 0 for p <= 0,
    /// kBernoulliAlways for p >= 1, and ceil(p * 2^53) in between. The
    /// latter is exact: next_double() is the 53-bit draw times 2^-53, and
    /// scaling p by 2^53 rounds nothing, so draw * 2^-53 < p exactly when
    /// draw < ceil(p * 2^53). Precondition: p in [0, 1].
    static std::uint64_t bernoulli_threshold(double p);

    /// The threshold of a trial that always succeeds without a draw; no
    /// p < 1 maps to it, since those thresholds are at most 2^53.
    static constexpr std::uint64_t kBernoulliAlways = UINT64_MAX;

    /// Number of failures before the next success in a Bernoulli(p) process,
    /// i.e. a Geometric(p) sample starting at 0. Used for sparse noise
    /// injection: the gap between consecutive flipped bits.
    /// Precondition: 0 < p <= 1.
    std::uint64_t geometric_skip(double p);

    /// geometric_skip(p) with the denominator log1p(-p) precomputed by the
    /// caller. Hot loops drawing many skips at one p hoist the logarithm;
    /// draws and arithmetic are identical to geometric_skip(p).
    std::uint64_t geometric_skip_with(double log1p_neg_p) noexcept;

    /// Set `count` distinct bits of `bitmap`, a uniformly random subset of
    /// [0, universe); bit p is bit p % 64 of word p / 64. This is the one
    /// sampler behind distinct_positions: the same draws, the same set and
    /// the same generator state afterwards. For universe <= 2^22 it is
    /// Floyd's algorithm (exactly `count` draws); above, rejection of
    /// repeated draws, meant for count much smaller than universe. The
    /// bitmap doubles as the membership set, so a caller that wants the set
    /// as a bit string (a beep codeword) gets it with no sort and no copy.
    /// Preconditions: count <= universe; bitmap holds ceil(universe / 64)
    /// words, all zero.
    void distinct_bits(std::size_t universe, std::size_t count, std::span<std::uint64_t> bitmap);

    /// distinct_bits' set as positions sorted ascending: read off a bitmap
    /// for universe <= 2^22, collected through a hash set above (a bitmap
    /// of a large universe would cost far more than `count` positions).
    /// Precondition: count <= universe.
    std::vector<std::size_t> distinct_positions(std::size_t universe, std::size_t count);

    /// Fisher-Yates shuffle of [first, last) index order applied to a vector.
    template <typename T>
    void shuffle(std::vector<T>& items) {
        if (items.size() < 2) {
            return;
        }
        for (std::size_t i = items.size() - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(next_below(i + 1));
            using std::swap;
            swap(items[i], items[j]);
        }
    }

    /// A new, statistically independent generator for the given stream id.
    /// derive(a) and derive(b) are independent for a != b, and independent of
    /// further draws from *this (derivation does not advance this generator).
    Rng derive(std::uint64_t stream_id) const noexcept;

    /// Derivation keyed by two ids (e.g. (node, round)).
    Rng derive(std::uint64_t id_a, std::uint64_t id_b) const noexcept;

private:
    static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

/// geometric_skip_reference at one fixed p, by table lookup instead of a
/// logarithm per skip. The reference map is non-increasing in the draw, so
/// it is fully described by its thresholds B_s = min{draw >= 1 :
/// reference(draw) <= s}: the skip of a draw is the smallest s with
/// B_s <= draw. The table holds B_s for s below kMaxEntries, found by
/// evaluating the reference itself, and a guide over the draw's top
/// kGuideBits bits gives each lookup its starting s. Draws whose skip is
/// past the table (and draw 0) evaluate the reference. So skip(draw) equals
/// geometric_skip_reference(draw, log1p(-p)) at every draw, as long as the
/// computed reference is monotone (DESIGN.md section 6).
/// Read-only after construction: one table serves any number of threads.
/// The arrays are inline (about 40 KB), so building one allocates nothing:
/// each BatchEngine builds its own every round without breaking the
/// transports' zero-allocation steady state.
class GeometricSkipTable {
public:
    static constexpr std::size_t kMaxEntries = 4096;

    /// Precondition: 0 < p < 1.
    explicit GeometricSkipTable(double p);

    double p() const noexcept { return p_; }
    double log1p_neg_p() const noexcept { return log1p_neg_p_; }

    /// Thresholds held: skips below size() are looked up.
    std::size_t size() const noexcept { return size_; }

    /// B_s for s < size(); 2^53 when no draw maps to s or below.
    std::uint64_t threshold(std::size_t s) const { return bounds_.at(s); }

    /// The skip of a 53-bit draw.
    std::uint64_t skip(std::uint64_t draw) const noexcept {
        std::size_t s = guide_[draw >> (53 - kGuideBits)];
        while (draw < bounds_[s]) {  // bounds_[size_] == 0 stops the walk
            ++s;
        }
        return s < size_ ? s : geometric_skip_reference(draw, log1p_neg_p_);
    }

    /// One skip from `rng`: exactly one next_u64(), like
    /// Rng::geometric_skip_with, and the same value.
    std::uint64_t next_skip(Rng& rng) const noexcept { return skip(rng.next_u64() >> 11); }

private:
    static constexpr int kGuideBits = 12;

    double p_;
    double log1p_neg_p_;
    std::size_t size_ = 0;
    /// B_0 >= B_1 >= ... >= B_{size_-1}, then a 0 sentinel; the rest unused.
    std::array<std::uint64_t, kMaxEntries + 1> bounds_{};
    /// First s that can hold per top-bits bucket.
    std::array<std::uint16_t, std::size_t{1} << kGuideBits> guide_;
};

}  // namespace nb
