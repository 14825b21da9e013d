#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.h"

namespace nb {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t value) noexcept {
    std::uint64_t state = value;
    return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
        word = splitmix64(sm);
    }
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
    require(bound > 0, "Rng::next_below: bound must be positive");
    // Classic unbiased rejection sampling: discard draws below
    // 2^64 mod bound, then reduce. That threshold is < bound, so a draw
    // >= bound is kept without computing it (a second division).
    while (true) {
        const std::uint64_t x = next_u64();
        if (x >= bound || x >= (0 - bound) % bound) {
            return x % bound;
        }
    }
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
    require(lo <= hi, "Rng::next_in: lo must be <= hi");
    const std::uint64_t span = hi - lo;
    if (span == UINT64_MAX) {
        return next_u64();
    }
    return lo + next_below(span + 1);
}

double Rng::next_double() noexcept {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
    require(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0, 1]");
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return next_double() < p;
}

std::uint64_t Rng::bernoulli_threshold(double p) {
    require(p >= 0.0 && p <= 1.0, "Rng::bernoulli_threshold: p must be in [0, 1]");
    if (p <= 0.0) {
        return 0;
    }
    if (p >= 1.0) {
        return kBernoulliAlways;
    }
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

std::uint64_t Rng::geometric_skip(double p) {
    require(p > 0.0 && p <= 1.0, "Rng::geometric_skip: p must be in (0, 1]");
    if (p >= 1.0) {
        return 0;
    }
    return geometric_skip_with(std::log1p(-p));
}

std::uint64_t geometric_skip_reference(std::uint64_t draw, double log1p_neg_p) noexcept {
    // Inverse-CDF sampling: floor(log(U) / log(1 - p)) with U in (0, 1].
    const double u = draw == 0 ? 0x1.0p-53 : static_cast<double>(draw) * 0x1.0p-53;
    const double skip = std::floor(std::log(u) / log1p_neg_p);
    if (skip >= 9.2e18) {
        return UINT64_MAX;
    }
    return static_cast<std::uint64_t>(skip);
}

std::uint64_t Rng::geometric_skip_with(double log1p_neg_p) noexcept {
    return geometric_skip_reference(next_u64() >> 11, log1p_neg_p);
}

namespace {

/// B_s: the smallest draw in [1, hi] whose reference skip is <= s, where
/// `hi` is known to qualify (2^53, i.e. u = 1, maps to skip 0 and so
/// qualifies for every s). Gallops from `guess` to bracket the boundary,
/// then bisects; with a guess a few draws off that is a handful of
/// reference evaluations.
std::uint64_t first_draw_within(std::uint64_t s, std::uint64_t guess, std::uint64_t hi,
                                double log1p_neg_p) {
    const auto fits = [&](std::uint64_t draw) {
        return geometric_skip_reference(draw, log1p_neg_p) <= s;
    };
    guess = std::clamp<std::uint64_t>(guess, 1, hi);
    std::uint64_t lo = 0;  // never fits: B_s >= 1
    const bool guess_fits = fits(guess);
    (guess_fits ? hi : lo) = guess;
    for (std::uint64_t step = 1; hi - lo > step; step *= 2) {
        const std::uint64_t probe = guess_fits ? hi - step : lo + step;
        const bool probe_fits = fits(probe);
        (probe_fits ? hi : lo) = probe;
        if (probe_fits != guess_fits) {
            break;
        }
    }
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        (fits(mid) ? hi : lo) = mid;
    }
    return hi;
}

}  // namespace

GeometricSkipTable::GeometricSkipTable(double p) : p_(p), log1p_neg_p_(std::log1p(-p)) {
    require(p > 0.0 && p < 1.0, "GeometricSkipTable: p must be in (0, 1)");
    // The largest skip any draw maps to is the reference at draw 1 (u =
    // 2^-53), so the table stops there or at the cap.
    const std::uint64_t largest = geometric_skip_reference(1, log1p_neg_p_);
    size_ = largest < kMaxEntries ? static_cast<std::size_t>(largest) + 1 : kMaxEntries;

    // skip <= s  <=>  log(u) / log1p(-p) < s + 1  <=>  u > (1-p)^(s+1), so
    // B_s sits next to ceil((1-p)^(s+1) * 2^53); the reference settles the
    // exact draw. B_s <= B_{s-1} bounds each search from above.
    constexpr std::uint64_t one = std::uint64_t{1} << 53;
    std::uint64_t hi = one;
    for (std::size_t s = 0; s < size_; ++s) {
        const double seed =
            std::ceil(std::ldexp(std::exp(static_cast<double>(s + 1) * log1p_neg_p_), 53));
        const auto guess = seed >= static_cast<double>(one) ? one
                                                             : static_cast<std::uint64_t>(seed);
        hi = first_draw_within(s, guess, hi, log1p_neg_p_);
        bounds_[s] = hi;
    }
    bounds_[size_] = 0;

    // guide_[g] = the first s with B_s <= the bucket's largest draw: no
    // draw in the bucket can map below it.
    std::size_t s = 0;
    for (std::size_t g = guide_.size(); g-- > 0;) {
        const std::uint64_t largest_draw = ((std::uint64_t{g} + 1) << (53 - kGuideBits)) - 1;
        while (bounds_[s] > largest_draw) {
            ++s;
        }
        guide_[g] = static_cast<std::uint16_t>(s);
    }
    // Bucket 0 (u < 2^-12) spans skips from about 8.3/|log1p(-p)| up to the
    // largest, thousands of steps at small p: send its draws (one in 4096)
    // straight to the reference.
    guide_[0] = static_cast<std::uint16_t>(size_);
}

namespace {

constexpr std::size_t kFloydUniverseLimit = std::size_t{1} << 22;

/// The draws behind distinct_bits and distinct_positions. Membership is the
/// caller's: insert(p) adds p and returns whether it was new. Whether a
/// draw is kept depends only on membership, so any set gives the same
/// draws and the same result.
template <typename Insert>
void draw_distinct(Rng& rng, std::size_t universe, std::size_t count, Insert insert) {
    if (universe <= kFloydUniverseLimit) {
        // Floyd: step j draws t in [0, j] and takes j instead when t is
        // taken; every earlier pick is < j, so j is always new.
        for (std::size_t j = universe - count; j < universe; ++j) {
            if (!insert(static_cast<std::size_t>(rng.next_below(j + 1)))) {
                insert(j);
            }
        }
    } else {
        for (std::size_t drawn = 0; drawn < count;) {
            drawn += insert(static_cast<std::size_t>(rng.next_below(universe))) ? 1 : 0;
        }
    }
}

}  // namespace

void Rng::distinct_bits(std::size_t universe, std::size_t count,
                        std::span<std::uint64_t> bitmap) {
    require(count <= universe, "Rng::distinct_bits: count must be <= universe");
    require(bitmap.size() * 64 >= universe, "Rng::distinct_bits: bitmap too small");
    draw_distinct(*this, universe, count, [bitmap](std::size_t p) {
        std::uint64_t& word = bitmap[p / 64];
        const std::uint64_t bit = std::uint64_t{1} << (p % 64);
        const bool fresh = (word & bit) == 0;
        word |= bit;
        return fresh;
    });
}

std::vector<std::size_t> Rng::distinct_positions(std::size_t universe, std::size_t count) {
    require(count <= universe, "Rng::distinct_positions: count must be <= universe");
    std::vector<std::size_t> positions;
    positions.reserve(count);
    if (universe <= kFloydUniverseLimit) {
        std::vector<std::uint64_t> bitmap((universe + 63) / 64);
        distinct_bits(universe, count, bitmap);
        for (std::size_t w = 0; w < bitmap.size(); ++w) {
            for (std::uint64_t word = bitmap[w]; word != 0; word &= word - 1) {
                positions.push_back(w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
            }
        }
        return positions;
    }
    std::unordered_set<std::size_t> seen;
    seen.reserve(count);
    draw_distinct(*this, universe, count,
                  [&seen](std::size_t p) { return seen.insert(p).second; });
    positions.assign(seen.begin(), seen.end());
    std::sort(positions.begin(), positions.end());
    return positions;
}

Rng Rng::derive(std::uint64_t stream_id) const noexcept {
    std::uint64_t mixed = state_[0] ^ rotl(state_[2], 29);
    mixed = mix64(mixed ^ mix64(stream_id ^ 0xa0761d6478bd642fULL));
    return Rng(mixed);
}

Rng Rng::derive(std::uint64_t id_a, std::uint64_t id_b) const noexcept {
    return derive(mix64(id_a) ^ rotl(mix64(id_b ^ 0xe7037ed1a0b428dbULL), 31));
}

}  // namespace nb
