#include "codes/distance_code.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.h"
#include "congest/algorithm.h"

namespace nb {

DistanceCode::DistanceCode(std::size_t message_bits, std::size_t length, std::uint64_t seed)
    : message_bits_(message_bits), length_(length), seed_(seed) {
    require(message_bits > 0, "DistanceCode: message_bits must be positive");
    require(length > 0, "DistanceCode: length must be positive");
}

DistanceCode DistanceCode::lemma6(std::size_t message_bits, double delta, std::uint64_t seed) {
    require(delta > 0.0 && delta < 0.5, "DistanceCode::lemma6: delta must be in (0, 1/2)");
    const double c_delta = 12.0 / ((1.0 - 2.0 * delta) * (1.0 - 2.0 * delta));
    const auto length = static_cast<std::size_t>(std::ceil(c_delta * static_cast<double>(message_bits)));
    return DistanceCode(message_bits, length, seed);
}

Bitstring DistanceCode::encode(const Bitstring& message) const {
    Bitstring codeword;
    encode_into(message, codeword);
    return codeword;
}

void DistanceCode::encode_into(const Bitstring& message, Bitstring& out) const {
    require(message.size() == message_bits_,
            "DistanceCode::encode: message has the wrong length");
    Rng generator = Rng(seed_).derive(0x64697374u, message.hash());
    Bitstring::random_into(generator, length_, out);
}

namespace {

/// One step of the nearest-codeword scan shared by decode() and
/// decode_cached(): fold `candidate` at `distance` into the running best.
void consider_candidate(std::optional<DistanceCode::Decoded>& best, const Bitstring& candidate,
                        std::size_t distance, std::size_t code_length) {
    if (!best.has_value()) {
        best = DistanceCode::Decoded{candidate, distance, distance, true};
        // runner_up is undefined until a second candidate arrives; track
        // it as the best distance among non-winning candidates below.
        best->runner_up = code_length + 1;
        return;
    }
    if (distance < best->distance ||
        (distance == best->distance && message_less(candidate, best->message))) {
        const bool tied = distance == best->distance;
        best->runner_up = best->distance;
        best->message = candidate;
        best->distance = distance;
        best->unique = !tied;
    } else {
        if (distance == best->distance) {
            best->unique = false;
        }
        best->runner_up = std::min(best->runner_up, distance);
    }
}

/// Hamming distance from `received` to one dictionary encoding as an inline
/// popcount loop. Phase-2 encodings are a few words long (2 on a ring, 4
/// under the two_hop defaults), so Bitstring::hamming_distance's indirect
/// SIMD call would cost more than the words it counts.
std::size_t entry_distance(const Bitstring& received, const Bitstring& encoded) {
    require(encoded.size() == received.size(),
            "DistanceCode::nearest_entry: encoding has the wrong length");
    const std::uint64_t* a = received.words().data();
    const std::uint64_t* b = encoded.words().data();
    std::size_t total = 0;
    for (std::size_t w = 0; w < received.words().size(); ++w) {
        total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
    }
    return total;
}

}  // namespace

std::optional<DistanceCode::Decoded> DistanceCode::decode(
    const Bitstring& received, std::span<const Bitstring> candidates) const {
    require(received.size() == length_, "DistanceCode::decode: received has the wrong length");
    std::optional<Decoded> best;
    for (const auto& candidate : candidates) {
        consider_candidate(best, candidate, encode(candidate).hamming_distance(received),
                           length_);
    }
    return best;
}

std::optional<DistanceCode::Decoded> DistanceCode::decode_cached(
    const Bitstring& received, std::span<const Bitstring> messages,
    std::span<const Bitstring> encoded, std::span<const std::uint32_t> entries) const {
    require(received.size() == length_,
            "DistanceCode::decode_cached: received has the wrong length");
    require(encoded.size() == messages.size(),
            "DistanceCode::decode_cached: one encoding per candidate message");
    std::optional<Decoded> best;
    for (const auto entry : entries) {
        require(entry < messages.size(), "DistanceCode::decode_cached: entry out of range");
        consider_candidate(best, messages[entry], encoded[entry].hamming_distance(received),
                           length_);
    }
    return best;
}

std::vector<std::uint32_t> DistanceCode::decode_gaps(std::span<const Bitstring> messages,
                                                     std::span<const Bitstring> encoded) const {
    std::vector<std::uint32_t> gaps;
    extend_decode_gaps_into(messages, encoded, {}, gaps);
    return gaps;
}

void DistanceCode::extend_decode_gaps_into(std::span<const Bitstring> messages,
                                           std::span<const Bitstring> encoded,
                                           std::span<const std::uint32_t> prefix_gaps,
                                           std::vector<std::uint32_t>& gaps) const {
    require(encoded.size() == messages.size(),
            "DistanceCode::decode_gaps: one encoding per candidate message");
    require(prefix_gaps.size() <= encoded.size(),
            "DistanceCode::extend_decode_gaps_into: prefix exceeds the dictionary");
    const std::size_t count = encoded.size();
    const std::size_t prefix = prefix_gaps.size();
    // length_ + 1 exceeds any real distance, so an entry with no distinct
    // neighbor keeps a gap the shortcut can always clear.
    gaps.assign(count, static_cast<std::uint32_t>(length_ + 1));
    std::copy(prefix_gaps.begin(), prefix_gaps.end(), gaps.begin());
    for (std::size_t i = 0; i < count; ++i) {
        // Prefix-internal pairs are already folded into prefix_gaps.
        for (std::size_t j = std::max(i + 1, prefix); j < count; ++j) {
            const auto distance =
                static_cast<std::uint32_t>(encoded[i].hamming_distance(encoded[j]));
            if (distance == 0) {
                // Same encoding: harmless if the messages agree (one tie
                // class, one output), disqualifying otherwise. A gap of 0
                // stays 0 under every later min.
                if (messages[i] != messages[j]) {
                    gaps[i] = 0;
                    gaps[j] = 0;
                }
                continue;
            }
            gaps[i] = std::min(gaps[i], distance);
            gaps[j] = std::min(gaps[j], distance);
        }
    }
}

std::uint32_t DistanceCode::nearest_entry(const Bitstring& received,
                                          std::span<const Bitstring> messages,
                                          std::span<const Bitstring> encoded,
                                          std::span<const std::uint32_t> entries,
                                          std::uint32_t hint_entry,
                                          std::span<const std::uint32_t> gaps) const {
    require(received.size() == length_,
            "DistanceCode::nearest_entry: received has the wrong length");
    require(!entries.empty(), "DistanceCode::nearest_entry: empty dictionary");
    if (!gaps.empty()) {
        const std::size_t hint_distance = entry_distance(received, encoded[hint_entry]);
        if (2 * hint_distance < gaps[hint_entry]) {
            return hint_entry;
        }
    }
    // Full scan, replicating decode_cached()'s fold exactly: strictly
    // smaller distance wins; an equal distance wins only with a canonically
    // smaller message.
    std::uint32_t best_entry = entries.front();
    std::size_t best_distance = entry_distance(received, encoded[best_entry]);
    for (std::size_t i = 1; i < entries.size(); ++i) {
        const std::uint32_t entry = entries[i];
        const std::size_t distance = entry_distance(received, encoded[entry]);
        if (distance < best_distance ||
            (distance == best_distance &&
             message_less(messages[entry], messages[best_entry]))) {
            best_entry = entry;
            best_distance = distance;
        }
    }
    return best_entry;
}

std::uint32_t DistanceCode::nearest_entry_soa(const Bitstring& received,
                                              std::span<const Bitstring> messages,
                                              const WordSoa& encoded,
                                              std::span<const std::uint32_t> entries,
                                              std::uint32_t hint_entry,
                                              std::span<const std::uint32_t> gaps,
                                              std::vector<std::uint32_t>& distances,
                                              simd::Kernel kernel) const {
    require(received.size() == length_,
            "DistanceCode::nearest_entry_soa: received has the wrong length");
    require(!entries.empty(), "DistanceCode::nearest_entry_soa: empty dictionary");
    const std::uint64_t* received_words = received.words().data();
    if (!gaps.empty()) {
        const std::size_t hint_distance = encoded.column_distance(received_words, hint_entry);
        if (2 * hint_distance < gaps[hint_entry]) {
            return hint_entry;
        }
    }
    // All candidate distances in one vectorized sweep, then the exact
    // nearest_entry() fold over the entry order (padding columns are never
    // indexed by an entry, so their garbage-free zero-word distances are
    // computed and ignored).
    distances.resize(encoded.stride());
    simd::ops(kernel).hamming_all(received_words, encoded.words(), encoded.data(),
                                  encoded.stride(), distances.data());
    std::uint32_t best_entry = entries.front();
    std::uint32_t best_distance = distances[best_entry];
    for (std::size_t i = 1; i < entries.size(); ++i) {
        const std::uint32_t entry = entries[i];
        const std::uint32_t distance = distances[entry];
        if (distance < best_distance ||
            (distance == best_distance &&
             message_less(messages[entry], messages[best_entry]))) {
            best_entry = entry;
            best_distance = distance;
        }
    }
    return best_entry;
}

DistanceCode::Decoded DistanceCode::decode_exhaustive(const Bitstring& received) const {
    require(message_bits_ <= 24,
            "DistanceCode::decode_exhaustive: message space too large (max 24 bits)");
    std::vector<Bitstring> all;
    all.reserve(std::size_t{1} << message_bits_);
    for (std::uint64_t value = 0; value < (std::uint64_t{1} << message_bits_); ++value) {
        Bitstring message(message_bits_);
        for (std::size_t bit = 0; bit < message_bits_; ++bit) {
            if ((value >> bit) & 1u) {
                message.set(bit);
            }
        }
        all.push_back(std::move(message));
    }
    auto result = decode(received, all);
    ensure(result.has_value(), "DistanceCode::decode_exhaustive: empty enumeration");
    return *result;
}

}  // namespace nb
