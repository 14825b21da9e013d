// Distance codes (paper Definition 5, Lemma 6).
//
// An (a, delta)-distance code of length b maps a-bit messages to b-bit
// codewords with pairwise Hamming distance >= delta*b. Lemma 6 shows uniform
// random codewords achieve this for b = c_delta * a with
// c_delta >= 12 * (1 - 2*delta)^-2, with probability >= 1 - 2^-2a.
//
// We realize the randomized construction lazily: encode(m) is a pure
// function of (code seed, m), generated by a PRNG keyed by the message's
// content hash, so arbitrary-length Bitstring messages are supported without
// materializing the 2^a codeword table.
//
// Decoding is nearest-codeword by Hamming distance (Lemma 10's rule),
// either over a caller-supplied candidate set (the honest "dictionary"
// decoder; see DESIGN.md section 3) or exhaustively over all 2^a messages
// (exact, for small a; used to cross-validate the dictionary decoder).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitstring.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/word_soa.h"

namespace nb {

class DistanceCode {
public:
    /// Code over `message_bits`-bit messages with `length`-bit codewords.
    DistanceCode(std::size_t message_bits, std::size_t length, std::uint64_t seed);

    /// Lemma 6 parameterization for relative distance delta in (0, 1/2):
    /// length = max(c_delta, 12*(1-2*delta)^-2) * message_bits.
    /// The paper's instantiation (Section 3) uses delta = 1/3 and length
    /// c_eps^2 * gamma * log n; pass that length explicitly via this factory
    /// when reproducing the paper exactly.
    static DistanceCode lemma6(std::size_t message_bits, double delta, std::uint64_t seed);

    /// Codeword for `message`. Precondition: message.size() == message_bits.
    Bitstring encode(const Bitstring& message) const;

    /// encode() into a caller-owned codeword (not `message`), reusing its
    /// word storage.
    void encode_into(const Bitstring& message, Bitstring& out) const;

    /// Result of a nearest-codeword decode.
    struct Decoded {
        Bitstring message;              ///< the winning candidate
        std::size_t distance = 0;       ///< d_H(encode(message), received)
        std::size_t runner_up = 0;      ///< best distance among other candidates
        bool unique = true;             ///< false if the minimum was tied
    };

    /// Nearest codeword among `candidates` (each of message_bits length).
    /// Ties resolve to the canonically smallest message and set unique=false.
    /// Returns nullopt iff candidates is empty.
    std::optional<Decoded> decode(const Bitstring& received,
                                  std::span<const Bitstring> candidates) const;

    /// decode() over the candidate subsequence messages[i] for i in
    /// `entries`, with the codewords pre-encoded by the caller
    /// (encoded[i] == encode(messages[i])). Scanning a cached dictionary
    /// replaces the per-candidate PRNG regeneration of decode() with one
    /// word-parallel Hamming distance per entry — the transports build the
    /// dictionary once per round (Codebook) and decode thousands of times
    /// against it. Result and tie-breaking match decode() iterated in
    /// `entries` order exactly.
    std::optional<Decoded> decode_cached(const Bitstring& received,
                                         std::span<const Bitstring> messages,
                                         std::span<const Bitstring> encoded,
                                         std::span<const std::uint32_t> entries) const;

    /// Per-entry unique-decoding radii for a cached dictionary: gaps[e] is
    /// the minimum Hamming distance from encoded[e] to any *differently
    /// encoded* entry of the dictionary — except that gaps[e] is forced to 0
    /// when some other entry shares encoded[e] but carries a different
    /// message (a content-hash collision), so the nearest_entry() shortcut
    /// can never skip a tie it would need to break. Cost is one pairwise
    /// scan, O(|dictionary|^2) distances; the transports amortize it once
    /// per Codebook round.
    std::vector<std::uint32_t> decode_gaps(std::span<const Bitstring> messages,
                                           std::span<const Bitstring> encoded) const;

    /// decode_gaps() with the leading block amortized, written into a
    /// caller-owned `gaps` (reusing its storage; it must not alias
    /// `prefix_gaps`): `prefix_gaps` must be decode_gaps() of the first
    /// `prefix_gaps.size()` entries taken alone; only pairs involving at
    /// least one later entry are scanned here, O(prefix * suffix + suffix^2)
    /// instead of O(|dictionary|^2). The codebook uses this to cache the
    /// node-payload block — which depends only on the messages — across a
    /// fixed-messages nonce sweep, paying per round only for the decoys.
    /// Result is identical to the full scan.
    void extend_decode_gaps_into(std::span<const Bitstring> messages,
                                 std::span<const Bitstring> encoded,
                                 std::span<const std::uint32_t> prefix_gaps,
                                 std::vector<std::uint32_t>& gaps) const;

    /// The dictionary entry decode_cached() would report as nearest for
    /// `received` over `entries` (same iteration order, same
    /// smallest-message tie-breaking), computed with a radius shortcut: if
    /// 2 * d(received, encoded[hint_entry]) < gaps[hint_entry], the triangle
    /// inequality makes hint_entry the strict nearest over ANY entry subset
    /// containing it, and the dictionary scan is skipped entirely. With
    /// empty `gaps` the full scan always runs. The transports pass the
    /// phase-1-accepted sender as the hint — in a correctly decoding round
    /// it is the true nearest, so most phase-2 decodes touch one encoding
    /// instead of the whole dictionary.
    ///
    /// Tie classes note: when several entries share one encoding, they also
    /// share one message (decode_gaps zeroes the gap otherwise), so the
    /// returned entry may differ from decode_cached()'s within such a class
    /// while the decoded *message* — the decoding's output — is identical.
    ///
    /// Preconditions: hint_entry is in `entries`, entries is non-empty, and
    /// entry ids index `messages`/`encoded`/`gaps` (bounds are the caller's
    /// contract, unlike decode_cached; the transports pass codebook-built
    /// dictionaries).
    std::uint32_t nearest_entry(const Bitstring& received,
                                std::span<const Bitstring> messages,
                                std::span<const Bitstring> encoded,
                                std::span<const std::uint32_t> entries,
                                std::uint32_t hint_entry,
                                std::span<const std::uint32_t> gaps) const;

    /// nearest_entry() over a word-major SoA dictionary (common/word_soa.h):
    /// same hint shortcut, same fold, bit-identical result. When the hint
    /// misses, every candidate's distance is computed in one vectorized
    /// sweep (SimdOps::hamming_all on `kernel`'s table) into `distances`
    /// (caller scratch, resized to encoded.stride()) and the winner is
    /// folded over `entries` exactly as nearest_entry does. Worth it when
    /// `entries` covers most of the dictionary (the all_nodes policy);
    /// sparse two-hop scans should keep the per-entry form.
    /// Precondition additionally: encoded was built from the same strings
    /// nearest_entry's `encoded` span would hold.
    std::uint32_t nearest_entry_soa(const Bitstring& received,
                                    std::span<const Bitstring> messages,
                                    const WordSoa& encoded,
                                    std::span<const std::uint32_t> entries,
                                    std::uint32_t hint_entry,
                                    std::span<const std::uint32_t> gaps,
                                    std::vector<std::uint32_t>& distances,
                                    simd::Kernel kernel = simd::Kernel::auto_best) const;

    /// Exact nearest-codeword decode over all 2^message_bits messages.
    /// Precondition: message_bits <= 24 (cost is 2^a encodes).
    Decoded decode_exhaustive(const Bitstring& received) const;

    std::size_t message_bits() const noexcept { return message_bits_; }
    std::size_t length() const noexcept { return length_; }
    std::uint64_t seed() const noexcept { return seed_; }

private:
    std::size_t message_bits_;
    std::size_t length_;
    std::uint64_t seed_;
};

}  // namespace nb
