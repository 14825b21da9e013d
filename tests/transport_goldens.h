// The seed-pinned transport goldens and the helpers that compute them,
// shared by every suite that holds BeepTransport to them (equivalence,
// sharding, forced SIMD dispatch). The fixture is a 32-node Erdos-Renyi
// graph (Rng 42, p = 0.18) with 10-bit messages from seed 1234; the faults
// variant jams node 3 and crashes nodes 7 and 11.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitstring.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "sim/params.h"
#include "sim/transport.h"

namespace nb::golden {

/// Random `bits`-bit messages, each node silent with `silent_fraction`.
inline std::vector<std::optional<Bitstring>> make_messages(const Graph& graph, std::size_t bits,
                                                           std::uint64_t seed,
                                                           double silent_fraction = 0.25) {
    Rng rng(seed);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        if (!rng.bernoulli(silent_fraction)) {
            messages[v] = Bitstring::random(rng, bits);
        }
    }
    return messages;
}

/// Order- and content-sensitive digest of everything a TransportRound
/// reports. Must stay byte-for-byte in sync with the harness that captured
/// the golden values from the seed implementation.
inline std::uint64_t fingerprint(const TransportRound& round) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    for (const auto& messages : round.delivered) {
        mix(messages.size());
        for (const auto& message : messages) {
            mix(message.hash());
        }
    }
    mix(round.beep_rounds);
    mix(round.total_beeps);
    mix(round.phase1_false_negatives);
    mix(round.phase1_false_positives);
    mix(round.phase2_errors);
    mix(round.delivery_mismatches);
    return h;
}

/// Three rounds (nonces 0..2), one simulate_round call each.
inline std::uint64_t run_fingerprint(const BeepTransport& transport,
                                     const std::vector<std::optional<Bitstring>>& messages,
                                     const FaultModel& faults) {
    std::uint64_t h = 0;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        h = mix64(h ^ fingerprint(transport.simulate_round(messages, nonce, faults)));
    }
    return h;
}

/// The same three-round digest as run_fingerprint, but simulated through a
/// single batched simulate_rounds call — the goldens must not care which
/// path produced the rounds.
inline std::uint64_t batched_fingerprint(const Transport& transport,
                                         const std::vector<std::optional<Bitstring>>& messages,
                                         const FaultModel& faults) {
    std::vector<RoundSpec> specs;
    for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, faults.empty() ? nullptr : &faults});
    }
    std::uint64_t h = 0;
    for (const auto& round : transport.simulate_rounds(specs)) {
        h = mix64(h ^ fingerprint(round));
    }
    return h;
}

/// The parameters every fixture golden was captured with.
inline SimulationParams noisy_params(DictionaryPolicy policy, std::size_t threads = 1) {
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = 10;
    params.c_eps = 4;
    params.dictionary = policy;
    params.threads = threads;
    return params;
}

// Golden fingerprints captured by running the fixture on the seed
// (pre-codebook) implementation of BeepTransport at commit 6b6a934.
inline constexpr std::uint64_t kGoldenTwoHopPlain = 0x82c6aaa1661aa3eaULL;
inline constexpr std::uint64_t kGoldenTwoHopFaults = 0x2d7eb0a121342769ULL;
inline constexpr std::uint64_t kGoldenAllNodesPlain = 0x82c6aaa1661aa3eaULL;
inline constexpr std::uint64_t kGoldenAllNodesFaults = 0xcf836c6fc717b592ULL;

}  // namespace nb::golden
