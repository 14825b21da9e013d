// Parameters of the message-passing-over-beeps simulation (Section 3).
//
// The paper's instantiation for simulating one Broadcast CONGEST round with
// B = gamma*log n message bits on a graph of maximum degree Delta:
//
//   distance code D: (B, 1/3)-distance code of length  c_eps^2 * B
//   beep code     C: (c_eps*B, Delta+1, 1/c_eps)-beep code of length
//                    b = c_eps^3 * (Delta+1) * B, codeword weight c_eps^2 * B
//   Algorithm 1 runs 2*b beep rounds per simulated round.
//
// c_eps is a constant depending only on the noise rate epsilon. The paper's
// proofs need c_eps >= max of five expressions (Lemmas 9 and 10) — hundreds
// for realistic epsilon. That is a worst-case union-bound artifact: much
// smaller constants already suffice at simulation scale (bench E13 maps the
// epsilon -> c_eps frontier). SimulationParams::c_eps defaults to such a small
// constant; SimulationParams::paper_c_eps(epsilon) gives the proof constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "beep/channel_model.h"
#include "common/simd/simd.h"

namespace nb {

/// Which candidate inputs a node's decoder tests (see DESIGN.md section 3).
enum class DictionaryPolicy {
    all_nodes,  ///< every node's input this round + decoys (exact, O(n) per node)
    two_hop,    ///< inputs of nodes within 2 hops + decoys (the only inputs
                ///< correlated with the transcript; far inputs are i.i.d.
                ///< uniform like decoys). Default.
};

struct SimulationParams {
    /// Design noise rate in [0, 1/2): the epsilon the decoder thresholds
    /// (Lemma 9 acceptance, paper_c_eps) are sized for. With the default
    /// `channel` (nullopt) it is also the physical channel's iid flip rate —
    /// the paper's model, where the two coincide.
    double epsilon = 0.0;

    /// The physical channel process. nullopt (default) means the paper's
    /// iid(epsilon) channel — existing epsilon-only call sites behave
    /// exactly as before. A non-iid model decouples the physical channel
    /// from the design epsilon above; the decoders keep their iid-designed
    /// thresholds and the diagnostics measure what survives (DESIGN.md
    /// section 6).
    std::optional<ChannelModel> channel;

    /// Per-message bit budget B = gamma * ceil(log2 n).
    std::size_t message_bits = 16;

    /// The constant c_eps (integer >= 3 so that beep-code codewords cannot
    /// trivially over-intersect; Theorem 4 notes c <= 2 is degenerate).
    std::size_t c_eps = 4;

    /// Shared public randomness defining the codes C and D. All nodes use
    /// the same seed (the code is common knowledge, as in the paper).
    std::uint64_t code_seed = 0x636f6465u;

    /// Randomness for per-round codeword picks, decoys, and channel noise.
    std::uint64_t transport_seed = 0x7472616eu;

    /// Independent decoy inputs added to every decoding dictionary so that
    /// false-positive acceptance is measured honestly.
    std::size_t decoy_count = 32;

    DictionaryPolicy dictionary = DictionaryPolicy::two_hop;

    /// Worker threads for the per-node decode loop in simulate_round
    /// (0 = every available core). Outputs are bit-identical for every
    /// thread count; this only trades wall-clock for cores.
    std::size_t threads = 0;

    /// Candidate-count threshold at which all_nodes rounds transpose the
    /// codewords into a BitsliceMatrix and phase-1-decode with the
    /// bitsliced kernel instead of the per-candidate scalar loop (0 forces
    /// bitslicing, SIZE_MAX disables it). Outputs are bit-identical either
    /// way — the threshold only selects the faster kernel; the default is
    /// the measured crossover on popcount-capable hardware.
    std::size_t bitslice_min_candidates = 512;

    /// Decode kernel set for this transport's hot loops (phase-1 bitslice
    /// pass, phase-2 Hamming scans, missing-ones counts). auto_best (the
    /// default) resolves through the NB_SIMD_KERNEL environment variable and
    /// then CPU detection; an explicit unavailable kernel falls back to the
    /// best supported one (simd::resolve_kernel reports what ran). Every
    /// kernel computes bit-identical results — this selects vector width,
    /// never values — so the field is deliberately NOT part of the codebook
    /// cache key or any fingerprint.
    simd::Kernel simd_kernel = simd::Kernel::auto_best;

    /// Validate ranges; throws precondition_error.
    void validate() const;

    /// The effective channel the transports drive the engines with:
    /// `channel` if set, else the paper's iid(epsilon).
    ChannelModel channel_model() const {
        return channel.has_value() ? *channel : ChannelModel::iid(epsilon);
    }

    /// The paper-proof constant for this epsilon: the max of the bounds
    /// required by Lemmas 8, 9 and 10 (and the c_eps >= 108 blanket choice
    /// for the distance code in Section 3). For epsilon = 0 the noise terms
    /// vanish and the distance-code requirement dominates.
    static std::size_t paper_c_eps(double epsilon);

    /// Derived code dimensions (Section 3 instantiation).
    std::size_t payload_bits() const noexcept;           ///< B + 1 presence flag
    std::size_t distance_code_length() const noexcept;   ///< c_eps^2 * payload_bits
    std::size_t beep_code_input_bits() const noexcept;   ///< a = c_eps * payload_bits
    std::size_t beep_code_length(std::size_t delta) const noexcept;  ///< b
    /// Algorithm 1 cost: 2*b beep rounds per Broadcast CONGEST round.
    std::size_t rounds_per_broadcast_round(std::size_t delta) const noexcept;
};

}  // namespace nb
