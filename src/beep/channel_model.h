// Pluggable channel-noise models for the beeping engines.
//
// The paper fixes i.i.d. Bernoulli(epsilon) noise (Section 1.1); real
// deployments are neither homogeneous nor memoryless. This layer makes the
// noise process a first-class value so the same engines, transports, and
// scenario specs run under any of:
//
//   * iid                — the paper's model. Bit-identical to the original
//                          hard-wired path (same derived RNG streams, same
//                          geometric-skip sampler), so every golden
//                          fingerprint pinned against the seed
//                          implementation is unchanged.
//   * gilbert_elliott    — two-state bursty noise: a hidden good/bad channel
//                          state evolves per beep round (good->bad with
//                          p_enter_burst, bad->good with p_exit_burst) and
//                          each received bit flips with the state's epsilon.
//                          Burst lengths are Geometric(p_exit_burst).
//   * heterogeneous      — per-node i.i.d. rates: node v listens through its
//                          own epsilon_v drawn deterministically from
//                          [epsilon_min, epsilon_max] (keyed by seed and
//                          node id), the per-node heterogeneity that P2P
//                          overlay models argue for.
//   * adversarial_budget — a per-transcript adversary that erases the
//                          earliest `budget` heard 1s. Erasures are the
//                          worst case for the Lemma 9 acceptance rule
//                          (every erased 1 counts against every codeword
//                          containing it), so this bounds decoder damage
//                          per corrupted bit rather than sampling it.
//
// Which decoder guarantees survive each model is documented in DESIGN.md
// section 6: the paper's proofs cover iid only; the other models are
// empirical stress tests driven through the scenario runner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "beep/channel.h"
#include "common/bitstring.h"
#include "common/rng.h"

namespace nb {

enum class ChannelModelKind : unsigned char {
    iid,
    gilbert_elliott,
    heterogeneous,
    adversarial_budget,
};

struct ChannelModel {
    ChannelModelKind kind = ChannelModelKind::iid;

    /// iid flip probability in [0, 1/2); ignored by the other kinds.
    double epsilon = 0.0;

    /// Paper convention (footnote 2): a beeping node's own received 1 is
    /// still subject to noise. The practical variant (false) is supported
    /// by RoundEngine for iid only; stateful models would desynchronize if
    /// per-bit draws were skipped, so validate() rejects the combination.
    bool noise_on_own_beep = true;

    // -- gilbert_elliott ---------------------------------------------------
    double ge_p_enter_burst = 0.0;  ///< P(good -> bad) per beep round, (0, 1]
    double ge_p_exit_burst = 0.0;   ///< P(bad -> good) per beep round, (0, 1]
    double ge_epsilon_good = 0.0;   ///< flip rate in the good state, [0, 1]
    double ge_epsilon_bad = 0.0;    ///< flip rate inside a burst, [0, 1]

    // -- heterogeneous -----------------------------------------------------
    double het_epsilon_min = 0.0;   ///< per-node rate range, 0 <= min <= max < 1/2
    double het_epsilon_max = 0.0;
    std::uint64_t het_seed = 0;     ///< keys the deterministic per-node draw

    // -- adversarial_budget ------------------------------------------------
    std::size_t adv_budget = 0;     ///< max erasures per transcript

    ChannelModel() = default;

    /// The legacy iid parameter struct converts implicitly: every call site
    /// that passed ChannelParams{eps, own} to an engine keeps compiling and
    /// keeps its exact noise behavior.
    ChannelModel(const ChannelParams& params)  // NOLINT(google-explicit-constructor)
        : epsilon(params.epsilon), noise_on_own_beep(params.noise_on_own_beep) {}

    static ChannelModel iid(double epsilon, bool noise_on_own_beep = true);
    static ChannelModel gilbert_elliott(double p_enter_burst, double p_exit_burst,
                                        double epsilon_good, double epsilon_bad);
    static ChannelModel heterogeneous(double epsilon_min, double epsilon_max,
                                      std::uint64_t seed);
    static ChannelModel adversarial_budget(std::size_t budget);

    bool is_iid() const noexcept { return kind == ChannelModelKind::iid; }

    /// True iff the model can never flip a bit — engines skip the noise
    /// stage entirely (and derive no noise stream), exactly as the original
    /// epsilon == 0 fast path did.
    bool noiseless() const noexcept;

    /// The effective i.i.d.-equivalent rate node `node` listens through:
    /// epsilon for iid, the deterministic per-node draw for heterogeneous.
    /// Precondition: kind is iid or heterogeneous.
    double node_epsilon(std::uint64_t node) const;

    /// A representative flip rate for sizing decoder thresholds when no
    /// explicit design epsilon is given: iid -> epsilon, heterogeneous ->
    /// the range midpoint, gilbert_elliott -> the stationary average rate,
    /// adversarial -> 0 (the decoder has no probabilistic handle on it).
    /// Clamped below 1/2 so it is always a valid SimulationParams epsilon.
    double design_epsilon() const;

    /// The gap table the iid sampler looks its skips up in
    /// (common/rng.h), or none when the model samples no iid gaps at one
    /// shared rate: every kind but iid, and iid at epsilon 0. Heterogeneous
    /// channels keep the reference, since a table per node rate would cost
    /// more to build than it saves.
    std::optional<GeometricSkipTable> skip_table() const;

    /// Validate ranges; throws precondition_error.
    void validate() const;

    /// Short kind tag ("iid", "gilbert_elliott", ...) for tables and JSON.
    const char* kind_name() const noexcept;

    /// One-line human/JSON description, e.g. "iid(eps=0.10)".
    std::string describe() const;

    bool operator==(const ChannelModel& other) const noexcept = default;
};

/// Per-node noise process instance. Engines create one sampler per listening
/// node from the node's derived noise stream and either consume it bit by
/// bit (RoundEngine) or apply it to a whole transcript (BatchEngine). For
/// stateful models the sampler owns the state (burst phase, remaining
/// budget), so distinct nodes and distinct rounds never share state.
class ChannelNoiseSampler {
public:
    /// `rng` must be the node's private noise stream (engines derive it as
    /// rng.derive(0x6e6f6973, node), the same stream id the original iid
    /// path used — which is what keeps iid bit-identical).
    ChannelNoiseSampler(const ChannelModel& model, std::uint64_t node, Rng rng);

    /// Whether the next received bit (currently `received`) flips; consumes
    /// this bit's draws / advances model state. Call exactly once per beep
    /// round in round order.
    bool flip_next(bool received);

    /// Apply the whole-transcript noise process in place. For iid and
    /// heterogeneous, `dense` selects one Bernoulli draw per bit (matching
    /// flip_next exactly) versus the geometric-skip sampler (same
    /// distribution, O(#flips) expected work). The skip sampler looks its
    /// gaps up in `skip_table` when one is given (the model's own
    /// skip_table(), so iid only) and computes them otherwise — the same
    /// draws and flips either way. Stateful models are always dense:
    /// gilbert_elliott consumes exactly flip_next's draws, bit by bit, and
    /// XORs each word's flips in at once. Must be used on a fresh sampler
    /// (transcript == bits 0..n).
    void apply(Bitstring& transcript, bool dense,
               const GeometricSkipTable* skip_table = nullptr);

    /// The noise stream as the draws made so far left it.
    const Rng& rng() const noexcept { return rng_; }

private:
    ChannelModel model_;  ///< by value: temporaries at the call site are fine
    Rng rng_;
    double epsilon_ = 0.0;       ///< effective iid rate (iid / heterogeneous)
    bool in_burst_ = false;      ///< gilbert_elliott state
    std::size_t budget_left_ = 0;  ///< adversarial_budget state
};

}  // namespace nb
