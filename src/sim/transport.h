// Algorithm 1: simulation of one Broadcast CONGEST round with noisy beeps.
//
// Phase 1 — each node v picks a fresh random input r_v and beeps the beep
// codeword C(r_v) bit-by-bit (b rounds). Every node decodes the noisy
// superimposition transcript with the Lemma 9 threshold rule to obtain
// R~_v, the set of inputs used in its inclusive neighborhood.
//
// Phase 2 — each node beeps the combined codeword CD(r_v, m_v) (b rounds):
// its distance-coded payload written into C(r_v)'s 1-positions. For every
// recovered input r in R~_v, a node extracts the transcript subsequence at
// C(r)'s 1-positions and nearest-codeword-decodes it (Lemma 10 rule).
//
// Total: exactly 2*b = 2*c_eps^3*(Delta+1)*payload_bits beep rounds — the
// O(Delta log n) overhead of Theorem 11.
//
// The transport also computes ground-truth deliveries and per-phase error
// diagnostics, which the experiments report; they are observability hooks,
// never inputs to the decoding itself.
//
// Every transport has one round entry point, simulate_rounds_into, which
// writes a caller-owned TransportBatch (transport_batch.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "codes/combined_code.h"
#include "codes/decoders.h"
#include "common/bitstring.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/params.h"
#include "sim/transport_batch.h"

namespace nb {

/// Fault injection for robustness experiments (an extension beyond the
/// paper's model, which assumes only channel noise):
///  * jammers beep in every round of both phases (a stuck-on transmitter);
///  * crashed nodes never beep and produce no output.
/// Correct nodes run Algorithm 1 unchanged; the diagnostics measure the
/// collateral damage in the faulty nodes' neighborhoods.
struct FaultModel {
    std::vector<NodeId> jammers;
    std::vector<NodeId> crashed;

    bool empty() const noexcept { return jammers.empty() && crashed.empty(); }
};

/// Result of simulating one Broadcast CONGEST round.
struct TransportRound {
    /// delivered[v] = sorted multiset of messages decoded by v (one entry
    /// per recovered foreign codeword whose payload carries a message).
    std::vector<std::vector<Bitstring>> delivered;

    std::size_t beep_rounds = 0;  ///< 2*b
    std::size_t total_beeps = 0;  ///< energy: total 1s transmitted

    // Diagnostics (vs ground truth):
    std::size_t phase1_false_negatives = 0;  ///< in-neighborhood inputs missed
    std::size_t phase1_false_positives = 0;  ///< foreign inputs accepted
    std::size_t phase2_errors = 0;           ///< true-neighbor payloads mis-decoded
    std::size_t delivery_mismatches = 0;     ///< nodes whose delivery != ground truth
    bool perfect = true;                     ///< delivery_mismatches == 0
};

/// One round of a batched simulation: the messages (non-owning and never
/// null — implementations require() it per spec, and the pointee must
/// outlive the simulate_rounds_into call), the per-round nonce, and an
/// optional fault model (nullptr = fault-free, otherwise also non-owning with
/// the same lifetime contract).
/// Sweeps typically share one messages vector across many specs and vary
/// only the nonce.
struct RoundSpec {
    const std::vector<std::optional<Bitstring>>* messages = nullptr;
    std::uint64_t nonce = 0;
    const FaultModel* faults = nullptr;
};

/// Abstract "one Broadcast CONGEST round over beeps" mechanism. The paper's
/// Algorithm 1 (BeepTransport) and the prior-work G^2-coloring TDMA baseline
/// implement this, so the same simulated engine and experiments drive both.
///
/// There is one way to run a round: simulate_rounds_into, the only virtual.
/// Every caller that runs more than one round holds one TransportBatch across
/// its rounds; simulate_rounds and simulate_round are conveniences that
/// decode into a throwaway batch and convert it to TransportRounds.
class Transport {
public:
    virtual ~Transport() = default;

    /// Decode `specs` into caller-owned storage (transport_batch.h): records
    /// in per-worker arenas, counters in batch.stats(i), all scratch in the
    /// batch, so a reused batch at its high-water mark allocates nothing.
    /// Outputs are bit-identical however specs are split across calls and
    /// whatever the thread count (DESIGN.md section 5).
    virtual void simulate_rounds_into(std::span<const RoundSpec> specs,
                                      TransportBatch& batch) const = 0;

    /// simulate_rounds_into a fresh batch, then batch.to_round per spec
    /// (allocates per delivery): one owning result per spec, in spec order.
    std::vector<TransportRound> simulate_rounds(std::span<const RoundSpec> specs) const;

    /// Simulate one round. `messages[v]` is node v's broadcast (at most
    /// message_bits bits) or nullopt for silence. `round_nonce` must differ
    /// across rounds (it keys the fresh per-round randomness). Diagnostics
    /// expect nothing from `faults` nodes; deliveries at correct nodes
    /// measure how far the damage spreads.
    TransportRound simulate_round(const std::vector<std::optional<Bitstring>>& messages,
                                  std::uint64_t round_nonce,
                                  const FaultModel& faults = {}) const;

    /// Beep rounds one simulated round costs on this transport's graph.
    virtual std::size_t rounds_per_broadcast_round() const = 0;

    virtual const Graph& graph() const noexcept = 0;
};

/// Algorithm 1 over a plan of k shards (DESIGN.md sections 2 and 10).
///
/// The graph is split into k contiguous ownership ranges (graph/
/// partition.h). Each shard decodes its owned nodes over its closure —
/// owned nodes plus a two-hop halo — with its own Codebook built through a
/// ShardView: input streams r_v keyed by *global* node id, beep-code length
/// from the *global* max degree. Per round the shards exchange only
/// boundary beep activity: every owned node another shard can hear within
/// two hops publishes its phase-1 codeword and phase-2 combined schedule
/// into a fixed-layout boundary table (one writer per row, SST-style), and
/// each shard writes the rows its imports name into the halo slots of its
/// own round, the one dictionary it decodes from. Every derived stream is
/// keyed globally and every halo slot holds exactly the bits the owner
/// built, so outputs are bit-identical for any shard count and any worker
/// count.
///
/// The default is a one-shard plan: the closure is the whole graph with
/// identity ids, the codebook is the plain (graph, params) build, there are
/// no imports or exports, and the exchange is skipped. Every shard's
/// codebook comes from the process-wide CodebookCache (codebook_cache.h).
class BeepTransport final : public Transport {
public:
    /// The graph must outlive the transport. `shard_count` is clamped to
    /// [1, n]. Dictionaries whose candidate sets are not local (all_nodes
    /// scans every node's input) have no self-contained closure, so they
    /// always run one shard.
    BeepTransport(const Graph& graph, SimulationParams params, std::size_t shard_count = 1);

    /// Algorithm 1 into `batch`, which owns each shard's Codebook::Round and
    /// rebuilds it in place only when the codebook, nonce or messages change.
    /// Each round runs two per-shard stages on this transport's pool: build
    /// (and publish the boundary rows), then decode. With one shard the
    /// stage runs on the caller and fans out over every worker; with k > 1
    /// each shard runs on one worker.
    void simulate_rounds_into(std::span<const RoundSpec> specs,
                              TransportBatch& batch) const override;

    /// Beep rounds one simulated round costs on this graph (2*b).
    std::size_t rounds_per_broadcast_round() const override;

    const SimulationParams& params() const noexcept { return params_; }
    const Graph& graph() const noexcept override { return graph_; }

    /// Shards in the plan (1 for the one-shard plan).
    std::size_t shard_count() const noexcept { return shards_.size(); }

    /// The code/dictionary cache shard `shard` decodes with (see
    /// codebook.h): the process-wide CodebookCache's build for this key,
    /// which other transports may share, so its stats() aggregate across
    /// every transport on that entry.
    const Codebook& codebook(std::size_t shard = 0) const {
        return shards_[shard].codebook->codebook();
    }

private:
    /// One shard's closure and codebook. A one-shard plan's closure is
    /// graph_ itself with identity ids (`ids` empty) and no imports or
    /// exports; otherwise the spans view plan_.shards[s].
    struct Shard {
        const Graph* graph = nullptr;
        std::span<const std::uint32_t> ids;  ///< local -> global id; empty = identity
        std::uint32_t owned_begin = 0;       ///< owned locals are [owned_begin, +owned_count)
        std::uint32_t owned_count = 0;
        std::span<const std::uint32_t> exports;      ///< owned locals, one table row each
        std::span<const ShardPlan::Import> imports;  ///< halo locals and their rows
        std::size_t row_offset_words = 0;            ///< first word of this shard's rows
        std::shared_ptr<const SharedCodebook> codebook;  ///< from CodebookCache
    };

    /// One round's two per-shard stages (defined in transport.cpp).
    struct RoundJob;

    const Graph& graph_;
    SimulationParams params_;
    ShardPlan plan_;  ///< empty for the one-shard plan
    std::vector<Shard> shards_;
    std::unique_ptr<ThreadPool> pool_;

    // Boundary-table layout, fixed at construction: each export row is
    // 2 * words_per_schedule_ words (phase-1 codeword, then phase-2
    // combined schedule).
    std::size_t words_per_schedule_ = 0;
    std::size_t table_words_ = 0;
};

}  // namespace nb
