// Algorithm 1's round-independent code state, and the one builder of its
// per-round state (see DESIGN.md section 2).
//
// The paper's codes C, D and CD are public and fixed: a transport's decoders
// use the same three code objects for every simulated round, and every
// decoding node scans the same candidate dictionary. The Codebook holds
// exactly that round-independent state, built once in the constructor: the
// BeepCode/DistanceCode/CombinedCode triple and the candidate entry index
// for the configured DictionaryPolicy. Because none of it changes, one
// Codebook is shared by every transport on its CodebookCache entry.
//
// A Round is everything one simulated round derives from (messages, nonce):
// the fresh inputs r_v, payloads, codewords C(r_v) with cached 1-positions,
// fault-free phase schedules, decoy material, and the phase-2 candidate
// dictionary with all distance-code encodings precomputed. The Codebook
// keeps no Round. Its caller owns one and build_round() rewrites it in
// place; BeepTransport keeps one per shard in the TransportBatch that
// decodes it (decode_core.h). round() is the allocate-and-build convenience.
//
// There is one way to build either layer: compute it. The candidate index is
// computed from the graph (or, through a ShardView, from one shard's closure
// graph), and every round is derived from scratch from (messages, nonce):
// every per-round quantity is a pure function of the seeds and that key, so
// a round is never patched from an earlier one and a rebuilt Round equals a
// fresh one field by field. The only state carried across rounds is the
// messages-keyed memo of the node-payload phase-2 decode gaps (all_nodes
// only). Construction counters are exposed via stats() so tests can assert
// how often each layer is built.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "codes/combined_code.h"
#include "common/bitslice.h"
#include "common/bitstring.h"
#include "common/word_soa.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "sim/params.h"

namespace nb {

class ThreadPool;

class Codebook {
public:
    /// Builds the code triple and candidate entry index once. The graph must
    /// outlive the codebook.
    Codebook(const Graph& graph, const SimulationParams& params);

    /// A shard's window onto a larger simulation: the local graph is one
    /// shard's closure (graph/partition.h) and every per-node derived
    /// quantity that depends on identity — input streams r_v, the beep-code
    /// length (a function of the *global* max degree) — uses the global ids,
    /// so the shard's codewords are bit-identical to the slots an unsharded
    /// codebook would build for the same nodes. Rounds built through a view
    /// generate codewords and schedules for the owned local range only; the
    /// halo slots stay empty and are filled by the sharded transport from
    /// the boundary table. Requires the two_hop dictionary (the only policy
    /// whose candidate sets are local by construction).
    struct ShardView {
        std::vector<std::uint32_t> global_ids;  ///< sorted; local index -> global id
        std::uint32_t owned_begin = 0;          ///< first owned local index
        std::uint32_t owned_count = 0;
        std::uint64_t global_node_count = 0;
        std::uint64_t global_max_degree = 0;

        /// Order-sensitive content digest (cache keying).
        std::uint64_t digest() const;
    };

    /// Shard-view build: `graph` is the shard's local closure graph.
    Codebook(const Graph& graph, const SimulationParams& params, ShardView view);

    const BeepCode& beep_code() const noexcept { return combined_.beep(); }
    const DistanceCode& distance_code() const noexcept { return combined_.distance(); }
    const CombinedCode& combined_code() const noexcept { return combined_; }

    /// Beep-code length b for this graph's maximum degree.
    std::size_t beep_length() const noexcept { return combined_.length(); }

    /// Everything one round derives from (messages, nonce). Candidate arrays
    /// are indexed by "entry": entries 0..n-1 are the nodes' payloads, entry
    /// n is the null payload, entries n+1.. are the decoys.
    struct Round {
        std::vector<std::uint64_t> inputs;    ///< r_v
        std::vector<Bitstring> payloads;      ///< presence-bit-packed payloads
        std::vector<Bitstring> codewords;     ///< C(r_v)
        std::vector<std::vector<std::size_t>> one_positions;  ///< of C(r_v)

        std::vector<std::uint64_t> decoy_inputs;
        std::vector<Bitstring> decoy_codewords;
        std::vector<std::vector<std::size_t>> decoy_one_positions;

        /// Phase-2 dictionary over the entry space (size n + 1 + decoys):
        /// candidate messages and their cached distance-code encodings.
        std::vector<Bitstring> candidate_messages;
        std::vector<Bitstring> candidate_encoded;

        /// candidate_messages[e] with the presence bit stripped — the
        /// algorithm-level message each entry delivers, precomputed so the
        /// per-delivery extraction is a copy instead of a bit shift.
        std::vector<Bitstring> candidate_tails;

        /// Transposed phase-1 candidate matrix for the bitsliced decoder:
        /// columns 0..n-1 are the node codewords, columns n.. the decoys
        /// (the null payload has no codeword). Built, with decode_gaps, only
        /// under the all_nodes dictionary policy — the O(n)-per-node scans
        /// they accelerate; two-hop dictionaries are small enough that the
        /// scalar kernels win (see DESIGN.md section 5).
        BitsliceMatrix codeword_slices;

        /// candidate_encoded transposed word-major (common/word_soa.h) for
        /// the vectorized phase-2 full-dictionary sweep
        /// (DistanceCode::nearest_entry_soa). Built with codeword_slices —
        /// same policy, same crossover; empty() otherwise.
        WordSoa candidate_encoded_soa;

        /// Per-entry unique-decoding radii for the phase-2 radius shortcut
        /// (DistanceCode::decode_gaps). Empty under two_hop.
        std::vector<std::uint32_t> decode_gaps;

        /// Fault-free phase-2 schedules CD(r_v, payload_v) and the fault-free
        /// energy totals (phase 1 beeps the codewords themselves).
        std::vector<Bitstring> combined_schedules;
        std::size_t phase1_beeps = 0;
        std::size_t phase2_beeps = 0;

        Rng rng;  ///< the round rng all per-round streams derive from

        std::uint64_t nonce = 0;
        std::vector<std::optional<Bitstring>> messages;  ///< what it was built from
    };

    /// Rebuild `round` in place as the Round for (messages, nonce): every
    /// field is overwritten (accumulators reset, halo slots of a shard view
    /// emptied), so the result equals a fresh build whatever `round` held
    /// before. Each per-node and per-entry slot is rewritten into the
    /// storage it already holds, so rebuilding a warm Round of the same
    /// shape allocates nothing under two_hop (all_nodes still rebuilds its
    /// bitslice matrix and decode gaps). Thread-safe for
    /// distinct `round` objects. A Round is channel-independent by
    /// construction (codewords, schedules, and dictionaries are what nodes
    /// *transmit*; the ChannelModel perturbs transcripts at hear time, from
    /// streams derived off round.rng by the engines). The per-node loops run
    /// on `pool` when given one (serially otherwise); every node's material
    /// comes from its own node-keyed stream, so the Round is identical
    /// either way.
    void build_round(Round& round, const std::vector<std::optional<Bitstring>>& messages,
                     std::uint64_t nonce, ThreadPool* pool = nullptr) const;

    /// A fresh Round for (messages, nonce): build_round into a new object.
    std::shared_ptr<const Round> round(const std::vector<std::optional<Bitstring>>& messages,
                                       std::uint64_t nonce, ThreadPool* pool = nullptr) const;

    /// Candidate entries node v's decoder scans, in dictionary order: the
    /// candidate node ids (sorted two-hop set or all nodes, per the policy),
    /// then the null payload, then the decoys. The node-id prefix has length
    /// node_candidate_count(v).
    std::span<const std::uint32_t> candidate_entries(NodeId v) const;
    std::size_t node_candidate_count(NodeId v) const;

    /// The largest node_candidate_count over all nodes (decode scratch bound).
    std::size_t max_node_candidate_count() const noexcept { return max_node_candidates_; }

    std::size_t decoy_count() const noexcept { return params_.decoy_count; }
    const SimulationParams& params() const noexcept { return params_; }
    const Graph& graph() const noexcept { return graph_; }

    /// Deterministic estimate of this codebook's resident footprint: the
    /// candidate entry index, computed from its dimensions (codes themselves
    /// are procedural — seeds and dimensions — and Rounds belong to their
    /// callers). An estimate rather than a measurement so the
    /// CodebookCache's byte-accounted eviction is a pure function of the
    /// build parameters, independent of allocator and thread interleaving
    /// (see DESIGN.md section 9).
    std::size_t memory_bytes() const;

    /// Order-sensitive structural digest of everything two transports would
    /// share through this codebook: the code geometry, sampled codewords and
    /// distance-code encodings (pure functions of the code seeds), every
    /// node's candidate entry list, and the key-relevant parameters. Two
    /// codebooks with equal fingerprints decode bit-identically; the cache
    /// property tests compare a shared build against a fresh private build
    /// through this digest. Stats-neutral and thread-safe.
    std::uint64_t fingerprint() const;

    /// Construction counters for the once-per-transport contract.
    struct Stats {
        std::size_t code_builds = 0;      ///< code-triple constructions
        std::size_t round_builds = 0;     ///< build_round calls
        std::size_t codeword_builds = 0;  ///< beep codewords generated in total
        std::size_t payload_encodes = 0;  ///< distance-code encodings generated
    };
    Stats stats() const;

private:
    /// `view` (moved from) is null for the whole-graph build.
    Codebook(const Graph& graph, const SimulationParams& params, ShardView* view);

    void build_candidate_index();
    std::span<const std::uint32_t> candidate_row(std::size_t r) const noexcept {
        return std::span<const std::uint32_t>(entries_).subspan(
            offsets_[r], offsets_[r + 1] - offsets_[r]);
    }

    /// The node-payload block of the phase-2 decode radii (entries 0..n:
    /// payloads + null) depends only on `messages`, not the nonce, so a
    /// fixed-messages nonce sweep reuses it and each round pays only for
    /// the decoy rows (DistanceCode::extend_decode_gaps_into). Kept as a small
    /// MRU list rather than one slot: concurrent sweep jobs sharing this
    /// codebook differ exactly in their messages, and a single slot would
    /// thrash — re-running the O(n^2) gap computation every round.
    struct NodeGapCache {
        std::vector<std::optional<Bitstring>> messages;  ///< the cache key
        std::vector<std::uint32_t> gaps;
    };

    /// Node-gap entries kept: sized to exceed any plausible number of
    /// concurrent sweep jobs (each with its own messages) sharing this
    /// codebook — if a live job's entry were evicted between its rounds,
    /// the O(n^2) saving the cache exists for would be lost to thrash.
    static std::size_t node_gap_capacity();

    const Graph& graph_;
    SimulationParams params_;
    std::optional<ShardView> view_;  ///< before combined_: its degree sizes the code
    CombinedCode combined_;

    /// Candidate entry index, flat CSR: row r spans
    /// entries_[offsets_[r] .. offsets_[r + 1]] (one row per node under
    /// two_hop, one shared row otherwise).
    std::vector<std::uint64_t> offsets_;
    std::vector<std::uint32_t> entries_;
    std::size_t max_node_candidates_ = 0;

    mutable std::mutex mutex_;
    mutable std::list<std::shared_ptr<const NodeGapCache>> node_gaps_;  ///< MRU first
    mutable Stats stats_;
};

}  // namespace nb
