// Word-parallel beeping-network engine for oblivious (fixed-schedule) phases.
//
// Algorithm 1's two phases are oblivious: once a node has chosen r_v and m_v,
// its beep pattern for the whole phase is a fixed bitstring. The engine
// computes each node's heard transcript as the word-parallel OR of its
// neighbors' schedules and injects channel noise with geometric skip
// sampling, which makes large (n, Delta) sweeps feasible.
//
// Semantics are identical to running the same schedules on RoundEngine
// (property-tested): bit i of the result is what the node receives in round i
// under the paper's conventions (own beeps count as received 1s, noise flips
// each received bit independently with probability epsilon).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "beep/channel_model.h"
#include "common/bitstring.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace nb {

struct BatchParams {
    /// Any ChannelModel (ChannelParams converts implicitly for the paper's
    /// i.i.d. model). Must keep noise_on_own_beep — this engine cannot
    /// exempt own-beep rounds without tracking them per bit.
    ChannelModel channel;

    /// If true, iid/heterogeneous noise consumes one Bernoulli draw per bit
    /// (matching RoundEngine's draw pattern exactly, for cross-validation);
    /// if false, the geometric skip sampler is used (same distribution,
    /// O(#flips) expected work). Stateful models are inherently dense.
    bool dense_noise = false;
};

class BatchEngine {
public:
    /// The graph must outlive the engine. `rng` seeds per-node noise streams.
    BatchEngine(const Graph& graph, BatchParams params, Rng rng);

    /// Engine over a shard's local graph whose noise streams key by *global*
    /// node id: `global_ids[v]` is local node v's id in the full simulation
    /// (graph/partition.h). Both the stream derivation and the sampler's
    /// node argument (heterogeneous channels key epsilon_v by id) use the
    /// global id, so a local hear_into() is bit-identical to the unsharded
    /// engine's for the same node. The span must outlive the engine and
    /// cover every local node, or be empty (the identity mapping).
    BatchEngine(const Graph& graph, BatchParams params, Rng rng,
                std::span<const std::uint32_t> global_ids);

    /// Transcript heard by `node` when every node u beeps according to
    /// schedules[u] (all schedules must share one length). Only this node's
    /// transcript is computed; noise comes from the node's own derived
    /// stream, so calls are independent of evaluation order.
    Bitstring hear(NodeId node, const std::vector<Bitstring>& schedules) const;

    /// hear() into a caller-owned transcript buffer: the word-parallel OR
    /// runs in place and no allocation happens when `out` already has the
    /// schedule length. This is the workspace API the transports drive from
    /// per-worker scratch buffers. Safe to call concurrently (per-node noise
    /// streams are derived, never shared).
    void hear_into(NodeId node, const std::vector<Bitstring>& schedules, Bitstring& out) const;

    /// Transcripts for all nodes (hear() applied to each node).
    std::vector<Bitstring> hear_all(const std::vector<Bitstring>& schedules) const;

    /// Superimposition OR_{u in N(v) (+ v)} schedules[u] with no noise: the
    /// paper's x_v before flips. Exposed for decoder analysis in tests.
    Bitstring superimpose(NodeId node, const std::vector<Bitstring>& schedules,
                          bool include_own = true) const;

    /// superimpose() into a caller-owned buffer (reset to the schedule
    /// length, then OR-accumulated word-parallel).
    void superimpose_into(NodeId node, const std::vector<Bitstring>& schedules, Bitstring& out,
                          bool include_own = true) const;

    /// Total beeps (energy) of a schedule set.
    static std::size_t total_beeps(const std::vector<Bitstring>& schedules);

    /// Validate a schedule set (one per node, equal lengths) once, before a
    /// batch of hear/superimpose calls over it. The per-call path checks
    /// only the O(1) schedule count — revalidating all n lengths inside
    /// every per-node call made the decode loop O(n^2) in require checks —
    /// and a mismatched length still throws from the word-parallel OR, so
    /// skipping this check risks no silent corruption.
    void check_schedules(const std::vector<Bitstring>& schedules) const;

private:
    const Graph& graph_;
    BatchParams params_;
    Rng rng_;
    std::span<const std::uint32_t> global_ids_;  ///< empty = identity mapping
    /// The skip sampler's gap table (ChannelModel::skip_table); none for
    /// dense noise and for channels without one.
    std::optional<GeometricSkipTable> skip_table_;
};

}  // namespace nb
