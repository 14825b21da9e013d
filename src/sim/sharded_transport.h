// Sharded transport: the partitioned simulation of Algorithm 1 that scales
// to n = 10^6 (DESIGN.md section 10).
//
// The topology is split into k contiguous ownership ranges (graph/
// partition.h). Each shard carries its closure subgraph (owned nodes plus a
// two-hop halo), its own Codebook built through a ShardView — input streams
// r_v keyed by *global* node id, beep-code length from the *global* max
// degree — and decodes its owned nodes with the exact per-node pipeline of
// decode_core.h. Per round the shards only exchange boundary beep activity:
// every owned node some other shard can hear within two hops publishes its
// phase-1 codeword and phase-2 combined schedule into a fixed-layout
// boundary table (one writer per row, SST-style), and each shard fills its
// halo slots from the rows its imports name. Because every derived stream
// is keyed globally and every halo slot is filled with exactly the bits the
// unsharded transport would have used, the output batch is bit-identical
// to BeepTransport for any shard count and any worker count.
//
// What sharding buys: each shard builds and decodes only its own closure,
// one shard per pool worker, so a round's working set is split k ways. The
// unsharded transport runs the same per-node build and decode loops on its
// pool over one global round. Shard builds call Codebook::round without a
// pool: the shards already run in parallel, and a nested parallel_for would
// run inline anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/params.h"
#include "sim/transport.h"

namespace nb {

class ShardedTransport final : public Transport {
public:
    /// Partition `graph` into (at most) `shard_count` shards. The graph must
    /// outlive the transport. Dictionary policies whose candidate sets are
    /// not local (all_nodes) fall back to an internal BeepTransport — every
    /// call delegates, outputs are identical by construction.
    ShardedTransport(const Graph& graph, SimulationParams params, std::size_t shard_count);

    using Transport::simulate_round;

    std::vector<TransportRound> simulate_rounds(
        std::span<const RoundSpec> specs) const override;

    /// The zero-copy batch path; bit-identical to
    /// BeepTransport::simulate_rounds_into on the same graph and params (the
    /// sharding goldens pin this).
    void simulate_rounds_into(std::span<const RoundSpec> specs, TransportBatch& batch) const;

    /// Fault-injected variant (same semantics as BeepTransport's).
    TransportRound simulate_round(const std::vector<std::optional<Bitstring>>& messages,
                                  std::uint64_t round_nonce, const FaultModel& faults) const;

    std::size_t rounds_per_broadcast_round() const override;

    const SimulationParams& params() const noexcept { return params_; }
    const Graph& graph() const noexcept override { return graph_; }

    /// Shards actually used (clamped to max(1, n); 0 when delegating).
    std::size_t shard_count() const noexcept {
        return fallback_ != nullptr ? 0 : plan_.shard_count();
    }

    /// The partition (empty when delegating to the fallback transport).
    const ShardPlan& plan() const noexcept { return plan_; }

    /// Shard s's codebook (shared-cache build or private, per params).
    const Codebook& shard_codebook(std::size_t s) const { return *shards_[s].codebook; }

private:
    struct ShardState {
        std::shared_ptr<const SharedCodebook> shared;  ///< cache-owned
        std::unique_ptr<Codebook> owned;               ///< private build
        const Codebook* codebook = nullptr;
    };

    void decode_rounds(std::span<const RoundSpec> specs, TransportBatch& batch) const;

    const Graph& graph_;
    SimulationParams params_;
    std::unique_ptr<BeepTransport> fallback_;  ///< non-local dictionary delegate
    ShardPlan plan_;
    std::vector<ShardState> shards_;
    std::unique_ptr<ThreadPool> pool_;

    std::size_t beep_length_ = 0;
    // Boundary-table layout, fixed at construction: each export row is
    // 2 * words_per_schedule_ words (phase-1 codeword, then phase-2 combined
    // schedule), rows of shard s start at row_offset_words_[s].
    std::size_t words_per_schedule_ = 0;
    std::vector<std::size_t> row_offset_words_;
    std::size_t table_words_ = 0;
};

}  // namespace nb
