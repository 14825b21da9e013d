// Caller-owned zero-copy result storage for batched transport simulation.
//
// simulate_rounds() returns vector<vector<Bitstring>> deliveries — two heap
// levels per node per round, allocated anew each call. At batch rates that
// allocation traffic, not decoding, caps throughput. A TransportBatch
// replaces it with arena storage sized once and reused forever:
//
//   * every delivered message is a fixed-stride record (the payload tail's
//     packed words — one message size per transport, so records need no
//     per-message length);
//   * each pool worker bump-allocates records into its own arena, so the
//     parallel decode loop has one writer per arena and no synchronization
//     (the one-writer-per-slot idiom of shared-state tables like Derecho's
//     SST);
//   * a (round, node) slot records where that node's run landed: (worker,
//     offset, count). Runs are contiguous because a worker decodes one node
//     at a time.
//
// Arenas and slot tables keep their capacity across simulate_rounds_into
// calls: after the first batch of a steady-state workload reaches its
// high-water mark, decoding performs no heap allocation at all (asserted by
// the steady-state allocation tests). BeepTransport levels every worker's
// arena to the whole batch's record count at the end of each batch, so the
// high-water mark holds for any shard and worker count, not just for one
// schedule.
// The batch is written by one simulate_rounds_into call at a time (readers
// may inspect it between calls); it is not a concurrent container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/bitstring.h"
#include "graph/graph.h"

namespace nb {

struct TransportRound;

namespace transport_detail {
struct DecodeContext;
void decode_node(const DecodeContext& ctx, std::size_t worker, NodeId v);
}  // namespace transport_detail

/// One round's counters — TransportRound minus the delivered storage.
struct TransportRoundStats {
    std::size_t beep_rounds = 0;
    std::size_t total_beeps = 0;
    std::size_t phase1_false_negatives = 0;
    std::size_t phase1_false_positives = 0;
    std::size_t phase2_errors = 0;
    std::size_t delivery_mismatches = 0;
    bool perfect = true;
};

class TransportBatch {
public:
    TransportBatch();
    ~TransportBatch();
    TransportBatch(TransportBatch&&) noexcept;
    TransportBatch& operator=(TransportBatch&&) noexcept;
    TransportBatch(const TransportBatch&) = delete;
    TransportBatch& operator=(const TransportBatch&) = delete;

    std::size_t rounds() const noexcept { return rounds_; }
    std::size_t nodes() const noexcept { return nodes_; }

    /// Bits per delivered message (the transport's message_bits).
    std::size_t message_bits() const noexcept { return message_bits_; }

    /// Packed words per delivered record.
    std::size_t message_words() const noexcept { return stride_; }

    const TransportRoundStats& stats(std::size_t round) const;

    /// Messages node v delivered in `round` (sorted by message_less, exactly
    /// as TransportRound::delivered[v] would be).
    std::size_t delivered_count(std::size_t round, NodeId v) const;

    /// Record i of (round, v) as its packed words — a view into the arena,
    /// valid until the next simulate_rounds_into on this batch. No copy.
    std::span<const std::uint64_t> delivered_words(std::size_t round, NodeId v,
                                                   std::size_t i) const;

    /// Record i of (round, v) as an owning Bitstring (allocates; the
    /// convenience accessor for tests and non-hot callers).
    Bitstring delivered_message(std::size_t round, NodeId v, std::size_t i) const;

    /// The TransportRound this batch's round would have produced through
    /// simulate_rounds — the compatibility bridge (allocates per delivery).
    TransportRound to_round(std::size_t round) const;

    /// Arena words currently allocated across workers (observability; the
    /// benches report it alongside the allocation counter).
    std::size_t arena_words() const noexcept;

private:
    friend class BeepTransport;
    friend void transport_detail::decode_node(const transport_detail::DecodeContext& ctx,
                                              std::size_t worker, NodeId v);

    struct Slot {
        std::uint32_t worker = 0;
        std::uint32_t count = 0;
        std::uint64_t offset = 0;  ///< word offset of the run in its arena
    };

    /// Reusable decode scratch (workspaces, fault state, each shard's round) owned
    /// by the batch so repeated simulate_rounds_into calls allocate nothing
    /// once warm. Defined in decode_core.h (internal); the shared_ptr
    /// type-erases the deleter so this header stays independent of it.
    struct Scratch;

    /// Size the slot/stat tables for a batch (keeps capacity; resets
    /// cursors). Called by simulate_rounds_into.
    void prepare(std::size_t rounds, std::size_t nodes, std::size_t message_bits,
                 std::size_t workers);

    /// Reserve every worker arena to the records this batch holds across
    /// all workers, so a same-shaped next batch grows no arena however its
    /// nodes are scheduled. Called at the end of a batch, never inside one.
    void level_arenas();

    /// Bump-allocate one record in `worker`'s arena; returns its offset.
    /// The pointer for writing must be re-derived from the offset (growth
    /// may move the arena).
    std::uint64_t push_record(std::size_t worker);

    std::uint64_t* record_at(std::size_t worker, std::uint64_t offset) noexcept {
        return arenas_[worker].data() + offset;
    }
    const std::uint64_t* record_at(std::size_t worker, std::uint64_t offset) const noexcept {
        return arenas_[worker].data() + offset;
    }

    /// Sort the node's run (insertion sort on fixed-stride records, ordered
    /// exactly like message_less on equal-size strings) and publish its
    /// slot. `tmp` is caller scratch of at least message_words() words.
    void commit_node(std::size_t round, NodeId v, std::size_t worker, std::uint64_t start,
                     std::uint32_t count, std::vector<std::uint64_t>& tmp);

    std::size_t rounds_ = 0;
    std::size_t nodes_ = 0;
    std::size_t message_bits_ = 0;
    std::size_t stride_ = 0;
    std::vector<Slot> slots_;  ///< rounds * nodes, row-major by round
    std::vector<TransportRoundStats> stats_;
    std::vector<AlignedWords> arenas_;     ///< one per pool worker
    std::vector<std::size_t> arena_used_;  ///< bump cursors, in words
    std::shared_ptr<Scratch> scratch_;
};

}  // namespace nb
