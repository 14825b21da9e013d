// The per-node decode pipeline of Algorithm 1: one function, decode_node(),
// consumes a DecodeContext and writes one node's deliveries and
// diagnostics. BeepTransport runs it over each shard's closure (the whole
// graph for a one-shard plan), so bit-identity across shard counts is an
// argument about the context's inputs (codewords, schedules, dictionaries,
// noise streams), not about two decode implementations staying in sync
// (DESIGN.md section 10).
//
// Internal header: included by the transports (transport.cpp,
// tdma_transport.cpp) and decode_core.cpp only. It also defines
// TransportBatch::Scratch (forward-declared in transport_batch.h), the
// cross-call scratch a transport keeps in the caller's batch — each shard's
// Round among it, so the batch that decodes a round owns its one decoding
// dictionary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "beep/batch_engine.h"
#include "codes/decoders.h"
#include "common/bitslice.h"
#include "common/bitstring.h"
#include "common/simd/simd.h"
#include "graph/graph.h"
#include "sim/codebook.h"
#include "sim/transport.h"
#include "sim/transport_batch.h"

namespace nb {
namespace transport_detail {

enum class NodeState : unsigned char { correct, jammer, crashed };

/// Per-node diagnostic deltas, reduced into the round stats in node order
/// after the parallel loop so totals are independent of thread schedule.
struct NodeDiagnostics {
    std::size_t phase1_false_negatives = 0;
    std::size_t phase1_false_positives = 0;
    std::size_t phase2_errors = 0;
    std::size_t delivery_mismatches = 0;
};

/// Validate fault ids against `n` nodes and expand them into per-node states.
void build_node_states_into(std::vector<NodeState>& state, std::size_t n,
                            const FaultModel& faults);

/// Reusable per-worker scratch: transcript/gather buffers, acceptance lists,
/// bitslice counters and ground-truth pointers. Lives in the batch scratch;
/// reserve_workspace sizes every buffer for the round up front, so a warm
/// workspace is never reallocated whichever nodes its worker decodes.
struct DecodeWorkspace {
    Bitstring heard1;
    Bitstring heard2;
    Bitstring gathered;
    std::vector<NodeId> accepted_nodes;
    std::vector<std::size_t> accepted_decoys;
    std::vector<std::uint64_t> accept_mask;
    std::vector<std::uint32_t> distances;  ///< phase-2 SoA sweep scratch
    std::vector<std::uint64_t> sort_tmp;   ///< record rotation buffer
    BitsliceScratch slice_scratch;
    std::vector<const Bitstring*> expected;
};

/// The one pointer the decode loop's closure captures: per-round constants
/// and the batch the workers write into. Keeping the closure to a single
/// pointer keeps the std::function conversion at the parallel_for call site
/// inside its small-buffer storage — no per-round allocation.
///
/// `round` is the *fault-free decoding dictionary* for phase 1 and the
/// phase-2 gathers: the shard's Round, its halo slots already imported from
/// the boundary table. `local_to_global` (nullptr = identity) maps node ids
/// for the batch's slot table, which is always indexed globally.
struct DecodeContext {
    const Graph* graph = nullptr;
    const Codebook* codebook = nullptr;
    const Codebook::Round* round = nullptr;
    const std::vector<std::optional<Bitstring>>* messages = nullptr;
    const std::vector<Bitstring>* phase1_schedules = nullptr;
    const std::vector<Bitstring>* phase2_schedules = nullptr;
    const BatchEngine* phase1_engine = nullptr;
    const BatchEngine* phase2_engine = nullptr;
    const Phase1Decoder* phase1_decoder = nullptr;
    const DistanceCode* distance_code = nullptr;
    TransportBatch* batch = nullptr;
    std::vector<DecodeWorkspace>* workspaces = nullptr;
    const std::vector<NodeState>* states = nullptr;
    std::vector<NodeDiagnostics>* diagnostics = nullptr;
    const std::uint32_t* local_to_global = nullptr;
    std::size_t round_index = 0;
    std::size_t n = 0;
    NodeId owned_begin = 0;  ///< local id of the first node the decode loop owns
    std::size_t decoy_count = 0;
    bool bitsliced = false;
    simd::Kernel kernel = simd::Kernel::auto_best;
};

/// Size `ws` for decoding any node of `round`: b-bit transcripts, the
/// codeword-weight gather, acceptance lists at their dictionary bounds, the
/// bitslice and SoA scratch, and one record (`message_words`) of sort
/// space. Capacity only grows, so on a warm workspace this allocates
/// nothing.
void reserve_workspace(const Codebook& codebook, const Codebook::Round& round,
                       std::size_t message_words, DecodeWorkspace& ws);

/// Whether the run committed for (round, v) holds exactly the messages
/// `expected` points to, as a multiset. Sorts `expected` by message_less and
/// compares word by word against the arena records, so the check allocates
/// nothing.
bool delivery_matches(const TransportBatch& batch, std::size_t round, NodeId v,
                      std::vector<const Bitstring*>& expected);

/// Decode node `v` (a local id under sharding) on `worker`'s scratch:
/// phase-1 acceptance, phase-2 nearest-entry decodes, delivery commit into
/// the batch, and this node's diagnostics. Faulty nodes return immediately
/// (their slot stays empty).
void decode_node(const DecodeContext& ctx, std::size_t worker, NodeId v);

/// One shard's per-round scratch, reused across rounds and batches. The
/// message and state slices exist only for closures that are not the
/// identity; the fault-override schedules stay empty on fault-free
/// workloads.
struct ShardScratch {
    std::vector<std::optional<Bitstring>> messages;  ///< local slice, closure order
    /// The shard's decoding dictionary. The build stage rebuilds it in place
    /// only when the codebook (Round::codebook_id), nonce or messages differ
    /// from what built it; the decode stage writes its halo slots from the
    /// boundary table.
    Codebook::Round round;
    std::vector<Bitstring> faulty_phase1;
    std::vector<Bitstring> faulty_phase2;
    std::vector<NodeState> states;  ///< local slice, closure order
    std::vector<NodeDiagnostics> diagnostics;
    std::size_t total_beeps = 0;  ///< owned nodes only
};

}  // namespace transport_detail

/// Everything decode rounds reuse across rounds and batches. Owned by the
/// TransportBatch (caller lifetime), created on its first use. The boundary
/// table has one writer per row (the owning shard's build stage); readers
/// start only after the exchange between stages, so no row is ever written
/// and read concurrently.
struct TransportBatch::Scratch {
    std::vector<transport_detail::DecodeWorkspace> workspaces;
    std::vector<transport_detail::NodeState> states;  ///< this round's, by global id
    std::vector<transport_detail::ShardScratch> shards;
    std::vector<std::uint64_t> table;

    /// TdmaTransport's slot schedules for the messages last packed, each
    /// node's message zero-padded to the budget (what its neighbours must
    /// deliver), and per-node mismatch flags.
    std::vector<Bitstring> tdma_schedules;
    std::vector<Bitstring> tdma_padded;
    std::vector<std::uint8_t> tdma_mismatch;
};

}  // namespace nb
