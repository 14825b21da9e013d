#include "sim/decode_core.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"
#include "congest/algorithm.h"

namespace nb {
namespace transport_detail {

void build_node_states_into(std::vector<NodeState>& state, std::size_t n,
                            const FaultModel& faults) {
    state.assign(n, NodeState::correct);
    for (const auto v : faults.jammers) {
        require(v < n, "BeepTransport: jammer id out of range");
        state[v] = NodeState::jammer;
    }
    for (const auto v : faults.crashed) {
        require(v < n, "BeepTransport: crashed id out of range");
        // Duplicate entries within one list are idempotent; only the
        // contradictory jammer+crashed combination is rejected.
        require(state[v] != NodeState::jammer, "BeepTransport: node cannot jam and crash");
        state[v] = NodeState::crashed;
    }
}

void reserve_workspace(const Codebook& codebook, const Codebook::Round& round,
                       std::size_t message_words, DecodeWorkspace& ws) {
    ws.heard1.reset(codebook.beep_length());
    ws.heard2.reset(codebook.beep_length());
    ws.gathered.reset(codebook.beep_code().weight());
    ws.accepted_nodes.reserve(codebook.max_node_candidate_count());
    ws.accepted_decoys.reserve(codebook.decoy_count());
    ws.accept_mask.reserve(round.codeword_slices.lane_words());
    ws.distances.reserve(round.candidate_encoded_soa.stride());
    ws.sort_tmp.reserve(message_words);
    round.codeword_slices.reserve_scratch(ws.slice_scratch);
    ws.expected.reserve(codebook.graph().max_degree());
}

void decode_node(const DecodeContext& ctx, std::size_t worker, NodeId v) {
    const DecodeContext& c = ctx;
    const Codebook::Round& rd = *c.round;
    if ((*c.states)[v] != NodeState::correct) {
        return;  // faulty nodes produce no output (their slot stays empty)
    }
    // The batch's slot table is indexed by global id; v is a local closure
    // index and gv its global identity.
    const NodeId gv = c.local_to_global != nullptr ? c.local_to_global[v] : v;
    DecodeWorkspace& ws = (*c.workspaces)[worker];
    NodeDiagnostics& diag = (*c.diagnostics)[v];

    c.phase1_engine->hear_into(v, *c.phase1_schedules, ws.heard1);

    // Candidate entries for this decoder: node ids first, then the null
    // payload and the decoys (one list, built once per transport).
    const std::span<const std::uint32_t> entries = c.codebook->candidate_entries(v);
    const std::size_t node_candidates = c.codebook->node_candidate_count(v);

    // Phase 1 decode: which candidate inputs pass the Lemma 9 test. The
    // node's own input is known; the paper includes it in R_v (inclusive
    // neighborhood) but it carries no foreign message. Under all_nodes
    // the bitsliced kernel scores every candidate and decoy in one
    // transcript pass; two-hop dictionaries are small enough that the
    // per-candidate scalar kernel wins.
    ws.accepted_nodes.clear();
    ws.accepted_decoys.clear();
    if (c.bitsliced) {
        c.phase1_decoder->accept_all(ws.heard1, rd.codeword_slices, ws.slice_scratch,
                                     ws.accept_mask, c.kernel);
        for (std::size_t w = 0; w < ws.accept_mask.size(); ++w) {
            std::uint64_t bits = ws.accept_mask[w];
            while (bits != 0) {
                const std::size_t cand =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                if (cand < c.n) {
                    if (cand != v) {
                        ws.accepted_nodes.push_back(static_cast<NodeId>(cand));
                    }
                } else {
                    ws.accepted_decoys.push_back(cand - c.n);
                }
            }
        }
    } else {
        for (std::size_t i = 0; i < node_candidates; ++i) {
            const NodeId u = entries[i];
            if (u != v && c.phase1_decoder->accepts_codeword(ws.heard1, rd.codewords[u],
                                                             c.kernel)) {
                ws.accepted_nodes.push_back(u);
            }
        }
        for (std::size_t i = 0; i < c.decoy_count; ++i) {
            if (c.phase1_decoder->accepts_codeword(ws.heard1, rd.decoy_codewords[i],
                                                   c.kernel)) {
                ws.accepted_decoys.push_back(i);
            }
        }
    }

    // Diagnostics: accepted vs the set of *correct* transmitting
    // neighbors (faulty neighbors never transmitted their codeword, so
    // accepting one counts as a false positive).
    std::size_t true_accepted = 0;
    for (const auto u : ws.accepted_nodes) {
        if (c.graph->has_edge(u, v) && (*c.states)[u] == NodeState::correct) {
            ++true_accepted;
        } else {
            ++diag.phase1_false_positives;
        }
    }
    diag.phase1_false_positives += ws.accepted_decoys.size();
    std::size_t correct_neighbors = 0;
    for (const auto u : c.graph->neighbors(v)) {
        correct_neighbors += (*c.states)[u] == NodeState::correct ? 1 : 0;
    }
    diag.phase1_false_negatives += correct_neighbors - true_accepted;

    // Phase 2 decode for every accepted foreign input, against the
    // round's precomputed dictionary encodings. The accepted sender is the
    // nearest-entry hint: when its encoding is within the unique-
    // decoding radius, the dictionary scan is skipped (exact; see
    // DistanceCode::nearest_entry).
    c.phase2_engine->hear_into(v, *c.phase2_schedules, ws.heard2);

    auto decode_entry_at = [&](const Bitstring& codeword,
                               const std::vector<std::size_t>& positions,
                               std::uint32_t hint_entry) {
        // The subsequence at the codeword's 1-positions: the vector
        // kernels gather it with the word-wise PEXT walk straight off
        // the packed codeword; the scalar kernel keeps the position-list
        // gather (faster than emulated PEXT). Identical bits either way
        // — positions ARE the codeword's 1-positions (property-tested).
        if (c.kernel == simd::Kernel::scalar) {
            ws.heard2.gather_into(positions, ws.gathered);
        } else {
            ws.heard2.gather_mask_into(codeword, ws.gathered, c.kernel);
        }
        // Full-dictionary sweeps (all_nodes above the bitslice
        // crossover) run the vectorized SoA scan; the sparse two-hop
        // entry lists keep the per-entry fold. Same hint shortcut, same
        // winner, bit-identical (see nearest_entry_soa).
        if (!rd.candidate_encoded_soa.empty()) {
            return c.distance_code->nearest_entry_soa(
                ws.gathered, rd.candidate_messages, rd.candidate_encoded_soa, entries,
                hint_entry, rd.decode_gaps, ws.distances, c.kernel);
        }
        return c.distance_code->nearest_entry(ws.gathered, rd.candidate_messages,
                                              rd.candidate_encoded, entries, hint_entry,
                                              rd.decode_gaps);
    };

    // Deliveries land as fixed-stride records in this worker's arena;
    // the run is contiguous because this worker decodes one node at a
    // time (see transport_batch.h).
    std::uint64_t run_start = 0;
    std::uint32_t run_count = 0;
    const std::size_t stride = c.batch->message_words();
    auto deliver_tail = [&](std::uint32_t entry) {
        const std::uint64_t offset = c.batch->push_record(worker);
        if (run_count == 0) {
            run_start = offset;
        }
        const std::vector<std::uint64_t>& words = rd.candidate_tails[entry].words();
        std::memcpy(c.batch->record_at(worker, offset), words.data(),
                    stride * sizeof(std::uint64_t));
        ++run_count;
    };

    for (const auto u : ws.accepted_nodes) {
        const std::uint32_t entry = decode_entry_at(rd.codewords[u], rd.one_positions[u], u);
        const Bitstring& decoded = rd.candidate_messages[entry];
        if (c.graph->has_edge(u, v) && (*c.states)[u] == NodeState::correct &&
            decoded != rd.payloads[u]) {
            ++diag.phase2_errors;
        }
        if (decoded.test(0)) {
            deliver_tail(entry);
        }
    }
    for (const auto i : ws.accepted_decoys) {
        const auto hint = static_cast<std::uint32_t>(c.n + 1 + i);
        const std::uint32_t entry =
            decode_entry_at(rd.decoy_codewords[i], rd.decoy_one_positions[i], hint);
        if (rd.candidate_messages[entry].test(0)) {
            deliver_tail(entry);
        }
    }
    c.batch->commit_node(c.round_index, gv, worker, run_start, run_count, ws.sort_tmp);

    // Ground-truth delivery for the mismatch diagnostic: faulty
    // neighbors' messages are lost by definition. The expected messages
    // are the cached payload tails.
    ws.expected.clear();
    for (const auto u : c.graph->neighbors(v)) {
        if ((*c.messages)[u].has_value() && (*c.states)[u] == NodeState::correct) {
            ws.expected.push_back(&rd.candidate_tails[u]);
        }
    }
    if (!delivery_matches(*c.batch, c.round_index, gv, ws.expected)) {
        ++diag.delivery_mismatches;
    }
}

bool delivery_matches(const TransportBatch& batch, std::size_t round, NodeId v,
                      std::vector<const Bitstring*>& expected) {
    if (expected.size() != batch.delivered_count(round, v)) {
        return false;
    }
    std::sort(expected.begin(), expected.end(),
              [](const Bitstring* a, const Bitstring* b) { return message_less(*a, *b); });
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const std::span<const std::uint64_t> record = batch.delivered_words(round, v, i);
        if (!std::equal(record.begin(), record.end(), expected[i]->words().begin())) {
            return false;
        }
    }
    return true;
}

}  // namespace transport_detail
}  // namespace nb
