#include "sim/codebook.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace nb {

namespace {

NB_FAILPOINT_DEFINE(fp_codebook_build, "codebook.build");

/// Pad/flag an optional algorithm message into a transport payload, in
/// place: bit 0 = presence, bits 1..message_bits = the message
/// (zero-padded).
void write_payload(const std::optional<Bitstring>& message, std::size_t message_bits,
                   Bitstring& payload) {
    payload.reset(message_bits + 1);
    if (message.has_value()) {
        require(message->size() <= message_bits,
                "BeepTransport: message exceeds the bit budget");
        payload.set(0);
        message->for_each_one([&payload](std::size_t i) { payload.set(1 + i); });
    }
}

CombinedCode make_combined(const SimulationParams& params, std::size_t max_degree) {
    return CombinedCode(
        BeepCode(params.beep_code_length(max_degree), params.distance_code_length(),
                 params.code_seed),
        DistanceCode(params.payload_bits(), params.distance_code_length(),
                     mix64(params.code_seed ^ 0x64636f64u)));
}

/// The dictionary-order tail every candidate row ends with: the null payload
/// entry, then the decoys.
std::vector<std::uint32_t> make_tail(std::size_t node_count, std::size_t decoy_count) {
    const auto n32 = static_cast<std::uint32_t>(node_count);
    std::vector<std::uint32_t> tail;
    tail.reserve(1 + decoy_count);
    tail.push_back(n32);
    for (std::size_t i = 0; i < decoy_count; ++i) {
        tail.push_back(n32 + 1 + static_cast<std::uint32_t>(i));
    }
    return tail;
}

/// Append node v's sorted two-hop candidate set to `entries` (no tail).
void append_two_hop_set(const Graph& graph, NodeId v, std::vector<std::uint32_t>& entries) {
    std::unordered_set<NodeId> reachable;
    for (const auto u : graph.neighbors(v)) {
        reachable.insert(u);
        for (const auto w : graph.neighbors(u)) {
            if (w != v) {
                reachable.insert(w);
            }
        }
    }
    const std::size_t begin = entries.size();
    entries.insert(entries.end(), reachable.begin(), reachable.end());
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin), entries.end());
}

/// fn(index) for every index in [0, count): on `pool` when given one,
/// otherwise serially on the calling thread.
template <typename Fn>
void for_each_index(ThreadPool* pool, std::size_t count, const Fn& fn) {
    if (pool == nullptr) {
        for (std::size_t index = 0; index < count; ++index) {
            fn(index);
        }
        return;
    }
    pool->parallel_for(count, [&fn](std::size_t, std::size_t index) { fn(index); });
}

std::uint64_t next_codebook_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t Codebook::ShardView::digest() const {
    std::uint64_t h = 0x73686172645f7677ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    mix(global_node_count);
    mix(global_max_degree);
    mix(owned_begin);
    mix(owned_count);
    mix(global_ids.size());
    for (const auto id : global_ids) {
        mix(id);
    }
    return h;
}

Codebook::Codebook(const Graph& graph, const SimulationParams& params)
    : Codebook(graph, params, nullptr) {}

Codebook::Codebook(const Graph& graph, const SimulationParams& params, ShardView view)
    : Codebook(graph, params, &view) {}

Codebook::Codebook(const Graph& graph, const SimulationParams& params, ShardView* view)
    : graph_(graph),
      params_(params),
      view_(view != nullptr ? std::optional<ShardView>(std::move(*view)) : std::nullopt),
      combined_(make_combined(params,
                              view_.has_value()
                                  ? static_cast<std::size_t>(view_->global_max_degree)
                                  : graph.max_degree())),
      id_(next_codebook_id()) {
    fp_codebook_build.check();
    params_.validate();
    if (view_.has_value()) {
        require(params_.dictionary == DictionaryPolicy::two_hop,
                "Codebook: shard views require the two_hop dictionary");
        require(view_->global_ids.size() == graph_.node_count(),
                "Codebook: shard view must map every local node");
        require(view_->owned_begin + view_->owned_count <= graph_.node_count(),
                "Codebook: shard view owned range out of bounds");
    }
    build_candidate_index();
}

void Codebook::build_candidate_index() {
    const std::size_t n = graph_.node_count();
    const std::vector<std::uint32_t> tail = make_tail(n, params_.decoy_count);

    offsets_.push_back(0);
    if (params_.dictionary == DictionaryPolicy::two_hop) {
        offsets_.reserve(n + 1);
        for (NodeId v = 0; v < n; ++v) {
            append_two_hop_set(graph_, v, entries_);
            max_node_candidates_ =
                std::max<std::size_t>(max_node_candidates_, entries_.size() - offsets_.back());
            entries_.insert(entries_.end(), tail.begin(), tail.end());
            offsets_.push_back(entries_.size());
        }
    } else {
        max_node_candidates_ = n;
        entries_.reserve(n + tail.size());
        for (NodeId u = 0; u < n; ++u) {
            entries_.push_back(u);
        }
        entries_.insert(entries_.end(), tail.begin(), tail.end());
        offsets_.push_back(entries_.size());
    }
}

std::size_t Codebook::memory_bytes() const {
    // The candidate index is the only large state a codebook keeps.
    return sizeof(Codebook) + entries_.size() * sizeof(std::uint32_t) +
           offsets_.size() * sizeof(std::uint64_t);
}

std::span<const std::uint32_t> Codebook::candidate_entries(NodeId v) const {
    require(v < graph_.node_count(), "Codebook::candidate_entries: node out of range");
    return candidate_row(params_.dictionary == DictionaryPolicy::two_hop ? v : 0);
}

std::size_t Codebook::node_candidate_count(NodeId v) const {
    return candidate_entries(v).size() - 1 - params_.decoy_count;
}

std::shared_ptr<const Codebook::Round> Codebook::round(
    const std::vector<std::optional<Bitstring>>& messages, std::uint64_t nonce,
    ThreadPool* pool) const {
    auto fresh = std::make_shared<Round>();
    build_round(*fresh, messages, nonce, pool);
    return fresh;
}

void Codebook::build_round(Round& round, const std::vector<std::optional<Bitstring>>& messages,
                           std::uint64_t nonce, ThreadPool* pool) const {
    const std::size_t n = graph_.node_count();
    require(messages.size() == n, "Codebook: one message slot per node");

    // The all_nodes node-payload gap block survives only a rebuild from
    // equal messages by this codebook; a build that throws leaves the Round
    // keyed to none.
    const bool all_nodes = params_.dictionary == DictionaryPolicy::all_nodes;
    const bool keep_node_gaps =
        all_nodes && round.codebook_id == id_ && round.messages == messages;
    round.codebook_id = 0;
    round.nonce = nonce;
    round.rng = Rng(params_.transport_seed).derive(0x726f756eu, nonce);

    const std::size_t payload_bits = params_.payload_bits();
    const BeepCode& beep = beep_code();
    const DistanceCode& distance = distance_code();

    // Sharded builds derive per-node state for the owned local range only
    // (halo slots are emptied; the transport imports them from the boundary
    // table), and always by *global* id — the derivation an unsharded build
    // would use for the same node.
    const std::size_t owned_lo = view_.has_value() ? view_->owned_begin : 0;
    const std::size_t owned_hi =
        view_.has_value() ? owned_lo + view_->owned_count : n;
    const auto global_id = [this](NodeId v) -> std::uint64_t {
        return view_.has_value() ? view_->global_ids[v] : v;
    };

    // Every per-index quantity below comes from its own node- (or decoy-)
    // keyed rng stream, so each loop writes presized per-index slots and runs
    // on `pool` when given one: outputs are identical for any worker count.
    // The loops keep one kind of data each, so a serial build allocates each
    // array's elements contiguously. Every slot is written in place (the
    // `_into` forms), reusing the storage it already holds: rebuilding a
    // warm Round allocates nothing (under all_nodes, once the node-payload
    // gap block below is kept for the messages).
    const std::size_t decoys = params_.decoy_count;
    const std::size_t entry_count = n + 1 + decoys;

    // Per-node payloads and fresh inputs r_v.
    round.inputs.assign(n, 0);
    round.payloads.resize(n);
    for_each_index(pool, n, [&](std::size_t v) {
        write_payload(messages[v], params_.message_bits, round.payloads[v]);
        if (v >= owned_lo && v < owned_hi) {
            round.inputs[v] =
                round.rng.derive(0x7069636bu, global_id(static_cast<NodeId>(v))).next_u64();
        }
    });

    // Decoys: inputs, payloads and codewords drawn independently of
    // everything heard — a function of the nonce alone.
    round.decoy_inputs.resize(decoys);
    round.decoy_codewords.resize(decoys);
    round.decoy_one_positions.resize(decoys);
    round.candidate_messages.resize(entry_count);
    for (std::size_t i = 0; i < decoys; ++i) {
        Rng decoy_rng = round.rng.derive(0x6465636fu, i);
        round.decoy_inputs[i] = decoy_rng.next_u64();
        Bitstring::random_into(decoy_rng, payload_bits, round.candidate_messages[n + 1 + i]);
        beep.codeword_into(round.decoy_inputs[i], round.decoy_codewords[i],
                           round.decoy_one_positions[i]);
    }

    // Codewords C(r_v) with their 1-positions, for the owned nodes.
    // Halo slots are emptied, keeping their storage for the transport's
    // imports.
    round.codewords.resize(n);
    round.one_positions.resize(n);
    round.combined_schedules.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        if (v < owned_lo || v >= owned_hi) {
            round.codewords[v].reset(0);
            round.one_positions[v].clear();
            round.combined_schedules[v].reset(0);
        }
    }
    for_each_index(pool, owned_hi - owned_lo, [&](std::size_t i) {
        const std::size_t v = owned_lo + i;
        beep.codeword_into(round.inputs[v], round.codewords[v], round.one_positions[v]);
    });

    // Phase-2 candidate dictionary over the entry space, encoded once.
    for_each_index(pool, n, [&](std::size_t v) {
        round.candidate_messages[v] = round.payloads[v];
    });
    round.candidate_messages[n].reset(payload_bits);  // the null payload
    round.candidate_encoded.resize(entry_count);
    round.candidate_tails.resize(entry_count);
    for_each_index(pool, entry_count, [&](std::size_t e) {
        distance.encode_into(round.candidate_messages[e], round.candidate_encoded[e]);
        round.candidate_messages[e].tail_into(1, round.candidate_tails[e]);
    });

    // Bitsliced phase-1 matrix and phase-2 decode radii: only the all_nodes
    // policy scans dictionaries large enough to amortize them (see the
    // header comment on Round). The matrix is built only from
    // bitslice_min_candidates candidates up — below the crossover the
    // transport's scalar early-exit loop wins and the transpose would be
    // waste. The O(n^2) node-payload gap block is kept in the Round across
    // rebuilds from equal messages, so a fixed-messages nonce sweep through
    // one Round recomputes only the decoy rows each round.
    const bool sliced = all_nodes && n + params_.decoy_count >= params_.bitslice_min_candidates;
    if (sliced) {
        round.codeword_slices.build(round.codewords, round.decoy_codewords);
    } else {
        round.codeword_slices.build({});
    }
    // The phase-2 dictionary transposed word-major for the vectorized
    // full-sweep scan, gated with the bitslice matrix: both pay off exactly
    // when every node scans the whole entry space
    // (DistanceCode::nearest_entry_soa).
    round.candidate_encoded_soa.build(sliced ? std::span<const Bitstring>(round.candidate_encoded)
                                             : std::span<const Bitstring>());
    round.decode_gaps.clear();
    if (all_nodes) {
        const std::span<const Bitstring> all_messages(round.candidate_messages);
        const std::span<const Bitstring> all_encoded(round.candidate_encoded);
        if (!keep_node_gaps) {
            round.node_gaps =
                distance.decode_gaps(all_messages.first(n + 1), all_encoded.first(n + 1));
        }
        distance.extend_decode_gaps_into(all_messages, all_encoded, round.node_gaps,
                                         round.decode_gaps);
    } else {
        round.node_gaps.clear();
    }

    // Fault-free phase-2 schedules CD(r_v, payload_v): D(payload_v) is
    // already in the dictionary, so only the scatter remains. Sharded energy
    // totals count the owned nodes only — the transport sums them across
    // shards, each node counted by exactly its owner.
    for_each_index(pool, owned_hi - owned_lo, [&](std::size_t i) {
        const std::size_t v = owned_lo + i;
        Bitstring::scatter_into(beep.length(), round.one_positions[v],
                                round.candidate_encoded[v], round.combined_schedules[v]);
    });
    round.phase2_beeps = 0;
    for (std::size_t v = owned_lo; v < owned_hi; ++v) {
        round.phase2_beeps += round.combined_schedules[v].count();
    }
    round.phase1_beeps = (owned_hi - owned_lo) * beep.weight();

    round.messages = messages;
    round.codebook_id = id_;
    round_builds_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Codebook::fingerprint() const {
    std::uint64_t h = 0x66696e6765727072ULL;
    auto mix = [&h](std::uint64_t value) { h = mix64(h ^ value); };
    if (view_.has_value()) {  // unsharded digests are unchanged by the view feature
        mix(0x73686172u);
        mix(view_->digest());
    }
    mix(graph_.node_count());
    mix(beep_length());
    mix(beep_code().weight());
    mix(distance_code().length());
    mix(params_.message_bits);
    mix(params_.decoy_count);
    mix(params_.transport_seed);
    mix(params_.bitslice_min_candidates);
    mix(static_cast<std::uint64_t>(params_.dictionary));
    for (NodeId v = 0; v < graph_.node_count(); ++v) {
        const auto entries = candidate_entries(v);
        mix(entries.size());
        for (const auto e : entries) {
            mix(e);
        }
    }
    // Code content probes: codewords and encodings are pure functions of the
    // code seeds, so a few sampled inputs pin the codes bit for bit.
    Bitstring codeword;
    std::vector<std::size_t> positions;
    for (std::uint64_t i = 0; i < 8; ++i) {
        beep_code().codeword_into(mix64(i), codeword, positions);
        mix(codeword.hash());
        mix(positions.size());
    }
    Rng probe(0x70726f6265u);
    for (int i = 0; i < 4; ++i) {
        mix(distance_code().encode(Bitstring::random(probe, params_.payload_bits())).hash());
    }
    return h;
}

Codebook::Stats Codebook::stats() const {
    const std::size_t builds = round_builds_.load(std::memory_order_relaxed);
    const std::size_t n = graph_.node_count();
    const std::size_t owned = view_.has_value() ? view_->owned_count : n;
    Stats stats;
    stats.code_builds = 1;
    stats.round_builds = builds;
    stats.codeword_builds = builds * (owned + params_.decoy_count);
    stats.payload_encodes = builds * (n + 1 + params_.decoy_count);
    return stats;
}

}  // namespace nb
