#include "sim/transport.h"

#include <algorithm>

#include "beep/batch_engine.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "sim/decode_core.h"

namespace nb {

// Armed by the resilience tests and NB_FAILPOINTS: fires on the coordinator
// thread once per round of a plan with more than one shard, between the
// shards' boundary publishes and their imports — the seam where a real
// distributed implementation would hit the network. The sweep engine
// classifies the injected fault as transient and retries the whole scenario
// (DESIGN.md section 9).
NB_FAILPOINT_DEFINE(fp_shard_exchange, "shard.exchange");

using transport_detail::DecodeContext;
using transport_detail::NodeDiagnostics;
using transport_detail::NodeState;
using transport_detail::ShardScratch;

std::vector<TransportRound> Transport::simulate_rounds(std::span<const RoundSpec> specs) const {
    TransportBatch batch;
    simulate_rounds_into(specs, batch);
    std::vector<TransportRound> results;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results.push_back(batch.to_round(i));
    }
    return results;
}

TransportRound Transport::simulate_round(const std::vector<std::optional<Bitstring>>& messages,
                                         std::uint64_t round_nonce,
                                         const FaultModel& faults) const {
    const RoundSpec spec{&messages, round_nonce, &faults};
    return std::move(simulate_rounds({&spec, 1}).front());
}

BeepTransport::BeepTransport(const Graph& graph, SimulationParams params,
                             std::size_t shard_count)
    : graph_(graph), params_(params) {
    params_.validate();
    const std::size_t n = graph_.node_count();
    if (params_.dictionary == DictionaryPolicy::two_hop && std::min(shard_count, n) > 1) {
        plan_ = make_shard_plan(graph_, shard_count);
    }
    auto& cache = CodebookCache::instance();
    if (plan_.shards.empty()) {
        // The one-shard plan. A cached build owns its own graph copy
        // (structurally equal to graph_, enforced by the cache key), so
        // eviction or this transport's death never dangles anything.
        Shard& shard = shards_.emplace_back();
        shard.graph = &graph_;
        shard.owned_count = static_cast<std::uint32_t>(n);
        shard.codebook = cache.acquire(graph_, params_);
    }
    for (const ShardPlan::Shard& sh : plan_.shards) {
        Shard& shard = shards_.emplace_back();
        shard.graph = &sh.local;
        shard.ids = sh.local_to_global;
        shard.owned_begin = sh.owned_begin;
        shard.owned_count = sh.owned_count;
        shard.exports = sh.exports;
        shard.imports = sh.imports;
        Codebook::ShardView view;
        view.global_ids = sh.local_to_global;
        view.owned_begin = sh.owned_begin;
        view.owned_count = sh.owned_count;
        view.global_node_count = n;
        view.global_max_degree = graph_.max_degree();
        shard.codebook = cache.acquire(sh.local, params_, view);
    }
    words_per_schedule_ = (codebook().beep_length() + 63) / 64;
    for (Shard& shard : shards_) {
        shard.row_offset_words = table_words_;
        table_words_ += shard.exports.size() * 2 * words_per_schedule_;
    }
    pool_ = std::make_unique<ThreadPool>(ThreadPool::worker_count_for(params_.threads, n));
}

std::size_t BeepTransport::rounds_per_broadcast_round() const {
    return params_.rounds_per_broadcast_round(graph_.max_degree());
}

/// What both per-shard stages of one round read. The stage closures capture
/// only a reference to it, which keeps each std::function conversion inside
/// its small buffer — no per-round allocation.
struct BeepTransport::RoundJob {
    const BeepTransport& transport;
    TransportBatch& batch;
    simd::Kernel kernel;  ///< what params.simd_kernel resolves to on this CPU
    const RoundSpec* spec = nullptr;
    const FaultModel* faults = nullptr;
    std::size_t round_index = 0;

    /// Stage A: slice the messages to the closure, rebuild the shard's
    /// round unless it already holds this one, and publish its export rows.
    /// Each row has exactly one writer: the owning shard.
    void build(std::size_t s) const;

    /// Stage B: write the imported rows into the round's halo slots, apply
    /// fault overrides, and decode the owned nodes with the shared per-node
    /// pipeline (decode_core.h).
    void decode(std::size_t s) const;
};

void BeepTransport::RoundJob::build(std::size_t s) const {
    const Shard& shard = transport.shards_[s];
    ShardScratch& sr = batch.scratch_->shards[s];
    const std::vector<std::optional<Bitstring>>* messages = spec->messages;
    if (!shard.ids.empty()) {
        sr.messages.resize(shard.ids.size());
        for (std::size_t li = 0; li < shard.ids.size(); ++li) {
            sr.messages[li] = (*messages)[shard.ids[li]];
        }
        messages = &sr.messages;
    }
    const Codebook& codebook = shard.codebook->codebook();
    if (sr.round.codebook_id != codebook.id() || sr.round.nonce != spec->nonce ||
        sr.round.messages != *messages) {
        codebook.build_round(sr.round, *messages, spec->nonce, transport.pool_.get());
    }

    const std::size_t wb = transport.words_per_schedule_;
    std::uint64_t* row = batch.scratch_->table.data() + shard.row_offset_words;
    for (const auto e : shard.exports) {
        std::copy_n(sr.round.codewords[e].words().data(), wb, row);
        std::copy_n(sr.round.combined_schedules[e].words().data(), wb, row + wb);
        row += 2 * wb;
    }
}

void BeepTransport::RoundJob::decode(std::size_t s) const {
    const Shard& shard = transport.shards_[s];
    TransportBatch::Scratch& scratch = *batch.scratch_;
    ShardScratch& sr = scratch.shards[s];
    const Codebook& codebook = transport.codebook(s);
    Codebook::Round& round = sr.round;
    const std::size_t ln = shard.graph->node_count();
    const std::size_t b = codebook.beep_length();
    const std::uint32_t owned_end = shard.owned_begin + shard.owned_count;

    // Complete the decoding dictionary: the halo slots get the bits their
    // owners published, written into storage the previous round left behind.
    const std::size_t wb = transport.words_per_schedule_;
    for (const ShardPlan::Import& imp : shard.imports) {
        const std::uint64_t* row = scratch.table.data() +
                                   transport.shards_[imp.src_shard].row_offset_words +
                                   static_cast<std::size_t>(imp.src_row) * 2 * wb;
        round.codewords[imp.local].assign_words({row, wb}, b);
        round.combined_schedules[imp.local].assign_words({row + wb, wb}, b);
        std::vector<std::size_t>& positions = round.one_positions[imp.local];
        positions.clear();
        round.codewords[imp.local].for_each_one(
            [&positions](std::size_t p) { positions.push_back(p); });
    }

    // This round's fault states, sliced to the closure like the messages.
    const std::vector<NodeState>* states = &scratch.states;
    if (!shard.ids.empty()) {
        sr.states.resize(ln);
        for (std::size_t li = 0; li < ln; ++li) {
            sr.states[li] = scratch.states[shard.ids[li]];
        }
        states = &sr.states;
    }

    // Phase schedules: the fault-free dictionary unless faults force
    // per-node overrides — jammers transmit all-ones, crashed nodes
    // all-zeros, in both phases. Decoders have no fault knowledge, so the
    // decoding dictionary stays fault-free. Element-wise copy-assignment
    // reuses each Bitstring's word storage once warm.
    const std::vector<Bitstring>* phase1_schedules = &round.codewords;
    const std::vector<Bitstring>* phase2_schedules = &round.combined_schedules;
    if (!faults->empty()) {
        sr.faulty_phase1 = round.codewords;
        sr.faulty_phase2 = round.combined_schedules;
        for (std::size_t v = 0; v < ln; ++v) {
            if ((*states)[v] == NodeState::jammer) {
                sr.faulty_phase1[v] = ~Bitstring(b);
                sr.faulty_phase2[v] = ~Bitstring(b);
            } else if ((*states)[v] == NodeState::crashed) {
                sr.faulty_phase1[v] = Bitstring(b);
                sr.faulty_phase2[v] = Bitstring(b);
            }
        }
        phase1_schedules = &sr.faulty_phase1;
        phase2_schedules = &sr.faulty_phase2;
    }

    // The physical channel: iid(epsilon) by default, or whatever
    // ChannelModel the params carry; decoder thresholds keep the design
    // epsilon. Noise streams key by global id and derive from the same
    // round rng in every shard, so per-node noise is independent of the
    // partition. Schedule sets are validated once per round here, not once
    // per node inside hear_into.
    const SimulationParams& params = transport.params_;
    const BatchParams channel{params.channel_model(), false};
    const BatchEngine phase1_engine(*shard.graph, channel, round.rng.derive(0x70683161u),
                                    shard.ids);
    const BatchEngine phase2_engine(*shard.graph, channel, round.rng.derive(0x70683262u),
                                    shard.ids);
    phase1_engine.check_schedules(*phase1_schedules);
    phase2_engine.check_schedules(*phase2_schedules);

    const Phase1Decoder phase1_decoder(codebook.beep_code(), params.epsilon);
    sr.diagnostics.assign(ln, NodeDiagnostics{});

    DecodeContext ctx;
    ctx.graph = shard.graph;
    ctx.codebook = &codebook;
    ctx.round = &round;
    ctx.messages = shard.ids.empty() ? spec->messages : &sr.messages;
    ctx.phase1_schedules = phase1_schedules;
    ctx.phase2_schedules = phase2_schedules;
    ctx.phase1_engine = &phase1_engine;
    ctx.phase2_engine = &phase2_engine;
    ctx.phase1_decoder = &phase1_decoder;
    ctx.distance_code = &codebook.distance_code();
    ctx.batch = &batch;
    ctx.workspaces = &scratch.workspaces;
    ctx.states = states;
    ctx.diagnostics = &sr.diagnostics;
    ctx.local_to_global = shard.ids.empty() ? nullptr : shard.ids.data();
    ctx.round_index = round_index;
    ctx.n = ln;
    ctx.owned_begin = shard.owned_begin;
    ctx.decoy_count = codebook.decoy_count();
    ctx.bitsliced = !round.codeword_slices.empty();
    ctx.kernel = kernel;

    // Over every worker for a one-shard plan (its stage runs on the
    // caller); inline on the stage's own worker when k > 1 (a nested call).
    transport.pool_->parallel_for(shard.owned_count, [&ctx](std::size_t w, std::size_t i) {
        transport_detail::decode_node(ctx, w, static_cast<NodeId>(ctx.owned_begin + i));
    });

    // Owned-only energy, so the cross-shard sum counts every node once.
    if (faults->empty()) {
        sr.total_beeps = round.phase1_beeps + round.phase2_beeps;
    } else {
        sr.total_beeps = 0;
        for (std::uint32_t v = shard.owned_begin; v < owned_end; ++v) {
            if ((*states)[v] == NodeState::jammer) {
                sr.total_beeps += 2 * b;
            } else if ((*states)[v] == NodeState::correct) {
                sr.total_beeps +=
                    round.codewords[v].count() + round.combined_schedules[v].count();
            }
        }
    }
}

void BeepTransport::simulate_rounds_into(std::span<const RoundSpec> specs,
                                         TransportBatch& batch) const {
    const std::size_t n = graph_.node_count();
    for (const auto& spec : specs) {
        require(spec.messages != nullptr, "BeepTransport::simulate_rounds_into: null messages");
        require(spec.messages->size() == n, "BeepTransport: one message slot per node");
    }

    if (batch.scratch_ == nullptr) {
        batch.scratch_ = std::make_shared<TransportBatch::Scratch>();
    }
    TransportBatch::Scratch& scratch = *batch.scratch_;
    const std::size_t workers = pool_->worker_count();
    const std::size_t k = shards_.size();
    batch.prepare(specs.size(), n, params_.message_bits, workers);
    if (scratch.workspaces.size() < workers) {
        scratch.workspaces.resize(workers);
    }
    if (scratch.shards.size() < k) {
        scratch.shards.resize(k);
    }
    scratch.table.resize(table_words_);
    if (specs.empty()) {
        return;
    }
    for (const auto& spec : specs) {
        if (spec.faults != nullptr) {
            // Fail fast on bad fault ids before any decoding starts.
            transport_detail::build_node_states_into(scratch.states, n, *spec.faults);
        }
    }

    static const FaultModel no_faults{};
    RoundJob job{*this, batch, simd::resolve_kernel(params_.simd_kernel)};
    const std::size_t b = codebook().beep_length();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // Round boundary: a sweep job past its watchdog deadline (or an
        // explicitly cancelled one) unwinds here rather than finishing the
        // whole batch.
        cancel_poll();
        job.spec = &specs[i];
        job.faults = specs[i].faults != nullptr ? specs[i].faults : &no_faults;
        job.round_index = i;
        transport_detail::build_node_states_into(scratch.states, n, *job.faults);

        pool_->parallel_for(k, [&job](std::size_t, std::size_t s) { job.build(s); });
        if (k > 1) {
            // The exchange seam: in a distributed deployment this is where
            // the boundary table crosses the network. Checked once per round
            // on the coordinator, so injected faults hit deterministically
            // regardless of shard and worker counts.
            fp_shard_exchange.check();
        }
        // Size every worker's scratch for any node of any shard, so a warm
        // batch allocates nothing whichever nodes each worker claims.
        for (std::size_t s = 0; s < k; ++s) {
            for (std::size_t w = 0; w < workers; ++w) {
                transport_detail::reserve_workspace(codebook(s), scratch.shards[s].round,
                                                    batch.message_words(), scratch.workspaces[w]);
            }
        }
        pool_->parallel_for(k, [&job](std::size_t, std::size_t s) { job.decode(s); });

        // Deterministic reduction in shard order, then local order: totals
        // are independent of thread schedule, shard count and worker count.
        TransportRoundStats& stats = batch.stats_[i];
        stats.beep_rounds = 2 * b;
        for (std::size_t s = 0; s < k; ++s) {
            const ShardScratch& sr = scratch.shards[s];
            stats.total_beeps += sr.total_beeps;
            for (const auto& diag : sr.diagnostics) {
                stats.phase1_false_negatives += diag.phase1_false_negatives;
                stats.phase1_false_positives += diag.phase1_false_positives;
                stats.phase2_errors += diag.phase2_errors;
                stats.delivery_mismatches += diag.delivery_mismatches;
            }
        }
        stats.perfect = stats.delivery_mismatches == 0;
    }
    // Which worker claims which nodes is up to the scheduler, so any worker
    // may take more of the next batch's records than it took of this one's.
    // Level every arena now, outside the next batch, to hold all of them.
    batch.level_arenas();
}

}  // namespace nb
