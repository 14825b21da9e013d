#include "sim/transport.h"

#include "beep/batch_engine.h"
#include "common/cancel.h"
#include "common/error.h"
#include "sim/decode_core.h"

namespace nb {

using transport_detail::DecodeContext;
using transport_detail::DecodeWorkspace;
using transport_detail::NodeState;
using transport_detail::build_node_states_into;

TransportRound Transport::simulate_round(
    const std::vector<std::optional<Bitstring>>& messages, std::uint64_t round_nonce) const {
    const RoundSpec spec{&messages, round_nonce, nullptr};
    return std::move(simulate_rounds({&spec, 1}).front());
}

BeepTransport::BeepTransport(const Graph& graph, SimulationParams params)
    : graph_(graph), params_(params) {
    params_.validate();
    if (params_.shared_codebook) {
        // The cached build owns its own graph copy (structurally equal to
        // graph_, enforced by the cache key), so eviction or this
        // transport's death never dangles anything.
        shared_codebook_ = CodebookCache::instance().acquire(graph_, params_);
        codebook_ = &shared_codebook_->codebook();
    } else {
        owned_codebook_ = std::make_unique<Codebook>(graph_, params_);
        codebook_ = owned_codebook_.get();
    }
    pool_ = std::make_unique<ThreadPool>(
        ThreadPool::worker_count_for(params_.threads, graph_.node_count()));
}

std::size_t BeepTransport::rounds_per_broadcast_round() const {
    return params_.rounds_per_broadcast_round(graph_.max_degree());
}

TransportRound BeepTransport::simulate_round(
    const std::vector<std::optional<Bitstring>>& messages, std::uint64_t round_nonce,
    const FaultModel& faults) const {
    const RoundSpec spec{&messages, round_nonce, &faults};
    return std::move(simulate_rounds({&spec, 1}).front());
}

std::vector<TransportRound> BeepTransport::simulate_rounds(
    std::span<const RoundSpec> specs) const {
    // The compatibility bridge: decode into a throwaway batch, then convert
    // each round to the owning TransportRound shape. Callers that care about
    // allocation rates use simulate_rounds_into with a reused batch.
    TransportBatch batch;
    simulate_rounds_into(specs, batch);
    std::vector<TransportRound> results;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results.push_back(batch.to_round(i));
    }
    return results;
}

void BeepTransport::simulate_rounds_into(std::span<const RoundSpec> specs,
                                         TransportBatch& batch) const {
    const std::size_t n = graph_.node_count();
    for (const auto& spec : specs) {
        require(spec.messages != nullptr, "BeepTransport::simulate_rounds: null messages");
        require(spec.messages->size() == n, "BeepTransport: one message slot per node");
    }

    if (batch.scratch_ == nullptr) {
        batch.scratch_ = std::make_shared<TransportBatch::Scratch>();
    }
    batch.prepare(specs.size(), n, params_.message_bits, pool_->worker_count());
    if (batch.scratch_->workspaces.size() < pool_->worker_count()) {
        batch.scratch_->workspaces.resize(pool_->worker_count());
    }
    if (specs.empty()) {
        return;
    }
    for (const auto& spec : specs) {
        if (spec.faults != nullptr) {
            // Fail fast on bad fault ids before any decoding starts.
            build_node_states_into(batch.scratch_->states, n, *spec.faults);
        }
    }

    // Build, then decode, each round on the pool. Round boundary: a sweep
    // job past its watchdog deadline (or an explicitly cancelled one)
    // unwinds here rather than finishing the whole batch.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        cancel_poll();
        const std::shared_ptr<const Codebook::Round> round =
            codebook_->round(*specs[i].messages, specs[i].nonce, pool_.get());
        decode_round_into(*round, specs[i], i, batch);
    }
    // Which worker claims which nodes is up to the scheduler, so any worker
    // may take more of the next batch's records than it took of this one's.
    // Level every arena now, outside the next batch, to hold all of them.
    batch.level_arenas();
}

void BeepTransport::decode_round_into(const Codebook::Round& round, const RoundSpec& spec,
                                      std::size_t round_index, TransportBatch& batch) const {
    const std::size_t n = graph_.node_count();
    TransportBatch::Scratch& scratch = *batch.scratch_;
    static const FaultModel no_faults{};
    const FaultModel& faults = spec.faults != nullptr ? *spec.faults : no_faults;

    build_node_states_into(scratch.states, n, faults);
    const std::size_t b = codebook_->beep_length();

    // Phase schedules: the cached fault-free ones (codewords and combined
    // codewords) unless faults force per-node overrides — jammers transmit
    // all-ones, crashed nodes all-zeros, in both phases. The decoding
    // dictionary stays the cached codewords: decoders have no fault
    // knowledge. The override vectors are batch scratch: element-wise
    // copy-assignment reuses each Bitstring's word storage once warm.
    const std::vector<Bitstring>* phase1_schedules = &round.codewords;
    const std::vector<Bitstring>* phase2_schedules = &round.combined_schedules;
    if (!faults.empty()) {
        scratch.faulty_phase1 = round.codewords;
        scratch.faulty_phase2 = round.combined_schedules;
        for (NodeId v = 0; v < n; ++v) {
            if (scratch.states[v] == NodeState::jammer) {
                scratch.faulty_phase1[v] = ~Bitstring(b);
                scratch.faulty_phase2[v] = ~Bitstring(b);
            } else if (scratch.states[v] == NodeState::crashed) {
                scratch.faulty_phase1[v] = Bitstring(b);
                scratch.faulty_phase2[v] = Bitstring(b);
            }
        }
        phase1_schedules = &scratch.faulty_phase1;
        phase2_schedules = &scratch.faulty_phase2;
    }

    // The physical channel: iid(params_.epsilon) by default, or whatever
    // ChannelModel the params carry. Decoder thresholds below keep using the
    // design epsilon regardless of the physical model.
    const BatchParams channel{params_.channel_model(), false};
    const BatchEngine phase1_engine(graph_, channel, round.rng.derive(0x70683161u));
    const BatchEngine phase2_engine(graph_, channel, round.rng.derive(0x70683262u));
    // Schedule sets are validated once per round here, not once per node
    // inside hear_into — that revalidation made decoding O(n^2) in require
    // checks.
    phase1_engine.check_schedules(*phase1_schedules);
    phase2_engine.check_schedules(*phase2_schedules);

    TransportRoundStats& stats = batch.stats_[round_index];
    stats.beep_rounds = 2 * b;
    stats.total_beeps =
        faults.empty() ? round.phase1_beeps + round.phase2_beeps
                       : BatchEngine::total_beeps(*phase1_schedules) +
                             BatchEngine::total_beeps(*phase2_schedules);

    const Phase1Decoder phase1_decoder(codebook_->beep_code(), params_.epsilon);

    scratch.diagnostics.assign(n, transport_detail::NodeDiagnostics{});

    DecodeContext ctx;
    ctx.graph = &graph_;
    ctx.codebook = codebook_;
    ctx.round = &round;
    ctx.codewords = &round.codewords;
    ctx.one_positions = &round.one_positions;
    ctx.messages = spec.messages;
    ctx.phase1_schedules = phase1_schedules;
    ctx.phase2_schedules = phase2_schedules;
    ctx.phase1_engine = &phase1_engine;
    ctx.phase2_engine = &phase2_engine;
    ctx.phase1_decoder = &phase1_decoder;
    ctx.distance_code = &codebook_->distance_code();
    ctx.batch = &batch;
    ctx.workspaces = &scratch.workspaces;
    ctx.states = &scratch.states;
    ctx.diagnostics = &scratch.diagnostics;
    ctx.round_index = round_index;
    ctx.n = n;
    ctx.decoy_count = codebook_->decoy_count();
    ctx.bitsliced = !round.codeword_slices.empty();
    // Resolved once per round: what params_.simd_kernel actually runs as on
    // this build/CPU (auto_best defers to NB_SIMD_KERNEL, then detection).
    ctx.kernel = simd::resolve_kernel(params_.simd_kernel);

    // Size every worker's scratch for any node of this round before the
    // loop, so a warm batch allocates nothing whichever nodes each worker
    // ends up claiming.
    for (std::size_t worker = 0; worker < pool_->worker_count(); ++worker) {
        transport_detail::reserve_workspace(ctx, scratch.workspaces[worker]);
    }
    pool_->parallel_for(n, [&ctx](std::size_t worker, std::size_t node) {
        transport_detail::decode_node(ctx, worker, static_cast<NodeId>(node));
    });

    for (const auto& diag : scratch.diagnostics) {
        stats.phase1_false_negatives += diag.phase1_false_negatives;
        stats.phase1_false_positives += diag.phase1_false_positives;
        stats.phase2_errors += diag.phase2_errors;
        stats.delivery_mismatches += diag.delivery_mismatches;
    }
    stats.perfect = stats.delivery_mismatches == 0;
}

}  // namespace nb
