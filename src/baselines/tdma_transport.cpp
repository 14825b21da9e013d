#include "baselines/tdma_transport.h"

#include <algorithm>
#include <cmath>

#include "beep/batch_engine.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/math_util.h"
#include "congest/algorithm.h"
#include "graph/algorithms.h"
#include "sim/codebook_cache.h"
#include "sim/decode_core.h"

namespace nb {

std::size_t TdmaParams::recommended_repetitions(std::size_t node_count, double epsilon) {
    if (epsilon <= 0.0) {
        return 1;
    }
    // Majority over rho repetitions fails with probability
    // exp(-rho * (1/2 - eps)^2 / 2); choose rho so this is ~ n^-3, and make
    // it odd so majorities are never tied.
    const double margin = 0.5 - epsilon;
    const double needed =
        6.0 * std::log(std::max<double>(4.0, static_cast<double>(node_count))) /
        (margin * margin);
    auto rho = static_cast<std::size_t>(std::ceil(needed));
    if (rho % 2 == 0) {
        ++rho;
    }
    return rho;
}

TdmaTransport::TdmaTransport(const Graph& graph, TdmaParams params)
    : graph_(graph), params_(params) {
    require(params_.epsilon >= 0.0 && params_.epsilon < 0.5,
            "TdmaTransport: epsilon must be in [0, 1/2)");
    require(params_.message_bits >= 1, "TdmaTransport: message_bits must be >= 1");
    require(params_.repetitions >= 1, "TdmaTransport: repetitions must be >= 1");
    if (params_.channel.has_value()) {
        params_.channel->validate();
        require(params_.channel->noise_on_own_beep,
                "TdmaTransport: transports require noise_on_own_beep");
    }
    colors_ = CodebookCache::instance().coloring(graph_);
    color_count_ = graph_.node_count() == 0 ? 0 : nb::color_count(colors_);
    pool_ = std::make_unique<ThreadPool>(
        ThreadPool::worker_count_for(params_.threads, graph_.node_count()));
}

std::size_t TdmaTransport::rounds_per_broadcast_round() const {
    // One slot of (message_bits + 1 presence bit) * repetitions per color.
    return color_count_ * (params_.message_bits + 1) * params_.repetitions;
}

/// What one round's decode loop reads; the closure captures only a
/// reference to it, so std::function needs no per-round allocation.
struct TdmaTransport::RoundJob {
    const TdmaTransport& transport;
    TransportBatch& batch;
    const std::vector<std::optional<Bitstring>>* messages = nullptr;
    const BatchEngine* engine = nullptr;
    std::size_t round_index = 0;

    /// Rewrite the scratch's slot schedules and zero-padded messages for
    /// `messages` in place (slots are fixed by the coloring).
    void pack() const;

    /// Majority-decode one message per neighbor of v from that neighbor's
    /// color slot into `worker`'s arena, and flag a wrong delivery.
    void decode(std::size_t worker, NodeId v) const;
};

void TdmaTransport::RoundJob::pack() const {
    const TdmaParams& params = transport.params_;
    const std::size_t n = transport.graph_.node_count();
    const std::size_t slot_bits = (params.message_bits + 1) * params.repetitions;
    const std::size_t total_bits = transport.rounds_per_broadcast_round();
    std::vector<Bitstring>& schedules = batch.scratch_->tdma_schedules;
    std::vector<Bitstring>& padded = batch.scratch_->tdma_padded;

    // Node v transmits its payload (presence bit, then message bits), each
    // bit repeated, inside its color's slot.
    schedules.resize(n);
    padded.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        const std::optional<Bitstring>& message = (*messages)[v];
        Bitstring& schedule = schedules[v];
        schedule.reset(total_bits);
        padded[v].reset(params.message_bits);
        if (message.has_value()) {
            require(message->size() <= params.message_bits,
                    "TdmaTransport: message exceeds the bit budget");
            const std::size_t base = transport.colors_[v] * slot_bits;
            auto write_bit = [&](std::size_t bit_index, bool value) {
                if (value) {
                    for (std::size_t rep = 0; rep < params.repetitions; ++rep) {
                        schedule.set(base + bit_index * params.repetitions + rep);
                    }
                }
            };
            write_bit(0, true);  // presence
            for (std::size_t i = 0; i < message->size(); ++i) {
                write_bit(1 + i, message->test(i));
            }
            message->for_each_one([&padded, v](std::size_t i) { padded[v].set(i); });
        }
    }
}

void TdmaTransport::RoundJob::decode(std::size_t worker, NodeId v) const {
    const TdmaParams& params = transport.params_;
    TransportBatch::Scratch& scratch = *batch.scratch_;
    transport_detail::DecodeWorkspace& ws = scratch.workspaces[worker];
    engine->hear_into(v, scratch.tdma_schedules, ws.heard1);

    const std::size_t slot_bits = (params.message_bits + 1) * params.repetitions;
    const std::size_t majority = params.repetitions / 2 + 1;
    const std::size_t stride = batch.message_words();
    std::uint64_t run_start = 0;
    std::uint32_t run_count = 0;
    for (const auto u : transport.graph_.neighbors(v)) {
        const std::size_t base = transport.colors_[u] * slot_bits;
        auto read_bit = [&](std::size_t bit_index) {
            std::size_t ones = 0;
            for (std::size_t rep = 0; rep < params.repetitions; ++rep) {
                if (ws.heard1.test(base + bit_index * params.repetitions + rep)) {
                    ++ones;
                }
            }
            return ones >= majority;
        };
        if (!read_bit(0)) {
            continue;  // no presence: neighbor was silent
        }
        const std::uint64_t offset = batch.push_record(worker);
        if (run_count == 0) {
            run_start = offset;
        }
        std::uint64_t* record = batch.record_at(worker, offset);
        std::fill_n(record, stride, std::uint64_t{0});
        for (std::size_t i = 0; i < params.message_bits; ++i) {
            if (read_bit(1 + i)) {
                record[i / 64] |= std::uint64_t{1} << (i % 64);
            }
        }
        ++run_count;
    }
    batch.commit_node(round_index, v, worker, run_start, run_count, ws.sort_tmp);

    ws.expected.clear();
    for (const auto u : transport.graph_.neighbors(v)) {
        if ((*messages)[u].has_value()) {
            ws.expected.push_back(&scratch.tdma_padded[u]);
        }
    }
    scratch.tdma_mismatch[v] =
        transport_detail::delivery_matches(batch, round_index, v, ws.expected) ? 0 : 1;
}

void TdmaTransport::simulate_rounds_into(std::span<const RoundSpec> specs,
                                         TransportBatch& batch) const {
    const std::size_t n = graph_.node_count();
    for (const auto& spec : specs) {
        require(spec.messages != nullptr, "TdmaTransport::simulate_rounds_into: null messages");
        require(spec.messages->size() == n, "TdmaTransport: one message slot per node");
        require(spec.faults == nullptr || spec.faults->empty(),
                "TdmaTransport: fault injection is not supported");
    }

    if (batch.scratch_ == nullptr) {
        batch.scratch_ = std::make_shared<TransportBatch::Scratch>();
    }
    TransportBatch::Scratch& scratch = *batch.scratch_;
    const std::size_t workers = pool_->worker_count();
    batch.prepare(specs.size(), n, params_.message_bits, workers);
    if (scratch.workspaces.size() < workers) {
        scratch.workspaces.resize(workers);
    }
    for (auto& ws : scratch.workspaces) {
        ws.expected.reserve(graph_.max_degree());
        ws.sort_tmp.reserve(batch.message_words());
    }
    scratch.tdma_mismatch.resize(n);

    // Schedules depend only on the messages, and RoundSpec's pointee stays
    // alive and unchanged for the whole call: a run of specs sharing one
    // messages vector packs once.
    std::size_t total_beeps = 0;
    const std::vector<std::optional<Bitstring>>* packed = nullptr;
    const BatchParams channel{params_.channel_model(), false};
    RoundJob job{*this, batch};
    for (std::size_t i = 0; i < specs.size(); ++i) {
        cancel_poll();  // round boundary, same contract as BeepTransport
        const RoundSpec& spec = specs[i];
        job.messages = spec.messages;
        if (spec.messages != packed) {
            job.pack();
            total_beeps = BatchEngine::total_beeps(scratch.tdma_schedules);
            packed = spec.messages;
        }
        const Rng round_rng = Rng(params_.transport_seed).derive(0x726f756eu, spec.nonce);
        const BatchEngine engine(graph_, channel, round_rng);
        engine.check_schedules(scratch.tdma_schedules);  // once per round, not per node

        job.engine = &engine;
        job.round_index = i;
        pool_->parallel_for(n, [&job](std::size_t worker, std::size_t v) {
            job.decode(worker, static_cast<NodeId>(v));
        });

        TransportRoundStats& stats = batch.stats_[i];
        stats.beep_rounds = rounds_per_broadcast_round();
        stats.total_beeps = total_beeps;
        for (const auto mismatch : scratch.tdma_mismatch) {
            stats.delivery_mismatches += mismatch;
        }
        stats.perfect = stats.delivery_mismatches == 0;
    }
    batch.level_arenas();
}

}  // namespace nb
