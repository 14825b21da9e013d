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

void TdmaTransport::pack_schedules(const std::vector<std::optional<Bitstring>>& messages,
                                   std::vector<Bitstring>& schedules) const {
    const std::size_t n = graph_.node_count();
    const std::size_t payload_bits = params_.message_bits + 1;
    const std::size_t slot_bits = payload_bits * params_.repetitions;
    const std::size_t total_bits = rounds_per_broadcast_round();

    // Node v transmits its payload (presence bit, then message bits), each
    // bit repeated, inside its color's slot.
    schedules.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        Bitstring& schedule = schedules[v];
        schedule.reset(total_bits);
        if (messages[v].has_value()) {
            require(messages[v]->size() <= params_.message_bits,
                    "TdmaTransport: message exceeds the bit budget");
            const std::size_t base = colors_[v] * slot_bits;
            auto write_bit = [&](std::size_t bit_index, bool value) {
                if (value) {
                    for (std::size_t rep = 0; rep < params_.repetitions; ++rep) {
                        schedule.set(base + bit_index * params_.repetitions + rep);
                    }
                }
            };
            write_bit(0, true);  // presence
            for (std::size_t i = 0; i < messages[v]->size(); ++i) {
                write_bit(1 + i, messages[v]->test(i));
            }
        }
    }
}

std::vector<TransportRound> TdmaTransport::simulate_rounds(
    std::span<const RoundSpec> specs) const {
    const std::size_t n = graph_.node_count();
    for (const auto& spec : specs) {
        require(spec.messages != nullptr, "TdmaTransport::simulate_rounds: null messages");
        require(spec.messages->size() == n, "TdmaTransport: one message slot per node");
        require(spec.faults == nullptr || spec.faults->empty(),
                "TdmaTransport: fault injection is not supported");
    }

    std::vector<TransportRound> results;
    results.reserve(specs.size());
    // Decode buffers are per batch: sized on the first round, reused by all.
    std::vector<Bitstring> heard_buffers(pool_->worker_count());
    // Schedules depend only on the messages, and RoundSpec's pointee stays
    // alive and unchanged for the whole call: a run of specs sharing one
    // messages vector packs once.
    std::vector<Bitstring> schedules;
    std::size_t total_beeps = 0;
    const std::vector<std::optional<Bitstring>>* packed = nullptr;
    for (const auto& spec : specs) {
        cancel_poll();  // round boundary, same contract as BeepTransport
        if (spec.messages != packed) {
            pack_schedules(*spec.messages, schedules);
            total_beeps = BatchEngine::total_beeps(schedules);
            packed = spec.messages;
        }
        results.push_back(
            decode_round(schedules, total_beeps, *spec.messages, spec.nonce, heard_buffers));
    }
    return results;
}

TransportRound TdmaTransport::decode_round(const std::vector<Bitstring>& schedules,
                                           std::size_t total_beeps,
                                           const std::vector<std::optional<Bitstring>>& messages,
                                           std::uint64_t round_nonce,
                                           std::vector<Bitstring>& heard_buffers) const {
    const std::size_t n = graph_.node_count();
    const std::size_t payload_bits = params_.message_bits + 1;
    const std::size_t slot_bits = payload_bits * params_.repetitions;

    const Rng round_rng = Rng(params_.transport_seed).derive(0x726f756eu, round_nonce);
    const BatchParams channel{params_.channel_model(), false};
    const BatchEngine engine(graph_, channel, round_rng);
    engine.check_schedules(schedules);  // once per round, not per node

    TransportRound result;
    result.beep_rounds = rounds_per_broadcast_round();
    result.total_beeps = total_beeps;
    result.delivered.resize(n);

    const std::size_t majority = params_.repetitions / 2 + 1;
    std::vector<std::size_t> mismatches(n, 0);
    pool_->parallel_for(n, [&](std::size_t worker, std::size_t node) {
        const auto v = static_cast<NodeId>(node);
        Bitstring& heard = heard_buffers[worker];
        engine.hear_into(v, schedules, heard);
        // Decode one message per neighbor from that neighbor's color slot
        // (the setup coloring tells v when each neighbor transmits).
        for (const auto u : graph_.neighbors(v)) {
            const std::size_t base = colors_[u] * slot_bits;
            auto read_bit = [&](std::size_t bit_index) {
                std::size_t ones = 0;
                for (std::size_t rep = 0; rep < params_.repetitions; ++rep) {
                    if (heard.test(base + bit_index * params_.repetitions + rep)) {
                        ++ones;
                    }
                }
                return ones >= majority;
            };
            if (!read_bit(0)) {
                continue;  // no presence: neighbor was silent
            }
            Bitstring message(params_.message_bits);
            for (std::size_t i = 0; i < params_.message_bits; ++i) {
                if (read_bit(1 + i)) {
                    message.set(i);
                }
            }
            result.delivered[v].push_back(std::move(message));
        }
        sort_messages(result.delivered[v]);

        std::vector<Bitstring> expected;
        for (const auto u : graph_.neighbors(v)) {
            if (messages[u].has_value()) {
                Bitstring padded(params_.message_bits);
                messages[u]->for_each_one([&padded](std::size_t i) { padded.set(i); });
                expected.push_back(std::move(padded));
            }
        }
        sort_messages(expected);
        if (expected != result.delivered[v]) {
            mismatches[v] = 1;
        }
    });
    for (const auto mismatch : mismatches) {
        result.delivery_mismatches += mismatch;
    }
    result.perfect = result.delivery_mismatches == 0;
    return result;
}

}  // namespace nb
