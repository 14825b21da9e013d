// Theorem 11's loop: one simulate_rounds_into call per CONGEST round on a
// TransportBatch held for the whole run, deliveries handed over in per-node
// inboxes rewritten in place, so rounds after the first allocate nothing.
#include "sim/broadcast_congest_sim.h"

#include <algorithm>

#include "common/error.h"

namespace nb {

BroadcastCongestOverBeeps::BroadcastCongestOverBeeps(const Graph& graph,
                                                     SimulationParams sim_params,
                                                     CongestParams congest_params)
    : owned_(std::make_unique<BeepTransport>(graph, sim_params)),
      transport_(owned_.get()),
      congest_params_(congest_params) {
    require(congest_params_.message_bits == 0 ||
                congest_params_.message_bits <= sim_params.message_bits,
            "BroadcastCongestOverBeeps: congest message budget exceeds transport capacity");
}

BroadcastCongestOverBeeps::BroadcastCongestOverBeeps(const Transport& transport,
                                                     CongestParams congest_params)
    : transport_(&transport), congest_params_(congest_params) {}

SimulatedRunStats BroadcastCongestOverBeeps::run(
    std::vector<std::unique_ptr<BroadcastCongestAlgorithm>>& nodes, std::size_t max_rounds) {
    const Graph& graph_ = transport_->graph();
    const std::size_t n = graph_.node_count();
    require(nodes.size() == n, "BroadcastCongestOverBeeps: one algorithm per node");
    for (const auto& node : nodes) {
        require(node != nullptr, "BroadcastCongestOverBeeps: null algorithm");
    }

    std::vector<Rng> streams;
    streams.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
        streams.push_back(algorithm_stream(congest_params_.algorithm_seed, v));
        const CongestInfo info{n, graph_.max_degree(), congest_params_.message_bits,
                               graph_.degree(v)};
        nodes[v]->initialize(v, info, streams[v]);
    }

    SimulatedRunStats stats;
    std::vector<std::optional<Bitstring>> outbox(n);
    std::vector<std::vector<Bitstring>> inbox(n);
    TransportBatch batch;
    for (std::size_t round = 0; round < max_rounds; ++round) {
        bool someone_active = false;
        for (NodeId v = 0; v < n; ++v) {
            outbox[v].reset();
            if (nodes[v]->finished()) {
                continue;
            }
            someone_active = true;
            outbox[v] = nodes[v]->broadcast(round, streams[v]);
        }
        if (!someone_active) {
            stats.all_finished = true;
            break;
        }

        // A one-spec batch: the algorithm loop is inherently sequential
        // (round r+1's messages depend on round r's deliveries). RoundSpec
        // is non-owning; `outbox` is only rewritten after the deliveries
        // have been handed to the algorithms.
        const RoundSpec spec{&outbox, round, nullptr};
        transport_->simulate_rounds_into({&spec, 1}, batch);
        const TransportRoundStats& delivery = batch.stats(0);
        ++stats.congest_rounds;
        stats.beep_rounds += delivery.beep_rounds;
        stats.total_beeps += delivery.total_beeps;
        stats.phase1_false_negatives += delivery.phase1_false_negatives;
        stats.phase1_false_positives += delivery.phase1_false_positives;
        stats.phase2_errors += delivery.phase2_errors;
        if (!delivery.perfect) {
            ++stats.imperfect_rounds;
        }

        for (NodeId v = 0; v < n; ++v) {
            if (nodes[v]->finished()) {
                continue;
            }
            inbox[v].resize(batch.delivered_count(0, v));
            for (std::size_t i = 0; i < inbox[v].size(); ++i) {
                inbox[v][i].assign_words(batch.delivered_words(0, v, i), batch.message_bits());
            }
            nodes[v]->receive(round, inbox[v], streams[v]);
        }
    }

    if (!stats.all_finished) {
        stats.all_finished = std::all_of(nodes.begin(), nodes.end(),
                                         [](const auto& node) { return node->finished(); });
    }
    return stats;
}

}  // namespace nb
