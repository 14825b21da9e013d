#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "report.h"

namespace nbbench {

namespace {

constexpr std::uint64_t kGraphStream = 0x6772617068;   // "graph"
constexpr std::uint64_t kMessageStream = 0x6d7367;     // "msg"
constexpr std::uint64_t kTransportStream = 0x74726e;   // "trn"

std::vector<SimWorkload> all_workloads() {
    std::vector<SimWorkload> all;
    {
        SimWorkload w;
        w.name = "two_hop_rr16k";
        w.n = 16384;
        w.degree = 8;
        w.epsilon = 0.1;
        w.message_bits = nb::ceil_log2(w.n);
        w.decoys = 32;
        w.dictionary = nb::DictionaryPolicy::two_hop;
        w.batch_rounds = 4;
        w.setups = 9;
        all.push_back(w);
    }
    {
        SimWorkload w;
        w.name = "all_nodes_rr1024";
        w.n = 1024;
        w.degree = 8;
        w.epsilon = 0.1;
        w.message_bits = nb::ceil_log2(w.n);
        w.decoys = 32;
        w.dictionary = nb::DictionaryPolicy::all_nodes;
        w.batch_rounds = 8;
        w.setups = 41;
        all.push_back(w);
    }
    {
        // The demo-shard-* registry parameters at n = 2^16, except B = 4:
        // at the demos' B = 2 the 48-bit distance code mis-decodes often
        // enough that about one round in six fails somewhere in 65536
        // nodes, and a benchmark workload must not fail.
        SimWorkload w;
        w.name = "ring64k_sharded";
        w.ring = true;
        w.n = 65536;
        w.degree = 2;
        w.epsilon = 0.05;
        w.message_bits = 4;
        w.decoys = 8;
        w.dictionary = nb::DictionaryPolicy::two_hop;
        w.shards = 4;
        w.batch_rounds = 4;
        w.setups = 15;
        all.push_back(w);
    }
    return all;
}

}  // namespace

std::optional<SimWorkload> find_sim_workload(std::string_view name, bool toy) {
    for (auto w : all_workloads()) {
        if (w.name != name) {
            continue;
        }
        if (toy) {
            // Small enough for the smoke test, large enough that every code
            // path of the full workload still runs (all_nodes stays above
            // the bitslice crossover of 512 candidates).
            w.n = w.ring ? 4096 : (w.dictionary == nb::DictionaryPolicy::all_nodes ? 640 : 512);
            if (!w.ring) {
                w.message_bits = nb::ceil_log2(w.n);
            }
            w.batch_rounds = std::min<std::size_t>(w.batch_rounds, 2);
            w.setups = 2;
        }
        return w;
    }
    return std::nullopt;
}

nb::Graph make_graph(const SimWorkload& w, std::uint64_t seed) {
    if (w.ring) {
        return nb::make_ring(w.n);
    }
    nb::Rng rng(mix(seed, kGraphStream));
    return nb::make_random_regular(w.n, w.degree, rng);
}

std::vector<std::optional<nb::Bitstring>> make_messages(const SimWorkload& w,
                                                        const nb::Graph& graph,
                                                        std::uint64_t seed) {
    nb::Rng rng(mix(seed, kMessageStream));
    std::vector<std::optional<nb::Bitstring>> messages(graph.node_count());
    for (auto& message : messages) {
        message = nb::Bitstring::random(rng, w.message_bits);
    }
    return messages;
}

nb::SimulationParams make_params(const SimWorkload& w, std::uint64_t seed,
                                 std::size_t threads) {
    nb::SimulationParams params;
    params.epsilon = w.epsilon;
    params.message_bits = w.message_bits;
    params.c_eps = w.c_eps;
    params.decoy_count = w.decoys;
    params.dictionary = w.dictionary;
    params.transport_seed = mix(seed, kTransportStream);
    params.threads = threads;
    return params;
}

SimTransport::SimTransport(const SimWorkload& w, const nb::Graph& graph,
                           const nb::SimulationParams& params) {
    if (w.shards > 1) {
        sharded_ = std::make_unique<nb::ShardedTransport>(graph, params, w.shards);
    } else {
        beep_ = std::make_unique<nb::BeepTransport>(graph, params);
    }
}

void SimTransport::run(std::span<const nb::RoundSpec> specs, nb::TransportBatch& batch) const {
    if (sharded_ != nullptr) {
        sharded_->simulate_rounds_into(specs, batch);
    } else {
        beep_->simulate_rounds_into(specs, batch);
    }
}

std::uint64_t message_word(const nb::Bitstring& message) {
    nb::require(message.size() <= 64, "perfbench: messages must fit one word");
    return message.words().empty() ? 0 : message.words()[0];
}

RoundChecker::RoundChecker(const nb::Graph& graph,
                           const std::vector<std::optional<nb::Bitstring>>& messages,
                           std::size_t digest_rounds)
    : graph_(graph), messages_(messages), digest_rounds_(digest_rounds) {}

bool RoundChecker::check(const nb::TransportBatch& batch, std::size_t index,
                         std::uint64_t round) {
    nb::require(batch.message_words() == 1, "perfbench: messages must fit one word");
    const bool digesting = round < digest_rounds_;
    if (digesting) {
        digest_ = mix(digest_, round);
    }
    bool ok = true;
    for (nb::NodeId v = 0; v < graph_.node_count(); ++v) {
        expected_.clear();
        for (const auto u : graph_.neighbors(v)) {
            if (messages_[u].has_value()) {
                expected_.push_back(message_word(*messages_[u]));
            }
        }
        const std::size_t count = batch.delivered_count(index, v);
        delivered_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            delivered_.push_back(batch.delivered_words(index, v, i)[0]);
        }
        if (digesting) {
            // Delivery order is part of the transport's contract (sorted by
            // message_less), so the digest folds the records as delivered.
            digest_ = mix(digest_, count);
            for (const auto word : delivered_) {
                digest_ = mix(digest_, word);
            }
        }
        std::sort(expected_.begin(), expected_.end());
        std::sort(delivered_.begin(), delivered_.end());
        ok = ok && expected_ == delivered_;
    }
    return ok;
}

std::string RoundChecker::digest_hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(digest_));
    return buffer;
}

}  // namespace nbbench
