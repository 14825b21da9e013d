// The benchmark's simulation workloads and the pieces the timed and traced
// binaries share: input generation from the workload seed, transport
// construction, and the per-round correctness check (ground truth plus the
// deliveries digest pinned in perfbench/golden.json).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitstring.h"
#include "graph/graph.h"
#include "sim/params.h"
#include "sim/sharded_transport.h"
#include "sim/transport.h"

namespace nbbench {

struct SimWorkload {
    std::string name;
    bool ring = false;           ///< ring(n), else random_regular(n, degree)
    std::size_t n = 0;
    std::size_t degree = 0;
    double epsilon = 0.0;        ///< iid channel; also the decoder's design epsilon
    std::size_t c_eps = 4;
    std::size_t message_bits = 0;
    std::size_t decoys = 32;
    nb::DictionaryPolicy dictionary = nb::DictionaryPolicy::two_hop;
    std::size_t shards = 1;      ///< > 1: ShardedTransport
    std::size_t batch_rounds = 1;  ///< rounds per timed simulate_rounds_into call
    std::size_t setups = 7;      ///< cold set-ups per run (setup_s is their median)
};

/// The workload called `name` (nullopt if none); `toy` shrinks it to a size
/// the smoke test runs in about a second.
std::optional<SimWorkload> find_sim_workload(std::string_view name, bool toy);

/// Everything a run derives from (workload, seed).
struct SimInputs {
    nb::Graph graph;
    std::vector<std::optional<nb::Bitstring>> messages;
    nb::SimulationParams params;
};

nb::Graph make_graph(const SimWorkload& w, std::uint64_t seed);
std::vector<std::optional<nb::Bitstring>> make_messages(const SimWorkload& w,
                                                        const nb::Graph& graph,
                                                        std::uint64_t seed);
nb::SimulationParams make_params(const SimWorkload& w, std::uint64_t seed,
                                 std::size_t threads);

/// The workload's transport (BeepTransport, or ShardedTransport when
/// shards > 1) behind the one call the binaries make.
class SimTransport {
public:
    SimTransport(const SimWorkload& w, const nb::Graph& graph, const nb::SimulationParams& params);

    void run(std::span<const nb::RoundSpec> specs, nb::TransportBatch& batch) const;

private:
    std::unique_ptr<nb::BeepTransport> beep_;
    std::unique_ptr<nb::ShardedTransport> sharded_;
};

/// Checks each simulated round against ground truth — every node must have
/// delivered exactly the multiset of its neighbours' messages — and folds
/// the deliveries of the first `digest_rounds` rounds into a digest.
class RoundChecker {
public:
    RoundChecker(const nb::Graph& graph, const std::vector<std::optional<nb::Bitstring>>& messages,
                 std::size_t digest_rounds);

    /// Check round `index` of `batch`, which is simulated round `round`.
    /// Returns false if some node's deliveries differ from ground truth.
    bool check(const nb::TransportBatch& batch, std::size_t index, std::uint64_t round);

    std::string digest_hex() const;

private:
    const nb::Graph& graph_;
    const std::vector<std::optional<nb::Bitstring>>& messages_;
    std::size_t digest_rounds_;
    std::uint64_t digest_ = 0;
    std::vector<std::uint64_t> expected_;
    std::vector<std::uint64_t> delivered_;
};

/// The one-word message value a delivery record or message carries (every
/// workload keeps message_bits <= 64).
std::uint64_t message_word(const nb::Bitstring& message);

}  // namespace nbbench
