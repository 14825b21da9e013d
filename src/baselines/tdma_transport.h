// Prior-work baseline: G^2-coloring TDMA simulation of Broadcast CONGEST.
//
// Mechanism of Beauquier et al. [7] and Ashkenazi-Gelles-Leshem [4]
// (paper Section 1.4): color G^2 so nodes within two hops differ, then
// iterate over color classes; when class c transmits, every listener has at
// most one beeping neighbor and hears its message bits verbatim. Against
// noise, each bit is repeated `repetitions` times and majority-decoded
// (repetitions = Theta(log n) gives per-bit error n^-Theta(1)).
//
// Per Broadcast CONGEST round this costs
//     #colors * (message_bits + 1) * repetitions
// beep rounds with #colors <= min{n, Delta^2 + 1} — the Theta(min{n,
// Delta^2}) overhead gap to Algorithm 1 that the paper eliminates.
//
// The coloring itself is computed centrally, standing in for the
// baselines' distributed setup phases (Delta^6 rounds in [7], O(Delta^4
// log n) in [4]); setup costs are charged via baselines/cost_models.h. It is
// a pure function of the graph, so every transport takes it from the
// process-wide CodebookCache (sim/codebook_cache.h), which computes it once
// per graph.
//
// simulate_rounds_into writes BeepTransport's record format into the
// caller's TransportBatch and keeps the packed schedules and per-worker
// heard buffers in its scratch, so a reused batch decodes without allocating.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "beep/channel_model.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "sim/transport.h"

namespace nb {

struct TdmaParams {
    double epsilon = 0.0;          ///< design noise rate (sizes repetitions)
    std::size_t message_bits = 16; ///< algorithm message budget B
    std::size_t repetitions = 1;   ///< per-bit repetitions (majority decode)
    std::uint64_t transport_seed = 0x74646d61u;
    std::size_t threads = 0;       ///< decode workers (0 = every available core)

    /// Physical channel process; nullopt = iid(epsilon), exactly as before.
    /// Like SimulationParams, a non-iid model leaves `epsilon` as the design
    /// rate the majority-decode repetitions are sized for.
    std::optional<ChannelModel> channel;

    /// The effective channel driven through BatchEngine.
    ChannelModel channel_model() const {
        return channel.has_value() ? *channel : ChannelModel::iid(epsilon);
    }

    /// Repetitions giving w.h.p. decoding for a given n and epsilon:
    /// ceil(kappa * log2 n) with kappa scaled by the noise margin.
    static std::size_t recommended_repetitions(std::size_t node_count, double epsilon);
};

class TdmaTransport final : public Transport {
public:
    /// The graph must outlive the transport. Takes the greedy G^2 coloring
    /// from the CodebookCache at construction.
    TdmaTransport(const Graph& graph, TdmaParams params);

    /// TDMA rounds into `batch` (specs must carry no FaultModel — the
    /// baseline does not model faults). Deliveries are the same fixed-stride
    /// records and counters BeepTransport writes. The packed schedules and
    /// the per-worker heard buffers live in the batch's scratch; schedules
    /// are packed again only when a spec's messages pointer differs from the
    /// previous spec's in the same call.
    void simulate_rounds_into(std::span<const RoundSpec> specs,
                              TransportBatch& batch) const override;

    std::size_t rounds_per_broadcast_round() const override;

    const Graph& graph() const noexcept override { return graph_; }

    std::size_t color_count() const noexcept { return color_count_; }
    /// The G^2 coloring the slot schedule is built from (one color per node).
    const std::vector<std::size_t>& colors() const noexcept { return colors_; }
    const TdmaParams& params() const noexcept { return params_; }

private:
    /// One call's packing and decode steps (defined in tdma_transport.cpp).
    struct RoundJob;

    const Graph& graph_;
    TdmaParams params_;
    std::vector<std::size_t> colors_;
    std::size_t color_count_ = 0;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace nb
