// Declarative scenario layer: topology × channel model × fault schedule ×
// workload × rounds, executed by one runner.
//
// Before this layer, every "what if the channel / topology / faults were X"
// question was a new bench main() with its own graph construction, message
// generation, spec loop, and ad-hoc reporting — 16 copies and counting. A
// ScenarioSpec is the same experiment as data: the registry
// (scenarios/registry.h) ships named specs, the `nb_run` CLI executes them
// and emits one consistent JSON schema, and the sweep benches (E5/E6/E11)
// build their sweep points as specs and run them through the same
// run_scenario() path, so a bench number and an `nb_run` number for the
// same spec are the same number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "beep/channel_model.h"
#include "baselines/tdma_transport.h"
#include "common/bitstring.h"
#include "common/json.h"
#include "graph/graph.h"
#include "sim/params.h"
#include "sim/transport.h"

namespace nb {

/// Which generator builds the scenario's graph, with the union of the
/// generator parameters (unused ones are ignored by build()).
struct TopologySpec {
    enum class Family : unsigned char {
        complete,
        complete_bipartite,
        hard_instance,  ///< the paper's lower-bound instance (Lemma 14)
        ring,
        path,
        star,
        grid,
        tree,
        erdos_renyi,
        random_regular,
        random_geometric,
    };

    Family family = Family::random_regular;
    std::size_t n = 64;            ///< node count (grid: rows*cols wins)
    std::size_t degree = 8;        ///< random_regular d / tree arity /
                                   ///< hard_instance delta / bipartite
                                   ///< left-part size (right = n - degree,
                                   ///< so max degree is max(degree, n-degree))
    double edge_probability = 0.1; ///< erdos_renyi p
    double radius = 0.25;          ///< random_geometric radius
    std::size_t rows = 0;          ///< grid rows (grid requires both set)
    std::size_t cols = 0;          ///< grid cols
    std::uint64_t seed = 1;        ///< randomized generators

    Graph build() const;
    const char* family_name() const noexcept;
    std::string describe() const;
};

/// Per-node broadcast inputs for every simulated round: each node is silent
/// with `silent_fraction` probability, otherwise carries a fresh random
/// message of `message_bits` bits, all drawn from Rng(seed) in node order.
/// With silent_fraction == 0 the draw sequence is exactly the historical
/// benches' "random message per node" loop, so migrated benches reproduce
/// their legacy workloads bit for bit.
struct WorkloadSpec {
    std::size_t message_bits = 16;
    double silent_fraction = 0.0;
    std::uint64_t seed = 1;

    std::vector<std::optional<Bitstring>> build(const Graph& graph) const;
};

/// Fault schedule entry: `faults` are active for every simulated round
/// (nonce) in [first_round, last_round]. Windows are matched in order; the
/// first containing window wins; rounds outside every window are fault-free.
struct FaultWindow {
    FaultModel faults;
    std::size_t first_round = 0;
    std::size_t last_round = std::numeric_limits<std::size_t>::max();
};

enum class TransportKind : unsigned char {
    beep,  ///< Algorithm 1 (BeepTransport)
    tdma,  ///< the prior-work G^2-coloring baseline
};

struct ScenarioSpec {
    std::string name;         ///< registry key; also the JSON "name"
    std::string description;  ///< one line for --list and reports

    TopologySpec topology;
    ChannelModel channel;     ///< physical channel (default: noiseless iid)
    TransportKind transport = TransportKind::beep;
    WorkloadSpec workload;
    std::vector<FaultWindow> faults;
    std::size_t rounds = 4;   ///< simulated Broadcast CONGEST rounds

    /// Decoder design epsilon; a negative value (default) means "derive
    /// from the channel" via ChannelModel::design_epsilon().
    double decoder_epsilon = -1.0;

    // Transport knobs, mirroring SimulationParams / TdmaParams defaults.
    std::size_t c_eps = 4;
    DictionaryPolicy dictionary = DictionaryPolicy::two_hop;
    std::size_t decoy_count = 32;
    std::size_t threads = 0;

    /// Transport partitioning: the beep transport's shard count (see
    /// BeepTransport in sim/transport.h). Like
    /// `threads`, an execution knob — outputs are bit-identical for every
    /// value, so it is excluded from the fingerprint and the result JSON.
    std::size_t shards = 1;
    std::size_t bitslice_min_candidates = 512;
    std::size_t tdma_repetitions = 0;  ///< 0 = recommended_repetitions(n, eps)

    double effective_decoder_epsilon() const;
    SimulationParams sim_params() const;
    TdmaParams tdma_params(std::size_t node_count) const;
    void validate() const;
};

/// Aggregated outcome of one executed scenario (sums over its rounds).
struct ScenarioResult {
    std::string name;
    std::string description;
    std::string topology;
    std::string channel;
    std::string transport;

    std::size_t node_count = 0;
    std::size_t max_degree = 0;
    std::size_t rounds = 0;
    std::size_t perfect_rounds = 0;
    std::size_t beep_rounds_per_round = 0;
    std::uint64_t total_beeps = 0;
    std::size_t phase1_false_negatives = 0;
    std::size_t phase1_false_positives = 0;
    std::size_t phase2_errors = 0;
    std::size_t delivery_mismatches = 0;
    double wall_seconds = 0.0;
    double rounds_per_second = 0.0;

    double perfect_fraction() const {
        return rounds == 0 ? 0.0
                           : static_cast<double>(perfect_rounds) / static_cast<double>(rounds);
    }
};

/// Execute one spec: build the topology and workload, construct the
/// transport, simulate all rounds in one simulate_rounds_into call (counters only),
/// and aggregate. Deterministic: a spec's result fields (wall time aside)
/// are a pure function of the spec.
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// run_scenario under a watchdog: a CancelToken armed with `now +
/// timeout_seconds` is installed for the run (the same token/scope path the
/// sweep engine's per-job watchdog uses), so a run that exceeds the budget
/// unwinds with cancelled_error at its next round-boundary poll instead of
/// hanging its caller. timeout_seconds <= 0 means no deadline — identical to
/// plain run_scenario. `nb_run --timeout` without --sweep goes through this.
ScenarioResult run_scenario_with_timeout(const ScenarioSpec& spec, double timeout_seconds);

/// Order-sensitive digest of every result-determining field of the spec —
/// the identity the sweep journal keys checkpoint records by. Execution
/// knobs that cannot change the result (threads) are excluded, so a resumed
/// sweep may change --workers/threads and still replay its journal; any
/// edit that could change a job's numbers changes the fingerprint and
/// invalidates the record (see DESIGN.md section 9).
std::uint64_t scenario_spec_fingerprint(const ScenarioSpec& spec);

/// Serialize one result as a JSON object. `include_timing` controls the
/// wall_seconds / rounds_per_second fields — the only nondeterministic ones;
/// the sweep schema omits them so its artifact is byte-identical for any
/// worker count, while the scenario schema keeps them.
void scenario_result_json(JsonWriter& json, const ScenarioResult& result,
                          bool include_timing);

/// Serialize results in the one scenario JSON schema
/// ({"schema": "nb-scenarios/v1", "results": [...]}) — shared by `nb_run`'s
/// BENCH_scenarios.json and any test or tool that wants the same shape.
void scenario_results_json(JsonWriter& json, std::span<const ScenarioResult> results);

}  // namespace nb
