// E17 — sharded-transport scaling: batched simulated rounds per second at
// n = 65536 on a ring, through BeepTransport at (shards, threads) = (1, 1),
// (1, 4), (2, 4) and (4, 4). The (1, 1) row is the serial baseline; (1, 4)
// is the one-shard plan, whose round build and node decodes fan out over
// the pool; the sharded rows run one shard per worker. On a machine with
// at least 4 cores two claims must hold, checked here (the VERDICT sets the
// exit code) and by check_perf_regression.py --shard on the JSON:
//   * 4 shards at 4 threads run >= 2x the serial rate;
//   * one shard is no slower at 4 threads than at 1.
// Elsewhere only the rates' sanity is checked — the JSON records
// hardware_concurrency so the gate can tell which case it is in.
//
// The workload mirrors the demo-shard-* registry specs: a ring keeps the
// max degree (and so the beep-code length) constant while n drives the
// interior-decode work, the regime sharding is built for. Determinism is
// not re-proven here — the goldens in test_transport_equivalence.cpp pin
// bit-identity at every shard and worker count; this bench only measures
// wall-clock.
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "sim/transport.h"

namespace {

using namespace nb;

constexpr double kShardSpeedup = 2.0;  ///< required rate(4,4) / rate(1,1)

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Measurement {
    std::size_t shards = 0;
    std::size_t threads = 0;
    std::size_t beep_rounds = 0;
    double batched_rounds_per_s = 0.0;
};

Measurement measure(const Graph& graph, std::size_t shards, std::size_t threads,
                    std::size_t rounds) {
    SimulationParams params;
    params.epsilon = 0.05;
    params.message_bits = 2;
    params.c_eps = 4;
    params.decoy_count = 8;
    params.threads = threads;
    const BeepTransport transport(graph, params, shards);

    Rng message_rng(0xe17);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, params.message_bits);
    }

    std::vector<RoundSpec> specs;
    specs.reserve(rounds);
    for (std::uint64_t nonce = 0; nonce < rounds; ++nonce) {
        specs.push_back(RoundSpec{&messages, nonce, nullptr});
    }

    TransportBatch batch;
    transport.simulate_rounds_into(specs, batch);  // warm codebook + arenas

    Measurement m;
    m.shards = transport.shard_count();
    m.threads = threads;
    m.beep_rounds = transport.rounds_per_broadcast_round();
    const auto start = std::chrono::steady_clock::now();
    transport.simulate_rounds_into(specs, batch);
    m.batched_rounds_per_s = static_cast<double>(rounds) / seconds_since(start);
    return m;
}

double rate(const std::vector<Measurement>& measurements, std::size_t shards,
            std::size_t threads) {
    for (const auto& m : measurements) {
        if (m.shards == shards && m.threads == threads) {
            return m.batched_rounds_per_s;
        }
    }
    return 0.0;
}

/// Both claims, checked against the measured table; empty when they hold
/// (or when fewer than 4 cores make them inapplicable).
std::string failures(const std::vector<Measurement>& measurements, std::size_t cores) {
    if (cores < 4) {
        return {};
    }
    std::string failed;
    const double serial = rate(measurements, 1, 1);
    const double sharded = rate(measurements, 4, 4);
    const double one_shard_pooled = rate(measurements, 1, 4);
    if (sharded < kShardSpeedup * serial) {
        failed += " rate(4,4)/rate(1,1) = " + Table::num(sharded / serial, 2) + " < " +
                  Table::num(kShardSpeedup, 1) + ";";
    }
    if (one_shard_pooled < serial) {
        failed += " rate(1,4) = " + Table::num(one_shard_pooled, 2) + " < rate(1,1) = " +
                  Table::num(serial, 2) + ";";
    }
    return failed;
}

}  // namespace

int main() {
    using namespace nb;
    bench::header("E17", "sharded transport scaling at n=65536",
                  "implementation bench (no paper claim): batched rounds per "
                  "second on a ring through BeepTransport at (shards, threads) "
                  "= (1,1), (1,4), (2,4), (4,4)");

    const Graph graph = make_ring(65536);
    const std::size_t cores = std::thread::hardware_concurrency();

    std::vector<Measurement> measurements;
    for (const auto& [shards, threads] :
         {std::pair<std::size_t, std::size_t>{1, 1}, {1, 4}, {2, 4}, {4, 4}}) {
        measurements.push_back(measure(graph, shards, threads, /*rounds=*/4));
    }

    const double base = rate(measurements, 1, 1);
    Table table({"shards", "threads", "beep rounds", "batched (rounds/s)", "speedup vs (1,1)"});
    for (const auto& m : measurements) {
        table.add_row({Table::num(m.shards), Table::num(m.threads), Table::num(m.beep_rounds),
                       Table::num(m.batched_rounds_per_s, 2),
                       Table::num(m.batched_rounds_per_s / base, 2)});
    }
    table.print(std::cout, "BeepTransport::simulate_rounds_into, ring n=65536");
    std::cout << "hardware_concurrency: " << cores << "\n\n";

    bench::write_json_file("BENCH_shard.json", [&](JsonWriter& json) {
        json.begin_object();
        json.kv("bench", "shard_scaling");
        json.kv("n", std::size_t{65536});
        json.kv("topology", "ring");
        json.kv("message_bits", std::size_t{2});
        json.kv("hardware_concurrency", cores);
        json.key("results").begin_array();
        for (const auto& m : measurements) {
            json.begin_object();
            json.kv("shards", m.shards);
            json.kv("threads", m.threads);
            json.kv("beep_rounds_per_round", m.beep_rounds);
            json.kv("batched_rounds_per_s", m.batched_rounds_per_s);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    });

    const std::string failed = failures(measurements, cores);
    if (cores < 4) {
        bench::verdict("hardware_concurrency " + std::to_string(cores) +
                       " < 4: scaling claims not applicable");
    } else if (failed.empty()) {
        bench::verdict("holds: 4 shards at 4 threads run " +
                       Table::num(rate(measurements, 4, 4) / base, 2) +
                       "x the serial rate (>= 2x), and one shard at 4 threads runs " +
                       Table::num(rate(measurements, 1, 4) / base, 2) + "x (>= 1x)");
    } else {
        bench::verdict("FAILS:" + failed);
    }
    return failed.empty() ? 0 : 1;
}
