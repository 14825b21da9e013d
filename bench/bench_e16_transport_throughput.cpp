// E16 — transport throughput: simulated Broadcast CONGEST rounds per second
// on the Algorithm 1 transport, single-round loop vs the batched
// simulate_rounds_into path, at n in {256, 1024} with the all_nodes
// dictionary — measured once per SIMD kernel set this machine supports, so
// the JSON records what runtime dispatch actually buys.
//
// This is the implementation-performance bench backing the ROADMAP's "as
// fast as the hardware allows" goal: it prints the usual table AND writes
// machine-readable BENCH_transport.json (in the working directory) so CI
// can archive the perf trajectory across PRs and the perf-smoke job can
// diff it against bench/baselines/BENCH_transport.baseline.json.
//
// Reference points (1-core container, Release, hardware popcount): PR 1
// measured 27.6 rounds/s at n=256 and 2.28 at n=1024 on this workload;
// PR 2's batched path reached 92 and 10.9.
//
// Each rate is the median of kRepetitions timed repetitions, single and
// batched interleaved within one process, so a host stall or a
// minutes-long swing in the shared machine's speed moves both paths alike
// instead of deciding the batched-vs-single comparison.
//
// The steady-state allocation column counts operator-new calls (see
// alloc_hooks.h) during a warm simulate_rounds_into batch that repeats one
// (messages, nonce), so the batch keeps its round — the zero-copy arena
// contract says it is exactly 0 at every worker count. The transports run
// on the default pool (one worker per hardware thread); the JSON records
// both counts, since a baseline recorded at one core count exercises a
// different schedule than another.
//
// The VERDICT is computed from the measured rows: each of its three claims
// (batched beats single, vector kernels beat scalar, zero steady-state
// allocations) is printed as holding or failing, with the rows that break it.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hooks.h"
#include "bench_util.h"
#include "common/math_util.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "sim/codebook_cache.h"
#include "sim/transport.h"

namespace {

using namespace nb;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

constexpr std::size_t kRepetitions = 5;

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

struct Measurement {
    std::size_t n = 0;
    std::size_t delta = 0;
    simd::Kernel kernel = simd::Kernel::auto_best;  ///< requested
    simd::Kernel resolved = simd::Kernel::scalar;   ///< what actually ran
    double single_rounds_per_s = 0.0;
    double batched_rounds_per_s = 0.0;
    std::uint64_t steady_allocs = 0;  ///< operator-new calls in the warm batch
    std::size_t arena_words = 0;      ///< result-ring high-water mark
};

/// `rounds` simulated rounds per path in each of kRepetitions repetitions.
Measurement measure(std::size_t n, std::size_t degree, std::size_t rounds,
                    simd::Kernel kernel) {
    const Graph g = bench::regular_graph(n, degree, 0xe16 + n);
    SimulationParams params;
    params.epsilon = 0.1;
    params.message_bits = ceil_log2(n);
    params.c_eps = 4;
    params.dictionary = DictionaryPolicy::all_nodes;
    params.simd_kernel = kernel;
    const BeepTransport transport(g, params);

    Rng message_rng(7);
    std::vector<std::optional<Bitstring>> messages(n);
    for (NodeId v = 0; v < n; ++v) {
        messages[v] = Bitstring::random(message_rng, params.message_bits);
    }

    Measurement m;
    m.n = n;
    m.delta = g.max_degree();
    m.kernel = kernel;
    m.resolved = simd::resolve_kernel(kernel);

    transport.simulate_round(messages, 0);  // warm caches and workspaces

    // Both paths simulate the same fresh-nonce rounds in each repetition.
    TransportBatch batch;
    std::vector<RoundSpec> specs(rounds, RoundSpec{&messages, 0, nullptr});
    std::vector<double> single_rates;
    std::vector<double> batched_rates;
    for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
        for (std::size_t i = 0; i < rounds; ++i) {
            specs[i].nonce = 1 + rep * rounds + i;
        }
        auto start = std::chrono::steady_clock::now();
        for (const auto& spec : specs) {
            transport.simulate_round(messages, spec.nonce);
        }
        single_rates.push_back(static_cast<double>(rounds) / seconds_since(start));

        start = std::chrono::steady_clock::now();
        transport.simulate_rounds_into(specs, batch);
        batched_rates.push_back(static_cast<double>(batch.rounds()) / seconds_since(start));
    }
    m.single_rounds_per_s = median(single_rates);
    m.batched_rounds_per_s = median(batched_rates);

    // Steady-state allocation count: a warm batch that repeats one
    // (messages, nonce) keeps its round, so it is pure decoding — the arena
    // contract says zero operator-new calls.
    const std::vector<RoundSpec> steady(4, RoundSpec{&messages, 1, nullptr});
    transport.simulate_rounds_into(steady, batch);  // reach high-water
    const std::uint64_t before = alloc_hooks::count();
    transport.simulate_rounds_into(steady, batch);
    m.steady_allocs = alloc_hooks::count() - before;
    m.arena_words = batch.arena_words();
    return m;
}

std::string row_name(const Measurement& m) {
    return "n=" + std::to_string(m.n) + "/" + simd::kernel_name(m.resolved);
}

/// One VERDICT claim: "holds" or "FAILS (rows ...)" from the rows breaking it.
std::string claim_status(const std::vector<std::string>& breaking) {
    if (breaking.empty()) {
        return "holds";
    }
    std::string status = "FAILS (";
    for (std::size_t i = 0; i < breaking.size(); ++i) {
        status += (i == 0 ? "" : ", ") + breaking[i];
    }
    return status + ")";
}

/// The three claims E16 makes, each checked against every measured row.
std::string verdict_text(const std::vector<Measurement>& measurements) {
    std::vector<std::string> not_batched_faster;
    std::vector<std::string> not_vector_faster;
    std::vector<std::string> allocating;
    bool any_vector = false;
    for (const auto& m : measurements) {
        if (m.batched_rounds_per_s <= m.single_rounds_per_s) {
            not_batched_faster.push_back(row_name(m));
        }
        if (m.steady_allocs != 0) {
            allocating.push_back(row_name(m) + " allocs=" + std::to_string(m.steady_allocs));
        }
        if (m.resolved == simd::Kernel::scalar) {
            continue;
        }
        any_vector = true;
        for (const auto& scalar : measurements) {
            if (scalar.resolved == simd::Kernel::scalar && scalar.n == m.n &&
                m.batched_rounds_per_s <= scalar.batched_rounds_per_s) {
                not_vector_faster.push_back(row_name(m));
            }
        }
    }
    return "batched beats single on every row: " + claim_status(not_batched_faster) +
           "; vector kernels beat scalar (batched, same n): " +
           (any_vector ? claim_status(not_vector_faster)
                       : std::string("not tested (no vector kernel on this host)")) +
           "; steady-state allocations are exactly 0: " + claim_status(allocating);
}

}  // namespace

int main() {
    using namespace nb;
    bench::header("E16", "transport throughput: single vs batched simulation path",
                  "implementation bench (no paper claim): simulated rounds per "
                  "second with the all_nodes dictionary, eps=0.1, Delta~8, per "
                  "SIMD kernel set");

    std::vector<simd::Kernel> kernels;
    for (const auto k : {simd::Kernel::scalar, simd::Kernel::avx2, simd::Kernel::avx512}) {
        if (simd::kernel_supported(k)) {
            kernels.push_back(k);
        }
    }

    std::vector<Measurement> measurements;
    for (const auto kernel : kernels) {
        // n=256 rounds take a few ms each: 48 of them time >= 0.2 s per
        // path and repetition.
        measurements.push_back(measure(256, 8, 48, kernel));
        measurements.push_back(measure(1024, 8, 4, kernel));
    }

    Table table({"n", "Delta", "kernel", "single (rounds/s)", "batched (rounds/s)",
                 "batched/single", "steady allocs"});
    for (const auto& m : measurements) {
        table.add_row({Table::num(m.n), Table::num(m.delta), simd::kernel_name(m.resolved),
                       Table::num(m.single_rounds_per_s, 1),
                       Table::num(m.batched_rounds_per_s, 1),
                       Table::num(m.batched_rounds_per_s / m.single_rounds_per_s, 2),
                       Table::num(m.steady_allocs)});
    }
    table.print(std::cout, "simulate_round loop vs simulate_rounds_into batch (median of " +
                               std::to_string(kRepetitions) + " interleaved repetitions)");
    // The transports run on the default pool: one worker per hardware thread.
    const std::size_t threads = ThreadPool::resolve_worker_count(SimulationParams{}.threads);
    const std::size_t cores = std::thread::hardware_concurrency();
    std::cout << "threads: " << threads << ", hardware_concurrency: " << cores << "\n\n";

    // Cache pressure over the whole bench: every transport above acquired its
    // codebook through the process-wide cache, so byte-capacity evictions or
    // oversize fallbacks here mean the shipped workloads no longer fit the
    // cache budget — rebuild churn that perf-smoke gates on (exactly 0).
    const CodebookCache::Stats cache_stats = CodebookCache::instance().stats();
    std::cout << "codebook cache: " << cache_stats.builds << " builds, "
              << cache_stats.hits << " hits, " << cache_stats.bytes_resident
              << " bytes resident, " << cache_stats.evictions_capacity
              << " byte-cap evictions, " << cache_stats.oversize_uncached
              << " oversize uncached\n\n";

    // The shared bench/scenario serializer (common/json.h via bench_util):
    // this bench is a caller of the one JSON writer, not a copy of it.
    bench::write_json_file("BENCH_transport.json", [&](JsonWriter& json) {
        json.begin_object();
        json.kv("bench", "transport_throughput");
        json.kv("policy", "all_nodes");
        json.kv("epsilon", 0.1);
        json.kv("threads", threads);
        json.kv("hardware_concurrency", cores);
        // The dispatch decision on this machine: what auto_best resolves to
        // and which kernel sets were available to choose from.
        json.key("dispatch").begin_object();
        json.kv("best_kernel", simd::kernel_name(simd::best_kernel()));
        json.kv("auto_resolves_to",
                simd::kernel_name(simd::resolve_kernel(simd::Kernel::auto_best)));
        json.key("supported").begin_array();
        for (const auto k : kernels) {
            json.value(simd::kernel_name(k));
        }
        json.end_array();
        json.end_object();
        // Cache-pressure telemetry for the perf gate: rates above stay
        // meaningful only while codebooks stay resident between transports.
        json.key("codebook_cache").begin_object();
        json.kv("builds", cache_stats.builds);
        json.kv("hits", cache_stats.hits);
        json.kv("bytes_resident", cache_stats.bytes_resident);
        json.kv("evictions_capacity", cache_stats.evictions_capacity);
        json.kv("oversize_uncached", cache_stats.oversize_uncached);
        json.end_object();
        json.key("results").begin_array();
        for (const auto& m : measurements) {
            json.begin_object();
            json.kv("n", m.n);
            json.kv("delta", m.delta);
            json.kv("kernel", simd::kernel_name(m.resolved));
            json.kv("single_rounds_per_s", m.single_rounds_per_s);
            json.kv("batched_rounds_per_s", m.batched_rounds_per_s);
            json.kv("steady_state_allocs", m.steady_allocs);
            json.kv("arena_words", m.arena_words);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    });

    bench::verdict(verdict_text(measurements));
    return 0;
}
