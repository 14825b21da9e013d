// nbbench_timed — the benchmark's end-to-end measurement (no tracing, no
// allocation hooks). For a simulation workload: set up cold several times
// (setup_s is the median), simulate one warm-up round, then time batches of
// rounds through simulate_rounds_into for --seconds, checking every round
// against ground truth outside the timed calls.
#include <memory>
#include <vector>

#include "cli.h"
#include "serve_load.h"
#include "sim/codebook_cache.h"
#include "workloads.h"

namespace {

using namespace nbbench;

/// Rounds folded into the deliveries digest pinned in perfbench/golden.json.
constexpr std::size_t kDigestRounds = 3;

void run_sim(const SimWorkload& w, const CliOptions& options, Report& report) {
    const std::size_t threads = nproc();

    // Cold set-ups: graph and workload generation plus transport
    // construction on an empty codebook cache. The last one is kept.
    std::vector<double> setups;
    std::unique_ptr<SimInputs> inputs;
    std::unique_ptr<SimTransport> transport;
    for (std::size_t k = 0; k < w.setups; ++k) {
        transport.reset();
        inputs.reset();
        nb::CodebookCache::instance().clear();
        const std::uint64_t start = now_ns();
        auto fresh = std::make_unique<SimInputs>();
        fresh->graph = make_graph(w, options.seed);
        fresh->messages = make_messages(w, fresh->graph, options.seed);
        fresh->params = make_params(w, options.seed, threads);
        transport = std::make_unique<SimTransport>(w, fresh->graph, fresh->params);
        setups.push_back(seconds_since(start));
        inputs = std::move(fresh);
    }

    // The digest covers the warm-up round and the first timed batch (every
    // workload batches at least two rounds).
    RoundChecker checker(inputs->graph, inputs->messages, kDigestRounds);
    nb::TransportBatch batch;
    std::vector<nb::RoundSpec> specs;
    std::uint64_t next_round = 0;
    std::uint64_t failed = 0;
    auto simulate = [&](std::size_t rounds) {
        specs.clear();
        for (std::size_t i = 0; i < rounds; ++i) {
            specs.push_back(nb::RoundSpec{&inputs->messages, next_round + i, nullptr});
        }
        const std::uint64_t start = now_ns();
        transport->run(specs, batch);
        const double elapsed = seconds_since(start);
        for (std::size_t i = 0; i < rounds; ++i) {
            failed += checker.check(batch, i, next_round + i) ? 0 : 1;
        }
        next_round += rounds;
        return elapsed;
    };

    simulate(1);  // warm-up
    std::vector<double> round_ms;  // per batch: wall / rounds
    double timed = 0.0;
    std::uint64_t timed_rounds = 0;
    while (timed < options.seconds) {
        const double elapsed = simulate(w.batch_rounds);
        timed += elapsed;
        timed_rounds += w.batch_rounds;
        round_ms.push_back(elapsed * 1e3 / static_cast<double>(w.batch_rounds));
    }

    report.attempted = next_round;
    report.failed = failed;
    report.digest = checker.digest_hex();
    report.notes.push_back(std::to_string(threads) + " threads, " +
                           std::to_string(w.batch_rounds) + " rounds per timed batch");
    report.add("throughput_per_s", static_cast<double>(timed_rounds) / timed, "1/s",
               timed_rounds);
    report.add("latency_ms_p50", percentile(round_ms, 0.5), "ms", round_ms.size());
    report.add("latency_ms_p90", percentile(round_ms, 0.9), "ms", round_ms.size());
    report.add("setup_s", median(setups), "s", setups.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("failed_frac", static_cast<double>(failed) / static_cast<double>(next_round),
               "ratio", next_round);
}

}  // namespace

int main(int argc, char** argv) {
    const CliOptions options = parse_cli_options(argc, argv);
    return run_main(options, [&](Report& report) {
        if (options.workload == "serve_mixed") {
            ServeOptions serve;
            serve.seed = options.seed;
            serve.seconds = options.seconds;
            serve.toy = options.toy;
            serve.work_dir = options.work_dir;
            run_serve_workload(serve, report);
            return true;
        }
        const auto w = find_sim_workload(options.workload, options.toy);
        if (!w.has_value()) {
            return false;
        }
        run_sim(*w, options, report);
        return true;
    });
}
