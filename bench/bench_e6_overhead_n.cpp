// E6 — Theorem 11, n-scaling: at fixed Delta the per-round overhead grows as
// Theta(log n).
//
// Sweeps n at fixed degree and reports the measured per-round beep cost and
// its ratio to Delta*log n (flat ratio = the claimed log n scaling). Each
// sweep point is a ScenarioSpec run through the unified scenario runner;
// the registry's e6-n256 spec is this bench's n=256 row.
//
// The VERDICT is computed from the table and sets the exit code: every row
// must cost exactly 2*c_eps^3*(Delta+1)*payload_bits beep rounds (payload
// bits B+1 with B = log n, from the spec's own parameters), decode every
// round perfectly, and sit at or above the lower-bound column.
#include <iostream>
#include <string>
#include <vector>

#include "baselines/cost_models.h"
#include "bench_util.h"
#include "common/math_util.h"
#include "scenarios/registry.h"

int main() {
    using namespace nb;
    bench::header("E6", "Broadcast CONGEST overhead vs n (Theorem 11)",
                  "per-round cost O(Delta log n): doubling n adds one log-unit");

    Table table({"n", "log n", "Delta", "B=log n", "ours (beeps/round)", "2c^3(D+1)(B+1)",
                 "ours/(D*logn)", "LB D*logn/2", "round ok"});
    std::vector<std::string> failures;
    for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
        const ScenarioSpec spec = scenarios::e6_overhead_point(n);
        const ScenarioResult result = run_scenario(spec);
        const std::size_t delta = result.max_degree;
        const std::size_t log_n = ceil_log2(n);
        const bool all_perfect = result.perfect_rounds == result.rounds;

        const SimulationParams params = spec.sim_params();
        const std::size_t expected =
            2 * params.c_eps * params.c_eps * params.c_eps * (delta + 1) * params.payload_bits();
        const std::size_t lower_bound = lower_bound_broadcast_overhead(delta, log_n);
        bench::check_overhead_row("n=" + std::to_string(n), result.beep_rounds_per_round, expected,
                                  all_perfect, lower_bound, failures);

        const double normalized = static_cast<double>(result.beep_rounds_per_round) /
                                  (static_cast<double>(delta) * static_cast<double>(log_n));
        table.add_row({Table::num(n), Table::num(log_n), Table::num(delta), Table::num(log_n),
                       Table::num(result.beep_rounds_per_round), Table::num(expected),
                       Table::num(normalized, 1), Table::num(lower_bound),
                       all_perfect ? "yes" : "partial"});
    }
    table.print(std::cout, "beep rounds per Broadcast CONGEST round (Delta~8, eps=0.1)");

    return bench::checked_verdict(
        "every row costs exactly 2*c_eps^3*(Delta+1)*payload_bits beep rounds, so the "
        "cost grows with log n at fixed Delta (Theorem 11), decodes every round, and "
        "sits above the Omega(Delta log n) lower bound",
        failures);
}
