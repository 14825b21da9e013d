// E5 — Theorem 11: simulating one Broadcast CONGEST round costs
// O(Delta log n) noisy-beep rounds; prior work pays Theta(min{n, Delta^2})
// more; no simulation can beat Omega(Delta log n) (Corollary 16).
//
// Sweeps Delta at fixed n and prints, per simulated round: our measured cost
// (executed), the G^2-TDMA baseline's measured cost (executed), the
// [4]/[7] cost models, and the lower bound. The "ours/(Delta*logn)" column
// flattening to a constant is the linear-in-Delta shape.
//
// Each sweep point is a declarative ScenarioSpec executed by the unified
// scenario runner — the registry's e5-delta8-* specs are these exact points,
// so `nb_run e5-delta8-beep` reproduces this bench's delta=8 row.
//
// The VERDICT is computed from the table and sets the exit code: every row
// must cost exactly 2*c_eps^3*(Delta+1)*payload_bits beep rounds (the
// Theorem 11 schedule, from the spec's own parameters), decode every round
// perfectly, and sit at or above the lower-bound column.
#include <iostream>
#include <string>
#include <vector>

#include "baselines/cost_models.h"
#include "bench_util.h"
#include "common/math_util.h"
#include "scenarios/registry.h"

int main() {
    using namespace nb;
    bench::header("E5", "Broadcast CONGEST overhead vs Delta (Theorem 11)",
                  "ours: O(Delta log n) per round (noisy or noiseless); "
                  "prior [4]: O(Delta log n min{n,Delta^2}); LB: Omega(Delta log n)");

    const std::size_t n = 256;
    const std::size_t log_n = ceil_log2(n);

    Table table({"Delta", "ours (beeps/round)", "2c^3(D+1)(B+1)", "ours/(D*logn)", "TDMA measured",
                 "[4] model", "[7] model", "LB D*logn/2", "round ok"});
    std::vector<std::string> failures;
    for (const std::size_t d : {2u, 4u, 8u, 16u, 32u, 64u}) {
        const ScenarioSpec spec = scenarios::e5_overhead_point(d, TransportKind::beep);
        const ScenarioResult ours = run_scenario(spec);
        const ScenarioResult tdma =
            run_scenario(scenarios::e5_overhead_point(d, TransportKind::tdma));
        const std::size_t delta = ours.max_degree;
        const bool all_perfect = ours.perfect_rounds == ours.rounds &&
                                 tdma.perfect_rounds == tdma.rounds;

        const SimulationParams params = spec.sim_params();
        const std::size_t expected =
            2 * params.c_eps * params.c_eps * params.c_eps * (delta + 1) * params.payload_bits();
        const std::size_t lower_bound = lower_bound_broadcast_overhead(delta, log_n);
        bench::check_overhead_row("Delta=" + std::to_string(delta), ours.beep_rounds_per_round,
                                  expected, all_perfect, lower_bound, failures);

        const double normalized = static_cast<double>(ours.beep_rounds_per_round) /
                                  (static_cast<double>(delta) * static_cast<double>(log_n));
        table.add_row({Table::num(delta), Table::num(ours.beep_rounds_per_round),
                       Table::num(expected), Table::num(normalized, 1),
                       Table::num(tdma.beep_rounds_per_round),
                       Table::num(agl_congest_overhead(n, delta, log_n)),
                       Table::num(beauquier_congest_overhead(delta, log_n)),
                       Table::num(lower_bound), all_perfect ? "yes" : "partial"});
    }
    table.print(std::cout, "beep rounds per Broadcast CONGEST round (n=256, eps=0.1)");

    std::cout << "note: '[4] model' counts a CONGEST round; on Broadcast CONGEST inputs\n"
                 "it is the relevant prior per-round cost since [4]/[7] simulate via\n"
                 "G^2 color classes either way. Setup costs excluded (ours has none;\n"
                 "[4] pays Delta^4 log n, [7] pays Delta^6 once).\n\n";

    return bench::checked_verdict(
        "every row costs exactly 2*c_eps^3*(Delta+1)*payload_bits beep rounds (linear "
        "in Delta at fixed c_eps, Theorem 11), decodes every round, and sits above the "
        "Omega(Delta log n) lower bound",
        failures);
}
