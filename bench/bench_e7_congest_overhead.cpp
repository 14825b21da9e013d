// E7 — Corollary 12: a CONGEST round is simulated in O(Delta^2 log n) noisy
// beep rounds (Delta Broadcast CONGEST slots, each O(Delta log n) beeps),
// matching the Omega(Delta^2 log n) lower bound of Corollary 16.
//
// Executes the full stack — CONGEST algorithm -> adapter -> Algorithm 1 ->
// noisy beeps — on B-bit Local Broadcast and reports measured beep rounds
// per CONGEST round vs the lower bound. The beep code is sized for
// k = Delta+1 inputs, so the cost is normalized by (Delta+1)^2 log n; the
// VERDICT checks that this column is equal on every row, that every row is
// at or above the lower bound and that every delivery is exact, and exits 1
// if any check fails.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/cost_models.h"
#include "bench_util.h"
#include "common/math_util.h"
#include "lowerbound/local_broadcast.h"
#include "sim/congest_adapter.h"

int main() {
    using namespace nb;
    bench::header("E7", "CONGEST overhead vs Delta (Corollary 12)",
                  "O(Delta^2 log n) noisy-beep rounds per CONGEST round; "
                  "LB: Omega(Delta^2 log n) (Corollary 16)");

    const std::size_t n = 64;
    const std::size_t log_n = ceil_log2(n);
    const double eps = 0.1;

    Table table({"Delta", "B", "beeps/CONGEST round", "per/((D+1)^2*logn)", "LB D^2*logn/2",
                 "delivered"});
    std::vector<std::string> failures;
    double first_normalized = 0.0;
    for (const std::size_t d : {2u, 4u, 8u, 16u}) {
        const Graph g = bench::regular_graph(n, d, 0xe7 + d);
        const std::size_t delta = g.max_degree();
        const std::size_t B = log_n;

        Rng rng(3 + d);
        const auto instance = make_local_broadcast_instance(g, B, rng);
        auto nodes = make_local_broadcast_nodes(g, instance, B);

        const std::size_t width =
            CongestViaBroadcastAdapter::required_message_bits(g.node_count(), B);
        SimulationParams params;
        params.epsilon = eps;
        params.message_bits = width;
        params.c_eps = 4;

        const auto result = run_congest_over_beeps(g, std::move(nodes), B, params, 7, 2);
        const double per_round = static_cast<double>(result.broadcast_stats.beep_rounds) /
                                 static_cast<double>(std::max<std::size_t>(1, result.congest_rounds));
        const double normalized = per_round / (static_cast<double>((delta + 1) * (delta + 1)) *
                                               static_cast<double>(log_n));
        const std::size_t lower_bound = lower_bound_congest_overhead(delta, log_n);
        const bool exact = result.broadcast_stats.imperfect_rounds == 0;
        table.add_row({Table::num(delta), Table::num(B), Table::num(per_round, 0),
                       Table::num(normalized, 1), Table::num(lower_bound),
                       exact ? "exact" : "partial"});

        const std::string row = "Delta=" + std::to_string(delta);
        if (first_normalized == 0.0) {
            first_normalized = normalized;
        } else if (std::abs(normalized - first_normalized) > 1e-9 * first_normalized) {
            failures.push_back(row + ": normalized cost " + std::to_string(normalized) +
                               " differs from the first row's " +
                               std::to_string(first_normalized));
        }
        if (per_round < static_cast<double>(lower_bound)) {
            failures.push_back(row + ": below the lower bound " + std::to_string(lower_bound));
        }
        if (!exact) {
            failures.push_back(row + ": not every delivery exact");
        }
    }
    table.print(std::cout, "noisy-beep rounds per CONGEST round (n=64, eps=0.1)");

    return bench::checked_verdict(
        "per-CONGEST-round cost normalized by (Delta+1)^2*log n is equal on every row "
        "(Corollary 12's quadratic shape in k = Delta+1), at or above the Corollary 16 "
        "lower bound, with every delivery exact",
        failures);
}
