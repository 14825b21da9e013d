// E10 — Lemma 14 + Corollary 16: B-bit Local Broadcast needs Omega(Delta^2 B)
// beep rounds on the hard instance (K_{Delta,Delta} + isolated vertices);
// our CONGEST simulation solves it within a constant-and-log factor.
//
// Runs the task end-to-end over beeps on the hard instance, prints measured
// cost vs the counting lower bound, and tabulates Lemma 14's success-
// probability exponent for sub-bound round budgets. The VERDICT is computed
// from both tables, and the exit code is 1 when a check fails:
//   * every measured cost is >= local_broadcast_lower_bound;
//   * upper/lower does not rise from one Delta to the next;
//   * every counting row with T below the bound has log2 Pr[success] < 0.
#include <iostream>
#include <string>
#include <vector>

#include "baselines/cost_models.h"
#include "bench_util.h"
#include "common/math_util.h"
#include "graph/generators.h"
#include "lowerbound/local_broadcast.h"
#include "sim/congest_adapter.h"

int main() {
    using namespace nb;
    bench::header("E10", "B-bit Local Broadcast on the hard instance (Lemma 14)",
                  "Omega(Delta^2 B / 2) beep rounds; our simulation is within an "
                  "O(c^3 log n / B) factor => simulation overhead is optimal");

    const std::size_t n = 64;
    const std::size_t B = 16;

    Table table({"Delta", "beeps measured", "LB D^2*B/2", "upper/lower", "delivered"});
    std::vector<std::string> failures;
    double previous_ratio = 0.0;
    for (const std::size_t delta : {2u, 4u, 8u, 16u}) {
        const Graph g = make_hard_instance(n, delta);
        Rng rng(0xe10 + delta);
        const auto instance = make_local_broadcast_instance(g, B, rng);
        auto nodes = make_local_broadcast_nodes(g, instance, B);

        const std::size_t width = CongestViaBroadcastAdapter::required_message_bits(n, B);
        SimulationParams params;
        params.epsilon = 0.1;
        params.message_bits = width;
        params.c_eps = 4;
        const auto result = run_congest_over_beeps(g, std::move(nodes), B, params, 5, 2);

        const std::size_t measured = result.broadcast_stats.beep_rounds;
        const std::size_t lower = local_broadcast_lower_bound(delta, B);
        const double ratio = static_cast<double>(measured) /
                             static_cast<double>(std::max<std::size_t>(1, lower));
        table.add_row({Table::num(delta), Table::num(measured), Table::num(lower),
                       Table::num(ratio, 1),
                       result.broadcast_stats.imperfect_rounds == 0 ? "exact" : "partial"});

        const std::string row = "Delta=" + std::to_string(delta);
        if (measured < lower) {
            failures.push_back(row + ": " + std::to_string(measured) +
                               " beeps, below the lower bound " + std::to_string(lower));
        }
        if (previous_ratio != 0.0 && ratio > previous_ratio) {
            failures.push_back(row + ": upper/lower " + std::to_string(ratio) +
                               " rose from " + std::to_string(previous_ratio));
        }
        previous_ratio = ratio;
    }
    table.print(std::cout, "measured vs Lemma 14 bound (n=64, B=16, eps=0.1)");

    // Lemma 14's counting argument: success probability of ANY algorithm
    // using fewer rounds than the bound.
    Table counting({"Delta", "B", "rounds T", "log2 Pr[success] <= T - D^2*B"});
    for (const std::size_t delta : {4u, 8u}) {
        const std::size_t bound = local_broadcast_lower_bound(delta, B);
        for (const double fraction : {0.5, 1.0, 2.0}) {
            const auto rounds = static_cast<std::size_t>(fraction * static_cast<double>(bound));
            const double log2_success = local_broadcast_success_log2(rounds, delta, B);
            counting.add_row({Table::num(delta), Table::num(B), Table::num(rounds),
                              Table::num(log2_success, 1)});
            if (rounds < bound && !(log2_success < 0.0)) {
                failures.push_back("Delta=" + std::to_string(delta) + ", T=" +
                                   std::to_string(rounds) + " below the bound: log2 Pr = " +
                                   std::to_string(log2_success) + ", not < 0");
            }
        }
    }
    counting.print(std::cout, "Lemma 14 transcript-counting exponent");

    return bench::checked_verdict(
        "every measured cost is at or above the Lemma 14 bound, upper/lower does not "
        "rise as Delta grows, and every round budget below the bound has success "
        "probability < 1 (log2 Pr < 0) — Omega(Delta^2 B) is tight for the "
        "simulation route up to the simulation's constant-and-log factor",
        failures);
}
