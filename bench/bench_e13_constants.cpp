// E13 — engineering ablation behind the small default c_eps: how large does
// c_eps actually need to be?
//
// For each epsilon and Delta, reports the per-round perfect-delivery rate
// across the c_eps grid and the empirical frontier (the smallest grid c_eps
// whose rounds are all perfect); the paper's proof constants (hundreds to
// thousands) are worst-case union-bound artifacts, which this table
// quantifies. The VERDICT checks the frontier against the lemmas' shape:
// it does not fall as epsilon grows, and it sits an order of magnitude
// below paper_c_eps.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <optional>

#include "bench_util.h"
#include "common/math_util.h"
#include "sim/transport.h"

int main() {
    using namespace nb;
    bench::header("E13", "constant-sensitivity ablation (default vs paper c_eps)",
                  "Lemmas 8-10 hold 'for sufficiently large c_eps'; this maps how "
                  "large is sufficient in practice");

    const std::size_t n = 32;
    const std::size_t message_bits = ceil_log2(n);
    const std::size_t rounds = 10;
    const std::vector<std::size_t> grid{3, 4, 6, 8, 12};

    std::vector<std::string> headers{"eps", "Delta"};
    for (const auto c : grid) {
        headers.push_back("c=" + std::to_string(c));
    }
    headers.push_back("frontier");
    headers.push_back("paper c_eps");
    Table table(headers);

    // Frontier per row: the smallest grid c with every round perfect;
    // beyond_grid (+infinity for the ordering check) when none is.
    constexpr std::size_t beyond_grid = std::numeric_limits<std::size_t>::max();
    auto label = [](std::size_t frontier) {
        return frontier == beyond_grid ? std::string("beyond the grid")
                                       : "c=" + Table::num(frontier);
    };
    std::map<std::size_t, std::pair<double, std::size_t>> previous;  // Delta -> (eps, frontier)
    std::vector<std::string> failures;
    for (const double eps : {0.0, 0.1, 0.2, 0.3, 0.4}) {
        for (const std::size_t d : {4u, 8u}) {
            const Graph g = bench::regular_graph(n, d, 0xe13 + d);
            Rng message_rng(5);
            std::vector<std::optional<Bitstring>> messages(g.node_count());
            for (NodeId v = 0; v < g.node_count(); ++v) {
                messages[v] = Bitstring::random(message_rng, message_bits);
            }
            const std::size_t delta = g.max_degree();
            std::vector<std::string> row{Table::num(eps, 2), Table::num(delta)};
            std::size_t frontier = beyond_grid;
            for (const auto c : grid) {
                SimulationParams params;
                params.epsilon = eps;
                params.message_bits = message_bits;
                params.c_eps = c;
                const BeepTransport transport(g, params);
                std::size_t perfect = 0;
                for (std::uint64_t nonce = 0; nonce < rounds; ++nonce) {
                    perfect += transport.simulate_round(messages, nonce).perfect ? 1 : 0;
                }
                row.push_back(Table::num(static_cast<double>(perfect) /
                                             static_cast<double>(rounds),
                                         2));
                if (perfect == rounds) {
                    frontier = std::min(frontier, c);
                }
            }
            const std::size_t paper = SimulationParams::paper_c_eps(eps);
            row.push_back(label(frontier));
            row.push_back(Table::num(paper));
            table.add_row(row);

            const std::string where = "Delta=" + Table::num(delta) + " eps=" + Table::num(eps, 2);
            // (a) The frontier does not fall as eps grows.
            const auto it = previous.find(delta);
            if (it != previous.end() && frontier < it->second.second) {
                failures.push_back(where + ": frontier " + label(frontier) + " < frontier " +
                                   label(it->second.second) + " at eps=" +
                                   Table::num(it->second.first, 2));
            }
            // (b) Every frontier inside the grid is <= paper_c_eps(eps) / 10.
            if (frontier != beyond_grid && 10 * frontier > paper) {
                failures.push_back(where + ": frontier " + label(frontier) +
                                   " exceeds paper_c_eps/10 = " + Table::num(paper / 10.0, 1));
            }
            previous[delta] = {eps, frontier};
        }
    }
    table.print(std::cout, "fraction of perfect rounds per c_eps (n=32, 10 rounds)");

    return bench::checked_verdict(
        "for each Delta the eps -> c_eps frontier (smallest grid c with every round "
        "perfect) does not fall as eps grows, and every frontier inside the grid is at "
        "most paper_c_eps(eps)/10",
        failures);
}
