// E15 — implementation ablation: decoding-dictionary policy.
//
// The paper's decoder ranges over all 2^a inputs; our tractable realization
// tests the identical threshold rule over a candidate dictionary (DESIGN.md
// section 3). This bench compares the two policies — all in-use inputs vs
// only inputs within two hops — plus decoy count, on delivered correctness
// (checked: the VERDICT sets the exit code) and wall-clock (reported),
// showing the two-hop restriction loses nothing (far inputs are i.i.d.
// uniform exactly like decoys).
#include <chrono>
#include <iostream>
#include <optional>

#include "bench_util.h"
#include "sim/transport.h"

int main() {
    using namespace nb;
    bench::header("E15", "decoding-dictionary policy ablation (implementation)",
                  "testing the Lemma 9 rule on two-hop candidates + decoys is "
                  "statistically equivalent to testing every in-use input");

    const std::size_t n = 128;
    const std::size_t d = 8;
    const std::size_t message_bits = 12;
    const double eps = 0.2;
    const std::size_t rounds = 6;
    const Graph g = bench::regular_graph(n, d, 0xe15);

    Rng message_rng(9);
    std::vector<std::optional<Bitstring>> messages(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        messages[v] = Bitstring::random(message_rng, message_bits);
    }

    // The claim, fixed before the run: zero phase-1 false positives on every
    // row, and the same correctness (perfect rounds, false negatives) on
    // every row. ms/round is printed for reference only: at n = 128 the
    // policies' scan sizes differ by a small factor and the times sit within
    // run-to-run spread of each other.
    std::vector<std::string> failures;
    std::size_t first_perfect = 0;
    std::size_t first_fn = 0;
    Table table({"policy", "decoys", "perfect rounds", "FP total", "FN total", "ms/round"});
    TransportBatch batch;  // one batch for every round of every row
    struct Config {
        DictionaryPolicy policy;
        std::size_t decoys;
        const char* name;
    };
    const Config configs[] = {
        {DictionaryPolicy::two_hop, 0, "two_hop"},
        {DictionaryPolicy::two_hop, 32, "two_hop"},
        {DictionaryPolicy::two_hop, 128, "two_hop"},
        {DictionaryPolicy::all_nodes, 32, "all_nodes"},
    };
    for (const auto& config : configs) {
        SimulationParams params;
        params.epsilon = eps;
        params.message_bits = message_bits;
        params.c_eps = 4;
        params.dictionary = config.policy;
        params.decoy_count = config.decoys;
        const BeepTransport transport(g, params);

        std::size_t perfect = 0;
        std::size_t fp = 0;
        std::size_t fn = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t nonce = 0; nonce < rounds; ++nonce) {
            const RoundSpec spec{&messages, nonce, nullptr};
            transport.simulate_rounds_into({&spec, 1}, batch);
            const TransportRoundStats& round = batch.stats(0);
            perfect += round.perfect ? 1 : 0;
            fp += round.phase1_false_positives;
            fn += round.phase1_false_negatives;
        }
        const auto elapsed = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        table.add_row({config.name, Table::num(config.decoys),
                       Table::num(perfect) + "/" + Table::num(rounds), Table::num(fp),
                       Table::num(fn), Table::num(elapsed / static_cast<double>(rounds), 1)});

        const std::string row = std::string(config.name) + " decoys=" + Table::num(config.decoys);
        if (fp != 0) {
            failures.push_back(row + ": " + Table::num(fp) + " false positives");
        }
        if (&config == &configs[0]) {
            first_perfect = perfect;
            first_fn = fn;
        } else if (perfect != first_perfect || fn != first_fn) {
            failures.push_back(row + ": " + Table::num(perfect) + " perfect rounds and " +
                               Table::num(fn) + " false negatives, first row " +
                               Table::num(first_perfect) + " and " + Table::num(first_fn));
        }
    }
    table.print(std::cout, "dictionary policies (n=128, Delta=8, eps=0.2, c_eps=4)");

    return bench::checked_verdict(
        "zero phase-1 false positives on every row (the threshold margin rejects "
        "independent codewords) and the same perfect rounds and false negatives on every "
        "row: restricting the dictionary to two hops plus decoys loses no correctness",
        failures);
}
