// E2 — Lemma 6: (a, delta)-distance codes of length c_delta*a with
// c_delta >= 12*(1-2*delta)^-2 exist via random codewords.
//
// Measures the minimum pairwise Hamming distance of random codes as the
// length factor sweeps below and above the Lemma 6 requirement, for
// delta = 1/3 (the paper's instantiation, Section 3).
#include <iostream>

#include "bench_util.h"
#include "codes/analysis.h"
#include "codes/distance_code.h"

int main() {
    using namespace nb;
    bench::header("E2", "distance-code minimum distance (Lemma 6)",
                  "length 108*a suffices for relative distance 1/3 w.h.p. "
                  "(c_delta >= 12*(1-2/3)^-2 = 108)");

    const std::size_t a = 12;
    const double delta = 1.0 / 3.0;

    // Lemma 6's predicates, fixed before the run: the 108a code clears
    // relative distance 1/3, the short 13a code falls below it, and the
    // Lemma 6 factory picks length 108a.
    std::vector<std::string> failures;
    Table table({"length factor", "length b", "min d_H (exhaustive 2^12)", "min rel. dist",
                 "pairs below delta*b", "meets delta=1/3"});
    for (const std::size_t factor : {13u, 27u, 54u, 108u, 216u}) {
        const DistanceCode code(a, factor * a, 0xe2 + factor);
        const auto messages = all_messages(a);
        const std::size_t min_distance = min_pairwise_distance(code, messages);
        const double relative = static_cast<double>(min_distance) /
                                static_cast<double>(code.length());
        const double below = fraction_below_distance(
            code, messages, static_cast<std::size_t>(delta * static_cast<double>(code.length())));
        table.add_row({Table::num(factor), Table::num(code.length()), Table::num(min_distance),
                       Table::num(relative, 3), Table::num(below, 6),
                       relative >= delta ? "yes" : "no"});
        if (factor == 108 && relative < delta) {
            failures.push_back("108a code: min relative distance " + Table::num(relative, 3) +
                               " < 1/3");
        }
        if (factor == 13 && relative >= delta) {
            failures.push_back("13a code: min relative distance " + Table::num(relative, 3) +
                               " does not fall below 1/3");
        }
    }
    table.print(std::cout, "minimum pairwise distance over all 2^12 codewords, delta=1/3");

    const DistanceCode paper_code = DistanceCode::lemma6(a, delta, 0x1234);
    std::cout << "Lemma 6 factory length for a=12, delta=1/3: " << paper_code.length()
              << " (108*a = " << 108 * a << ")\n\n";
    if (paper_code.length() != 108 * a) {
        failures.push_back("DistanceCode::lemma6 length " + Table::num(paper_code.length()) +
                           " != 108*a = " + Table::num(108 * a));
    }

    return bench::checked_verdict(
        "the 108a code (Lemma 6's length, which DistanceCode::lemma6 picks) has relative "
        "distance >= 1/3 over all 2^12 codewords, and the 13a code falls below 1/3",
        failures);
}
