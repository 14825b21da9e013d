// Shared helpers for the experiment benches.
//
// Every bench binary regenerates one "table" of the paper (see DESIGN.md
// section 4): it prints a header naming the paper claim, the experiment
// setup, one or more tables, and a VERDICT line summarizing how the measured
// shape compares to the claim. EXPERIMENTS.md records these outputs.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/table.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace nb::bench {

inline void header(const std::string& id, const std::string& title, const std::string& claim) {
    std::cout << "==================================================================\n"
              << id << ": " << title << '\n'
              << "paper claim: " << claim << '\n'
              << "==================================================================\n\n";
}

inline void verdict(const std::string& text) { std::cout << "VERDICT: " << text << "\n\n"; }

/// A VERDICT computed from the measured table: the claim, then "holds" or
/// every failed check, one per line. Returns the bench's exit code (0 when
/// every check held, 1 otherwise), so a claim that stops holding fails it.
inline int checked_verdict(const std::string& claim, const std::vector<std::string>& failures) {
    std::string text = claim + ": " + (failures.empty() ? "holds" : "FAILS");
    for (const auto& failure : failures) {
        text += "\n  - " + failure;
    }
    verdict(text);
    return failures.empty() ? 0 : 1;
}

/// The Theorem 11 checks E5 and E6 make on each row: the measured beeps per
/// simulated round equal the schedule's 2*c_eps^3*(Delta+1)*payload_bits
/// (`expected`), every round decoded perfectly, and the cost is at least
/// the lower bound. Appends one line per failed check to `failures`.
inline void check_overhead_row(const std::string& row, std::size_t measured,
                               std::size_t expected, bool all_perfect,
                               std::size_t lower_bound, std::vector<std::string>& failures) {
    if (measured != expected) {
        failures.push_back(row + ": " + std::to_string(measured) + " beeps/round, schedule says " +
                           std::to_string(expected));
    }
    if (!all_perfect) {
        failures.push_back(row + ": not every round decoded perfectly");
    }
    if (measured < lower_bound) {
        failures.push_back(row + ": below the lower bound " + std::to_string(lower_bound));
    }
}

/// Random near-regular graph with max degree ~d (pairing model).
inline Graph regular_graph(std::size_t n, std::size_t d, std::uint64_t seed) {
    Rng rng(seed);
    if ((n * d) % 2 != 0) {
        ++d;
    }
    return make_random_regular(n, d, rng);
}

/// The one machine-readable-artifact writer every bench and the scenario
/// runner share: opens `path`, hands the callback a JsonWriter (so
/// escaping, number formatting, and comma/indent discipline come from
/// common/json.h instead of per-bench stream code), and announces the file
/// on stdout. Returns false (after a stderr note) if the file cannot be
/// opened — benches keep exiting 0 so unattended runs never wedge on a
/// read-only working directory.
template <typename Fn>
bool write_json_file(const std::string& path, Fn&& fill) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot open " << path << " for writing\n";
        return false;
    }
    JsonWriter json(out);
    fill(json);
    out << '\n';
    out.flush();
    if (!out.good()) {  // truncated artifact (disk full, I/O error)
        std::cerr << "warning: writing " << path << " failed\n";
        return false;
    }
    std::cout << "wrote " << path << "\n\n";
    return true;
}

}  // namespace nb::bench
