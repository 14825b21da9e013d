// E12 — Section 1.4 ablation: why beep codes instead of classic superimposed
// codes. Kautz-Singleton codes on (c_eps*B)-bit inputs force length
// Theta(k^2 a / log^2 k) (=> Theta(Delta^2 log n) simulation overhead); the
// relaxed beep codes give Theta(k a) (=> Theta(Delta log n)).
//
// Also demonstrates KS cover-decoding working noiselessly but lacking a
// designed noise margin, which is the paper's second reason to replace it.
//
// At fixed input length the KS/ours ratio is Theta(k / log^2 k), so over
// this Delta range it grows roughly as Delta^0.5, not linearly; the bench
// prints the log-log slope. The VERDICT checks that the ratio strictly
// increases with Delta and exceeds 1 at the largest Delta, and that KS cover
// decoding finds all 8 members at eps = 0 and fewer at every eps > 0; it
// exits 1 if any check fails.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codes/beep_code.h"
#include "codes/kautz_singleton.h"
#include "common/math_util.h"
#include "sim/params.h"

int main() {
    using namespace nb;
    bench::header("E12", "beep codes vs Kautz-Singleton (Section 1.4 ablation)",
                  "classic superimposed codes force Theta(Delta^2 log n) length; "
                  "relaxed beep codes reach Theta(Delta log n)");

    const std::size_t n = 1024;
    const std::size_t B = ceil_log2(n);
    const std::size_t c_eps = 4;
    const std::size_t a = c_eps * (B + 1);  // beep-code input bits in Algorithm 1

    Table table({"Delta", "k=Delta+1", "beep-code 2b (ours)", "KS length (2 phases)",
                 "KS/ours", "KS q"});
    std::vector<std::string> failures;
    std::vector<double> log_deltas;
    std::vector<double> log_ratios;
    double previous_ratio = 0.0;
    for (const std::size_t delta : {3u, 7u, 15u, 31u, 63u, 127u}) {
        const std::size_t k = delta + 1;
        SimulationParams params;
        params.message_bits = B;
        params.c_eps = c_eps;
        const std::size_t ours = params.rounds_per_broadcast_round(delta);
        // A KS-based variant of Algorithm 1 would use a k-disjunct code over
        // the same input space in phase 1 and mirror it in phase 2.
        const KautzSingletonCode ks(std::min<std::size_t>(64, a), k);
        const std::size_t ks_cost = 2 * ks.length();
        const double ratio = static_cast<double>(ks_cost) / static_cast<double>(ours);
        table.add_row({Table::num(delta), Table::num(k), Table::num(ours),
                       Table::num(ks_cost), Table::num(ratio, 2), Table::num(ks.q())});
        if (ratio <= previous_ratio) {
            failures.push_back("Delta=" + std::to_string(delta) + ": KS/ours " +
                               std::to_string(ratio) + " does not exceed the previous row's " +
                               std::to_string(previous_ratio));
        }
        previous_ratio = ratio;
        log_deltas.push_back(std::log(static_cast<double>(delta)));
        log_ratios.push_back(std::log(ratio));
    }
    table.print(std::cout, "per-round cost under each code family (n=1024)");
    if (previous_ratio <= 1.0) {
        failures.push_back("KS/ours " + std::to_string(previous_ratio) +
                           " is not above 1 at the largest Delta");
    }

    // Least-squares slope of log(KS/ours) against log(Delta).
    double sx = 0.0;
    double sy = 0.0;
    double sxx = 0.0;
    double sxy = 0.0;
    for (std::size_t i = 0; i < log_deltas.size(); ++i) {
        sx += log_deltas[i];
        sy += log_ratios[i];
        sxx += log_deltas[i] * log_deltas[i];
        sxy += log_deltas[i] * log_ratios[i];
    }
    const double count = static_cast<double>(log_deltas.size());
    const double slope = (count * sxy - sx * sy) / (count * sxx - sx * sx);
    std::cout << "log-log slope of KS/ours vs Delta: " << Table::num(slope, 2)
              << " (1 would be linear in Delta)\n\n";

    // Noise robustness contrast: KS cover decode vs noise.
    {
        const std::size_t k = 8;
        const KautzSingletonCode ks(32, k);
        Rng rng(0xe12);
        Bitstring heard(ks.length());
        std::vector<std::uint64_t> members;
        for (std::uint64_t r = 1; r <= k; ++r) {
            members.push_back(r * 1001);
            heard |= ks.codeword(r * 1001);
        }
        std::vector<std::uint64_t> dictionary = members;
        for (std::uint64_t r = 0; r < 50; ++r) {
            dictionary.push_back(500000 + r);
        }
        Table noise({"eps", "KS exact-decode members found (of 8)"});
        for (const double eps : {0.0, 0.02, 0.05, 0.1}) {
            Bitstring noisy = heard;
            Rng noise_rng(rng.next_u64());
            noisy.apply_noise(noise_rng, eps);
            const auto found = ks.decode(noisy, dictionary, 0);
            std::size_t correct = 0;
            for (const auto r : found) {
                for (const auto m : members) {
                    correct += (r == m) ? 1 : 0;
                }
            }
            noise.add_row({Table::num(eps, 2), Table::num(correct)});
            if (eps == 0.0 ? correct != k : correct >= k) {
                failures.push_back("eps=" + Table::num(eps, 2) + ": KS found " +
                                   std::to_string(correct) + " of " + std::to_string(k) +
                                   " members");
            }
        }
        noise.print(std::cout, "KS cover decoding under channel noise (no margin)");
    }

    return bench::checked_verdict(
        "KS/ours grows strictly with Delta, about as k/log^2 k at this input length "
        "(log-log slope above, not linear), and exceeds 1 at the largest Delta; KS cover "
        "decoding is exact without noise and loses members at every eps > 0, while beep "
        "codes keep a designed threshold margin",
        failures);
}
