// The result record every benchmark binary prints: one JSON line with the
// workload, the host it ran on, the correctness verdict, attempt/failure
// counts and every metric with its unit and sample count. perfbench/run.py
// turns it into the benchmark's output contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace nbbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

struct Report {
    std::string workload;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;  ///< deliveries digest (hex), empty when not computed
    std::vector<std::string> notes;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit, std::size_t samples = 1);

    /// One compact JSON line: the fields above plus the host record.
    void print(std::ostream& out) const;
};

/// CPUs this process may run on (the `nproc` figure; affinity-aware).
std::size_t nproc();

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();

double median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Steady-clock time in nanoseconds, and seconds elapsed since such a stamp.
std::uint64_t now_ns();
inline double seconds_since(std::uint64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// SplitMix64 finalizer: seeds and digests are derived through it.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

}  // namespace nbbench
