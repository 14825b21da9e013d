#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ostream>
#include <thread>

#include "common/json.h"
#include "common/simd/simd.h"

#ifndef NB_BENCH_BUILD_TYPE
#define NB_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef NB_BENCH_COMPILER
#define NB_BENCH_COMPILER "unknown"
#endif

namespace nbbench {

void Report::add(std::string name, double value, std::string unit, std::size_t samples) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::print(std::ostream& out) const {
    using nb::simd::Kernel;
    nb::JsonWriter json(out, /*indent=*/0);
    json.begin_object();
    json.kv("workload", workload);
    json.kv("correct", correct);
    json.kv("attempted", attempted);
    json.kv("failed", failed);
    json.kv("digest", digest);

    json.key("host").begin_object();
    json.kv("nproc", static_cast<std::uint64_t>(nproc()));
    json.kv("hardware_concurrency",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.kv("kernel", nb::simd::kernel_name(nb::simd::resolve_kernel(Kernel::auto_best)));
    json.key("kernels_supported").begin_array();
    for (const auto k : {Kernel::scalar, Kernel::avx2, Kernel::avx512}) {
        if (nb::simd::kernel_supported(k)) {
            json.value(nb::simd::kernel_name(k));
        }
    }
    json.end_array();
    const char* forced = std::getenv("NB_SIMD_KERNEL");
    json.kv("nb_simd_kernel_env", forced != nullptr ? forced : "");
    json.kv("compiler", NB_BENCH_COMPILER);
    json.kv("build_type", NB_BENCH_BUILD_TYPE);
#ifdef NDEBUG
    json.kv("ndebug", true);
#else
    json.kv("ndebug", false);
#endif
    json.end_object();

    json.key("notes").begin_array();
    for (const auto& note : notes) {
        json.value(note);
    }
    json.end_array();

    json.key("metrics").begin_object();
    for (const auto& m : metrics) {
        json.key(m.name).begin_object();
        json.kv("value", m.value);
        json.kv("unit", m.unit);
        json.kv("samples", static_cast<std::uint64_t>(m.samples));
        json.end_object();
    }
    json.end_object();
    json.end_object();
    out << '\n';
}

std::size_t nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto index = std::min(
        values.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(values.size() - 1) + 0.5));
    return values[index];
}

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace nbbench
