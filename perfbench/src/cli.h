// Command line shared by the two benchmark binaries:
//
//   nbbench_timed|nbbench_traced --workload NAME [--seed N] [--seconds S]
//                                [--toy] [--work-dir DIR]
//
// Each prints one Report JSON line on stdout (see report.h) and exits 0, or
// prints a diagnostic on stderr and exits non-zero.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.h"
#include "serve_load.h"

namespace nbbench {

struct CliOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool toy = false;
    std::string work_dir = ".";
    bool serve_child = false;  ///< internal: run as serve_mixed's server process
};

inline CliOptions parse_cli_options(int argc, char** argv) {
    CliOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--toy") {
            options.toy = true;
        } else if (arg == "--serve-child") {
            options.serve_child = true;
        } else if (arg == "--work-dir") {
            options.work_dir = value();
        } else {
            std::cerr << "error: unknown option " << arg << '\n';
            std::exit(2);
        }
    }
    if (options.workload.empty() || !(options.seconds > 0.0)) {
        std::cerr << "error: --workload NAME is required and --seconds must be > 0\n";
        std::exit(2);
    }
    return options;
}

/// Run `body(report)` and print the report (or, with --serve-child, run as
/// the serve workload's server process); exceptions become exit code 1.
template <typename Body>
int run_main(const CliOptions& options, Body&& body) {
    Report report;
    report.workload = options.workload;
    try {
        if (options.serve_child) {
            return serve_child_main(options.work_dir);
        }
        if (!body(report)) {
            std::cerr << "error: unknown workload '" << options.workload << "'\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "error: " << options.workload << ": " << e.what() << '\n';
        return 1;
    }
    report.print(std::cout);
    return 0;
}

}  // namespace nbbench
