// The serve_mixed workload: an nb_serve Server in a child process, driven
// closed-loop over its unix socket by nproc/2 client connections from this
// process, each submitting one-scenario nb-spec/v1 jobs that cycle through
// the shipped registry scenarios. Every distinct spec's artifact is checked
// byte-for-byte against a local run_sweep of the same spec after the timed
// window.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace nbbench {

struct ServeOptions {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    bool toy = false;
    std::string work_dir;  ///< socket and artifact-store directory (must exist)
};

void run_serve_workload(const ServeOptions& options, Report& report);

/// The server child's main (`--serve-child`): serve on `work_dir` until
/// SIGTERM, then drain and return the exit code.
int serve_child_main(const std::string& work_dir);

}  // namespace nbbench
