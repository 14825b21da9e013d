// nb_serve — the long-lived simulation service (DESIGN.md section 11).
//
// Accepts nb-serve/v1 requests (newline-delimited JSON) on a local unix
// socket, executes submitted nb-spec/v1 sweeps on the shared execution
// engine, and publishes results to a crash-safe versioned artifact store.
//
//   nb_serve --socket PATH        unix socket to listen on (required)
//   nb_serve --store DIR          artifact store directory (required)
//   nb_serve --queue N            admission bound: queued + running jobs;
//                                 beyond it submits are shed immediately
//                                 with rejected:overloaded (default 16)
//   nb_serve --executors N        concurrent job executors (default 2)
//   nb_serve --job-workers N      sweep workers inside each job (default 1);
//                                 each sweep job runs on max(1, cores /
//                                 (executors x job workers)) transport
//                                 threads, cores being the CPUs the process
//                                 may run on
//   nb_serve --deadline SECONDS   default per-job deadline (default 60)
//   nb_serve --max-deadline S     cap on client-requested deadlines (600)
//   nb_serve --max-retries N      server-side retries for transient job
//                                 failures (default 2)
//   nb_serve --drain SECONDS      grace period between a drain request and
//                                 hard-cancelling stragglers (default 5)
//
// Shutdown: SIGTERM or SIGINT starts a graceful drain — the listener
// closes, queued and new submissions answer `rejected:draining`, running
// jobs get the grace period, stragglers are cancelled through their tokens,
// every pending client gets a typed response, and the process exits 0.
#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/error.h"
#include "common/failpoint.h"
#include "serve/server.h"

namespace {

int run_main(int argc, char** argv) {
    nb::serve::ServerConfig config;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto flag_value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto flag_number = [&](const char* flag) -> std::size_t {
            const std::string value = flag_value(flag);
            char* end = nullptr;
            const auto parsed =
                static_cast<std::size_t>(std::strtoull(value.c_str(), &end, 10));
            if (value.empty() || end == nullptr || *end != '\0') {
                std::cerr << "error: " << flag << " expects a number, got '" << value
                          << "'\n";
                std::exit(2);
            }
            return parsed;
        };
        auto flag_seconds = [&](const char* flag) -> double {
            const std::string value = flag_value(flag);
            char* end = nullptr;
            const double parsed = std::strtod(value.c_str(), &end);
            if (value.empty() || end == nullptr || *end != '\0' || parsed < 0.0) {
                std::cerr << "error: " << flag
                          << " expects a non-negative number of seconds, got '" << value
                          << "'\n";
                std::exit(2);
            }
            return parsed;
        };
        if (arg == "--socket") {
            config.socket_path = flag_value("--socket");
        } else if (arg == "--store") {
            config.store_dir = flag_value("--store");
        } else if (arg == "--queue") {
            config.queue_capacity = flag_number("--queue");
        } else if (arg == "--executors") {
            config.executors = flag_number("--executors");
        } else if (arg == "--job-workers") {
            config.job_workers = flag_number("--job-workers");
        } else if (arg == "--deadline") {
            config.default_deadline_seconds = flag_seconds("--deadline");
        } else if (arg == "--max-deadline") {
            config.max_deadline_seconds = flag_seconds("--max-deadline");
        } else if (arg == "--max-retries") {
            config.max_retries = flag_number("--max-retries");
        } else if (arg == "--drain") {
            config.drain_seconds = flag_seconds("--drain");
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: nb_serve --socket PATH --store DIR [--queue N]\n"
                         "                [--executors N] [--job-workers N]\n"
                         "                [--deadline S] [--max-deadline S]\n"
                         "                [--max-retries N] [--drain S]\n";
            return 0;
        } else {
            std::cerr << "error: unknown option " << arg << " (try --help)\n";
            return 2;
        }
    }
    if (config.socket_path.empty() || config.store_dir.empty()) {
        std::cerr << "error: --socket and --store are required (try --help)\n";
        return 2;
    }

    // Block the shutdown signals BEFORE any thread exists, so every thread
    // the server spawns inherits the mask and sigwait below is the one
    // place they are delivered — no async-signal-safety gymnastics, no
    // self-pipe in a handler.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    nb::serve::Server server(config);
    server.start();

    const std::string active_failpoints = nb::failpoint::active_summary();
    if (!active_failpoints.empty()) {
        std::cout << "nb_serve: failpoints armed: " << active_failpoints << '\n';
    }
    std::cout << "nb_serve: listening on " << config.socket_path << " (store "
              << config.store_dir << ", queue " << config.queue_capacity << ")\n"
              << "nb_serve: " << server.cores() << " cores split as " << config.executors
              << " executors x " << config.job_workers << " job workers x "
              << server.threads_per_job() << " threads per job\n"
              << std::flush;

    int signal_number = 0;
    sigwait(&signals, &signal_number);
    std::cout << "nb_serve: received "
              << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
              << ", draining (grace " << config.drain_seconds << " s)\n"
              << std::flush;

    server.request_drain();
    server.wait();

    const nb::serve::ServerCounters counters = server.counters();
    std::cout << "nb_serve: drained — " << counters.completed << " completed, "
              << counters.failed << " failed, " << counters.shed_overloaded
              << " shed (overloaded), " << counters.shed_draining << " shed (draining), "
              << counters.drain_cancelled << " cancelled by the drain deadline\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run_main(argc, argv);
    } catch (const nb::precondition_error& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    } catch (const std::exception& error) {
        std::cerr << "internal error: " << error.what() << '\n';
        return 1;
    }
}
