#include "serve_load.h"

#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "common/thread_pool.h"
#include "scenarios/registry.h"
#include "scenarios/spec_json.h"
#include "scenarios/sweep.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/codebook_cache.h"

namespace nbbench {

namespace {

/// Server set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 25;

/// The timed window is extended until this many jobs completed, so each
/// scenario's p90 has a sample beyond it and the eight p90s together at
/// least ten (a toy run needs only a few).
constexpr std::size_t kMinJobs = 100;
constexpr std::size_t kToyMinJobs = 8;

constexpr std::size_t kPings = 200;

const char* channel_kind_name(nb::ChannelModelKind kind) {
    switch (kind) {
        case nb::ChannelModelKind::iid: return "iid";
        case nb::ChannelModelKind::gilbert_elliott: return "gilbert_elliott";
        case nb::ChannelModelKind::heterogeneous: return "heterogeneous";
        case nb::ChannelModelKind::adversarial_budget: return "adversarial_budget";
    }
    throw nb::precondition_error("perfbench: unknown channel kind");
}

void write_node_list(nb::JsonWriter& json, const char* key,
                     const std::vector<nb::NodeId>& nodes) {
    json.key(key).begin_array();
    for (const auto v : nodes) {
        json.value(static_cast<std::uint64_t>(v));
    }
    json.end_array();
}

/// `spec` as a one-scenario nb-spec/v1 document (every field the parser
/// reads, so the server runs exactly this spec).
std::string spec_document(const nb::ScenarioSpec& spec) {
    using U = std::uint64_t;
    std::ostringstream out;
    nb::JsonWriter json(out, /*indent=*/0);
    json.begin_object();
    json.kv("schema", "nb-spec/v1");
    json.kv("sweep", "perfbench-serve");
    json.key("scenarios").begin_array().begin_object();
    json.kv("name", spec.name);
    json.kv("description", spec.description);
    json.kv("transport", spec.transport == nb::TransportKind::beep ? "beep" : "tdma");
    json.kv("rounds", static_cast<U>(spec.rounds));
    json.kv("decoder_epsilon", spec.decoder_epsilon);
    json.kv("c_eps", static_cast<U>(spec.c_eps));
    json.kv("dictionary",
            spec.dictionary == nb::DictionaryPolicy::two_hop ? "two_hop" : "all_nodes");
    json.kv("decoy_count", static_cast<U>(spec.decoy_count));
    json.kv("threads", static_cast<U>(spec.threads));
    json.kv("shards", static_cast<U>(spec.shards));
    json.kv("bitslice_min_candidates", static_cast<U>(spec.bitslice_min_candidates));
    json.kv("tdma_repetitions", static_cast<U>(spec.tdma_repetitions));

    const nb::TopologySpec& t = spec.topology;
    json.key("topology").begin_object();
    json.kv("family", t.family_name());
    json.kv("n", static_cast<U>(t.n));
    json.kv("degree", static_cast<U>(t.degree));
    json.kv("edge_probability", t.edge_probability);
    json.kv("radius", t.radius);
    json.kv("rows", static_cast<U>(t.rows));
    json.kv("cols", static_cast<U>(t.cols));
    json.kv("seed", static_cast<U>(t.seed));
    json.end_object();

    const nb::ChannelModel& c = spec.channel;
    json.key("channel").begin_object();
    json.kv("kind", channel_kind_name(c.kind));
    json.kv("epsilon", c.epsilon);
    json.kv("noise_on_own_beep", c.noise_on_own_beep);
    json.kv("p_enter_burst", c.ge_p_enter_burst);
    json.kv("p_exit_burst", c.ge_p_exit_burst);
    json.kv("epsilon_good", c.ge_epsilon_good);
    json.kv("epsilon_bad", c.ge_epsilon_bad);
    json.kv("epsilon_min", c.het_epsilon_min);
    json.kv("epsilon_max", c.het_epsilon_max);
    json.kv("seed", static_cast<U>(c.het_seed));
    json.kv("budget", static_cast<U>(c.adv_budget));
    json.end_object();

    json.key("workload").begin_object();
    json.kv("message_bits", static_cast<U>(spec.workload.message_bits));
    json.kv("silent_fraction", spec.workload.silent_fraction);
    json.kv("seed", static_cast<U>(spec.workload.seed));
    json.end_object();

    json.key("faults").begin_array();
    for (const auto& window : spec.faults) {
        json.begin_object();
        json.kv("first_round", static_cast<U>(window.first_round));
        json.kv("last_round", static_cast<U>(window.last_round));
        write_node_list(json, "jammers", window.faults.jammers);
        write_node_list(json, "crashed", window.faults.crashed);
        json.end_object();
    }
    json.end_array();

    json.end_object().end_array();
    json.end_object();
    return out.str();
}

/// The scenario mix of every block of ten consecutive submits: each shipped
/// scenario once, plus e5-delta8-beep and ge-burst a second time. Eight
/// equal shares would put the median exactly on the boundary between two
/// cost clusters (the scenarios' job costs differ up to 14x), so it would
/// flip between them from run to run; with these two doubled, the median
/// falls inside the e5 cluster, 10 points from either edge.
constexpr std::size_t kJobMix[] = {0, 1, 2, 3, 4, 5, 6, 7, 0, 4};

/// Jobs run one at a time before the timed window, verified but not timed:
/// the first turn of kJobMix, so the timed jobs meet a server that has built
/// every scenario's code and codebook once.
constexpr std::size_t kWarmupJobs = std::size(kJobMix);

/// Submit j of the run's deterministic job sequence: kJobMix in turn (so any
/// prefix of the sequence has nearly the same mix, whatever number of jobs a
/// run completes), the workload seed cycling over four values, and one
/// submit in four on a fresh topology seed (a codebook-cache miss).
std::string job_document(std::size_t j, std::uint64_t seed) {
    const auto& shipped = nb::scenarios::shipped_scenarios();
    constexpr std::size_t block = std::size(kJobMix);
    const std::size_t cycle = j / block;
    nb::ScenarioSpec spec = shipped.at(kJobMix[j % block]);
    spec.workload.seed = 1 + (seed + cycle) % 4;
    if ((j + cycle) % 4 == 3) {
        spec.topology.seed = mix(seed, j) >> 11;
    }
    return spec_document(spec);
}

/// One response's fate, recorded by the client thread that sent it.
struct Submit {
    std::size_t job = 0;
    double latency_ms = 0.0;
    double exec_ms = 0.0;   ///< the response's wall_seconds
    std::string artifact;
};

struct ClientTally {
    std::vector<Submit> submits;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;
    std::uint64_t transport_failures = 0;
};

bool response_ok(const std::optional<nb::JsonValue>& response) {
    if (!response.has_value()) {
        return false;
    }
    const nb::JsonValue* ok = response->find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
}

nb::serve::ServerConfig server_config(const std::string& work_dir) {
    nb::serve::ServerConfig config;
    config.socket_path = work_dir + "/serve.sock";
    config.store_dir = work_dir + "/store";
    config.executors = std::max<std::size_t>(1, nproc() / 2);
    config.job_workers = 1;
    config.queue_capacity = 16;
    return config;
}

/// The server as its own process: this binary re-executed with
/// --serve-child, so every start is a cold process with a cold codebook
/// cache, and its peak RSS is the server's alone. A child still running
/// when this object dies is killed and reaped.
class ServerProcess {
public:
    explicit ServerProcess(const std::string& work_dir) {
        char exe[PATH_MAX];
        const ssize_t length = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
        nb::require(length > 0, "perfbench: cannot resolve /proc/self/exe");
        exe[length] = '\0';
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the load generator
            ::execl(exe, exe, "--serve-child", "--workload", "serve_mixed", "--work-dir",
                    work_dir.c_str(), static_cast<char*>(nullptr));
            ::_exit(127);
        }
        nb::require(pid_ > 0, "perfbench: fork failed");
    }

    ~ServerProcess() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /// Graceful drain (SIGTERM), then reap; returns the server's peak RSS
    /// in MiB.
    double stop() {
        ::kill(pid_, SIGTERM);
        rusage usage{};
        int status = 0;
        const pid_t reaped = ::wait4(pid_, &status, 0, &usage);
        pid_ = -1;
        nb::require(reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                    "perfbench: the server did not exit cleanly");
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

private:
    pid_t pid_ = -1;
};

/// Server process start until the first ping answers.
double start_server(std::unique_ptr<ServerProcess>& server, const std::string& work_dir,
                    const std::string& socket_path) {
    std::remove(socket_path.c_str());
    const std::uint64_t start = now_ns();
    server = std::make_unique<ServerProcess>(work_dir);
    nb::serve::Client client;
    while (!client.connect(socket_path)) {
        nb::require(seconds_since(start) < 10.0, "perfbench: the server did not start");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    nb::require(response_ok(client.request(R"({"op":"ping"})")),
                "perfbench: the server did not answer ping");
    return seconds_since(start);
}

/// One closed-loop client: claims the next job of the shared sequence, waits
/// for its answer, repeats until the deadline (and at least `min_jobs` jobs
/// completed across all clients). Any failure is tallied, never thrown.
void run_client(const std::string& socket_path, std::uint64_t seed, std::uint64_t deadline_ns,
                std::size_t min_jobs, std::atomic<std::size_t>& next_job,
                std::atomic<std::size_t>& completed, ClientTally& tally) noexcept {
    try {
        nb::serve::Client connection;
        if (!connection.connect_wait(socket_path, 10.0)) {
            ++tally.transport_failures;
            return;
        }
        while (now_ns() < deadline_ns || completed.load(std::memory_order_relaxed) < min_jobs) {
            const std::size_t j = next_job.fetch_add(1, std::memory_order_relaxed);
            const std::string line = R"({"op":"submit","deadline_seconds":120,"spec":)" +
                                     job_document(j, seed) + "}";
            const std::uint64_t start = now_ns();
            const auto response = connection.request(line);
            const double ms = static_cast<double>(now_ns() - start) * 1e-6;
            if (!response.has_value()) {
                ++tally.transport_failures;
                if (!connection.connect(socket_path)) {
                    return;
                }
                continue;
            }
            if (response_ok(response)) {
                Submit submit;
                submit.job = j;
                submit.latency_ms = ms;
                submit.exec_ms = response->find("wall_seconds")->as_double() * 1e3;
                submit.artifact = response->find("artifact")->as_string();
                tally.submits.push_back(std::move(submit));
                completed.fetch_add(1, std::memory_order_relaxed);
            } else {
                const nb::JsonValue* status = response->find("status");
                if (status != nullptr && status->is_string() &&
                    status->as_string() == "rejected") {
                    ++tally.shed;
                } else {
                    ++tally.errors;
                }
            }
        }
    } catch (const std::exception&) {
        ++tally.errors;
    }
}

/// The artifact a local run_sweep of `document` produces — the bytes the
/// server must have answered with.
std::string local_artifact(const std::string& document) {
    const nb::SweepSpec spec = nb::sweep_spec_from_json(document, "perfbench");
    nb::SweepOptions options;
    options.workers = 1;
    const nb::SweepResult result = nb::run_sweep(spec, options);
    std::ostringstream out;
    nb::JsonWriter json(out, /*indent=*/2);
    nb::sweep_results_json(json, result);
    return out.str();
}

}  // namespace

int serve_child_main(const std::string& work_dir) {
    // Block the drain signals before any server thread exists, so every
    // thread inherits the mask and sigwait below is their only receiver.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);
    nb::serve::Server server(server_config(work_dir));
    server.start();
    int signal = 0;
    sigwait(&signals, &signal);
    server.request_drain();
    server.wait();
    return 0;
}

void run_serve_workload(const ServeOptions& options, Report& report) {
    const nb::serve::ServerConfig config = server_config(options.work_dir);
    const std::size_t clients = config.executors;
    std::unique_ptr<ServerProcess> server;
    std::vector<double> setups;
    for (std::size_t k = 0; k < (options.toy ? 2 : kSetups); ++k) {
        if (server != nullptr) {
            server->stop();
        }
        setups.push_back(start_server(server, options.work_dir, config.socket_path));
    }

    // One client runs the warm-up jobs into the last tally; the timed
    // clients go on from the next job.
    std::vector<ClientTally> tallies(clients + 1);
    std::atomic<std::size_t> next_job{0};
    std::atomic<std::size_t> completed{0};
    run_client(config.socket_path, options.seed, /*deadline_ns=*/0, kWarmupJobs, next_job,
               completed, tallies.back());
    completed.store(0);
    const std::uint64_t start = now_ns();
    const auto deadline = start + static_cast<std::uint64_t>(options.seconds * 1e9);
    {
        std::vector<std::jthread> threads;
        for (std::size_t c = 0; c < clients; ++c) {
            threads.emplace_back(run_client, std::cref(config.socket_path), options.seed,
                                 deadline, options.toy ? kToyMinJobs : kMinJobs,
                                 std::ref(next_job), std::ref(completed), std::ref(tallies[c]));
        }
    }
    const double wall = seconds_since(start);

    std::vector<double> ping_us;
    std::optional<nb::JsonValue> stats;
    if (options.traced) {
        nb::serve::Client client;
        nb::require(client.connect_wait(config.socket_path, 10.0),
                    "perfbench: cannot connect to the server");
        stats = client.request(R"({"op":"stats"})");
        nb::require(response_ok(stats), "perfbench: the server did not answer stats");
        for (std::size_t i = 0; i < kPings; ++i) {
            const std::uint64_t t0 = now_ns();
            nb::require(response_ok(client.request(R"({"op":"ping"})")),
                        "perfbench: the server did not answer ping");
            ping_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
    }
    const double rss_mb = server->stop();

    // Correctness, untimed: every artifact must equal a local run_sweep of
    // its spec, byte for byte (one local run per distinct spec, nproc at a
    // time).
    std::map<std::string, std::string> expected;
    for (const auto& tally : tallies) {
        for (const auto& submit : tally.submits) {
            expected.emplace(job_document(submit.job, options.seed), std::string());
        }
    }
    std::vector<std::map<std::string, std::string>::iterator> pending;
    for (auto it = expected.begin(); it != expected.end(); ++it) {
        pending.push_back(it);
    }
    nb::ThreadPool(nproc()).parallel_for(pending.size(), [&](std::size_t, std::size_t i) {
        pending[i]->second = local_artifact(pending[i]->first);
    });

    std::vector<double> latencies;
    std::map<std::string, std::vector<double>> by_scenario;
    std::vector<double> exec_ms;
    std::vector<double> overhead_ms;
    std::uint64_t submitted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    for (const auto& tally : tallies) {
        submitted += tally.submits.size() + tally.shed + tally.errors + tally.transport_failures;
        failed += tally.shed + tally.errors + tally.transport_failures;
        for (const auto& submit : tally.submits) {
            if (submit.artifact != expected.at(job_document(submit.job, options.seed))) {
                ++mismatches;
                ++failed;
                continue;
            }
            if (&tally == &tallies.back()) {
                continue;  // a warm-up job: verified, not timed
            }
            latencies.push_back(submit.latency_ms);
            by_scenario[nb::scenarios::shipped_scenarios()
                            .at(kJobMix[submit.job % std::size(kJobMix)])
                            .name]
                .push_back(submit.latency_ms);
            exec_ms.push_back(submit.exec_ms);
            overhead_ms.push_back(submit.latency_ms - submit.exec_ms);
        }
    }

    report.attempted = submitted;
    report.failed = failed;
    report.correct = mismatches == 0;
    std::string per_scenario = "job latency p50 by scenario (ms):";
    for (const auto& [name, values] : by_scenario) {
        per_scenario += " " + name + "=" +
                        nb::format_double(std::round(median(values) * 10) / 10) + " (n=" +
                        std::to_string(values.size()) + ")";
    }
    report.notes.push_back(per_scenario);
    report.notes.push_back("serve: " + std::to_string(clients) + " closed-loop clients, " +
                           std::to_string(expected.size()) + " distinct specs verified, " +
                           std::to_string(mismatches) + " artifact mismatches");

    // The p90 is taken per scenario and averaged (geometrically) over them.
    // The scenarios' costs form separate clusters, so a p90 of the pooled
    // latencies is the median of the costliest cluster alone, and one
    // scenario's cost moves with the shared host's speed by 20-30% from run
    // to run; the eight scenarios' tails together move much less.
    double log_p90_sum = 0.0;
    for (const auto& [name, values] : by_scenario) {
        log_p90_sum += std::log(percentile(values, 0.9));
    }
    const double done = static_cast<double>(latencies.size());
    report.add("throughput_per_s", done / wall, "1/s", latencies.size());
    report.add("latency_ms_p50", percentile(latencies, 0.5), "ms", latencies.size());
    report.add("latency_ms_p90",
               by_scenario.empty()
                   ? 0.0
                   : std::exp(log_p90_sum / static_cast<double>(by_scenario.size())),
               "ms", latencies.size());
    report.add("setup_s", median(setups), "s", setups.size());
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("failed_frac",
               submitted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(submitted),
               "ratio", submitted);
    if (options.traced) {
        const nb::JsonValue* cache = stats->find("cache");
        report.add("serve.exec_ms_p50", median(exec_ms), "ms", exec_ms.size());
        report.add("serve.overhead_ms_p50", median(overhead_ms), "ms", overhead_ms.size());
        report.add("serve.ping_rtt_us_p50", median(ping_us), "us", ping_us.size());
        report.add("sim.codebook_cache.hit_rate", cache->find("hit_rate")->as_double(), "ratio");
        report.add("sim.codebook_cache.builds",
                   static_cast<double>(cache->find("builds")->as_uint64()), "count");
    }
}

}  // namespace nbbench
