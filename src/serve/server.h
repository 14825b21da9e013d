// nb_serve core: a long-lived simulation service over a local unix socket.
//
// PR 9's tentpole. Everything before this runs one process per experiment:
// nb_run loads a spec, pays codebook construction cold, writes one artifact,
// exits. A long-lived server amortizes the process-wide CodebookCache across
// submissions (the cache was built for exactly this in PR 6) and — more
// importantly for this PR's robustness theme — is the first component that
// must stay correct *under* load, faults, and shutdown rather than merely
// producing correct numbers once:
//
//   * admission control — a bounded queue; a submission that finds it full
//     is REJECTED immediately with a typed `rejected:overloaded` response,
//     not buffered into an unbounded backlog that turns overload into
//     latency and memory growth. Load-shedding is the contract: the client
//     learns in microseconds, retries elsewhere/later.
//   * per-job deadlines — every job's CancelToken is armed at ADMISSION
//     (the deadline covers queue wait, so a job that sat out its budget in
//     the queue dies at its first poll instead of running stale), and the
//     sweep engine's per-attempt tokens link it as parent, so the deadline
//     reaches transport round boundaries on pool worker threads.
//   * per-job error boundaries — the executor wraps each job in the same
//     classifier the sweep engine uses (classify_job_error): fatal spec bugs
//     answer immediately; transient faults and timeouts retry with capped
//     exponential backoff (and bit-identical re-execution, because a job's
//     artifact is a pure function of its spec).
//   * graceful drain — SIGTERM/SIGINT request_drain()s: the listener closes
//     (new connections die, queued requests answer `rejected:draining`),
//     in-flight jobs get drain_seconds to finish, then the drain token
//     hard-cancels whatever is left; every client holding a pending job gets
//     a typed answer, the store is flushed, and the process exits 0.
//   * crash-safe results — a job submitted with `store_as` has its artifact
//     durably published to the ArtifactStore before the client sees "done",
//     so an acknowledged result survives any later crash.
//
// Protocol: nb-serve/v1, newline-delimited JSON request/response pairs (see
// wire.h; schema in DESIGN.md section 11 and the README). Ops: ping, submit,
// get, put, cput, list, stats.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/json_parse.h"
#include "serve/store.h"

namespace nb::serve {

struct ServerConfig {
    std::string socket_path;
    std::string store_dir;

    /// Admission bound: jobs queued + running. A submit that would exceed it
    /// is shed immediately (`rejected:overloaded`).
    std::size_t queue_capacity = 16;

    /// Concurrent job executors (each runs one sweep at a time).
    std::size_t executors = 2;

    /// Sweep workers inside each job (SweepOptions::workers; 0 = every
    /// available core). Each sweep job's transport gets the cores left per
    /// sweep worker: see job_thread_share.
    std::size_t job_workers = 1;

    /// Deadline applied when a submit names none / the cap on what it may
    /// name. Seconds; <= 0 disables the default (jobs without an explicit
    /// deadline run unbounded).
    double default_deadline_seconds = 60.0;
    double max_deadline_seconds = 600.0;

    /// Server-side retry budget for transient/timeout job failures, and the
    /// capped exponential backoff between attempts.
    std::size_t max_retries = 2;
    std::uint32_t retry_backoff_ms = 10;
    std::uint32_t retry_backoff_cap_ms = 200;

    /// Grace period between "drain requested" and the drain token
    /// hard-cancelling the stragglers.
    double drain_seconds = 5.0;

    /// Per-request line bound (wire.h); a client exceeding it is cut off.
    std::size_t max_request_bytes = 8u << 20;
};

/// Monotonic server counters, serialized by the `stats` op.
struct ServerCounters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t submitted = 0;         ///< admitted into the queue
    std::uint64_t completed = 0;         ///< answered "done"
    std::uint64_t failed = 0;            ///< answered "error"
    std::uint64_t shed_overloaded = 0;
    std::uint64_t shed_draining = 0;
    std::uint64_t retries = 0;           ///< server-side retry attempts
    std::uint64_t drain_cancelled = 0;   ///< jobs hard-cancelled by the drain deadline
};

/// Transport threads per sweep job on a server whose `executors` each run
/// `job_workers` sweep workers, over `cores` CPUs: max(1, cores /
/// (executors × job_workers)), with job_workers 0 counted as `cores` (it
/// means "every available core" to run_sweep). Concurrent jobs then never
/// ask for more threads than cores unless the executors and sweep workers
/// alone already do. Outputs are the same at any value: transports are
/// bit-identical at every thread count.
std::size_t job_thread_share(std::size_t cores, std::size_t executors,
                             std::size_t job_workers) noexcept;

class Server {
public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind the socket, open/recover the store, spawn the acceptor and
    /// executor threads. Throws precondition_error on bind/store failure.
    void start();

    /// Begin graceful drain: stop accepting, answer queued/new submissions
    /// with `rejected:draining`, give running jobs drain_seconds, then
    /// hard-cancel. Idempotent; safe from any thread (the signal waiter).
    void request_drain();

    /// Block until the drain completes and every thread has joined.
    void wait();

    /// Counters snapshot (monotonic; thread-safe).
    ServerCounters counters() const;

    /// Jobs currently queued + running.
    std::size_t load() const;

    const ServerConfig& config() const noexcept { return config_; }

    /// ThreadPool::available_cores() when the server was constructed.
    std::size_t cores() const noexcept { return cores_; }

    /// SweepOptions::threads_per_job for every job: job_thread_share(cores(),
    /// executors, job_workers), fixed for the server's lifetime.
    std::size_t threads_per_job() const noexcept { return threads_per_job_; }

private:
    struct Job;
    struct Connection;

    void accept_loop();
    void executor_loop();
    void serve_connection(int fd);
    std::string handle_request(const std::string& line);
    std::string handle_submit(const JsonValue& request);
    void execute_job(Job& job);
    std::string run_job_attempts(Job& job);

    ServerConfig config_;
    std::size_t cores_ = 1;
    std::size_t threads_per_job_ = 1;
    std::unique_ptr<ArtifactStore> store_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};

    std::thread acceptor_;
    std::vector<std::thread> executors_;
    std::vector<std::thread> connections_;

    mutable std::mutex mutex_;               ///< queue + counters + connection registry
    std::condition_variable queue_cv_;       ///< executors wait here
    std::condition_variable idle_cv_;        ///< wait() waits here
    std::deque<std::shared_ptr<Job>> queue_;
    std::size_t running_ = 0;
    std::size_t answering_ = 0;              ///< connections between reading a request and sending its answer
    std::vector<int> connection_fds_;
    ServerCounters counters_;

    std::atomic<bool> draining_{false};      ///< no new work
    std::atomic<bool> hard_draining_{false}; ///< queued jobs answer draining, stragglers cancelled
    bool stop_executors_ = false;            ///< guarded by mutex_; set once the drain is idle
    CancelToken drain_token_;                ///< parent of every job token
    bool started_ = false;
};

}  // namespace nb::serve
