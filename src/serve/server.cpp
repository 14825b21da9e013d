#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "scenarios/spec_json.h"
#include "scenarios/sweep.h"
#include "serve/wire.h"
#include "sim/codebook_cache.h"

namespace nb::serve {

namespace {

// Fired between accept() and the connection thread spawn — a connection the
// server drops before reading a byte. Clients see EOF and must treat it as a
// transient, retryable condition.
NB_FAILPOINT_DEFINE(fp_serve_accept, "serve.accept");
// Fired at the top of every job execution attempt — the server-side
// error-boundary seam. throw/oom exercise the retry + classification path;
// delay simulates slow jobs for overload and drain tests.
NB_FAILPOINT_DEFINE(fp_serve_job, "serve.job");

constexpr const char* serve_schema = "nb-serve/v1";

std::string error_response(const char* op, const JobError& error, std::size_t attempts) {
    std::ostringstream out;
    JsonWriter json(out, /*indent=*/0);
    json.begin_object();
    json.kv("ok", false);
    json.kv("op", op);
    json.kv("status", "error");
    json.kv("attempts", static_cast<std::uint64_t>(attempts));
    json.key("error").begin_object();
    json.kv("kind", error.kind);
    json.kv("site", error.site);
    json.kv("what", error.what);
    json.end_object();
    json.end_object();
    return out.str();
}

std::string bad_request(const std::string& op, const std::string& what) {
    JobError error;
    error.kind = "bad_request";
    error.what = what;
    return error_response(op.empty() ? "?" : op.c_str(), error, 0);
}

std::string rejected_response(const char* reason) {
    std::ostringstream out;
    JsonWriter json(out, /*indent=*/0);
    json.begin_object();
    json.kv("ok", false);
    json.kv("op", "submit");
    json.kv("status", "rejected");
    json.kv("reason", reason);
    json.end_object();
    return out.str();
}

}  // namespace

/// One admitted submission: the parsed spec subtree, the result slot the
/// executor fills, and the CancelToken that carries the job's deadline and
/// links the drain token as parent.
struct Server::Job {
    JsonValue spec;
    std::string store_as;
    std::size_t max_retries = 0;
    CancelToken token;

    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::string response;

    void complete(std::string text) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            response = std::move(text);
            done = true;
        }
        cv.notify_all();
    }
};

std::size_t job_thread_share(std::size_t cores, std::size_t executors,
                             std::size_t job_workers) noexcept {
    cores = std::max<std::size_t>(1, cores);
    const std::size_t sweep_workers = job_workers == 0 ? cores : job_workers;
    return std::max<std::size_t>(1, cores / (std::max<std::size_t>(1, executors) * sweep_workers));
}

Server::Server(ServerConfig config) : config_(std::move(config)) {
    require(!config_.socket_path.empty(), "serve: socket_path is required");
    require(!config_.store_dir.empty(), "serve: store_dir is required");
    config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
    config_.executors = std::max<std::size_t>(1, config_.executors);
    cores_ = ThreadPool::available_cores();
    threads_per_job_ = job_thread_share(cores_, config_.executors, config_.job_workers);
}

Server::~Server() {
    if (started_) {
        request_drain();
        wait();
    }
}

void Server::start() {
    require(!started_, "serve: already started");
    store_ = std::make_unique<ArtifactStore>(config_.store_dir);
    require(::pipe(wake_pipe_) == 0, "serve: cannot create the wake pipe");
    listen_fd_ = listen_unix(config_.socket_path, /*backlog=*/64);
    started_ = true;

    for (std::size_t i = 0; i < config_.executors; ++i) {
        executors_.emplace_back(&Server::executor_loop, this);
    }
    acceptor_ = std::thread(&Server::accept_loop, this);
}

void Server::request_drain() {
    if (draining_.exchange(true)) {
        return;
    }
    if (wake_pipe_[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    }
}

void Server::accept_loop() {
    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
        const int ready = ::poll(fds, 2, -1);
        if (draining_.load()) {
            break;
        }
        if (ready <= 0 || (fds[0].revents & POLLIN) == 0) {
            continue;
        }
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            continue;
        }
        try {
            fp_serve_accept.check();
        } catch (...) {
            // Injected accept fault: drop the connection before reading a
            // byte. The client observes EOF — transient by contract.
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.connections;
        connection_fds_.push_back(fd);
        connections_.emplace_back(&Server::serve_connection, this, fd);
    }
    // Drain step 1: close the listening socket and remove its path, so new
    // connections fail at connect() rather than queueing behind a drain.
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
}

void Server::wait() {
    if (!started_) {
        return;
    }
    require(draining_.load(), "serve: wait() before request_drain()");
    acceptor_.join();

    // Drain step 2: the grace period. In-flight and queued jobs may finish
    // normally until drain_seconds elapse.
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto grace = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(std::max(0.0, config_.drain_seconds)));
        const bool idle = idle_cv_.wait_for(
            lock, grace, [&] { return queue_.empty() && running_ == 0; });
        if (!idle) {
            // Drain step 3: the deadline passed. Queued jobs answer
            // `rejected:draining`; running jobs are hard-cancelled through
            // the drain token (their next poll unwinds, classified timeout).
            hard_draining_.store(true);
            counters_.drain_cancelled += running_;
            drain_token_.cancel();
            queue_cv_.notify_all();
            idle_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
        }
        stop_executors_ = true;
    }
    queue_cv_.notify_all();
    for (auto& executor : executors_) {
        executor.join();
    }
    executors_.clear();

    // Every pending submit is answered; let each connection finish sending
    // the answer it holds (a job finishing only hands its answer to the
    // connection thread), then wake connection threads blocked in recv so
    // they observe EOF and exit. The wait is bounded by the grace period so
    // a client that stopped reading cannot hold the drain open.
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_cv_.wait_for(lock,
                          std::chrono::duration<double>(std::max(0.0, config_.drain_seconds)),
                          [&] { return answering_ == 0; });
        for (const int fd : connection_fds_) {
            ::shutdown(fd, SHUT_RDWR);
        }
    }
    for (auto& connection : connections_) {
        connection.join();
    }
    connections_.clear();

    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
    // "Flush the store": every put was individually durable (fsync'd file +
    // directory), so the only remaining step is dropping the handle.
    store_.reset();
    started_ = false;
}

void Server::serve_connection(int fd) {
    LineReader reader(fd);
    std::string line;
    while (reader.read_line(line, config_.max_request_bytes)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++answering_;
        }
        std::string response;
        try {
            response = handle_request(line);
        } catch (const std::exception& e) {
            response = bad_request("?", e.what());
        } catch (...) {
            response = bad_request("?", "unknown error");
        }
        const bool sent = send_line(fd, response);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --answering_;
        }
        idle_cv_.notify_all();
        if (!sent) {
            break;
        }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    connection_fds_.erase(std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
                          connection_fds_.end());
}

std::string Server::handle_request(const std::string& line) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.requests;
    }
    JsonValue request;
    try {
        request = JsonValue::parse(line);
    } catch (const precondition_error& e) {
        return bad_request("?", std::string("request is not valid JSON: ") + e.what());
    }
    if (!request.is_object()) {
        return bad_request("?", "request must be a JSON object");
    }
    const JsonValue* op_value = request.find("op");
    if (op_value == nullptr || !op_value->is_string()) {
        return bad_request("?", "missing string field 'op'");
    }
    const std::string& op = op_value->as_string();

    try {
        if (op == "ping") {
            std::ostringstream out;
            JsonWriter json(out, /*indent=*/0);
            json.begin_object();
            json.kv("ok", true);
            json.kv("op", "ping");
            json.kv("schema", serve_schema);
            json.end_object();
            return out.str();
        }
        if (op == "submit") {
            return handle_submit(request);
        }
        if (op == "get") {
            const JsonValue* name = request.find("name");
            if (name == nullptr || !name->is_string()) {
                return bad_request(op, "get: missing string field 'name'");
            }
            const JsonValue* version = request.find("version");
            const auto object = version != nullptr
                                    ? store_->get(name->as_string(), version->as_uint64())
                                    : store_->get(name->as_string());
            std::ostringstream out;
            JsonWriter json(out, /*indent=*/0);
            json.begin_object();
            json.kv("ok", object.has_value());
            json.kv("op", "get");
            json.kv("name", name->as_string());
            if (object.has_value()) {
                json.kv("version", object->version);
                json.kv("bytes", object->bytes);
            } else {
                json.kv("status", "not_found");
            }
            json.end_object();
            return out.str();
        }
        if (op == "put" || op == "cput") {
            const JsonValue* name = request.find("name");
            const JsonValue* bytes = request.find("bytes");
            if (name == nullptr || !name->is_string() || bytes == nullptr ||
                !bytes->is_string()) {
                return bad_request(op, op + ": required string fields 'name' and 'bytes'");
            }
            std::optional<std::uint64_t> version;
            if (op == "put") {
                version = store_->put(name->as_string(), bytes->as_string());
            } else {
                const JsonValue* expected = request.find("expected");
                if (expected == nullptr) {
                    return bad_request(op, "cput: missing field 'expected'");
                }
                version = store_->cput(name->as_string(), bytes->as_string(),
                                       expected->as_uint64());
            }
            std::ostringstream out;
            JsonWriter json(out, /*indent=*/0);
            json.begin_object();
            json.kv("ok", version.has_value());
            json.kv("op", op);
            json.kv("name", name->as_string());
            if (version.has_value()) {
                json.kv("version", *version);
            } else {
                json.kv("status", "conflict");
            }
            json.end_object();
            return out.str();
        }
        if (op == "list") {
            std::ostringstream out;
            JsonWriter json(out, /*indent=*/0);
            json.begin_object();
            json.kv("ok", true);
            json.kv("op", "list");
            json.key("objects").begin_array();
            for (const auto& entry : store_->list()) {
                json.begin_object();
                json.kv("name", entry.name);
                json.kv("version", entry.latest_version);
                json.kv("bytes", entry.bytes);
                json.end_object();
            }
            json.end_array();
            json.end_object();
            return out.str();
        }
        if (op == "stats") {
            const CodebookCache::Stats cache = CodebookCache::instance().stats();
            const ServerCounters server = counters();
            std::ostringstream out;
            JsonWriter json(out, /*indent=*/0);
            json.begin_object();
            json.kv("ok", true);
            json.kv("op", "stats");
            json.kv("schema", serve_schema);
            json.key("cache").begin_object();
            json.kv("hits", cache.hits);
            json.kv("builds", cache.builds);
            json.kv("evictions", cache.evictions + cache.evictions_capacity);
            json.kv("bytes_resident", static_cast<std::uint64_t>(cache.bytes_resident));
            json.kv("hit_rate", cache.hit_rate());
            json.end_object();
            json.key("server").begin_object();
            json.kv("connections", server.connections);
            json.kv("requests", server.requests);
            json.kv("submitted", server.submitted);
            json.kv("completed", server.completed);
            json.kv("failed", server.failed);
            json.kv("shed_overloaded", server.shed_overloaded);
            json.kv("shed_draining", server.shed_draining);
            json.kv("retries", server.retries);
            json.kv("drain_cancelled", server.drain_cancelled);
            json.kv("load", static_cast<std::uint64_t>(load()));
            json.kv("queue_capacity", static_cast<std::uint64_t>(config_.queue_capacity));
            json.kv("draining", draining_.load());
            json.kv("cores", static_cast<std::uint64_t>(cores_));
            json.kv("executors", static_cast<std::uint64_t>(config_.executors));
            json.kv("job_workers", static_cast<std::uint64_t>(config_.job_workers));
            json.kv("threads_per_job", static_cast<std::uint64_t>(threads_per_job_));
            json.end_object();
            json.end_object();
            return out.str();
        }
    } catch (const precondition_error& e) {
        return bad_request(op, e.what());
    }
    return bad_request(op, "unknown op '" + op + "'");
}

std::string Server::handle_submit(const JsonValue& request) {
    const JsonValue* spec = request.find("spec");
    if (spec == nullptr || !spec->is_object()) {
        return bad_request("submit", "submit: missing object field 'spec'");
    }

    auto job = std::make_shared<Job>();
    job->spec = *spec;
    job->max_retries = config_.max_retries;
    if (const JsonValue* retries = request.find("max_retries")) {
        job->max_retries = std::min<std::size_t>(
            config_.max_retries, static_cast<std::size_t>(retries->as_uint64()));
    }
    if (const JsonValue* store_as = request.find("store_as")) {
        if (!store_as->is_string() || !ArtifactStore::valid_name(store_as->as_string())) {
            return bad_request("submit", "submit: 'store_as' is not a valid object name");
        }
        job->store_as = store_as->as_string();
    }

    double deadline = config_.default_deadline_seconds;
    if (const JsonValue* requested = request.find("deadline_seconds")) {
        deadline = requested->as_double();
        if (deadline <= 0.0) {
            return bad_request("submit", "submit: 'deadline_seconds' must be > 0");
        }
    }
    if (config_.max_deadline_seconds > 0.0) {
        deadline = deadline <= 0.0 ? config_.max_deadline_seconds
                                   : std::min(deadline, config_.max_deadline_seconds);
    }

    // The deadline is armed at ADMISSION, before the queue: a job that sits
    // out its budget waiting dies at its first poll instead of running
    // stale. The drain token is the parent, so a drain hard-cancel reaches
    // this job wherever it is.
    job->token.set_parent(&drain_token_);
    if (deadline > 0.0) {
        job->token.set_timeout(std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(deadline)));
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_.load()) {
            ++counters_.shed_draining;
            return rejected_response("draining");
        }
        if (queue_.size() + running_ >= config_.queue_capacity) {
            // Load shedding: the client learns NOW, with a typed reason —
            // never an unbounded backlog that converts overload into
            // latency, memory growth, and eventually timeouts.
            ++counters_.shed_overloaded;
            return rejected_response("overloaded");
        }
        ++counters_.submitted;
        queue_.push_back(job);
    }
    queue_cv_.notify_one();

    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock, [&] { return job->done; });
    return job->response;
}

void Server::executor_loop() {
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queue_cv_.wait(lock, [&] { return !queue_.empty() || stop_executors_; });
            if (queue_.empty()) {
                return;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        if (hard_draining_.load()) {
            // Past the drain deadline: queued jobs are not started, they are
            // answered — a typed rejection beats a cancelled half-run.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.shed_draining;
            }
            job->complete(rejected_response("draining"));
        } else {
            execute_job(*job);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --running_;
        }
        idle_cv_.notify_all();
    }
}

void Server::execute_job(Job& job) {
    job.complete(run_job_attempts(job));
}

std::string Server::run_job_attempts(Job& job) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t attempts = 0;
    std::uint32_t backoff_ms = std::max<std::uint32_t>(1, config_.retry_backoff_ms);
    for (;;) {
        ++attempts;
        std::optional<JobError> error;
        try {
            fp_serve_job.check();
            job.token.poll();  // dead on arrival: deadline spent in the queue, or drain

            SweepSpec spec = sweep_spec_from_value(job.spec, "submit.spec");
            SweepOptions options;
            options.workers = config_.job_workers;
            options.threads_per_job = threads_per_job_;
            options.cancel = &job.token;
            const SweepResult result = run_sweep(spec, options);

            if (result.failed_jobs > 0) {
                // The sweep's own per-job boundary already retried per the
                // spec; a surviving failure escalates to the server boundary
                // with its original classification.
                for (const auto& record : result.job_records) {
                    if (record.error.has_value()) {
                        error = record.error;
                        break;
                    }
                }
            } else {
                std::ostringstream artifact;
                JsonWriter json(artifact, /*indent=*/2);
                sweep_results_json(json, result);
                const std::string bytes = artifact.str();

                // Durable-before-acknowledged: the store put happens before
                // the client ever sees "done", so an acknowledged result
                // survives any later crash.
                std::optional<std::uint64_t> stored_version;
                if (!job.store_as.empty()) {
                    stored_version = store_->put(job.store_as, bytes);
                }

                const double wall = std::chrono::duration<double>(
                                        std::chrono::steady_clock::now() - start)
                                        .count();
                std::ostringstream out;
                JsonWriter response(out, /*indent=*/0);
                response.begin_object();
                response.kv("ok", true);
                response.kv("op", "submit");
                response.kv("status", "done");
                response.kv("attempts", static_cast<std::uint64_t>(attempts));
                response.kv("jobs", static_cast<std::uint64_t>(result.jobs));
                response.kv("wall_seconds", wall);
                if (stored_version.has_value()) {
                    response.kv("stored_as", job.store_as);
                    response.kv("stored_version", *stored_version);
                }
                response.kv("artifact", bytes);
                response.end_object();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++counters_.completed;
                }
                return out.str();
            }
        } catch (...) {
            error = classify_job_error(std::current_exception());
        }

        const bool budget_left = attempts <= job.max_retries;
        const bool cancelled = job.token.cancelled();
        if (error->retryable() && budget_left && !cancelled) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.retries;
            }
            // Cancellable backoff: a monolithic sleep_for would hold this
            // executor hostage for the full backoff even after the drain
            // deadline hard-cancels the job — with the cap at seconds-scale
            // that blows straight through the drain grace period. Sleep in
            // small slices, polling the token, and on wake-by-cancel fall
            // through to the failure path instead of burning an attempt.
            const auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(std::min(backoff_ms, config_.retry_backoff_cap_ms));
            while (!job.token.cancelled()) {
                const auto now = std::chrono::steady_clock::now();
                if (now >= deadline) {
                    break;
                }
                std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
                    deadline - now, std::chrono::milliseconds(5)));
            }
            if (!job.token.cancelled()) {
                backoff_ms = std::min(backoff_ms * 2, config_.retry_backoff_cap_ms);
                continue;
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.failed;
        }
        return error_response("submit", *error, attempts);
    }
}

ServerCounters Server::counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::size_t Server::load() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size() + running_;
}

}  // namespace nb::serve
