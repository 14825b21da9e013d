#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"

namespace nb {

namespace {

/// Which pool Impl (if any) the current thread is executing a job for, and
/// under which worker id. parallel_for consults these to run nested submits
/// inline on the calling worker — a worker blocking on run_mutex for its own
/// pool would deadlock (the outer job cannot finish until the worker
/// returns), and the outer worker id must be reused so per-worker scratch
/// stays exclusive to one thread.
thread_local const void* current_pool_impl = nullptr;
thread_local std::size_t current_pool_worker = 0;

struct WorkerScope {
    WorkerScope(const void* impl, std::size_t worker)
        : previous_impl(current_pool_impl), previous_worker(current_pool_worker) {
        current_pool_impl = impl;
        current_pool_worker = worker;
    }
    ~WorkerScope() {
        current_pool_impl = previous_impl;
        current_pool_worker = previous_worker;
    }
    const void* previous_impl;
    std::size_t previous_worker;
};

}  // namespace

struct ThreadPool::Impl {
    explicit Impl(std::size_t helper_count) {
        helpers.reserve(helper_count);
        for (std::size_t i = 0; i < helper_count; ++i) {
            // Worker id 0 is the calling thread; helpers are 1-based.
            helpers.emplace_back([this, worker = i + 1] { helper_loop(worker); });
        }
    }

    ~Impl() {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stopping = true;
        }
        work_ready.notify_all();
        for (auto& helper : helpers) {
            helper.join();
        }
    }

    void run(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn,
             const CancelToken* token) {
        // One job at a time: concurrent parallel_for callers (e.g. two
        // threads sharing one transport) queue here instead of clobbering
        // each other's job state.
        std::lock_guard<std::mutex> run_lock(run_mutex);
        {
            std::lock_guard<std::mutex> lock(mutex);
            job_fn = &fn;
            job_token = token;
            job_count = count;
            next_index.store(0, std::memory_order_relaxed);
            active_helpers = helpers.size();
            error = nullptr;
            ++generation;
        }
        work_ready.notify_all();
        work_chunks(0);
        {
            std::unique_lock<std::mutex> lock(mutex);
            job_done.wait(lock, [this] { return active_helpers == 0; });
            job_fn = nullptr;
            job_token = nullptr;
            if (error != nullptr) {
                std::rethrow_exception(error);
            }
        }
    }

    void work_chunks(std::size_t worker) {
        const WorkerScope scope(this, worker);
        // Claim small chunks so uneven per-index costs still balance while
        // keeping atomic traffic low.
        const std::size_t total_workers = helpers.size() + 1;
        const std::size_t chunk =
            std::max<std::size_t>(1, job_count / (8 * total_workers));
        while (true) {
            // Cancellation boundary: a cancelled/past-deadline token stops
            // this worker before it claims more work and records the
            // cancellation through the same error slot an fn exception uses,
            // so the drain-and-rethrow path keeps the pool reusable.
            if (job_token != nullptr && job_token->cancelled()) {
                std::lock_guard<std::mutex> lock(mutex);
                if (error == nullptr) {
                    error = std::make_exception_ptr(cancelled_error());
                }
                next_index.store(job_count, std::memory_order_relaxed);
                return;
            }
            const std::size_t begin = next_index.fetch_add(chunk, std::memory_order_relaxed);
            if (begin >= job_count) {
                return;
            }
            const std::size_t end = std::min(begin + chunk, job_count);
            try {
                for (std::size_t index = begin; index < end; ++index) {
                    (*job_fn)(worker, index);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (error == nullptr) {
                    error = std::current_exception();
                }
                // Drain the remaining indices so the job still terminates.
                next_index.store(job_count, std::memory_order_relaxed);
                return;
            }
        }
    }

    void helper_loop(std::size_t worker) {
        std::uint64_t seen_generation = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                work_ready.wait(lock, [this, seen_generation] {
                    return stopping || generation != seen_generation;
                });
                if (stopping) {
                    return;
                }
                seen_generation = generation;
            }
            work_chunks(worker);
            {
                std::lock_guard<std::mutex> lock(mutex);
                --active_helpers;
            }
            job_done.notify_one();
        }
    }

    std::vector<std::thread> helpers;
    std::mutex run_mutex;  ///< serializes whole jobs
    std::mutex mutex;      ///< guards the per-job state below
    std::condition_variable work_ready;
    std::condition_variable job_done;
    const std::function<void(std::size_t, std::size_t)>* job_fn = nullptr;
    const CancelToken* job_token = nullptr;  ///< written under run_mutex before the job starts
    std::size_t job_count = 0;
    std::atomic<std::size_t> next_index{0};
    std::size_t active_helpers = 0;
    std::uint64_t generation = 0;
    std::exception_ptr error;
    bool stopping = false;
};

std::size_t ThreadPool::available_cores() noexcept {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (::sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int allowed = CPU_COUNT(&mask);
        if (allowed > 0) {
            return static_cast<std::size_t>(allowed);
        }
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

std::size_t ThreadPool::resolve_worker_count(std::size_t requested) noexcept {
    return requested != 0 ? requested : available_cores();
}

std::size_t ThreadPool::worker_count_for(std::size_t requested, std::size_t items) noexcept {
    return std::min(resolve_worker_count(requested), std::max<std::size_t>(1, items));
}

ThreadPool::ThreadPool(std::size_t worker_count)
    : worker_count_(resolve_worker_count(worker_count)) {
    if (worker_count_ > 1) {
        impl_ = std::make_unique<Impl>(worker_count_ - 1);
    }
}

ThreadPool::~ThreadPool() = default;

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
    parallel_for(count, fn, nullptr);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t, std::size_t)>& fn,
                              const CancelToken* token) {
    require(static_cast<bool>(fn), "ThreadPool::parallel_for: empty function");
    if (count == 0) {
        return;
    }
    // Nested submit from inside one of this pool's own jobs (e.g. a sweep
    // job that itself fans out): run inline on the calling worker's id —
    // for ANY count, including 1. Blocking on run_mutex would deadlock, and
    // a fresh worker id 0 would let this thread race the real worker 0 on
    // per-worker scratch.
    const bool nested = impl_ != nullptr && current_pool_impl == impl_.get();
    if (nested || impl_ == nullptr || count == 1) {
        const std::size_t worker = nested ? current_pool_worker : 0;
        for (std::size_t index = 0; index < count; ++index) {
            if (token != nullptr) {
                token->poll();
            }
            fn(worker, index);
        }
        return;
    }
    impl_->run(count, fn, token);
}

}  // namespace nb
