// ThreadPool stress tests for the sweep-scheduler usage patterns: nested
// submits from worker threads, exception propagation out of a job (and the
// pool's reusability afterwards), and shutdown while external callers have
// jobs queued behind run_mutex; plus the core count pools default to. The
// CI ASan+UBSan job runs these under the sanitizers; explicit ctest timeouts
// turn a deadlocked scheduler into a fast failure instead of a hung workflow.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/error.h"
#include "common/thread_pool.h"

namespace nb {
namespace {

TEST(ThreadPoolStress, NestedSubmitFromWorkerThreadsRunsInline) {
    ThreadPool pool(4);
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 32;
    std::atomic<std::size_t> inner_total{0};
    std::vector<std::size_t> outer_hits(kOuter, 0);

    pool.parallel_for(kOuter, [&](std::size_t worker, std::size_t outer) {
        ASSERT_LT(worker, pool.worker_count());
        outer_hits[outer] += 1;
        // Nested submit on the same pool: must complete (not deadlock on
        // run_mutex) and must reuse the calling worker's id so per-worker
        // scratch stays single-threaded.
        pool.parallel_for(kInner, [&, worker](std::size_t nested_worker, std::size_t) {
            EXPECT_EQ(nested_worker, worker);
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });

    EXPECT_EQ(inner_total.load(), kOuter * kInner);
    for (const auto hits : outer_hits) {
        EXPECT_EQ(hits, 1u);
    }
}

TEST(ThreadPoolStress, DoublyNestedSubmitStillCompletes) {
    ThreadPool pool(3);
    std::atomic<std::size_t> leaves{0};
    pool.parallel_for(6, [&](std::size_t, std::size_t) {
        pool.parallel_for(4, [&](std::size_t, std::size_t) {
            pool.parallel_for(2, [&](std::size_t, std::size_t) {
                leaves.fetch_add(1, std::memory_order_relaxed);
            });
        });
    });
    EXPECT_EQ(leaves.load(), 6u * 4u * 2u);
}

TEST(ThreadPoolStress, ExceptionPropagatesAndPoolStaysUsable) {
    ThreadPool pool(4);
    std::atomic<std::size_t> completed{0};
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::size_t, std::size_t index) {
                              if (index == 17) {
                                  throw std::runtime_error("job failure");
                              }
                              completed.fetch_add(1, std::memory_order_relaxed);
                          }),
        std::runtime_error);

    // The failed job must leave the pool reusable, and the next job intact.
    completed.store(0);
    pool.parallel_for(128, [&](std::size_t, std::size_t) {
        completed.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(completed.load(), 128u);
}

TEST(ThreadPoolStress, ExceptionFromNestedSubmitPropagatesToOuterCaller) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(8,
                                   [&](std::size_t, std::size_t) {
                                       pool.parallel_for(8, [](std::size_t, std::size_t) {
                                           throw precondition_error("nested failure");
                                       });
                                   }),
                 precondition_error);
}

TEST(ThreadPoolStress, ConcurrentExternalCallersSerializeThenShutdownCleanly) {
    constexpr std::size_t kCallers = 8;
    constexpr std::size_t kJobsPerCaller = 16;
    constexpr std::size_t kIndices = 64;
    std::atomic<std::size_t> total{0};
    {
        // Destroyed at scope exit, immediately after the callers finish: a
        // use-after-free or unjoined helper here is what the sanitizer job
        // exists to catch.
        ThreadPool pool(4);
        std::vector<std::thread> callers;
        callers.reserve(kCallers);
        for (std::size_t caller = 0; caller < kCallers; ++caller) {
            callers.emplace_back([&pool, &total] {
                for (std::size_t job = 0; job < kJobsPerCaller; ++job) {
                    // Whole jobs queue on run_mutex and never interleave.
                    pool.parallel_for(kIndices, [&total](std::size_t, std::size_t) {
                        total.fetch_add(1, std::memory_order_relaxed);
                    });
                }
            });
        }
        for (auto& caller : callers) {
            caller.join();
        }
    }
    EXPECT_EQ(total.load(), kCallers * kJobsPerCaller * kIndices);
}

TEST(ThreadPoolStress, CancelledParallelForThrowsAndLeavesPoolReusable) {
    ThreadPool pool(4);
    CancelToken token;
    std::atomic<std::size_t> started{0};

    // Cancel from inside an early index: the token overload checks before
    // every chunk claim, so the fan-out stops within one chunk per worker
    // and the wave's cancelled_error reaches the caller.
    EXPECT_THROW(pool.parallel_for(
                     10000,
                     [&](std::size_t, std::size_t) {
                         if (started.fetch_add(1, std::memory_order_relaxed) == 0) {
                             token.cancel();
                         }
                     },
                     &token),
                 cancelled_error);
    EXPECT_LT(started.load(), 10000u);

    // The cancelled wave must not wedge the pool: a plain parallel_for and a
    // token run with a fresh (unarmed) token both complete in full.
    std::atomic<std::size_t> completed{0};
    pool.parallel_for(256, [&](std::size_t, std::size_t) {
        completed.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(completed.load(), 256u);

    token.reset();
    completed.store(0);
    pool.parallel_for(
        256, [&](std::size_t, std::size_t) { completed.fetch_add(1, std::memory_order_relaxed); },
        &token);
    EXPECT_EQ(completed.load(), 256u);
}

TEST(ThreadPoolStress, AlreadyCancelledTokenStopsBeforeAnyIndexRuns) {
    ThreadPool pool(2);
    CancelToken token;
    token.cancel();
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(pool.parallel_for(
                     64, [&](std::size_t, std::size_t) { ran.fetch_add(1); }, &token),
                 cancelled_error);
    EXPECT_EQ(ran.load(), 0u);
}

TEST(ThreadPoolStress, PastDeadlineTokenCancelsLikeAnExplicitCancel) {
    // The watchdog shape: no one calls cancel(); the deadline alone flips
    // cancelled() and the next chunk claim throws.
    ThreadPool pool(2);
    CancelToken token;
    token.set_timeout(std::chrono::nanoseconds(1));
    EXPECT_THROW(pool.parallel_for(
                     64, [](std::size_t, std::size_t) {}, &token),
                 cancelled_error);

    // reset() disarms the deadline too — the sweep engine reuses one token
    // per job slot across retries.
    token.reset();
    std::atomic<std::size_t> completed{0};
    pool.parallel_for(
        64, [&](std::size_t, std::size_t) { completed.fetch_add(1); }, &token);
    EXPECT_EQ(completed.load(), 64u);
}

TEST(ThreadPoolStress, CancelPollReadsTheScopedToken) {
    // cancel_poll() is how deep callees (the transports' round loops) see
    // the job token without signature plumbing: installed via CancelScope,
    // thread-local, nestable, restored on exit.
    EXPECT_NO_THROW(cancel_poll());  // no scope installed: no-op

    CancelToken token;
    {
        CancelScope scope(&token);
        EXPECT_NO_THROW(cancel_poll());
        token.cancel();
        EXPECT_THROW(cancel_poll(), cancelled_error);
        {
            CancelScope inner(nullptr);  // shadow: callee opted out
            EXPECT_NO_THROW(cancel_poll());
        }
        EXPECT_THROW(cancel_poll(), cancelled_error);  // restored on exit
    }
    EXPECT_NO_THROW(cancel_poll());  // scope gone
}

TEST(ThreadPoolStress, SingleWorkerPoolRunsEverythingInline) {
    ThreadPool pool(1);
    std::size_t count = 0;  // no atomic needed: one worker means one thread
    pool.parallel_for(32, [&](std::size_t worker, std::size_t) {
        EXPECT_EQ(worker, 0u);
        pool.parallel_for(4, [&](std::size_t, std::size_t) { ++count; });
    });
    EXPECT_EQ(count, 128u);
}

TEST(ThreadPoolCores, AvailableCoresFollowsTheThreadAffinityMask) {
    // Narrows only this test thread's own mask, then restores it.
    cpu_set_t original;
    CPU_ZERO(&original);
    ASSERT_EQ(::sched_getaffinity(0, sizeof original, &original), 0);
    EXPECT_EQ(ThreadPool::available_cores(), static_cast<std::size_t>(CPU_COUNT(&original)));

    int first = 0;
    while (!CPU_ISSET(first, &original)) {
        ++first;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
    const std::size_t narrowed = ThreadPool::available_cores();
    const std::size_t resolved = ThreadPool::resolve_worker_count(0);
    ASSERT_EQ(::sched_setaffinity(0, sizeof original, &original), 0);

    EXPECT_EQ(narrowed, 1u);
    EXPECT_EQ(resolved, 1u);
    EXPECT_EQ(ThreadPool::resolve_worker_count(3), 3u);
}

}  // namespace
}  // namespace nb
