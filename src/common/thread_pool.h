// Minimal fixed-size worker pool for fanning independent per-node work out
// of the simulation hot loops (see DESIGN.md section 2).
//
// The pool is built once (per transport) and reused across rounds: workers
// persist, and each parallel_for distributes an index range over them in
// chunks claimed from an atomic cursor. Callers that need per-worker scratch
// state receive a stable worker id in [0, worker_count()), so reusable
// workspaces can be preallocated one per worker and never contended.
//
// Determinism contract: parallel_for imposes no ordering between indices, so
// callers must write results only to per-index (or per-worker, merged
// afterwards in a fixed order) slots. All users in this library follow that
// discipline, which keeps simulation outputs bit-identical for any worker
// count — tested by the transport equivalence suite.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "common/cancel.h"

namespace nb {

class ThreadPool {
public:
    /// A pool with `worker_count` workers; 0 means available_cores().
    /// With one worker no threads are spawned and all work runs inline.
    explicit ThreadPool(std::size_t worker_count = 0);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    std::size_t worker_count() const noexcept { return worker_count_; }

    /// Run fn(worker, index) for every index in [0, count), distributed over
    /// the workers (the calling thread participates). Blocks until all
    /// indices complete; the first exception thrown by fn is rethrown and
    /// the pool stays usable afterwards. Concurrent multi-index calls from
    /// distinct threads serialize (whole jobs queue, they never interleave);
    /// count <= 1 calls run inline on the calling thread as worker 0 without
    /// queueing, so they may overlap another caller's job — callers sharing
    /// per-worker state across calls must not rely on serialization for
    /// single-index jobs. A *nested* call from inside one of this pool's own
    /// jobs (any count) runs inline on the calling worker's id — same
    /// outputs, no added parallelism, no deadlock, no scratch aliasing.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    /// parallel_for with cooperative cancellation: `token` (may be null =
    /// plain parallel_for) is checked before every chunk claim, so a
    /// cancelled or past-deadline token stops the job within one chunk and
    /// cancelled_error is rethrown to the caller. Already-started indices
    /// finish; the pool stays fully reusable afterwards (same drain path as
    /// an exception thrown by fn).
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t, std::size_t)>& fn,
                      const CancelToken* token);

    /// The number of CPUs the calling thread may run on: the count of its
    /// sched_getaffinity mask, or hardware concurrency if that call fails
    /// (at least 1). So a process started under `taskset -c 0,1` sizes its
    /// pools to 2, not to the host.
    static std::size_t available_cores() noexcept;

    /// The worker count `requested` resolves to: itself if nonzero, else
    /// available_cores().
    static std::size_t resolve_worker_count(std::size_t requested) noexcept;

    /// resolve_worker_count(requested) capped at max(1, items): the sizing
    /// policy for a pool whose jobs fan out over `items` units of work, so
    /// tiny inputs never spawn idle workers.
    static std::size_t worker_count_for(std::size_t requested, std::size_t items) noexcept;

private:
    struct Impl;

    std::size_t worker_count_ = 1;
    std::unique_ptr<Impl> impl_;  ///< null when worker_count_ == 1
};

}  // namespace nb
