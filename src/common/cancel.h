// Cooperative cancellation with optional deadlines (see DESIGN.md section 9).
//
// There is no preemption anywhere in this library — a hung or over-budget
// job is stopped by the job itself noticing and unwinding. A CancelToken is
// the shared flag: the owner (the sweep engine's watchdog deadline, a test,
// eventually nb_serve's admission control) arms it; the running code polls
// it at natural boundaries and throws cancelled_error, which unwinds through
// the ThreadPool's existing exception drain, leaving every pool reusable.
//
// Poll points:
//   * ThreadPool::parallel_for's token overload checks before every chunk
//     claim, so wide fan-outs stop within one chunk;
//   * the BeepTransport driver (any shard count) and TdmaTransport's batch
//     loop call cancel_poll() at round boundaries, covering the
//     long-running single-job case;
//   * cancel_poll() reads a thread-local token installed by CancelScope, so
//     deep callees (the transports) need no token plumbing through their
//     signatures — the sweep engine scopes each job and everything the job
//     thread runs polls the job's token.
//
// Deadlines make the token a watchdog without a watchdog thread: cancelled()
// is true once steady_clock passes the deadline, and the next poll turns the
// hang into a timed-out JobError instead of a stuck worker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace nb {

/// Thrown by polls when their token is cancelled or past its deadline. The
/// sweep engine classifies it as a timeout (retryable) — distinct from both
/// injected/transient faults and fatal precondition violations.
class cancelled_error : public std::runtime_error {
public:
    cancelled_error() : std::runtime_error("operation cancelled (watchdog deadline or explicit cancel)") {}
};

class CancelToken {
public:
    CancelToken() = default;

    CancelToken(const CancelToken&) = delete;
    CancelToken& operator=(const CancelToken&) = delete;

    /// Request cancellation. Thread-safe; polls observe it at their next
    /// boundary.
    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

    /// Link a parent token: this token also reports cancelled once `parent`
    /// does (flag or deadline), transitively through the parent's own chain.
    /// This is how an outer owner — nb_serve's per-job deadline and drain
    /// cancel — reaches work that installs its *own* per-attempt tokens on
    /// other threads (the sweep engine's run_one_job): each inner token links
    /// the outer one instead of the outer scope having to cross threads.
    /// Non-owning: `parent` must outlive this token; set before the token is
    /// shared with other threads.
    void set_parent(const CancelToken* parent) noexcept { parent_ = parent; }

    /// Arm the watchdog: cancelled() becomes true once `deadline` passes.
    void set_deadline(std::chrono::steady_clock::time_point deadline) noexcept {
        deadline_ns_.store(deadline.time_since_epoch().count(), std::memory_order_relaxed);
    }

    /// set_deadline(now + timeout).
    void set_timeout(std::chrono::nanoseconds timeout) noexcept {
        set_deadline(std::chrono::steady_clock::now() + timeout);
    }

    bool cancelled() const noexcept {
        if (cancelled_.load(std::memory_order_relaxed)) {
            return true;
        }
        const auto deadline = deadline_ns_.load(std::memory_order_relaxed);
        if (deadline != 0 &&
            std::chrono::steady_clock::now().time_since_epoch().count() >= deadline) {
            return true;
        }
        return parent_ != nullptr && parent_->cancelled();
    }

    /// Throw cancelled_error if cancelled. The poll call sites use this.
    void poll() const {
        if (cancelled()) {
            throw cancelled_error();
        }
    }

    /// Disarm flag and deadline (the sweep engine reuses one token per job
    /// slot across retries). The parent link is kept: reset() disarms this
    /// token's own state, not the outer owner's.
    void reset() noexcept {
        cancelled_.store(false, std::memory_order_relaxed);
        deadline_ns_.store(0, std::memory_order_relaxed);
    }

private:
    std::atomic<bool> cancelled_{false};
    std::atomic<std::int64_t> deadline_ns_{0};  ///< steady_clock epoch ns; 0 = none
    const CancelToken* parent_ = nullptr;       ///< linked outer token (not owned)
};

/// Installs `token` as the calling thread's current cancel token for the
/// scope's lifetime (nestable; restores the previous token on exit).
class CancelScope {
public:
    explicit CancelScope(const CancelToken* token) noexcept;
    ~CancelScope();

    CancelScope(const CancelScope&) = delete;
    CancelScope& operator=(const CancelScope&) = delete;

private:
    const CancelToken* previous_;
};

/// The calling thread's current token (null outside any CancelScope).
const CancelToken* current_cancel_token() noexcept;

/// Throw cancelled_error if the calling thread's current token (if any) is
/// cancelled. One relaxed load when no token is installed — cheap enough for
/// round boundaries.
inline void cancel_poll() {
    if (const CancelToken* token = current_cancel_token()) {
        token->poll();
    }
}

}  // namespace nb
