/**
 * @file
 * Lightweight per-job pipeline tracing.
 *
 * A TraceRecorder attached via `StreamOptions::trace` collects one
 * span per (job, attempt, stage) as a job moves through
 * plan -> compile -> window -> dispatch -> execute -> reconstruct.
 * The job id doubles as the trace id (it is unique per scheduler
 * lifetime); `attempt` is the job's trace epoch, bumped on every
 * retry, so the spans of a retried job's final successful pass are
 * distinguishable from its failed ones.
 *
 * Spans carry wall-relative times (milliseconds since the recorder's
 * construction) so a timeline across threads and workers lines up on
 * one axis. Recording is a short critical section on the recorder's
 * own mutex — never the scheduler's — and the recorder keeps at most
 * maxJobs jobs (FIFO eviction), so tracing a long-running server is
 * bounded.
 *
 * Export: toJsonLines() emits one JSON object per span, the format
 * `bench_stream_throughput --trace FILE` writes.
 */
#ifndef JIGSAW_OBS_TRACE_H
#define JIGSAW_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace jigsaw {
namespace obs {

struct TraceSpan {
    std::uint64_t jobId = 0;
    /** Trace epoch: 0 on first dispatch, +1 per requeue. */
    std::uint32_t attempt = 0;
    /** One of "plan", "compile", "window", "dispatch", "execute",
     *  "reconstruct" (a string literal; not owned). */
    const char *stage = "";
    double startMs = 0.0;
    double durationMs = 0.0;
    std::uint64_t thread = 0;
    std::uint64_t windowId = 0; ///< 0 = never windowed
    std::uint64_t leaseId = 0;  ///< 0 = executed locally
};

class TraceRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit TraceRecorder(std::size_t max_jobs = 4096);

    /** Milliseconds from the recorder epoch to @p tp. */
    double toMs(Clock::time_point tp) const;
    double nowMs() const;

    /** Append a span (thread token filled from the calling thread). */
    void record(std::uint64_t job_id, std::uint32_t attempt,
                const char *stage, double start_ms, double duration_ms,
                std::uint64_t window_id, std::uint64_t lease_id);

    /** All spans of @p job_id, ordered by start time. */
    std::vector<TraceSpan> spansFor(std::uint64_t job_id) const;

    /** Job ids currently retained (insertion order). */
    std::vector<std::uint64_t> jobIds() const;

    std::size_t totalSpans() const;

    /** Every retained span as JSON-lines, jobs in insertion order. */
    std::string toJsonLines() const;

  private:
    mutable std::mutex mutex_;
    Clock::time_point epoch_;
    std::size_t maxJobs_;
    std::map<std::uint64_t, std::vector<TraceSpan>> spans_;
    std::deque<std::uint64_t> order_;
};

} // namespace obs
} // namespace jigsaw

#endif // JIGSAW_OBS_TRACE_H
