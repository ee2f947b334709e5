/**
 * @file
 * A small fixed-size thread pool with a parallel_for helper.
 *
 * Both the trainer and the SC bit-level evaluation harness fan work out
 * across samples; a shared pool avoids repeated thread creation and keeps
 * the code 2-core friendly (the pool size defaults to the hardware
 * concurrency).
 */

#ifndef SCDCNN_COMMON_THREAD_POOL_H
#define SCDCNN_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace scdcnn {

/**
 * Fixed-size worker pool executing void() jobs.
 */
class ThreadPool
{
  public:
    /** Create @p n_threads workers (0 means hardware concurrency). */
    explicit ThreadPool(size_t n_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    /**
     * Wait for the pool to go idle without destroying it: queued jobs
     * are helped along inline on the calling thread, then the call
     * blocks until every in-flight job has finished. Unlike wait(),
     * drain() is nesting-safe — a job running on a pool worker may
     * drain its own pool (its own enclosing job is excluded from the
     * idle condition, and queued work is executed inline instead of
     * waited on, so a 1-thread pool cannot deadlock on itself). The
     * serving layer uses this at shutdown to let in-flight compute
     * finish while keeping the pool alive for the next server.
     */
    void drain();

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /** Process-wide pool (lazily constructed). */
    static ThreadPool &global();

    /**
     * Whether the calling thread is a pool worker (of any pool). The
     * parallel helpers run inline in that case, so nested parallelism
     * — e.g. a batched forward pass whose layers also fan out — never
     * blocks a worker on work only it could execute.
     */
    static bool inWorker();

  private:
    void workerLoop();
    void runJob(std::function<void()> job);

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable cv_job_;
    std::condition_variable cv_done_;
    size_t in_flight_ = 0;
    size_t drainers_ = 0; //!< active drain() calls (guarded by mutex_)
    /** In-flight jobs whose threads are blocked inside drain() — they
     *  cannot finish until their drain returns, so every drainer's
     *  idle condition discounts them (guarded by mutex_). */
    size_t drainer_held_ = 0;
    bool stopping_ = false;
};

/**
 * Run body(i) for i in [begin, end) across the global pool.
 *
 * Work is divided into contiguous chunks as in parallelForChunks. Runs
 * inline when the range is tiny, the pool has one thread, or the caller
 * is itself a pool worker (nested parallelism).
 */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

/** parallelFor on an explicit pool (deterministic thread-count tests,
 *  dedicated batch pools). */
void parallelFor(ThreadPool &pool, size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

/**
 * Run chunk(lo, hi) over contiguous sub-ranges of [begin, end): a few
 * chunks per worker, which the workers claim in order as they finish,
 * so a worker slowed by another tenant of its CPU takes fewer of them.
 * The chunk body owns its whole sub-range, so it can set up scratch
 * state (workspaces) once per chunk and sweep; results must not depend
 * on where the chunk boundaries fall.
 */
void parallelForChunks(size_t begin, size_t end,
                       const std::function<void(size_t, size_t)> &chunk);

/** parallelForChunks on an explicit pool. */
void parallelForChunks(ThreadPool &pool, size_t begin, size_t end,
                       const std::function<void(size_t, size_t)> &chunk);

} // namespace scdcnn

#endif // SCDCNN_COMMON_THREAD_POOL_H
