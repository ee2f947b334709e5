#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/trace.h"

namespace scdcnn {

namespace {

thread_local bool tls_in_worker = false;

/** Chunks per pool worker in parallelForChunks: enough that a worker
 *  running at a fraction of its speed delays the call by one small
 *  chunk, few enough that per-chunk set-up (workspaces, span flushes)
 *  stays negligible. */
constexpr size_t kChunksPerWorker = 8;

/** Pools whose jobs the current thread is executing right now, one
 *  entry per nesting level. drain() counts its own entries so a job
 *  draining its own pool does not wait on itself. */
thread_local std::vector<const ThreadPool *> tls_job_stack;

/** Marks the current thread as executing on a pool's behalf, so
 *  nested parallel helpers run inline instead of fanning out — the
 *  pool's width stays the upper bound on parallelism even when a
 *  chunk is executed inline on the caller. */
struct InlineWorkerScope
{
    bool saved = tls_in_worker;
    InlineWorkerScope() { tls_in_worker = true; }
    ~InlineWorkerScope() { tls_in_worker = saved; }
};

} // namespace

ThreadPool::ThreadPool(size_t n_threads)
{
    if (n_threads == 0) {
        unsigned hc = std::thread::hardware_concurrency();
        n_threads = hc == 0 ? 2 : hc;
    }
    workers_.reserve(n_threads);
    for (size_t i = 0; i < n_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stopping_ = true;
    }
    cv_job_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    bool wake_drainers;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        jobs_.push(std::move(job));
        ++in_flight_;
        wake_drainers = drainers_ > 0;
    }
    cv_job_.notify_one();
    // A drain()er parked on cv_done_ must wake to help execute the
    // new job (on a 1-thread pool it may be the only runner left);
    // with no drainer active, skip the extra wakeup on this hot path.
    if (wake_drainers)
        cv_done_.notify_all();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mutex_);
    cv_done_.wait(lk, [this] { return in_flight_ == 0; });
}

void
ThreadPool::runJob(std::function<void()> job)
{
    // Executing a job inline (from drain()) stands in for a worker of
    // this pool, so nested parallel helpers stay inside the pool's
    // width — same rule as parallelForChunks' inline path. The
    // bookkeeping is RAII so a throwing job cannot leave in_flight_
    // stuck or a stale pool on the job stack.
    InlineWorkerScope scope;
    struct JobScope
    {
        ThreadPool *pool;
        explicit JobScope(ThreadPool *p) : pool(p)
        {
            tls_job_stack.push_back(p);
        }
        ~JobScope()
        {
            tls_job_stack.pop_back();
            {
                std::lock_guard<std::mutex> lk(pool->mutex_);
                --pool->in_flight_;
            }
            pool->cv_done_.notify_all();
        }
    } finish(this);
    job();
}

void
ThreadPool::drain()
{
    // Count the calling thread's own enclosing jobs of this pool:
    // they cannot finish while drain() blocks inside them, so the
    // idle condition excludes them. The exclusion is pool-wide
    // (drainer_held_), not per-caller: two jobs draining concurrently
    // each hold one un-finishable job, and each must discount the
    // other's as well or they deadlock waiting on one another.
    const size_t own = static_cast<size_t>(
        std::count(tls_job_stack.begin(), tls_job_stack.end(), this));
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++drainers_; // makes submit() wake cv_done_ for us
        drainer_held_ += own;
    }
    if (own > 0)
        cv_done_.notify_all(); // other drainers' predicates may now hold
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            if (jobs_.empty()) {
                if (in_flight_ <= drainer_held_) {
                    --drainers_;
                    drainer_held_ -= own;
                    return;
                }
                cv_done_.wait(lk, [this] {
                    return !jobs_.empty() || in_flight_ <= drainer_held_;
                });
                continue;
            }
            job = std::move(jobs_.front());
            jobs_.pop();
        }
        runJob(std::move(job));
    }
}

void
ThreadPool::workerLoop()
{
    tls_in_worker = true;
    // Name this thread's trace ring up front (allocates; never on the
    // job hot path) so exported traces label pool workers.
    obs::TraceRecorder::instance().labelThisThread("pool-worker");
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            cv_job_.wait(lk, [this] { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = std::move(jobs_.front());
            jobs_.pop();
        }
        runJob(std::move(job));
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

bool
ThreadPool::inWorker()
{
    return tls_in_worker;
}

void
parallelForChunks(ThreadPool &pool, size_t begin, size_t end,
                  const std::function<void(size_t, size_t)> &chunk_body)
{
    if (end <= begin)
        return;

    const size_t n = end - begin;
    const size_t n_workers = pool.size();
    if (n_workers <= 1 || n < 2 || ThreadPool::inWorker()) {
        // Inline execution stands in for a worker of this pool: cap
        // nested parallelism at the pool's width (a 1-thread pool must
        // mean 1 thread, even for the layers inside the body).
        InlineWorkerScope scope;
        chunk_body(begin, end);
        return;
    }

    // kChunksPerWorker chunks per worker, claimed in order from a shared
    // cursor by one job per worker. A fixed one-chunk-per-worker split
    // makes every call as slow as its slowest worker: a worker whose
    // CPU is shared with another tenant (a busy sibling hyperthread, a
    // preempted vCPU) ran its share at ~0.65x and held the whole call
    // back ~1.5x; here it claims fewer chunks and the call waits at
    // most for its last one.
    const size_t n_chunks = std::min(n, n_workers * kChunksPerWorker);
    const size_t chunk = (n + n_chunks - 1) / n_chunks;
    const size_t n_jobs = std::min(n_workers, (n + chunk - 1) / chunk);
    std::atomic<size_t> next{begin};

    // Per-call completion latch rather than pool.wait(): the global
    // in-flight count couples independent callers — under the serving
    // layer, another batch worker that keeps submitting to a shared
    // pool would starve a pool-wide wait indefinitely even though this
    // call's own chunks finished long ago.
    std::mutex m;
    std::condition_variable cv;
    size_t remaining = n_jobs;
    for (size_t j = 0; j < n_jobs; ++j) {
        pool.submit([end, chunk, &next, &chunk_body, &m, &cv, &remaining] {
            for (;;) {
                const size_t lo = next.fetch_add(chunk);
                if (lo >= end)
                    break;
                chunk_body(lo, std::min(end, lo + chunk));
            }
            // Notify under the lock: once remaining hits 0 the waiter
            // may return and destroy cv, so the notify must complete
            // before the waiter can observe the final state.
            std::lock_guard<std::mutex> lk(m);
            if (--remaining == 0)
                cv.notify_one();
        });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&remaining] { return remaining == 0; });
}

void
parallelForChunks(size_t begin, size_t end,
                  const std::function<void(size_t, size_t)> &chunk_body)
{
    parallelForChunks(ThreadPool::global(), begin, end, chunk_body);
}

void
parallelFor(ThreadPool &pool, size_t begin, size_t end,
            const std::function<void(size_t)> &body)
{
    parallelForChunks(pool, begin, end, [&body](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            body(i);
    });
}

void
parallelFor(size_t begin, size_t end, const std::function<void(size_t)> &body)
{
    if (end > begin && end - begin < 4 && !ThreadPool::inWorker()) {
        // Tiny ranges on the shared global pool run inline without the
        // worker cap: the caller keeps its right to fan nested work out
        // (e.g. a 2-image batch still parallelizes inside each image).
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    parallelFor(ThreadPool::global(), begin, end, body);
}

} // namespace scdcnn
