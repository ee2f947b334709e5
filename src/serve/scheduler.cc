#include "serve/scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "serve/fault_injection.h"

namespace scdcnn {
namespace serve {

const char *
accuracyClassName(AccuracyClass cls)
{
    switch (cls) {
    case AccuracyClass::High:
        return "high";
    case AccuracyClass::Balanced:
        return "balanced";
    case AccuracyClass::Fast:
        return "fast";
    }
    return "?";
}

const char *
serveErrorCodeName(ServeErrorCode code)
{
    switch (code) {
    case ServeErrorCode::ShutDown:
        return "shutdown";
    case ServeErrorCode::QueueFull:
        return "queue_full";
    case ServeErrorCode::Shed:
        return "shed";
    case ServeErrorCode::Cancelled:
        return "cancelled";
    case ServeErrorCode::ModelUnavailable:
        return "model_unavailable";
    case ServeErrorCode::UnknownModel:
        return "unknown_model";
    case ServeErrorCode::InvalidInput:
        return "invalid_input";
    }
    return "?";
}

const char *
closeReasonName(CloseReason reason)
{
    switch (reason) {
    case CloseReason::Full:
        return "full";
    case CloseReason::DelayExpired:
        return "delay";
    case CloseReason::Expedited:
        return "expedited";
    case CloseReason::Drain:
        return "drain";
    }
    return "?";
}

BatchScheduler::BatchScheduler(SchedulerLimits limits) : limits_(limits)
{
    SCDCNN_ASSERT(limits_.max_batch > 0, "max_batch must be positive");
}

void
BatchScheduler::push(uint64_t id, AccuracyClass cls, TimePoint enqueued,
                     std::optional<TimePoint> deadline)
{
    Item item;
    item.id = id;
    item.enqueued = enqueued;
    item.deadline = deadline;
    item.requested = cls;
    queues_[static_cast<size_t>(cls)].push_back(item);
}

size_t
BatchScheduler::depth() const
{
    size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

size_t
BatchScheduler::classDepth(AccuracyClass cls) const
{
    return queues_[static_cast<size_t>(cls)].size();
}

std::vector<uint64_t>
BatchScheduler::sweepDoomed(TimePoint now)
{
    std::vector<uint64_t> shed;
    if (!limits_.shed_doomed)
        return shed;
    const Duration floor =
        estimate_[static_cast<size_t>(AccuracyClass::Fast)];
    // Cheapest class first so High-priority work sheds last (only
    // relevant if a caller bounds how much it sheds per sweep; the
    // doom test itself is class-independent — the Fast estimate is the
    // least any request could cost).
    for (size_t c = kAccuracyClasses; c-- > 0;) {
        auto &q = queues_[c];
        for (auto it = q.begin(); it != q.end();) {
            if (it->deadline.has_value() &&
                now >= *it->deadline - floor) {
                shed.push_back(it->id);
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    }
    return shed;
}

void
BatchScheduler::setServiceEstimate(AccuracyClass cls, Duration per_image)
{
    estimate_[static_cast<size_t>(cls)] = per_image;
}

BatchScheduler::Duration
BatchScheduler::serviceEstimate(AccuracyClass cls) const
{
    return estimate_[static_cast<size_t>(cls)];
}

BatchScheduler::TimePoint
BatchScheduler::urgentAt(const Item &item) const
{
    if (!item.deadline.has_value())
        return TimePoint::max();
    // Urgent one service-time-plus-one-queue-delay before the
    // deadline: starting any later than this at the requested
    // precision risks missing it.
    return *item.deadline -
           estimate_[static_cast<size_t>(item.requested)] -
           limits_.max_queue_delay;
}

AccuracyClass
BatchScheduler::degradedClass(const Item &item, TimePoint now) const
{
    const Duration remaining = *item.deadline - now;
    // The most accurate tier whose estimated service still fits the
    // remaining budget; never upgrade above what was requested.
    for (size_t c = static_cast<size_t>(item.requested);
         c < kAccuracyClasses; ++c) {
        if (estimate_[c] <= remaining)
            return static_cast<AccuracyClass>(c);
    }
    return AccuracyClass::Fast;
}

std::optional<BatchPlan>
BatchScheduler::closeExpedited(TimePoint now)
{
    // Gather every urgent request (deadline trigger reached), the
    // tightest deadline first.
    struct Urgent
    {
        size_t queue, pos;
        TimePoint deadline;
        AccuracyClass degraded;
    };
    std::vector<Urgent> urgent;
    for (size_t q = 0; q < kAccuracyClasses; ++q) {
        for (size_t p = 0; p < queues_[q].size(); ++p) {
            const Item &item = queues_[q][p];
            if (item.deadline.has_value() && now >= urgentAt(item))
                urgent.push_back(
                    {q, p, *item.deadline, degradedClass(item, now)});
        }
    }
    if (urgent.empty())
        return std::nullopt;
    std::stable_sort(urgent.begin(), urgent.end(),
                     [](const Urgent &a, const Urgent &b) {
                         return a.deadline < b.deadline;
                     });
    if (urgent.size() > limits_.max_batch)
        urgent.resize(limits_.max_batch);

    // One micro-batch runs at one precision: the cheapest degraded
    // class among the members, so every one of them can still make it.
    BatchPlan plan;
    plan.reason = CloseReason::Expedited;
    plan.cls = AccuracyClass::High;
    for (const Urgent &u : urgent)
        plan.cls = std::max(plan.cls, u.degraded);

    // Extract by position, highest position first per queue so the
    // earlier removals do not shift the later ones.
    std::stable_sort(urgent.begin(), urgent.end(),
                     [](const Urgent &a, const Urgent &b) {
                         return a.queue != b.queue ? a.queue < b.queue
                                                   : a.pos > b.pos;
                     });
    std::vector<std::pair<TimePoint, uint64_t>> picked;
    picked.reserve(urgent.size());
    for (const Urgent &u : urgent) {
        picked.emplace_back(u.deadline, queues_[u.queue][u.pos].id);
        queues_[u.queue].erase(queues_[u.queue].begin() +
                               static_cast<long>(u.pos));
    }
    std::stable_sort(picked.begin(), picked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    plan.ids.reserve(picked.size());
    for (const auto &p : picked)
        plan.ids.push_back(p.second);
    return plan;
}

std::optional<BatchPlan>
BatchScheduler::poll(TimePoint now, bool flush)
{
    // Fault injection: a SchedulerPoll shot makes this poll see
    // nothing due — models a scheduler that misses an event and must
    // recover on the next wakeup.
    if (faults_ != nullptr && faults_->fire(FaultPoint::SchedulerPoll))
        return std::nullopt;

    // 1. Deadline urgency preempts everything.
    if (auto expedited = closeExpedited(now))
        return expedited;

    // Oldest head across classes — the fairness anchor for the full,
    // delay, and drain closes alike.
    size_t oldest = kAccuracyClasses;
    for (size_t q = 0; q < kAccuracyClasses; ++q) {
        if (queues_[q].empty())
            continue;
        if (oldest == kAccuracyClasses ||
            queues_[q].front().enqueued <
                queues_[oldest].front().enqueued)
            oldest = q;
    }
    if (oldest == kAccuracyClasses)
        return std::nullopt;

    auto close = [&](size_t q, CloseReason reason) {
        BatchPlan plan;
        plan.cls = static_cast<AccuracyClass>(q);
        plan.reason = reason;
        const size_t n = std::min(queues_[q].size(), limits_.max_batch);
        plan.ids.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            plan.ids.push_back(queues_[q].front().id);
            queues_[q].pop_front();
        }
        return plan;
    };

    // 2. A full class closes; among several full ones, oldest head
    //    first.
    size_t full = kAccuracyClasses;
    for (size_t q = 0; q < kAccuracyClasses; ++q) {
        if (queues_[q].size() < limits_.max_batch)
            continue;
        if (full == kAccuracyClasses ||
            queues_[q].front().enqueued < queues_[full].front().enqueued)
            full = q;
    }
    if (full != kAccuracyClasses)
        return close(full, CloseReason::Full);

    // 3. The oldest request's queue-delay bound expired.
    if (now - queues_[oldest].front().enqueued >= limits_.max_queue_delay)
        return close(oldest, CloseReason::DelayExpired);

    // 4. Drain mode flushes partial batches.
    if (flush)
        return close(oldest, CloseReason::Drain);

    return std::nullopt;
}

std::optional<BatchScheduler::TimePoint>
BatchScheduler::nextEventTime() const
{
    std::optional<TimePoint> next;
    auto consider = [&next](TimePoint t) {
        if (!next.has_value() || t < *next)
            next = t;
    };
    const Duration doom_floor =
        estimate_[static_cast<size_t>(AccuracyClass::Fast)];
    for (const auto &q : queues_) {
        if (!q.empty())
            consider(q.front().enqueued + limits_.max_queue_delay);
        for (const Item &item : q) {
            if (!item.deadline.has_value())
                continue;
            consider(urgentAt(item));
            // Shedding is also a timed event: wake when a queued
            // request becomes doomed so it is dropped promptly, not
            // at the next unrelated close.
            if (limits_.shed_doomed)
                consider(*item.deadline - doom_floor);
        }
    }
    return next;
}

} // namespace serve
} // namespace scdcnn
