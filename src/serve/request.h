/**
 * @file
 * Request/response vocabulary of the serving layer: per-request
 * quality-of-service options and the per-request result record.
 *
 * The accuracy class is stochastic computing's progressive-precision
 * knob surfaced per request (Li et al., budget-driven SC-DCNN
 * optimization): High spends the full bit-stream, Balanced maps onto
 * EngineMode::Progressive at the calibrated early-exit margin, Fast
 * runs the deterministic XNOR-popcount binary backend
 * (EngineMode::Binary — single-pass, no streams at all), and a
 * deadline lets the scheduler degrade a request toward Fast when its
 * remaining time budget no longer covers the precision it asked for. The result reports what was actually spent
 * (effective_bits, served class) so callers see the trade they got.
 */

#ifndef SCDCNN_SERVE_REQUEST_H
#define SCDCNN_SERVE_REQUEST_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sc_network.h"
#include "serve/clock.h"

namespace scdcnn {
namespace serve {

/** Requested precision tier, ordered from most to least bits. */
enum class AccuracyClass : uint8_t
{
    High = 0,     //!< full-length streams (EngineMode::Fused)
    Balanced = 1, //!< Progressive at the calibrated default margin
    Fast = 2,     //!< binary XNOR-popcount backend (EngineMode::Binary)
};

/** Number of accuracy classes (array sizing). */
constexpr size_t kAccuracyClasses = 3;

/** "high" / "balanced" / "fast". */
const char *accuracyClassName(AccuracyClass cls);

/**
 * Why a submitted request's future failed without a result. Every
 * admission/shedding/cancellation path resolves the promise with a
 * ServeError carrying one of these — the server never leaves a future
 * dangling and never throws an untyped error at the caller.
 */
enum class ServeErrorCode : uint8_t
{
    ShutDown = 0,  //!< submitted after shutdown()/drain intake closed
    QueueFull = 1, //!< admission control: class queue at capacity
    Shed = 2,      //!< load shedding: deadline unmeetable even at Fast
    Cancelled = 3, //!< cooperative cancellation stopped the request
    ModelUnavailable = 4, //!< registry: model quarantined/loading/retired
    UnknownModel = 5,     //!< registry: no model under that id
    /** the payload cannot be served: its shape differs from the
     *  model's input, or a pixel is NaN, infinite or outside [0, 1] */
    InvalidInput = 6,
};

/** Number of serve error codes (array sizing). */
constexpr size_t kServeErrorCodes = 7;

/** "shutdown" / "queue_full" / ... / "invalid_input". */
const char *serveErrorCodeName(ServeErrorCode code);

/**
 * Typed failure surfaced through a request's future. Derives from
 * std::runtime_error so pre-existing catch sites keep working; new
 * callers switch on code() instead of parsing what().
 */
class ServeError : public std::runtime_error
{
  public:
    ServeError(ServeErrorCode code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    ServeErrorCode code() const { return code_; }

  private:
    ServeErrorCode code_;
};

/**
 * Per-request cooperative cancellation token. The engine polls it at
 * segment boundaries (core::CancelSignal); a caller flips it with
 * cancel() when the future is abandoned, and armDeadline() makes the
 * token self-trip once the request's absolute deadline passes — an
 * in-flight prediction then stops burning bits at the next boundary
 * without any sweeper thread.
 *
 * Thread-safety: cancel()/cancelled() race freely (atomic flag);
 * armDeadline() must happen-before the token is shared with workers
 * (the server arms it before enqueueing the request).
 */
class CancelToken final : public core::CancelSignal
{
  public:
    void cancel() { flag_.store(true, std::memory_order_relaxed); }

    /** @p clock must outlive the token. */
    void armDeadline(const ClockSource *clock,
                     ClockSource::TimePoint deadline)
    {
        clock_ = clock;
        deadline_ = deadline;
        armed_ = true;
    }

    /** Explicitly cancelled, or armed deadline passed. */
    bool cancelled() const override
    {
        if (flag_.load(std::memory_order_relaxed))
            return true;
        return armed_ && clock_->now() >= deadline_;
    }

  private:
    std::atomic<bool> flag_{false};
    const ClockSource *clock_ = nullptr;
    ClockSource::TimePoint deadline_{};
    bool armed_ = false;
};

/** Per-request serving options. */
struct RequestOptions
{
    AccuracyClass accuracy = AccuracyClass::Balanced;

    /**
     * Completion deadline relative to submit time; zero means none.
     * A deadline never rejects a request — it makes the scheduler
     * expedite it and spend fewer effective bits when the remaining
     * budget is tight (deadline-aware progressive precision).
     */
    std::chrono::microseconds deadline{0};

    /** Engine seed for this request; unset derives one from the
     *  request id, set makes the prediction reproducible against a
     *  direct ScNetwork::predict(image, seed) call. */
    std::optional<uint64_t> seed;
};

/** What one served request resolves to. */
struct InferenceResult
{
    size_t predicted = 0;        //!< argmax class index
    std::vector<double> scores;  //!< output-layer bipolar scores
    size_t effective_bits = 0;   //!< stream cycles actually consumed
    bool early_exit = false;     //!< Progressive margin test fired
    uint64_t seed = 0;           //!< engine seed the request ran at

    AccuracyClass requested = AccuracyClass::Balanced;
    AccuracyClass served = AccuracyClass::Balanced;
    bool degraded = false;       //!< served cheaper than requested
    bool deadline_met = true;    //!< false iff a deadline was missed

    size_t batch_size = 0;       //!< size of the micro-batch it rode in
    double queue_ms = 0.0;       //!< submit -> batch close
    double total_ms = 0.0;       //!< submit -> result ready
};

/**
 * Terminal outcome of one request, reported to ServerConfig's
 * outcome_hook as the promise resolves. The model registry's circuit
 * breaker feeds on these: sheds and faults count against a model's
 * health EWMA, completions count for it. Invoked from whatever thread
 * resolves the request (submitter on admission failure, batch worker
 * on delivery), so hooks must be thread-safe.
 */
struct RequestOutcome
{
    bool success = false; //!< resolved with a result, not a ServeError
    ServeErrorCode code = ServeErrorCode::ShutDown; //!< iff !success
    bool deadline_met = true;
    AccuracyClass accuracy = AccuracyClass::Balanced;
};

/** How one accuracy class maps onto the engine. */
struct QosPolicy
{
    /** Sentinels for "derive from the served network's calibrated
     *  Progressive config at server construction": Balanced inherits
     *  the network's margin/floor, Fast runs at half the margin and a
     *  quarter of the floor. Different networks (short streams, other
     *  topologies) then get QoS tables matched to their calibration
     *  instead of one hardcoded set. */
    static constexpr double kDeriveMargin = -1.0;
    static constexpr size_t kDeriveMinBits = static_cast<size_t>(-1);

    core::EngineMode mode = core::EngineMode::Progressive;
    double progressive_margin = kDeriveMargin;
    size_t progressive_min_bits = kDeriveMinBits;

    core::PredictOptions predictOptions() const
    {
        core::PredictOptions o;
        o.mode = mode;
        o.progressive_margin = progressive_margin;
        o.progressive_min_bits = progressive_min_bits;
        return o;
    }
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_REQUEST_H
