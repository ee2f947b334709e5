/**
 * @file
 * Model-fleet serving: a registry of named models, each a checksummed
 * artifact stood up as its own ScNetwork + InferenceServer (per-model
 * class FIFOs and QoS calibration) sharing one compute pool.
 *
 * Lifecycle: Loading -> Serving -> Degraded -> Quarantined -> Retired.
 * The Serving/Degraded/Quarantined band is driven by a per-model
 * circuit breaker fed by request outcomes — a failure-rate EWMA trips
 * the breaker Open (Quarantined: submits reject fast with
 * ServeErrorCode::ModelUnavailable, costing no queue slot or compute),
 * a backoff later it goes HalfOpen and admits single probe requests,
 * and enough consecutive probe successes close it again. One
 * misbehaving model thus sheds its own load while the rest of the
 * fleet keeps its goodput.
 *
 * Hot-swap (install() over an existing id) is atomic: the new engine
 * is built and warmed off to the side, the bundle pointer is swapped
 * under the entry lock, and only then does the old engine drain its
 * in-flight requests and retire — no request ever observes a torn
 * model, and requests already in flight complete bit-exactly on the
 * engine they were admitted to.
 */

#ifndef SCDCNN_SERVE_MODEL_REGISTRY_H
#define SCDCNN_SERVE_MODEL_REGISTRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/artifact.h"
#include "serve/server.h"

namespace scdcnn {

namespace obs {
class FlightRecorder;
}

namespace serve {

/** Circuit-breaker policy knobs. */
struct BreakerConfig
{
    /** Failure EWMA at or above which the breaker trips Open. */
    double trip_threshold = 0.5;
    /** EWMA band [degrade, trip) reported as ModelState::Degraded. */
    double degrade_threshold = 0.25;
    /** EWMA step per observed outcome. */
    double alpha = 0.25;
    /** Outcomes observed before the EWMA is trusted to trip. */
    uint32_t min_events = 8;
    /** Open -> HalfOpen cool-down. */
    std::chrono::microseconds backoff{100000};
    /** Consecutive probe successes required to close again. */
    uint32_t probe_quota = 2;
};

enum class BreakerState : uint8_t
{
    Closed = 0,   //!< healthy: all traffic admitted
    Open = 1,     //!< tripped: reject fast until the backoff elapses
    HalfOpen = 2, //!< probing: one request at a time tests recovery
};

/** "closed" / "open" / "half_open". */
const char *breakerStateName(BreakerState state);

/** Per-model lifecycle state, derived from the base state and the
 *  breaker (Degraded/Quarantined are breaker-driven). */
enum class ModelState : uint8_t
{
    Loading = 0,     //!< install in progress, not yet serving
    Serving = 1,     //!< healthy
    Degraded = 2,    //!< elevated failure EWMA, still serving
    Quarantined = 3, //!< breaker Open/HalfOpen: fast rejects + probes
    Retired = 4,     //!< withdrawn; entry kept for metrics
};

/** "loading" / "serving" / "degraded" / "quarantined" / "retired". */
const char *modelStateName(ModelState state);

/**
 * Failure-EWMA circuit breaker with half-open probe recovery.
 * Thread-safe (internal mutex); time comes from an injected
 * ClockSource so tests drive trips and backoffs on a ManualClock.
 */
class CircuitBreaker
{
  public:
    /** What the breaker says about one arriving request. */
    enum class Gate : uint8_t
    {
        Admit = 0, //!< Closed: serve normally
        Probe = 1, //!< HalfOpen: serve, outcome decides recovery
        Reject = 2 //!< Open / probe outstanding: fail fast
    };

    /** @p clock must outlive the breaker. */
    CircuitBreaker(const BreakerConfig &cfg, const ClockSource *clock)
        : cfg_(cfg), clock_(clock)
    {
    }

    Gate admit();

    /** Closed-state outcome feed (ignored while Open/HalfOpen — those
     *  are stragglers admitted before the trip). */
    void onOutcome(bool success);

    /** Resolve an outstanding probe: enough consecutive successes
     *  close the breaker, any failure reopens it with a fresh
     *  backoff. */
    void onProbeResult(bool success);

    /** Release an outstanding probe without a verdict (the probe
     *  request died of an unrelated cause, e.g. queue-full): stays
     *  HalfOpen so the next admit() probes again. */
    void onProbeAbandoned();

    /** Reset to Closed with a clean history (fresh install). */
    void reset();

    BreakerState state() const;
    double failureEwma() const;
    uint64_t trips() const;
    uint64_t recoveries() const;
    uint64_t probes() const;
    uint64_t probeFailures() const;

    /** True while Closed with the EWMA in the degraded band. */
    bool degraded() const;

  private:
    BreakerConfig cfg_;
    const ClockSource *clock_;

    mutable std::mutex mu_;
    BreakerState state_ = BreakerState::Closed;
    double ewma_ = 0.0;
    uint64_t events_ = 0;
    ClockSource::TimePoint opened_at_{};
    bool probe_outstanding_ = false;
    uint32_t probe_successes_ = 0;
    uint64_t trips_ = 0;
    uint64_t recoveries_ = 0;
    uint64_t probes_ = 0;
    uint64_t probe_failures_ = 0;
};

/** Registry-wide configuration. */
struct RegistryConfig
{
    /** Template for every per-model server (limits, workers, compute
     *  pool, QoS sentinels — resolved per model against its own
     *  network calibration). The registry owns fault injection and
     *  outcome observation, so the template's faults/outcome_hook are
     *  replaced per model. */
    ServerConfig server_template;

    /** Injected time source (null: steady clock). Drives the breaker
     *  backoffs; must outlive the registry. */
    const ClockSource *clock = nullptr;

    /** Chaos hook for the registry fault points (ArtifactRead,
     *  ModelLoad, SwapInstall, BreakerProbe, ModelExecute); null in
     *  production. Must outlive the registry. */
    FaultInjector *faults = nullptr;

    BreakerConfig breaker;

    /** Postmortem hook (null: off): on a breaker trip, a failed
     *  hot-swap, or an artifact-load failure the registry dumps the
     *  model's recent trace events through this recorder. Must
     *  outlive the registry. */
    obs::FlightRecorder *flight_recorder = nullptr;
};

/** Outcome of install(): the diagnostic is a LoadResult message or a
 *  fault description when !ok. */
struct InstallResult
{
    bool ok = false;
    uint32_t version = 0;
    std::string diagnostic;
};

/** Point-in-time fold of one model's registry-level state. */
struct ModelSnapshot
{
    std::string id;
    uint32_t version = 0;
    ModelState state = ModelState::Loading;
    BreakerState breaker = BreakerState::Closed;
    double failure_ewma = 0.0;
    uint64_t trips = 0;
    uint64_t recoveries = 0;
    uint64_t probes = 0;
    uint64_t probe_failures = 0;
    uint64_t unavailable_rejected = 0; //!< fast-fail count
    uint64_t faulted = 0;              //!< injected execution faults
    uint64_t swaps = 0;                //!< completed hot-swaps
    std::string last_error;            //!< latest load/swap diagnostic
    MetricsSnapshot server;            //!< per-model serving metrics

    std::string toJson() const;
};

/** Fleet-wide fold: every model plus registry-level counters. */
struct RegistrySnapshot
{
    uint64_t unknown_model_rejected = 0;
    std::vector<ModelSnapshot> models;

    std::string toJson() const;
};

class ModelRegistry
{
  public:
    explicit ModelRegistry(RegistryConfig cfg = {});

    /** Runs shutdown(). */
    ~ModelRegistry();

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Load an artifact file and install it under @p id — first
     * install registers the model, a later one hot-swaps it (the old
     * engine serves until the swap, then drains and retires). On any
     * failure the previous version (if any) keeps serving untouched
     * and the diagnostic is returned and kept in the model snapshot.
     */
    InstallResult install(const std::string &id,
                          const std::string &path);

    /** install() from an already-loaded artifact. */
    InstallResult install(const std::string &id,
                          const ModelArtifact &artifact);

    /** Withdraw @p id: drains in-flight requests, then rejects all
     *  submits with ModelUnavailable. The entry (and its final
     *  metrics) stays visible in snapshots. False if unknown. */
    bool retire(const std::string &id);

    /**
     * Route one request to @p id. Unknown ids and unavailable models
     * (Loading / Retired / breaker-rejected) fail the future fast
     * with UnknownModel / ModelUnavailable — no queue slot, no
     * compute. Everything else goes through the model's own
     * scheduler/queue exactly as InferenceServer::submit.
     */
    std::future<InferenceResult> submit(const std::string &id,
                                        nn::Tensor image,
                                        RequestOptions opts = {});

    /** Effective lifecycle state (Retired if unknown). */
    ModelState state(const std::string &id) const;

    BreakerState breakerState(const std::string &id) const;

    /** Block until every model's backlog is answered. */
    void drain();

    /** Stop every model's intake and join workers. Idempotent. */
    void shutdown();

    size_t modelCount() const;

    ModelSnapshot modelSnapshot(const std::string &id) const;

    RegistrySnapshot snapshot() const;

  private:
    /** Immutable serving bundle — swapped as one shared_ptr so a
     *  request sees either the old engine or the new one, never a
     *  mix. */
    struct Serving
    {
        core::ScNetwork engine;
        std::unique_ptr<InferenceServer> server;
        uint32_t version;

        Serving(const nn::Network &net,
                const core::ScNetworkConfig &cfg, uint32_t v)
            : engine(net, cfg), version(v)
        {
        }
    };

    struct Entry
    {
        mutable std::mutex mu; //!< guards serving/base/last_error
        std::string id;        //!< immutable after getOrCreate
        uint16_t trace_tag = 0; //!< interned model id (immutable)
        std::shared_ptr<Serving> serving;
        ModelState base = ModelState::Loading;
        std::unique_ptr<CircuitBreaker> breaker;
        std::string last_error;
        MetricsSnapshot final_metrics; //!< captured at retire/swap
        std::atomic<uint64_t> unavailable_rejected{0};
        std::atomic<uint64_t> faulted{0};
        std::atomic<uint64_t> swaps{0};
    };

    Entry *find(const std::string &id) const;
    Entry &getOrCreate(const std::string &id);
    void feedBreaker(Entry &e, const RequestOutcome &outcome);
    /** Flight-recorder dump for @p e (no-op without a recorder). */
    void flightDump(Entry &e, const char *reason);
    static std::future<InferenceResult>
    failedFuture(ServeErrorCode code, const char *what);
    ModelSnapshot snapshotEntry(const std::string &id,
                                const Entry &e) const;

    RegistryConfig cfg_;
    SteadyClock fallback_clock_;
    const ClockSource *clock_;

    mutable std::mutex map_mu_; //!< guards the map shape only
    std::map<std::string, std::unique_ptr<Entry>> entries_;
    std::atomic<uint64_t> unknown_rejected_{0};
    bool shut_down_ = false; //!< under map_mu_
};

} // namespace serve
} // namespace scdcnn

#endif // SCDCNN_SERVE_MODEL_REGISTRY_H
