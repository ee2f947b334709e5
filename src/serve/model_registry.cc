#include "serve/model_registry.h"

#include <utility>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace scdcnn {
namespace serve {

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half_open";
    }
    return "?";
}

const char *
modelStateName(ModelState state)
{
    switch (state) {
    case ModelState::Loading:
        return "loading";
    case ModelState::Serving:
        return "serving";
    case ModelState::Degraded:
        return "degraded";
    case ModelState::Quarantined:
        return "quarantined";
    case ModelState::Retired:
        return "retired";
    }
    return "?";
}

// ---------------------------------------------------------------------
// CircuitBreaker

CircuitBreaker::Gate
CircuitBreaker::admit()
{
    std::lock_guard<std::mutex> lk(mu_);
    switch (state_) {
    case BreakerState::Closed:
        return Gate::Admit;
    case BreakerState::Open:
        if (clock_->now() - opened_at_ < cfg_.backoff)
            return Gate::Reject;
        state_ = BreakerState::HalfOpen;
        probe_successes_ = 0;
        [[fallthrough]];
    case BreakerState::HalfOpen:
        if (probe_outstanding_)
            return Gate::Reject; // one probe at a time
        probe_outstanding_ = true;
        ++probes_;
        return Gate::Probe;
    }
    return Gate::Reject;
}

void
CircuitBreaker::onOutcome(bool success)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (state_ != BreakerState::Closed)
        return; // straggler from before the trip
    ewma_ = (1.0 - cfg_.alpha) * ewma_ + cfg_.alpha * (success ? 0.0 : 1.0);
    ++events_;
    if (events_ >= cfg_.min_events && ewma_ >= cfg_.trip_threshold) {
        state_ = BreakerState::Open;
        opened_at_ = clock_->now();
        probe_outstanding_ = false;
        ++trips_;
    }
}

void
CircuitBreaker::onProbeResult(bool success)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (state_ != BreakerState::HalfOpen || !probe_outstanding_)
        return;
    probe_outstanding_ = false;
    if (success) {
        if (++probe_successes_ >= cfg_.probe_quota) {
            state_ = BreakerState::Closed;
            ewma_ = 0.0;
            events_ = 0;
            ++recoveries_;
        }
    } else {
        ++probe_failures_;
        probe_successes_ = 0;
        state_ = BreakerState::Open;
        opened_at_ = clock_->now();
    }
}

void
CircuitBreaker::onProbeAbandoned()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (state_ == BreakerState::HalfOpen)
        probe_outstanding_ = false;
}

void
CircuitBreaker::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    state_ = BreakerState::Closed;
    ewma_ = 0.0;
    events_ = 0;
    probe_outstanding_ = false;
    probe_successes_ = 0;
}

BreakerState
CircuitBreaker::state() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_;
}

double
CircuitBreaker::failureEwma() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return ewma_;
}

bool
CircuitBreaker::degraded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_ == BreakerState::Closed &&
           events_ >= cfg_.min_events &&
           ewma_ >= cfg_.degrade_threshold;
}

uint64_t
CircuitBreaker::trips() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return trips_;
}

uint64_t
CircuitBreaker::recoveries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return recoveries_;
}

uint64_t
CircuitBreaker::probes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return probes_;
}

uint64_t
CircuitBreaker::probeFailures() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return probe_failures_;
}

// ---------------------------------------------------------------------
// ModelRegistry

ModelRegistry::ModelRegistry(RegistryConfig cfg)
    : cfg_(std::move(cfg)),
      clock_(cfg_.clock != nullptr ? cfg_.clock : &fallback_clock_)
{
}

ModelRegistry::~ModelRegistry() { shutdown(); }

ModelRegistry::Entry *
ModelRegistry::find(const std::string &id) const
{
    std::lock_guard<std::mutex> lk(map_mu_);
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : it->second.get();
}

ModelRegistry::Entry &
ModelRegistry::getOrCreate(const std::string &id)
{
    std::lock_guard<std::mutex> lk(map_mu_);
    auto &slot = entries_[id];
    if (slot == nullptr) {
        slot = std::make_unique<Entry>();
        slot->id = id;
        slot->trace_tag = obs::TraceRecorder::instance().internTag(id);
        slot->breaker =
            std::make_unique<CircuitBreaker>(cfg_.breaker, clock_);
    }
    return *slot;
}

std::future<InferenceResult>
ModelRegistry::failedFuture(ServeErrorCode code, const char *what)
{
    std::promise<InferenceResult> p;
    p.set_exception(std::make_exception_ptr(ServeError(code, what)));
    return p.get_future();
}

void
ModelRegistry::flightDump(Entry &e, const char *reason)
{
    if (cfg_.flight_recorder != nullptr)
        cfg_.flight_recorder->dump(reason, e.id, e.trace_tag);
}

void
ModelRegistry::feedBreaker(Entry &e, const RequestOutcome &outcome)
{
    const uint64_t trips_before = e.breaker->trips();
    // Health signal: completions count for the model, sheds and
    // injected execution faults against it. Admission refusals,
    // malformed payloads and cancellations are registry/caller
    // behaviour, not model health —
    // while a probe is outstanding they abandon it (the probe died of
    // an unrelated cause), otherwise they are neutral.
    const bool probing =
        e.breaker->state() == BreakerState::HalfOpen;
    if (outcome.success) {
        if (probing)
            e.breaker->onProbeResult(true);
        else
            e.breaker->onOutcome(true);
        return;
    }
    switch (outcome.code) {
    case ServeErrorCode::Shed:
        if (probing)
            e.breaker->onProbeResult(false);
        else
            e.breaker->onOutcome(false);
        break;
    case ServeErrorCode::QueueFull:
    case ServeErrorCode::ShutDown:
    case ServeErrorCode::Cancelled:
    case ServeErrorCode::InvalidInput:
    default:
        if (probing)
            e.breaker->onProbeAbandoned();
        break;
    }
    // A quarantine event is exactly when a postmortem wants the
    // recent per-model trace: dump it while the evidence is still in
    // the rings. (The success path above cannot trip.)
    if (e.breaker->trips() > trips_before)
        flightDump(e, "breaker_trip");
}

InstallResult
ModelRegistry::install(const std::string &id, const std::string &path)
{
    ModelArtifact artifact;
    const nn::LoadResult r =
        loadArtifact(path, &artifact, cfg_.faults);
    if (!r.ok()) {
        InstallResult res;
        res.diagnostic = r.message();
        // Surface the load failure on an existing entry (or record it
        // on a fresh one) so snapshots carry the quarantine reason.
        Entry &e = getOrCreate(id);
        {
            std::lock_guard<std::mutex> lk(e.mu);
            e.last_error = res.diagnostic;
        }
        flightDump(e, "artifact_load_failed");
        return res;
    }
    return install(id, artifact);
}

InstallResult
ModelRegistry::install(const std::string &id,
                       const ModelArtifact &artifact)
{
    InstallResult res;
    res.version = artifact.version;
    Entry &e = getOrCreate(id);

    // Build + warm the new engine entirely off to the side: the old
    // version (if any) keeps serving, and a failure here leaves it
    // untouched.
    nn::Network net;
    const nn::LoadResult r = instantiate(artifact, &net);
    if (!r.ok()) {
        res.diagnostic = r.message();
        {
            std::lock_guard<std::mutex> lk(e.mu);
            e.last_error = res.diagnostic;
        }
        flightDump(e, "swap_failed");
        return res;
    }
    auto serving = std::make_shared<Serving>(net, artifact.config,
                                             artifact.version);
    ServerConfig scfg = cfg_.server_template;
    scfg.faults = nullptr; // registry fires its own fault points
    scfg.trace_tag = e.trace_tag;
    Entry *eptr = &e;
    scfg.outcome_hook = [this, eptr](const RequestOutcome &o) {
        feedBreaker(*eptr, o);
    };
    serving->server = std::make_unique<InferenceServer>(
        serving->engine, scfg, clock_);
    // One warm-up inference on the fresh engine before it is swapped
    // in, so the first real request never pays one-time costs.
    const nn::Tensor zero(artifact.config.input_c, artifact.config.input_h,
                          artifact.config.input_w);
    serving->engine.predict(zero, /*seed=*/1);

    // Crash-between-load-and-swap fault: the new engine is abandoned
    // before the pointer swap, so the fleet observes exactly what a
    // crashed installer leaves behind — the old version serving.
    if (cfg_.faults != nullptr &&
        cfg_.faults->fire(FaultPoint::SwapInstall)) {
        serving->server->shutdown();
        res.diagnostic = "injected crash between load and swap";
        {
            std::lock_guard<std::mutex> lk(e.mu);
            e.last_error = res.diagnostic;
        }
        flightDump(e, "swap_failed");
        return res;
    }

    // Atomic hot-swap: pointer exchange under the entry lock; the old
    // engine drains its in-flight requests *after* the swap so new
    // submits already land on the new version.
    std::shared_ptr<Serving> old;
    {
        std::lock_guard<std::mutex> lk(e.mu);
        old = std::exchange(e.serving, std::move(serving));
        e.base = ModelState::Serving;
        e.last_error.clear();
        if (old != nullptr)
            e.swaps.fetch_add(1, std::memory_order_relaxed);
    }
    e.breaker->reset(); // a fresh artifact starts with clean health
    if (old != nullptr) {
        old->server->drain();
        MetricsSnapshot final = old->server->metricsSnapshot();
        old->server->shutdown();
        std::lock_guard<std::mutex> lk(e.mu);
        e.final_metrics = final;
    }
    res.ok = true;
    return res;
}

bool
ModelRegistry::retire(const std::string &id)
{
    Entry *e = find(id);
    if (e == nullptr)
        return false;
    std::shared_ptr<Serving> old;
    {
        std::lock_guard<std::mutex> lk(e->mu);
        e->base = ModelState::Retired;
        old = std::exchange(e->serving, nullptr);
    }
    if (old != nullptr) {
        old->server->drain();
        MetricsSnapshot final = old->server->metricsSnapshot();
        old->server->shutdown();
        std::lock_guard<std::mutex> lk(e->mu);
        e->final_metrics = final;
    }
    return true;
}

std::future<InferenceResult>
ModelRegistry::submit(const std::string &id, nn::Tensor image,
                      RequestOptions opts)
{
    Entry *e = find(id);
    if (e == nullptr) {
        unknown_rejected_.fetch_add(1, std::memory_order_relaxed);
        return failedFuture(ServeErrorCode::UnknownModel,
                            "no model registered under this id");
    }
    std::lock_guard<std::mutex> lk(e->mu);
    if (e->base != ModelState::Serving || e->serving == nullptr) {
        e->unavailable_rejected.fetch_add(1, std::memory_order_relaxed);
        return failedFuture(ServeErrorCode::ModelUnavailable,
                            e->base == ModelState::Retired
                                ? "model is retired"
                                : "model is still loading");
    }
    const CircuitBreaker::Gate gate = e->breaker->admit();
    if (gate == CircuitBreaker::Gate::Reject) {
        e->unavailable_rejected.fetch_add(1, std::memory_order_relaxed);
        return failedFuture(ServeErrorCode::ModelUnavailable,
                            "model quarantined (circuit breaker open)");
    }
    // Half-open probe sabotage: a BreakerProbe shot fails the probe
    // outright, keeping the breaker open past its backoff.
    if (gate == CircuitBreaker::Gate::Probe &&
        cfg_.faults != nullptr &&
        cfg_.faults->fire(FaultPoint::BreakerProbe)) {
        e->breaker->onProbeResult(false);
        e->unavailable_rejected.fetch_add(1, std::memory_order_relaxed);
        return failedFuture(ServeErrorCode::ModelUnavailable,
                            "injected breaker-probe failure");
    }
    // Model poison: a ModelExecute shot fails the request before any
    // queue slot or compute is spent, and counts against the model's
    // health exactly like a shed.
    if (cfg_.faults != nullptr &&
        cfg_.faults->fire(FaultPoint::ModelExecute)) {
        e->faulted.fetch_add(1, std::memory_order_relaxed);
        if (obs::armed())
            obs::TraceRecorder::instance().instant(
                obs::SpanName::Fault, e->trace_tag, 0,
                static_cast<uint64_t>(FaultPoint::ModelExecute));
        const uint64_t trips_before = e->breaker->trips();
        if (gate == CircuitBreaker::Gate::Probe)
            e->breaker->onProbeResult(false);
        else
            e->breaker->onOutcome(false);
        if (e->breaker->trips() > trips_before)
            flightDump(*e, "breaker_trip");
        return failedFuture(ServeErrorCode::ModelUnavailable,
                            "injected model execution fault");
    }
    // submit() never blocks on compute, so holding the entry lock
    // here is cheap — and it makes the swap atomic: a concurrent
    // install() cannot exchange the bundle between our read and the
    // enqueue.
    return e->serving->server->submit(std::move(image), opts);
}

ModelState
ModelRegistry::state(const std::string &id) const
{
    Entry *e = find(id);
    if (e == nullptr)
        return ModelState::Retired;
    std::lock_guard<std::mutex> lk(e->mu);
    if (e->base != ModelState::Serving)
        return e->base;
    if (e->breaker->state() != BreakerState::Closed)
        return ModelState::Quarantined;
    if (e->breaker->degraded())
        return ModelState::Degraded;
    return ModelState::Serving;
}

BreakerState
ModelRegistry::breakerState(const std::string &id) const
{
    Entry *e = find(id);
    return e == nullptr ? BreakerState::Closed : e->breaker->state();
}

void
ModelRegistry::drain()
{
    std::vector<std::shared_ptr<Serving>> bundles;
    {
        std::lock_guard<std::mutex> lk(map_mu_);
        for (auto &kv : entries_) {
            std::lock_guard<std::mutex> elk(kv.second->mu);
            if (kv.second->serving != nullptr)
                bundles.push_back(kv.second->serving);
        }
    }
    for (auto &b : bundles)
        b->server->drain();
}

void
ModelRegistry::shutdown()
{
    std::vector<std::shared_ptr<Serving>> bundles;
    {
        std::lock_guard<std::mutex> lk(map_mu_);
        if (shut_down_)
            return;
        shut_down_ = true;
        for (auto &kv : entries_) {
            std::lock_guard<std::mutex> elk(kv.second->mu);
            if (kv.second->serving != nullptr)
                bundles.push_back(kv.second->serving);
        }
    }
    for (auto &b : bundles)
        b->server->shutdown();
}

size_t
ModelRegistry::modelCount() const
{
    std::lock_guard<std::mutex> lk(map_mu_);
    return entries_.size();
}

ModelSnapshot
ModelRegistry::snapshotEntry(const std::string &id,
                             const Entry &e) const
{
    ModelSnapshot s;
    s.id = id;
    {
        std::lock_guard<std::mutex> lk(e.mu);
        if (e.serving != nullptr) {
            s.version = e.serving->version;
            s.server = e.serving->server->metricsSnapshot();
        } else {
            s.server = e.final_metrics;
        }
        s.last_error = e.last_error;
        if (e.base != ModelState::Serving)
            s.state = e.base;
        else if (e.breaker->state() != BreakerState::Closed)
            s.state = ModelState::Quarantined;
        else if (e.breaker->degraded())
            s.state = ModelState::Degraded;
        else
            s.state = ModelState::Serving;
    }
    s.breaker = e.breaker->state();
    s.failure_ewma = e.breaker->failureEwma();
    s.trips = e.breaker->trips();
    s.recoveries = e.breaker->recoveries();
    s.probes = e.breaker->probes();
    s.probe_failures = e.breaker->probeFailures();
    s.unavailable_rejected =
        e.unavailable_rejected.load(std::memory_order_relaxed);
    s.faulted = e.faulted.load(std::memory_order_relaxed);
    s.swaps = e.swaps.load(std::memory_order_relaxed);
    return s;
}

ModelSnapshot
ModelRegistry::modelSnapshot(const std::string &id) const
{
    Entry *e = find(id);
    if (e == nullptr) {
        ModelSnapshot s;
        s.id = id;
        s.state = ModelState::Retired;
        return s;
    }
    return snapshotEntry(id, *e);
}

RegistrySnapshot
ModelRegistry::snapshot() const
{
    RegistrySnapshot s;
    s.unknown_model_rejected =
        unknown_rejected_.load(std::memory_order_relaxed);
    std::vector<std::string> ids;
    {
        std::lock_guard<std::mutex> lk(map_mu_);
        for (const auto &kv : entries_)
            ids.push_back(kv.first);
    }
    for (const std::string &id : ids) {
        Entry *e = find(id);
        if (e != nullptr)
            s.models.push_back(snapshotEntry(id, *e));
    }
    return s;
}

std::string
ModelSnapshot::toJson() const
{
    std::string out = "{";
    jsonAppendf(out,
                "\"id\": \"%s\", \"version\": %u, \"state\": \"%s\", "
                "\"breaker\": \"%s\", \"failure_ewma\": %.4f, ",
                id.c_str(), version, modelStateName(state),
                breakerStateName(breaker), failure_ewma);
    jsonAppendf(out,
                "\"trips\": %llu, \"recoveries\": %llu, "
                "\"probes\": %llu, \"probe_failures\": %llu, ",
                static_cast<unsigned long long>(trips),
                static_cast<unsigned long long>(recoveries),
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(probe_failures));
    jsonAppendf(out,
                "\"unavailable_rejected\": %llu, \"faulted\": %llu, "
                "\"swaps\": %llu, \"last_error\": \"%s\", ",
                static_cast<unsigned long long>(unavailable_rejected),
                static_cast<unsigned long long>(faulted),
                static_cast<unsigned long long>(swaps),
                last_error.c_str());
    out += "\"server\": ";
    out += server.toJson();
    out += "}";
    return out;
}

std::string
RegistrySnapshot::toJson() const
{
    std::string out = "{";
    jsonAppendf(out, "\"unknown_model_rejected\": %llu, \"models\": [",
                static_cast<unsigned long long>(unknown_model_rejected));
    for (size_t i = 0; i < models.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += models[i].toJson();
    }
    out += "]}";
    return out;
}

} // namespace serve
} // namespace scdcnn
