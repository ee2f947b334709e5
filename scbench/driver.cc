/**
 * @file
 * Benchmark driver: executes one workload plan against the SC-DCNN
 * engine (offline) or its serving stack (serve) and writes the raw
 * measurements as one JSON object. It computes no summary statistics;
 * run.py turns the raw record into metrics.
 *
 *   scbench_driver --train DIR
 *   scbench_driver --plan FILE --work DIR --seconds S --trace 0|1
 *                  --out FILE
 *
 * The first form trains the LeNet5 weight cache (nn::trainedLeNet5)
 * into DIR/cache, in a process of its own, so that training counts
 * toward no metric; the second refuses to run without that cache.
 *
 * The plan (written by run.py from the workload seed) carries the
 * workload's configuration and every input: test-set indices, engine
 * seeds, arrival times and QoS classes. Inputs are images of the
 * nn::loadDigits test set. Layers are timed only from
 * outside, around calls to their public functions, plus what the
 * program already exposes (InferenceResult, MetricsSnapshot and the
 * obs::TraceRecorder phase aggregate).
 *
 * With --trace 1 the measured phase runs twice: once disarmed (the
 * baseline for the tracing overhead) and once with the recorder armed.
 * Every pass is checked off the clock: offline, one image per
 * micro-batch against a per-image predictWith at the same seed; serve,
 * every High-class answer against a direct predictWith at the seed the
 * result reports, on a reference engine built after the peak resident
 * set is read. Scores must match bit for bit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "nn/trainer.h"
#include "obs/trace.h"
#include "sc/simd.h"
#include "serve/artifact.h"
#include "serve/model_registry.h"

using namespace scdcnn;
using Clock = std::chrono::steady_clock;

namespace {

constexpr size_t kTestImages = 2000;
constexpr const char *kModelId = "lenet5";

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ the plan

struct Batch
{
    uint64_t seed = 0;
    std::vector<size_t> idx;
};

struct Request
{
    double t_us = 0; //!< scheduled send time, from the pass start
    size_t idx = 0;
    serve::AccuracyClass cls = serve::AccuracyClass::Balanced;
    long deadline_us = 0; //!< 0: none
};

struct Plan
{
    std::string mode; //!< "offline" or "serve"
    size_t len = 1024;
    size_t segment_words = 4;
    size_t min_bits = core::kDefaultProgressiveMinBits;
    size_t setup_repeats = 3; //!< set-ups timed; the last one is used
    std::vector<Batch> batches;
    std::vector<Request> requests;
};

[[noreturn]] void
fail(const std::string &what)
{
    std::fprintf(stderr, "scbench_driver: %s\n", what.c_str());
    std::exit(2);
}

Plan
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fail("cannot read plan " + path);
    Plan p;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key) || key[0] == '#')
            continue;
        if (key == "mode") {
            ls >> p.mode;
        } else if (key == "len") {
            ls >> p.len;
        } else if (key == "segment_words") {
            ls >> p.segment_words;
        } else if (key == "min_bits") {
            ls >> p.min_bits;
        } else if (key == "setup_repeats") {
            ls >> p.setup_repeats;
        } else if (key == "batch") {
            Batch b;
            ls >> b.seed;
            size_t i = 0;
            while (ls >> i)
                b.idx.push_back(i);
            p.batches.push_back(std::move(b));
        } else if (key == "req") {
            Request r;
            int cls = 0;
            ls >> r.t_us >> r.idx >> cls >> r.deadline_us;
            if (cls < 0 || cls >= static_cast<int>(serve::kAccuracyClasses))
                fail("bad QoS class in plan: " + line);
            r.cls = static_cast<serve::AccuracyClass>(cls);
            p.requests.push_back(r);
        } else {
            fail("unknown plan line: " + line);
        }
        if (ls.fail() && !ls.eof())
            fail("malformed plan line: " + line);
    }
    const bool offline = p.mode == "offline" && !p.batches.empty();
    const bool serving = p.mode == "serve" && !p.requests.empty();
    if (!offline && !serving)
        fail("plan has no runnable workload: " + path);
    for (const Batch &b : p.batches)
        for (size_t i : b.idx)
            if (i >= kTestImages)
                fail("test index out of range in plan");
    for (const Request &r : p.requests)
        if (r.idx >= kTestImages)
            fail("test index out of range in plan");
    return p;
}

// ------------------------------------------------------ JSON emission

/** Minimal JSON writer for the raw record: objects, arrays, numbers. */
class Json
{
  public:
    explicit Json(std::FILE *f) : f_(f) {}

    void open(const char *key, char bracket)
    {
        sep(key);
        std::fputc(bracket, f_);
        first_ = true;
    }
    void close(char bracket)
    {
        std::fputc(bracket, f_);
        first_ = false;
    }
    void num(const char *key, double v)
    {
        sep(key);
        std::fprintf(f_, "%.9g", v);
    }
    void str(const char *key, const std::string &v)
    {
        sep(key);
        std::fprintf(f_, "\"%s\"", v.c_str());
    }
    /** One array of numbers, written on its own line. */
    void row(const std::vector<double> &vals)
    {
        sep(nullptr);
        std::fputs("\n[", f_);
        for (size_t i = 0; i < vals.size(); ++i)
            std::fprintf(f_, i ? ",%.9g" : "%.9g", vals[i]);
        std::fputc(']', f_);
    }

  private:
    void sep(const char *key)
    {
        if (!first_)
            std::fputc(',', f_);
        first_ = false;
        if (key != nullptr)
            std::fprintf(f_, "\"%s\":", key);
    }

    std::FILE *f_;
    bool first_ = true;
};

// ---------------------------------------------------- one measured pass

/** Counter deltas of the serving metrics over one pass. */
struct ServeCounters
{
    uint64_t batches = 0, batch_images = 0, batch_kernel = 0;
    uint64_t rejected = 0, shed = 0, cancelled = 0;
    uint64_t unavailable = 0; //!< registry fast rejects (breaker open)
    std::array<uint64_t, 4> by_mode{};
    std::array<uint64_t, 4> close{};
};

ServeCounters
serveCounters(const serve::ModelSnapshot &model)
{
    const serve::MetricsSnapshot &m = model.server;
    ServeCounters c;
    c.unavailable = model.unavailable_rejected;
    c.batches = m.batches;
    for (size_t i = 0; i < m.batch_size_counts.size(); ++i)
        c.batch_images += i * m.batch_size_counts[i];
    c.batch_kernel = m.batch_kernel_batches;
    c.rejected = m.rejected;
    c.shed = m.shed;
    c.cancelled = m.cancelled;
    c.by_mode = m.batches_by_mode;
    c.close = m.close_reasons;
    return c;
}

ServeCounters
operator-(const ServeCounters &a, const ServeCounters &b)
{
    ServeCounters d;
    d.batches = a.batches - b.batches;
    d.batch_images = a.batch_images - b.batch_images;
    d.batch_kernel = a.batch_kernel - b.batch_kernel;
    d.rejected = a.rejected - b.rejected;
    d.shed = a.shed - b.shed;
    d.cancelled = a.cancelled - b.cancelled;
    d.unavailable = a.unavailable - b.unavailable;
    for (size_t i = 0; i < 4; ++i) {
        d.by_mode[i] = a.by_mode[i] - b.by_mode[i];
        d.close[i] = a.close[i] - b.close[i];
    }
    return d;
}

/** One answer to recompute with a per-image predictWith. */
struct Probe
{
    size_t idx;    //!< test-set index
    uint64_t seed; //!< the seed the answer was computed at
    size_t pred;
    std::vector<double> scores;
};

struct Pass
{
    bool traced = false;
    double wall_s = 0;
    double cpu_s = 0;
    /** offline: per micro-batch [ms, images, correct, effective_bits
     *  sum]; serve: per request, see runServe. */
    std::vector<std::vector<double>> rows;
    ServeCounters serve;
    std::vector<obs::PhaseProfileEntry> profile;
    std::vector<Probe> probes; //!< answers the output check recomputes
    size_t checked = 0;
    size_t mismatches = 0;
    size_t unexpected = 0; //!< untyped failures and impossible errors
};

void
emitPass(Json &j, const Pass &p)
{
    j.open(nullptr, '{');
    j.num("traced", p.traced ? 1 : 0);
    j.num("wall_s", p.wall_s);
    j.num("cpu_s", p.cpu_s);
    j.num("checked", static_cast<double>(p.checked));
    j.num("mismatches", static_cast<double>(p.mismatches));
    j.num("unexpected", static_cast<double>(p.unexpected));
    j.open("rows", '[');
    for (const auto &r : p.rows)
        j.row(r);
    j.close(']');
    j.open("serve", '{');
    j.num("batches", static_cast<double>(p.serve.batches));
    j.num("batch_images", static_cast<double>(p.serve.batch_images));
    j.num("batch_kernel", static_cast<double>(p.serve.batch_kernel));
    j.num("rejected", static_cast<double>(p.serve.rejected));
    j.num("shed", static_cast<double>(p.serve.shed));
    j.num("cancelled", static_cast<double>(p.serve.cancelled));
    j.num("unavailable", static_cast<double>(p.serve.unavailable));
    static const char *kModes[4] = {"fused", "reference", "progressive",
                                    "binary"};
    static const char *kClose[4] = {"full", "timeout", "expedited",
                                    "drain"};
    j.open("by_mode", '{');
    for (size_t i = 0; i < 4; ++i)
        j.num(kModes[i], static_cast<double>(p.serve.by_mode[i]));
    j.close('}');
    j.open("close", '{');
    for (size_t i = 0; i < 4; ++i)
        j.num(kClose[i], static_cast<double>(p.serve.close[i]));
    j.close('}');
    j.close('}');
    j.open("profile", '{');
    for (const obs::PhaseProfileEntry &e : p.profile) {
        if (e.count == 0)
            continue;
        j.open(obs::spanName(e.name), '{');
        j.num("count", static_cast<double>(e.count));
        j.num("total_ns", static_cast<double>(e.total_ns));
        j.close('}');
    }
    j.close('}');
    j.close('}');
}

/** Arm (or keep disarmed) the recorder for one pass, starting from an
 *  empty aggregate. */
void
startTrace(bool traced)
{
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    rec.disarm();
    rec.resetProfile();
    rec.clear();
    if (traced)
        rec.arm();
}

std::vector<obs::PhaseProfileEntry>
stopTrace()
{
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    rec.disarm();
    return rec.profile();
}

bool
sameScores(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/**
 * Output check, off the clock: recompute every probe of @p p with a
 * per-image predictWith on @p net at the probe's seed, on a few threads
 * (predictWith is safe to call concurrently). Class and scores must
 * match bit for bit.
 */
void
checkProbes(Pass &p, const core::ScNetwork &net,
            const core::PredictOptions &opts, const nn::Dataset &test)
{
    constexpr size_t kCheckThreads = 4;
    std::atomic<size_t> next{0}, bad{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kCheckThreads; ++t)
        workers.emplace_back([&] {
            for (size_t i = next++; i < p.probes.size(); i = next++) {
                const Probe &pr = p.probes[i];
                core::ForwardInfo info;
                const size_t pred =
                    net.predictWith(test.samples[pr.idx].image, pr.seed,
                                    opts, nullptr, &info);
                if (pred != pr.pred || !sameScores(info.scores, pr.scores))
                    ++bad;
            }
        });
    for (std::thread &w : workers)
        w.join();
    p.checked = p.probes.size();
    p.mismatches = bad;
    p.probes.clear();
}

// ------------------------------------------------------------- offline

/**
 * Closed loop: one caller sends the plan's micro-batches through
 * forwardBatch, back to back, until @p seconds have passed (cycling
 * the plan if it runs out).
 */
Pass
runOffline(const core::ScNetwork &net, const Plan &plan,
           const nn::Dataset &test, ThreadPool &pool, double seconds,
           bool traced)
{
    const core::PredictOptions opts; // Fused, full length
    Pass p;
    p.traced = traced;
    startTrace(traced);
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    for (size_t k = 0; Clock::now() < end; ++k) {
        const Batch &b = plan.batches[k % plan.batches.size()];
        std::vector<nn::Tensor> images;
        images.reserve(b.idx.size());
        for (size_t i : b.idx)
            images.push_back(test.samples[i].image);
        std::vector<core::ForwardInfo> infos;
        const Clock::time_point c0 = Clock::now();
        const std::vector<size_t> preds =
            net.forwardBatch(images, b.seed, opts, &pool, &infos);
        const double ms = usBetween(c0, Clock::now()) / 1000.0;
        double correct = 0, bits = 0;
        for (size_t i = 0; i < preds.size(); ++i) {
            correct += preds[i] == test.samples[b.idx[i]].label ? 1 : 0;
            bits += static_cast<double>(infos[i].effective_bits);
        }
        p.rows.push_back({ms, static_cast<double>(preds.size()), correct,
                          bits});
        // Image `pos` of the batch ran at seed + pos * 7919
        // (forwardBatch's documented schedule).
        const size_t pos = k % preds.size();
        p.probes.push_back({b.idx[pos], b.seed + pos * 7919, preds[pos],
                            std::move(infos[pos].scores)});
    }
    p.wall_s = secondsSince(t0);
    p.cpu_s = processCpuSeconds() - cpu0;
    p.profile = stopTrace();
    checkProbes(p, net, opts, test);
    return p;
}

// --------------------------------------------------------------- serve

/**
 * Open loop: one load-generating thread submits every planned request
 * at its scheduled time (never waiting for answers), then the pass
 * settles every future. Latency is later taken from the scheduled send
 * time: (actual send - scheduled) + the server's submit->ready time.
 */
Pass
runServe(serve::ModelRegistry &reg, const Plan &plan,
         const nn::Dataset &test, bool traced)
{
    const size_t n = plan.requests.size();
    std::vector<std::future<serve::InferenceResult>> futs(n);
    std::vector<double> late_us(n), submit_us(n);

    Pass p;
    p.traced = traced;
    const ServeCounters before =
        serveCounters(reg.modelSnapshot(kModelId));
    startTrace(traced);
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        const Request &rq = plan.requests[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(rq.t_us));
        std::this_thread::sleep_until(due);
        serve::RequestOptions opts;
        opts.accuracy = rq.cls;
        opts.deadline = std::chrono::microseconds(rq.deadline_us);
        nn::Tensor image = test.samples[rq.idx].image;
        const Clock::time_point s0 = Clock::now();
        futs[i] = reg.submit(kModelId, std::move(image), opts);
        const Clock::time_point s1 = Clock::now();
        late_us[i] = usBetween(due, s0);
        submit_us[i] = usBetween(s0, s1);
    }

    // Settle in submission order. Row layout (bench.py reads it by
    // position): sched_ms, late_ms, submit_us, requested class,
    // status (0 answered, 1+code typed ServeError, -1 unexpected),
    // correct, queue_ms, total_ms, effective_bits, early_exit,
    // degraded, deadline_met, batch_size, served class, had_deadline.
    double last_done_s = 0;
    for (size_t i = 0; i < n; ++i) {
        const Request &rq = plan.requests[i];
        std::vector<double> row = {rq.t_us / 1000.0, late_us[i] / 1000.0,
                                   submit_us[i],
                                   static_cast<double>(rq.cls)};
        try {
            serve::InferenceResult r = futs[i].get();
            const bool ok = r.predicted == test.samples[rq.idx].label;
            row.insert(row.end(),
                       {0.0, ok ? 1.0 : 0.0, r.queue_ms, r.total_ms,
                        static_cast<double>(r.effective_bits),
                        r.early_exit ? 1.0 : 0.0, r.degraded ? 1.0 : 0.0,
                        r.deadline_met ? 1.0 : 0.0,
                        static_cast<double>(r.batch_size),
                        static_cast<double>(r.served),
                        rq.deadline_us > 0 ? 1.0 : 0.0});
            last_done_s = std::max(
                last_done_s, (rq.t_us + late_us[i]) * 1e-6 +
                                 submit_us[i] * 1e-6 + r.total_ms * 1e-3);
            if (rq.cls == serve::AccuracyClass::High &&
                r.served == serve::AccuracyClass::High)
                p.probes.push_back({rq.idx, r.seed, r.predicted,
                                    std::move(r.scores)});
        } catch (const serve::ServeError &e) {
            // Admission, shedding, cancellation and the circuit
            // breaker's fast rejects are the overload outcomes the
            // serving stack is built to produce; an unknown model or a
            // shut-down server is not expected mid-run.
            const serve::ServeErrorCode c = e.code();
            if (c == serve::ServeErrorCode::UnknownModel ||
                c == serve::ServeErrorCode::ShutDown)
                ++p.unexpected;
            row.push_back(1.0 + static_cast<double>(c));
        } catch (const std::exception &) {
            ++p.unexpected;
            row.push_back(-1.0);
        }
        row.resize(15, 0.0);
        p.rows.push_back(std::move(row));
    }
    reg.drain();
    // The pass lasts until the last answer, or the last send if every
    // late request failed.
    p.wall_s = std::max(last_done_s, plan.requests.back().t_us * 1e-6);
    p.cpu_s = processCpuSeconds() - cpu0;
    p.profile = stopTrace();
    p.serve = serveCounters(reg.modelSnapshot(kModelId)) - before;
    return p;
}

struct Args
{
    std::string train; //!< work directory to train into, or empty
    std::string plan, work, out;
    double seconds = 10;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--train")
            a.train = v;
        else if (k == "--plan")
            a.plan = v;
        else if (k == "--work")
            a.work = v;
        else if (k == "--out")
            a.out = v;
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else
            fail("unknown argument " + k);
    }
    if (a.train.empty() &&
        (a.plan.empty() || a.work.empty() || a.out.empty() ||
         !(a.seconds > 0)))
        fail("usage: scbench_driver --train DIR | --plan FILE --work DIR "
             "--seconds S --trace 0|1 --out FILE");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (!args.train.empty()) {
        std::filesystem::create_directories(args.train + "/cache");
        nn::trainedLeNet5(nn::PoolingMode::Max, args.train + "/data",
                          args.train + "/cache");
        return 0;
    }
    const Plan plan = readPlan(args.plan);

    // Model and test set. The weights come from the cache that
    // --train wrote; training never runs in a measured process.
    const std::string data_dir = args.work + "/data";
    const std::string cache_dir = args.work + "/cache";
    if (!std::filesystem::exists(cache_dir + "/lenet5_max.weights"))
        fail("no trained LeNet5 in " + cache_dir + "; run --train first");
    const nn::Network trained =
        nn::trainedLeNet5(nn::PoolingMode::Max, data_dir, cache_dir);
    nn::Dataset train, test;
    nn::loadDigits(data_dir, 1, kTestImages, train, test);
    if (test.size() < kTestImages)
        fail("test set smaller than the plan assumes");

    core::ScNetworkConfig cfg;
    cfg.bitstream_len = plan.len;
    cfg.stream_segment_words = plan.segment_words;
    cfg.progressive_min_bits = plan.min_bits;
    // Load is sized for a 4-core host: the compute pool has at most 4
    // threads.
    ThreadPool pool(std::clamp<size_t>(std::thread::hardware_concurrency(),
                                       1, 4));

    std::vector<double> install_s, build_s;
    std::vector<Pass> passes;
    rusage ru{};
    if (plan.mode == "offline") {
        // Set-up: the engine build, repeated; the last engine is used.
        // Each old engine is freed first, so one is resident at a time.
        std::unique_ptr<core::ScNetwork> net;
        for (size_t r = 0; r < std::max<size_t>(1, plan.setup_repeats); ++r) {
            net.reset();
            const Clock::time_point t0 = Clock::now();
            net = std::make_unique<core::ScNetwork>(trained, cfg);
            build_s.push_back(secondsSince(t0));
        }
        // Warm-up: one micro-batch, not measured.
        std::vector<nn::Tensor> warm;
        for (size_t i : plan.batches[0].idx)
            warm.push_back(test.samples[i].image);
        net->forwardBatch(warm, 1, &pool);
        if (args.trace)
            passes.push_back(
                runOffline(*net, plan, test, pool, args.seconds, false));
        passes.push_back(
            runOffline(*net, plan, test, pool, args.seconds, args.trace));
        getrusage(RUSAGE_SELF, &ru);
    } else {
        nn::TopologySpec spec;
        spec.convs = {{20, 5}, {50, 5}};
        spec.fc_hidden = {500};
        const serve::ModelArtifact artifact = serve::makeArtifact(
            kModelId, 1, spec, nn::PoolingMode::Max, cfg, trained);
        const std::string artifact_path = args.work + "/lenet5.scm";
        const nn::LoadResult saved =
            serve::saveArtifact(artifact, artifact_path);
        if (!saved.ok())
            fail("cannot write artifact: " + saved.message());

        serve::RegistryConfig rc;
        rc.server_template.compute_pool = &pool;
        rc.server_template.batch_workers = 1;
        // Set-up: a cold install from the artifact file into a fresh
        // registry, repeated; the last registry serves. Each old
        // registry (and its engine) is freed first.
        std::unique_ptr<serve::ModelRegistry> reg;
        for (size_t r = 0; r < std::max<size_t>(1, plan.setup_repeats); ++r) {
            reg.reset();
            reg = std::make_unique<serve::ModelRegistry>(rc);
            const Clock::time_point t0 = Clock::now();
            const serve::InstallResult ir = reg->install(kModelId,
                                                         artifact_path);
            install_s.push_back(secondsSince(t0));
            if (!ir.ok)
                fail("install failed: " + ir.diagnostic);
        }

        // Warm-up: a few requests of every class, not measured.
        for (size_t c = 0; c < serve::kAccuracyClasses; ++c)
            for (size_t i = 0; i < 3; ++i) {
                serve::RequestOptions o;
                o.accuracy = static_cast<serve::AccuracyClass>(c);
                try {
                    reg->submit(kModelId, test.samples[i].image, o).get();
                } catch (const serve::ServeError &e) {
                    fail(std::string("warm-up request failed: ") +
                         e.what());
                }
            }
        if (args.trace)
            passes.push_back(runServe(*reg, plan, test, false));
        passes.push_back(runServe(*reg, plan, test, args.trace));
        getrusage(RUSAGE_SELF, &ru);
        reg.reset();

        // The reference engine for the output checks, built directly
        // from the same artifact once the served one is gone.
        nn::Network ref_net;
        if (!serve::instantiate(artifact, &ref_net).ok())
            fail("cannot instantiate artifact");
        const Clock::time_point b0 = Clock::now();
        const core::ScNetwork ref(ref_net, cfg);
        build_s.push_back(secondsSince(b0));
        const core::PredictOptions high_opts =
            rc.server_template
                .qos[static_cast<size_t>(serve::AccuracyClass::High)]
                .predictOptions();
        for (Pass &p : passes)
            checkProbes(p, ref, high_opts, test);
    }

    std::FILE *f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr)
        fail("cannot write " + args.out + ": " + std::strerror(errno));
    Json j(f);
    j.open(nullptr, '{');
    j.str("simd", sc::simd::enabled() ? "avx2" : "scalar");
    j.str("compiler", __VERSION__);
#ifdef NDEBUG
    j.str("assertions", "off");
#else
    j.str("assertions", "on");
#endif
    j.num("threads", static_cast<double>(pool.size()));
    j.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    j.open("install_s", '[');
    for (double v : install_s)
        j.num(nullptr, v);
    j.close(']');
    j.open("engine_build_s", '[');
    for (double v : build_s)
        j.num(nullptr, v);
    j.close(']');
    j.open("passes", '[');
    for (const Pass &p : passes)
        emitPass(j, p);
    j.close(']');
    j.close('}');
    std::fputc('\n', f);
    if (std::fclose(f) != 0)
        fail("cannot finish " + args.out);
    return 0;
}
