#include "core/sc_network.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "blocks/activation.h"
#include "blocks/feature_block.h"
#include "blocks/pooling.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/quantize.h"
#include "obs/trace.h"
#include "sc/btanh.h"
#include "sc/fused.h"
#include "sc/sng.h"
#include "sc/stanh.h"

namespace scdcnn {
namespace core {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Per-chunk phase stopwatch: laps accumulate locally (no atomics in
 * the pixel loop) and the chunk flushes once into the trace recorder.
 * All no-ops while tracing is disarmed.
 */
struct PhaseTimer
{
    PhaseTimer() : on(obs::armed()) {}

    void start()
    {
        if (on)
            last = Clock::now();
    }

    void lap(uint64_t &bucket)
    {
        if (!on)
            return;
        const Clock::time_point now = Clock::now();
        bucket += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 last)
                .count());
        last = now;
    }

    bool on;
    Clock::time_point last;
    uint64_t inner_product = 0;
    uint64_t pooling = 0;
    uint64_t activation = 0;
};

/**
 * Chunk flush: one engine phase span per non-empty phase, end-anchored
 * at the recorder's clock, carrying the stage index in the span's
 * `extra` field (the `tag` field is the serving layer's model label)
 * and the segment's first word as the "seg" argument. The recorder's
 * aggregate folds them into the per-phase profile.
 */
void
flushPhases(const PhaseTimer &t, size_t seg_w0, size_t stage)
{
    if (!t.on)
        return;
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    const uint64_t end = rec.nowNs();
    const auto span = [&](obs::SpanName name, uint64_t dur) {
        if (dur > 0)
            rec.spanComplete(name, end - dur, dur, 0,
                             static_cast<uint16_t>(stage), seg_w0);
    };
    span(obs::SpanName::InnerProduct, t.inner_product);
    span(obs::SpanName::Pooling, t.pooling);
    span(obs::SpanName::Activation, t.activation);
}

/** Nanoseconds since @p t0. */
uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/**
 * Stateless per-site generator seed: mixes (base seed, layer, site)
 * through SplitMix64 so every pixel/neuron derives its randomness from
 * its position rather than from evaluation order. Any partition of a
 * layer across threads therefore produces bit-identical streams.
 */
uint64_t
siteSeed(uint64_t seed, uint64_t layer_idx, uint64_t site)
{
    sc::SplitMix64 mix(seed ^
                       0x9E3779B97F4A7C15ULL * (layer_idx + 1) ^
                       0xBF58476D1CE4E5B9ULL * (site + 1));
    return mix.next();
}

/** Salt separating the MUX-select generator family from other
 *  randomized sites of the same (seed, layer). */
constexpr uint64_t kSelectSalt = 0x5E1EC7A5C0DEBEEFULL;

/** Salt for the MUX average-pooling generators. */
constexpr uint64_t kPoolSalt = 0xAB00057EDB00157EULL;

/** Segment granularity Progressive mode falls back to when the config
 *  asks for whole-stream execution (which would leave it no mid-stream
 *  checkpoint to exit at). */
constexpr size_t kProgressiveFallbackSegmentWords = 4;

/** The input views of every site of @p a at image 0 (the batch-kernel
 *  operand form: the image stride is the arena's strideWords()). */
std::vector<sc::BitstreamView>
imageZeroViews(const sc::BatchStreamArena &a)
{
    std::vector<sc::BitstreamView> v;
    v.reserve(a.count());
    for (size_t i = 0; i < a.count(); ++i)
        v.push_back(a.view(i, 0));
    return v;
}

/** The kernel views of every filter block of @p w, in block order. */
std::vector<sc::WeightBlockView>
blockViews(const sc::InterleavedWeightArena &w)
{
    std::vector<sc::WeightBlockView> v(w.groups());
    for (size_t g = 0; g < v.size(); ++g)
        v[g] = w.block(g);
    return v;
}

/**
 * Program @p n streams of @p len bits in place, kSngLanes at a time:
 * stream j is @p bank's stream first + j at comparator threshold
 * threshold(j), and its word w lands at
 * out[w * word_stride + j * lane_stride].
 */
template <class Threshold>
void
programStreams(const sc::SngBank &bank, uint64_t first, size_t n,
               size_t len, uint64_t *out, size_t word_stride,
               size_t lane_stride, const Threshold &threshold)
{
    for (size_t j0 = 0; j0 < n; j0 += sc::kSngLanes) {
        const size_t lanes = std::min(sc::kSngLanes, n - j0);
        uint64_t seeds[sc::kSngLanes];
        uint32_t thresholds[sc::kSngLanes];
        for (size_t i = 0; i < lanes; ++i) {
            seeds[i] = bank.seedAt(first + j0 + i);
            thresholds[i] = threshold(j0 + i);
        }
        sc::sngLanes(seeds, thresholds, lanes, len,
                     out + j0 * lane_stride, word_stride, lane_stride);
    }
}

/**
 * Bipolar-sum class scores of image @p b from the output layer's
 * accumulators (laid out [class][image] over @p n_images images) after
 * @p consumed cycles of an output stage with @p fan_in lines; returns
 * the argmax and fills @p info when non-null.
 */
size_t
scoreImage(const std::vector<sc::ProductCountAccum> &acc, size_t n_classes,
           size_t n_images, size_t b, size_t consumed, size_t fan_in,
           ForwardInfo *info)
{
    const auto bits = static_cast<double>(consumed);
    std::vector<double> scores(n_classes);
    for (size_t o = 0; o < n_classes; ++o)
        scores[o] =
            (2.0 * static_cast<double>(
                       acc[o * n_images + b].value(/*approximate=*/true)) -
             static_cast<double>(fan_in) * bits) /
            bits;
    const auto pred = static_cast<size_t>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
    if (info != nullptr) {
        info->scores = std::move(scores);
        info->effective_bits = consumed;
    }
    return pred;
}

} // namespace

namespace {

/** Activation-unit sizing for one network layer. */
struct ActSizing
{
    unsigned k;   //!< FSM/counter state count
    double gain;  //!< realized activation gain g_sc: out ~ tanh(g_sc*s)
};

/**
 * Gain-matched activation sizing (see DESIGN.md, reconstruction note):
 * the state count is chosen so the unit realizes the activation gain
 * the float network was trained with, subject to a mixing-time clamp —
 * a saturating counter with step deviation sigma relaxes in ~(K/sigma)^2
 * cycles, which must fit several times into the bit-stream or the
 * output is transient-dominated. Residual gain mismatch is compensated
 * at the next layer's SNG programming (weight pre-scaling).
 *
 * The empirical equations (1)-(3) of Section 4.4 target the isolated
 * feature-extraction-block regime of Figure 14 (operands uniform over
 * [-1,1]); they are exercised there by the fig14 bench.
 */
ActSizing
gainMatchedSizing(blocks::FebKind kind, size_t n_inputs,
                  size_t pool_size, size_t length, double g_float)
{
    const double n = static_cast<double>(n_inputs);
    const double len = static_cast<double>(length);
    double sigma;     // per-cycle step standard deviation
    double gain_per_k; // realized gain per counter state
    if (!blocks::febUsesApc(kind)) {
        sigma = 1.0; // Stanh walks +/-1
        gain_per_k = 1.0 / (2.0 * n);
    } else if (kind == blocks::FebKind::ApcAvgBtanh && pool_size > 1) {
        sigma = std::sqrt(n) / 2.0; // 4-way averaged binary steps
        gain_per_k = 2.0 / n;
    } else {
        sigma = std::sqrt(n); // direct / max-pooled binary steps
        gain_per_k = 1.0 / (2.0 * n);
    }

    const double k_target = g_float / gain_per_k;
    const double k_max = sigma * std::sqrt(len / 8.0);
    ActSizing s;
    s.k = sc::nearestEvenState(std::min(k_target, k_max));
    s.gain = std::min(1.0, static_cast<double>(s.k) * gain_per_k);
    return s;
}

} // namespace

ScNetwork::ScNetwork(const nn::Network &trained, ScNetworkConfig cfg,
                     uint64_t weight_seed)
    : cfg_(cfg),
      plan_(nn::deriveNetworkPlan(trained, cfg.input_c, cfg.input_h,
                                  cfg.input_w)),
      // The binary sibling backend reads the *unquantized* trained
      // weights: sign(w) of the SC-quantized copy below can differ
      // from sign(w) of the raw weight.
      binary_(trained, plan_)
{
    // Store the weights the way the hardware would: quantized per the
    // Section 5.2/5.3 storage scheme (grouping derived from the plan).
    nn::Network net = trained;
    nn::quantizeNetwork(net, cfg_.weight_bits);

    const size_t len = cfg_.bitstream_len;
    bias_line_ = sc::constantStream(true, len);
    sc::SngBank bank(weight_seed);

    // Size each hidden stage's activation unit to the gain the float
    // network was trained with; any shortfall (mixing-time clamp)
    // becomes a weight pre-scaling at the next layer. Layers sharing
    // (K, threshold) / (K, n_inputs) share one batched table through
    // the cache.
    const size_t n_stages = plan_.stages.size();
    layer_gain_.assign(n_stages, 1.0);
    layer_k_.assign(n_stages, 2);
    stanh_tables_.assign(n_stages, nullptr);
    btanh_tables_.assign(n_stages, nullptr);
    for (size_t l = 0; l < n_stages; ++l) {
        const nn::PlanStage &st = plan_.stages[l];
        const size_t n_inputs = st.fan_in + 1;
        ActSizing sizing =
            gainMatchedSizing(stageFebKind(l), n_inputs,
                              st.pooled ? 4 : 1, len, st.g_float);
        layer_k_[l] = sizing.k;
        layer_gain_[l] = std::min(1.0, sizing.gain / st.g_float);
        if (blocks::febUsesApc(stageFebKind(l)))
            btanh_tables_[l] = &fsm_tables_.btanh(
                layer_k_[l], static_cast<unsigned>(n_inputs));
        else
            stanh_tables_[l] = &fsm_tables_.stanh(layer_k_[l]);
    }

    // MUX-based layers attenuate their features by layer_gain_; the
    // consuming layer's weight streams are programmed at w/gain
    // (saturating in the SNG — the pre-scaling of Section 3.2), so the
    // drift seen by its adder matches the float network again. Biases
    // are not attenuated and stay unscaled.
    // Hidden stages store their streams in the filter-interleaved
    // layout the filter-blocked kernels stream through; the output
    // layer's popcount-total kernel reads whole streams, so it keeps
    // the plain one. Every layer keeps its weights filter-major with
    // the taps in (c_in, ky, kx) order (an fc layer's input order is
    // the flattened grid of the same order), and its streams are the
    // bank's in that order, filter by filter, bias last: stream (o, t)
    // of a layer whose first stream is `first` is bank stream
    // first + o * taps + t. Bank streams are seeded by index, so the
    // layers are programmed in parallel — a hidden stage by filter
    // block, each worker writing whole blocks in place, the output
    // layer by class — and match the serial draw bit for bit.

    // Comparator thresholds of a layer programmed at in_gain, by
    // (filter or neuron o, tap t).
    const auto thresholdsOf = [](nn::Layer &layer, size_t fan_in,
                                 double in_gain) {
        const std::vector<float> &w = *layer.weights();
        const std::vector<float> &bias = *layer.biases();
        return [&w, &bias, fan_in, in_gain](size_t o, size_t t) {
            return sc::bipolarThreshold(
                t < fan_in ? w[o * fan_in + t] / in_gain
                           : static_cast<double>(bias[o]));
        };
    };

    // Program the hidden stages in plan order, each consuming the
    // previous stage's realized gain, then the binary output layer.
    uint64_t first = 0;
    double in_gain = 1.0;
    weights_.resize(n_stages);
    for (size_t l = 0; l < n_stages; ++l) {
        const nn::PlanStage &st = plan_.stages[l];
        const auto threshold =
            thresholdsOf(net.layer(st.layer_index), st.fan_in, in_gain);
        const size_t taps = st.fan_in + 1;
        sc::InterleavedWeightArena &w = weights_[l];
        w.reshape(st.out_c, taps, len);
        // Filter lane f's (word, tap) words sit kFilterLanes apart in
        // a tap row and taps * kFilterLanes apart across words; padding
        // lanes stay zero.
        parallelFor(0, w.groups(), [&](size_t g) {
            w.clearBlock(g);
            for (size_t f = 0; f < w.lanesInGroup(g); ++f) {
                const size_t o = g * sc::kFilterLanes + f;
                programStreams(bank, first + o * taps, taps, len,
                               w.blockWords(g) + f, taps * sc::kFilterLanes,
                               sc::kFilterLanes,
                               [&](size_t t) { return threshold(o, t); });
            }
        });
        first += st.out_c * taps;
        in_gain = layer_gain_[l];
    }
    out_.n_in = plan_.output.fan_in;
    out_.n_out = plan_.output.out_c;
    const size_t out_taps = out_.n_in + 1;
    const auto out_threshold = thresholdsOf(
        net.layer(plan_.output.layer_index), out_.n_in, in_gain);
    out_.arena.reset(out_.n_out * out_taps, len);
    parallelFor(0, out_.n_out, [&](size_t o) {
        programStreams(bank, first + o * out_taps, out_taps, len,
                       out_.arena.wordsAt(o * out_taps), 1,
                       out_.arena.strideWords(),
                       [&](size_t t) { return out_threshold(o, t); });
    });
}

void
ScNetwork::encodeImages(std::span<const nn::Tensor> images,
                        const std::vector<uint64_t> &seeds,
                        ThreadPool *pool, StreamGrid &grid) const
{
    grid.c = plan_.in_c;
    grid.h = plan_.in_h;
    grid.w = plan_.in_w;
    grid.arena.reset(grid.c * grid.h * grid.w, images.size(),
                     cfg_.bitstream_len);
    const auto body = [&](size_t b) {
        const nn::Tensor &image = images[b];
        SCDCNN_ASSERT(image.channels() == plan_.in_c &&
                          image.height() == plan_.in_h &&
                          image.width() == plan_.in_w,
                      "expected a %zux%zux%zu image, got %zux%zux%zu",
                      plan_.in_c, plan_.in_h, plan_.in_w,
                      image.channels(), image.height(), image.width());
        const Clock::time_point t0 = Clock::now();
        // Pixel values in [0,1] already lie inside the bipolar range;
        // they are encoded at face value so the SC network computes
        // the same function the float network was trained on. Pixel i
        // is stream i of the image's bank.
        programStreams(sc::SngBank(seeds[b]), 0, image.size(),
                       cfg_.bitstream_len, grid.arena.wordsAt(0, b), 1,
                       grid.arena.images() * grid.arena.strideWords(),
                       [&](size_t i) {
                           return sc::bipolarThreshold(image[i]);
                       });
        if (obs::armed()) {
            const uint64_t dur = nsSince(t0);
            obs::TraceRecorder &rec = obs::TraceRecorder::instance();
            rec.spanComplete(obs::SpanName::Encode, rec.nowNs() - dur,
                             dur);
        }
    };
    if (pool != nullptr)
        parallelFor(*pool, 0, images.size(), body);
    else
        parallelFor(0, images.size(), body);
}

void
ScNetwork::initStageRun(StageRun &run, size_t layer_idx,
                        const std::vector<uint64_t> &seeds) const
{
    const nn::PlanStage &st = plan_.stages[layer_idx];
    const size_t B = seeds.size();
    const size_t n_pixels = st.flatOut();
    run.out.c = st.out_c;
    run.out.h = st.out_h;
    run.out.w = st.out_w;
    run.out.arena.reset(n_pixels, B, cfg_.bitstream_len);

    const blocks::FebKind kind = stageFebKind(layer_idx);
    const bool use_apc = blocks::febUsesApc(kind);
    const bool use_max = blocks::febUsesMaxPool(kind);

    run.fsm.assign(n_pixels * B,
                   use_apc ? btanh_tables_[layer_idx]->initialState()
                           : stanh_tables_[layer_idx]->initialState());
    run.pool.resize(use_max ? n_pixels * B : 0);
    for (auto &ps : run.pool)
        ps.reset(4, 0);
    // Every generator is derived from its position: MUX selects per
    // (filter block, position, window) site — shared by the block's
    // lanes, the way the blocked MUX kernel samples — at index
    // ((g * positions + q) * windows + window) * B + image whatever
    // order the work items run in (an fc stage's site is its neuron
    // block g), and the average-pooling MUX per pixel, each seeded
    // from its own image's seed. Any thread partition and any batch
    // composition reproduce the same streams (and the Reference oracle
    // seeds its generators the same way).
    run.sel_rng.clear();
    run.pool_rng.clear();
    if (!use_apc) {
        const size_t windows = st.pooled ? 4 : 1;
        const size_t n_sites = weights_[layer_idx].groups() * st.out_h *
                               st.out_w * windows;
        run.sel_rng.reserve(n_sites * B);
        for (size_t s = 0; s < n_sites; ++s)
            for (size_t b = 0; b < B; ++b)
                run.sel_rng.emplace_back(
                    siteSeed(seeds[b] ^ kSelectSalt, layer_idx, s));
        if (st.pooled && !use_max) {
            run.pool_rng.reserve(n_pixels * B);
            for (size_t p = 0; p < n_pixels; ++p)
                for (size_t b = 0; b < B; ++b)
                    run.pool_rng.emplace_back(
                        siteSeed(seeds[b] ^ kPoolSalt, layer_idx, p));
        }
    }
}

void
ScNetwork::runStageSegment(const StreamGrid &in, size_t layer_idx,
                           const SegRange &seg,
                           const std::vector<uint32_t> &active,
                           StageRun &run, ThreadPool *pool) const
{
    const nn::PlanStage &st = plan_.stages[layer_idx];
    const sc::InterleavedWeightArena &weights = weights_[layer_idx];
    // A pooled stage's output pixel pools edge x edge windows at
    // stride edge; the kernel covers the rest of the input grid, so an
    // fc stage (edge 1, 1x1 output) has one window over all of it.
    const size_t edge = st.pooled ? 2 : 1;
    const size_t windows = edge * edge;
    const size_t kh = st.in_h - edge * st.out_h + 1;
    const size_t kw = st.in_w - edge * st.out_w + 1;
    const size_t out_w = st.out_w;
    const size_t n_inputs = st.fan_in + 1;
    const size_t B = run.out.arena.images();
    const size_t n_active = active.size();

    const blocks::FebKind kind = stageFebKind(layer_idx);
    const bool use_apc = blocks::febUsesApc(kind);
    const bool use_max = blocks::febUsesMaxPool(kind);
    const bool pooled = st.pooled;
    const size_t positions = st.out_h * st.out_w;
    const size_t n_groups = weights.groups();
    const size_t seg_words = seg.w1 - seg.w0;
    const size_t seg_stride = seg_words * 64;
    const size_t in_stride = in.arena.strideWords();
    const std::vector<sc::WeightBlockView> views = blockViews(weights);

    // One (output position, filter block) pair per work item,
    // position-major (item = q * n_groups + g), so a chunk holds runs
    // of filter blocks at one position (an fc stage has one position,
    // so its chunk is one run of neuron blocks). Per run and active
    // image, each window's input words are gathered once into an
    // operand tile and folded against every block of the run — one
    // input window fanned out to many filters, as in the hardware
    // feature-extraction block. Contiguous chunks go to the pool
    // workers, each with its own reusable workspace; everything
    // randomized is seeded by its (block, position, window) site, so
    // the partition never changes the streams.
    // Max-pooled APC stages carry the inner products as count planes:
    // the Figure 8 selector needs per-cycle counts only for the input
    // it forwards, so the kernel skips the plane-to-count transpose
    // for the losing windows (binaryMaxPoolPlanesBatch recovers the
    // winner's counts on demand).
    const size_t plane_cap = sc::planeCapForTaps(n_inputs);
    const size_t plane_lane_stride = seg_words * (plane_cap + 1);

    const auto body = [&](size_t lo, size_t hi) {
        // Scratch holds `slots` run lanes per window: two images of
        // the longest run this chunk can hold (one when only one image
        // is active), so even a run of every block of a layer folds
        // image pairs — the AVX-512 pair fold — or kFilterLanes lanes
        // per active image when that is more (the scratch of one block
        // over the whole batch). Short runs (few filters) then pool
        // and activate several images per pass, which keeps the
        // interleaved FSM passes wide.
        const size_t slots =
            std::max(std::min(hi - lo, n_groups) *
                         std::min<size_t>(n_active, 2),
                     n_active) *
            sc::kFilterLanes;
        sc::BatchFusedWorkspace wsp;
        for (size_t window = 0; window < windows; ++window)
            wsp.xs0[window].resize(n_inputs);
        wsp.x_strides.assign(n_inputs, in_stride);
        wsp.x_strides[n_inputs - 1] = 0; // shared bias line
        std::vector<uint64_t> planes_buf;
        std::vector<const uint64_t *> plane_ptrs;
        std::vector<blocks::MaxPoolCarryState *> pool_state_ptrs;
        std::vector<uint16_t *> pool_out_ptrs;
        if (use_apc && use_max) {
            // +4 tail words: the pooling quad loads read whole 4-plane
            // groups past the last word's parity slot.
            planes_buf.resize(4 * slots * plane_lane_stride + 4);
            plane_ptrs.resize(4 * slots);
            pool_state_ptrs.resize(slots);
            pool_out_ptrs.resize(slots);
            wsp.pooled.resize(slots * seg_stride);
        } else if (use_apc) {
            wsp.counts.resize(windows * slots * seg_stride);
            if (pooled) {
                wsp.steps.resize(slots * seg_stride);
                wsp.step_ptrs.resize(slots);
            }
        } else {
            wsp.products.resize(windows * slots * seg_words);
            if (pooled)
                wsp.pooled_words.resize(slots * seg_words);
        }
        wsp.count_ptrs.resize(slots);
        wsp.word_ptrs.resize(slots);
        wsp.out_ptrs.resize(slots);
        wsp.state_ptrs.resize(slots);
        PhaseTimer timer;
        for (size_t item = lo; item < hi;) {
            const size_t q = item / n_groups;
            const size_t g0 = item % n_groups;
            const size_t g1 = std::min(n_groups, g0 + (hi - item));
            item += g1 - g0;
            const std::span<const sc::WeightBlockView> run_blocks(
                views.data() + g0, g1 - g0);
            const size_t run_lanes = run_blocks.size() * sc::kFilterLanes;
            // An odd group above two rounds down to even: its odd image
            // would fold alone, at half the pair fold's width.
            size_t group = std::min(slots / run_lanes, n_active);
            if (group > 2 && group % 2 == 1)
                --group;
            const size_t oy = q / out_w;
            const size_t ox = q % out_w;

            for (size_t window = 0; window < windows; ++window) {
                const size_t cy = edge * oy + window / edge;
                const size_t cx = edge * ox + window % edge;
                std::vector<sc::BitstreamView> &xs = wsp.xs0[window];
                size_t idx = 0;
                for (size_t ci = 0; ci < st.in_c; ++ci)
                    for (size_t ky = 0; ky < kh; ++ky)
                        for (size_t kx = 0; kx < kw; ++kx)
                            xs[idx++] = in.at(ci, cy + ky, cx + kx, 0);
                xs[idx] = bias_line_;
            }

            // Scratch lane of (window, image jj of the group, run lane
            // r): window * slots + jj * run_lanes + r.
            for (size_t j0 = 0; j0 < n_active; j0 += group) {
                const uint32_t *imgs = active.data() + j0;
                const size_t n_imgs = std::min(group, n_active - j0);
                timer.start();
                for (size_t window = 0; window < windows; ++window) {
                    if (use_apc && use_max) {
                        sc::fusedProductPlanesMultiBatch(
                            wsp.xs0[window], wsp.x_strides, imgs, n_imgs,
                            run_blocks, /*approximate=*/true, seg.w0,
                            seg.w1, wsp.tile,
                            planes_buf.data() +
                                window * slots * plane_lane_stride,
                            plane_cap, plane_lane_stride,
                            run_lanes * plane_lane_stride);
                    } else if (use_apc) {
                        sc::fusedProductCountsMultiBatch(
                            wsp.xs0[window], wsp.x_strides, imgs, n_imgs,
                            run_blocks, /*approximate=*/true, seg.w0,
                            seg.w1, wsp.tile,
                            wsp.counts.data() + window * slots * seg_stride,
                            seg_stride, run_lanes * seg_stride);
                    } else {
                        // MUX stages run the per-image kernel (the
                        // selects are per-image RNG sequences anyway).
                        for (size_t jj = 0; jj < n_imgs; ++jj) {
                            sc::shiftViewsForImage(wsp.xs0[window],
                                                   wsp.x_strides, imgs[jj],
                                                   wsp.xs_img);
                            for (size_t g = g0; g < g1; ++g) {
                                const size_t site = g * positions + q;
                                sc::Xoshiro256ss &sel =
                                    run.sel_rng[(site * windows + window) *
                                                    B +
                                                imgs[jj]];
                                sc::fillMuxSelects(n_inputs, seg.n_cycles,
                                                   sel, wsp.selects);
                                sc::fusedMuxProductMulti(
                                    wsp.xs_img, views[g], wsp.selects,
                                    seg.w0, seg.w1,
                                    wsp.products.data() +
                                        (window * slots + jj * run_lanes +
                                         (g - g0) * sc::kFilterLanes) *
                                            seg_words,
                                    seg_words);
                            }
                        }
                    }
                }
                timer.lap(timer.inner_product);

                // Pool every lane pixel of the run for these images,
                // carrying the selector counters across segments, then
                // activate them all in one interleaved FSM pass
                // (independent serial chains overlap in the pipeline,
                // and the per-call cost is paid once per pass, not per
                // lane); an unpooled stage hands its inner products
                // straight to the activation. Max pooling uses the
                // accumulative (non-resetting) reading of the Figure 8
                // counters: inside a trained network the candidate
                // inner products are separated by O(1/N) in stream
                // value, so per-segment counts cannot distinguish
                // them, but the accumulated counts converge on the
                // true maximum within a few hundred cycles (see
                // DESIGN.md reconstruction notes).
                // Pairs run pixel-major, image-minor, so consecutive
                // FSM chains write adjacent arena slots and states. Only
                // the stage's last block is ragged, so the run's real
                // filters are its first n_filters lanes.
                const size_t n_filters =
                    std::min(g1 * sc::kFilterLanes, st.out_c) -
                    g0 * sc::kFilterLanes;
                size_t n_pairs = 0;
                for (size_t r = 0; r < n_filters; ++r) {
                    const size_t p =
                        (g0 * sc::kFilterLanes + r) * positions + q;
                    for (size_t jj = 0; jj < n_imgs; ++jj) {
                        const size_t img = imgs[jj];
                        const size_t lane = jj * run_lanes + r;
                        const size_t pr = n_pairs++;
                        wsp.out_ptrs[pr] =
                            run.out.arena.wordsAt(p, img) + seg.w0;
                        wsp.state_ptrs[pr] = &run.fsm[p * B + img];
                        if (!pooled) {
                            if (use_apc)
                                wsp.count_ptrs[pr] =
                                    wsp.counts.data() + lane * seg_stride;
                            else
                                wsp.word_ptrs[pr] =
                                    wsp.products.data() + lane * seg_words;
                        } else if (use_apc && use_max) {
                            // The plane form: only each pixel's selected
                            // window is ever transposed back to
                            // per-cycle counts.
                            for (size_t w = 0; w < 4; ++w)
                                plane_ptrs[pr * 4 + w] =
                                    planes_buf.data() +
                                    (w * slots + lane) * plane_lane_stride;
                            pool_state_ptrs[pr] = &run.pool[p * B + img];
                            pool_out_ptrs[pr] =
                                wsp.pooled.data() + pr * seg_stride;
                            wsp.count_ptrs[pr] = pool_out_ptrs[pr];
                        } else if (use_apc) {
                            const uint16_t *cnt[4];
                            for (size_t w = 0; w < 4; ++w)
                                cnt[w] = wsp.counts.data() +
                                         (w * slots + lane) * seg_stride;
                            wsp.step_ptrs[pr] =
                                wsp.steps.data() + pr * seg_stride;
                            blocks::binaryAveragePoolingSignedRange(
                                cnt, 4, n_inputs, seg.n_cycles,
                                wsp.steps.data() + pr * seg_stride);
                        } else {
                            const uint64_t *prod[4];
                            for (size_t w = 0; w < 4; ++w)
                                prod[w] = wsp.products.data() +
                                          (w * slots + lane) * seg_words;
                            uint64_t *pooled_out =
                                wsp.pooled_words.data() + pr * seg_words;
                            // Unlike the isolated Figure 14(b) study
                            // (operands uniform over [-1,1]),
                            // trained-network streams sit near p=0.5
                            // where the Figure 11 K/5 threshold would
                            // swamp the signal with a constant positive
                            // bias; the classic midpoint threshold is
                            // used for network inference.
                            if (use_max)
                                blocks::maxPoolStreamsRange(
                                    prod, 4, seg.c0, seg.n_cycles,
                                    cfg_.segment_len, /*accumulate=*/true,
                                    run.pool[p * B + img], pooled_out);
                            else
                                blocks::averagePoolingRange(
                                    prod, 4, seg.n_cycles,
                                    run.pool_rng[p * B + img], pooled_out);
                            wsp.word_ptrs[pr] = pooled_out;
                        }
                    }
                }
                if (pooled) {
                    // Every pixel's pooling segments end on the same
                    // cycles, so one call pools them all.
                    if (use_apc && use_max)
                        blocks::binaryMaxPoolPlanesBatch(
                            plane_ptrs.data(), n_pairs, 4, plane_cap,
                            /*parity=*/true, seg.c0, seg.n_cycles,
                            cfg_.segment_len, /*accumulate=*/true,
                            pool_state_ptrs.data(), pool_out_ptrs.data());
                    timer.lap(timer.pooling);
                }
                if (use_apc && (use_max || !pooled))
                    btanh_tables_[layer_idx]->transformWordsBatch(
                        wsp.count_ptrs.data(), seg.n_cycles,
                        wsp.out_ptrs.data(), wsp.state_ptrs.data(),
                        n_pairs);
                else if (use_apc)
                    btanh_tables_[layer_idx]->transformSignedWordsBatch(
                        wsp.step_ptrs.data(), seg.n_cycles,
                        wsp.out_ptrs.data(), wsp.state_ptrs.data(),
                        n_pairs);
                else
                    stanh_tables_[layer_idx]->transformWordsBatch(
                        wsp.word_ptrs.data(), seg.n_cycles,
                        wsp.out_ptrs.data(), wsp.state_ptrs.data(),
                        n_pairs);
                timer.lap(timer.activation);
            }
        }
        flushPhases(timer, seg.w0, layer_idx);
    };
    if (pool != nullptr)
        parallelForChunks(*pool, 0, positions * n_groups, body);
    else
        parallelForChunks(0, positions * n_groups, body);
}

void
ScNetwork::runOutputSegment(const std::vector<sc::BitstreamView> &in0,
                            const std::vector<size_t> &in_strides,
                            const SegRange &seg,
                            const std::vector<uint32_t> &active,
                            OutputRun &run) const
{
    const Clock::time_point t0 = Clock::now();
    const size_t n_inputs = out_.n_in + 1;
    const size_t B = run.consumed.size();
    std::vector<sc::BitstreamView> xs0(in0);
    std::vector<size_t> strides(in_strides);
    std::vector<sc::BitstreamView> xs_img;
    std::vector<sc::BitstreamView> ws(n_inputs);
    xs0.push_back(bias_line_);
    strides.push_back(0);

    // The accumulator de-randomizes: score = sum of bipolar sums. Each
    // segment's contribution reduces to word popcounts, summed into
    // the per-(class, image) running accumulators; class o's weight
    // streams are gathered once and re-read from cache across the
    // image loop (the layer is binary and tiny, so no batch kernel is
    // needed for it).
    for (size_t o = 0; o < out_.n_out; ++o) {
        for (size_t i = 0; i < n_inputs; ++i)
            ws[i] = out_.at(o, i);
        for (const uint32_t img : active) {
            sc::shiftViewsForImage(xs0, strides, img, xs_img);
            sc::fusedProductCountTotalRange(xs_img, ws, seg.w0, seg.w1,
                                            run.acc[o * B + img]);
        }
    }
    for (const uint32_t img : active)
        run.consumed[img] += seg.n_cycles;
    if (obs::armed()) {
        const uint64_t dur = nsSince(t0);
        obs::TraceRecorder &rec = obs::TraceRecorder::instance();
        rec.spanComplete(obs::SpanName::Output, rec.nowNs() - dur, dur, 0,
                         static_cast<uint16_t>(plan_.stages.size()),
                         seg.w0);
    }
}

std::vector<size_t>
ScNetwork::forwardFused(std::span<const nn::Tensor> images,
                        const std::vector<uint64_t> &seeds,
                        const PredictOptions &opts, ThreadPool *pool,
                        std::vector<ForwardInfo> *infos,
                        const std::vector<const CancelSignal *> *cancels)
    const
{
    const EngineMode mode = opts.mode;
    const size_t B = images.size();
    const size_t len = cfg_.bitstream_len;
    const size_t n_words = (len + 63) / 64;
    // Segment-size resolution: Progressive follows its checkpoint grid
    // (mid-stream exits and compaction live on segment boundaries, so
    // a whole-stream knob falls back to the default granularity there
    // instead of silently degrading to plain Fused); full precision
    // runs whole-stream, so each weight block streams once per forward
    // pass. Results are bit-exact for every segment size.
    size_t seg_words = n_words;
    if (mode == EngineMode::Progressive) {
        seg_words = cfg_.stream_segment_words;
        if (seg_words == 0)
            seg_words = kProgressiveFallbackSegmentWords;
    }
    seg_words = std::min(seg_words, n_words);

    // Per-stage carried state, seeded positionally per stage index
    // (0x1111, 0x2222, ... — stage l of image b gets
    // seeds[b] ^ 0x1111*(l+1)). The state's buffers come from the
    // engine's slot with their previous call's contents: every word
    // and counter this call reads is written or reset earlier in it.
    const size_t n_stages = plan_.stages.size();
    std::unique_ptr<ForwardState> state = takeState();
    StreamGrid &x = state->x;
    std::vector<StageRun> &runs = state->runs;
    OutputRun &out = state->out;
    encodeImages(images, seeds, pool, x);
    runs.resize(n_stages);
    std::vector<uint64_t> stage_seeds(B);
    for (size_t l = 0; l < n_stages; ++l) {
        for (size_t b = 0; b < B; ++b)
            stage_seeds[b] = seeds[b] ^ (0x1111ULL * (l + 1));
        initStageRun(runs[l], l, stage_seeds);
    }
    out.acc.assign(out_.n_out * B, {});
    out.consumed.assign(B, 0);

    // The output layer reads the last stage's grid flattened (the
    // encoded images for a net with no hidden stage): image-0 views
    // plus the producing arena's per-site image word stride.
    const sc::BatchStreamArena &last =
        n_stages > 0 ? runs.back().out.arena : x.arena;
    const std::vector<sc::BitstreamView> out_in = imageZeroViews(last);
    const std::vector<size_t> out_strides(out_in.size(),
                                          last.strideWords());

    std::vector<uint32_t> active(B);
    for (size_t b = 0; b < B; ++b)
        active[b] = static_cast<uint32_t>(b);
    std::vector<uint8_t> exited(B, 0);
    std::vector<uint8_t> cancelled(B, 0);
    const bool poll_cancel = cancels != nullptr && !cancels->empty();

    for (size_t w0 = 0; w0 < n_words && !active.empty();
         w0 += seg_words) {
        SegRange seg;
        seg.w0 = w0;
        seg.w1 = std::min(w0 + seg_words, n_words);
        seg.c0 = w0 * 64;
        seg.n_cycles = std::min(seg.w1 * 64, len) - seg.c0;

        for (size_t l = 0; l < n_stages; ++l)
            runStageSegment(l == 0 ? x : runs[l - 1].out, l, seg, active,
                            runs[l], pool);
        runOutputSegment(out_in, out_strides, seg, active, out);

        // Per-image Progressive early exit: an image whose class
        // decision is stable by the margin is removed from the active
        // set mid-stream (its carried state freezes in place, the
        // remaining images are undisturbed) — the batch-compaction
        // rule. Cooperative cancellation rides the same compaction,
        // polled only at segment boundaries (never mid-kernel), after
        // the segment's work has been accumulated: a cancelled image
        // leaves the active set with its partial result well-formed
        // over the consumed prefix, and its batch-mates' streams are
        // bit-identical to a run without the cancellation.
        if (seg.w1 < n_words &&
            (mode == EngineMode::Progressive || poll_cancel)) {
            const size_t before = active.size();
            size_t kept = 0;
            for (size_t j = 0; j < active.size(); ++j) {
                const uint32_t img = active[j];
                if (poll_cancel && (*cancels)[img] != nullptr &&
                    (*cancels)[img]->cancelled()) {
                    cancelled[img] = 1;
                    continue;
                }
                bool exit_now = false;
                if (mode == EngineMode::Progressive &&
                    out.consumed[img] >= opts.progressive_min_bits) {
                    uint64_t best = 0, second = 0;
                    for (size_t o = 0; o < out_.n_out; ++o) {
                        const uint64_t v =
                            out.acc[o * B + img].value(
                                /*approximate=*/true);
                        if (v > best) {
                            second = best;
                            best = v;
                        } else if (v > second) {
                            second = v;
                        }
                    }
                    const double margin =
                        2.0 *
                        (static_cast<double>(best) -
                         static_cast<double>(second)) /
                        static_cast<double>(out.consumed[img]);
                    exit_now = margin >= opts.progressive_margin;
                }
                if (exit_now) {
                    exited[img] = 1;
                    if (obs::armed())
                        obs::TraceRecorder::instance().instant(
                            obs::SpanName::EarlyExit, 0, 0,
                            out.consumed[img], seg.w1);
                } else {
                    active[kept++] = img;
                }
            }
            active.resize(kept);
            if (kept < before && obs::armed())
                obs::TraceRecorder::instance().instant(
                    obs::SpanName::BatchCompact, 0, 0, kept, before);
        }
    }

    std::vector<size_t> preds(B);
    for (size_t b = 0; b < B; ++b) {
        ForwardInfo *info = infos != nullptr ? &(*infos)[b] : nullptr;
        preds[b] = scoreImage(out.acc, out_.n_out, B, b, out.consumed[b],
                              out_.n_in + 1, info);
        if (info != nullptr) {
            info->early_exit = exited[b] != 0;
            info->cancelled = cancelled[b] != 0;
        }
    }
    returnState(std::move(state));
    return preds;
}

std::unique_ptr<ScNetwork::ForwardState>
ScNetwork::takeState() const
{
    {
        const std::lock_guard<std::mutex> lock(state_mu_);
        if (state_slot_ != nullptr)
            return std::move(state_slot_);
    }
    return std::make_unique<ForwardState>();
}

void
ScNetwork::returnState(std::unique_ptr<ForwardState> state) const
{
    const std::lock_guard<std::mutex> lock(state_mu_);
    if (state_slot_ == nullptr)
        state_slot_ = std::move(state);
}

ScNetwork::StreamGrid
ScNetwork::referenceConv(const StreamGrid &in, size_t layer_idx,
                         uint64_t seed) const
{
    const nn::PlanStage &st = plan_.stages[layer_idx];
    const sc::InterleavedWeightArena &weights = weights_[layer_idx];
    const size_t k = st.in_h - 2 * st.out_h + 1;
    const size_t n_inputs = st.fan_in + 1;
    const size_t len = cfg_.bitstream_len;
    const size_t n_words = (len + 63) / 64;
    const blocks::FebKind kind = stageFebKind(layer_idx);
    const unsigned state_count = layer_k_[layer_idx];
    const bool use_apc = blocks::febUsesApc(kind);
    const bool use_max = blocks::febUsesMaxPool(kind);

    StreamGrid out;
    out.c = st.out_c;
    out.h = (in.h - k + 1) / 2;
    out.w = (in.w - k + 1) / 2;
    out.arena.reset(out.c * out.h * out.w, 1, len);
    const size_t positions = out.h * out.w;
    const size_t lane_stride = n_words * 64;

    // One (filter block, position) site per item, seeded like the
    // fused runner's generators, with every kernel swapped for its
    // bit-serial twin and every stream processed whole.
    parallelForChunks(
        0, weights.groups() * positions, [&](size_t lo, size_t hi) {
            std::vector<sc::BitstreamView> xs(n_inputs);
            std::vector<uint16_t> selects;
            std::vector<uint16_t> counts_block(4 * sc::kFilterLanes *
                                               lane_stride);
            std::vector<uint64_t> product_block(4 * sc::kFilterLanes *
                                                n_words);
            std::vector<std::vector<uint16_t>> counts(4);
            std::vector<sc::Bitstream> streams(4);
            std::vector<sc::BitstreamView> stream_views(4);
            std::vector<int> steps;
            for (size_t site = lo; site < hi; ++site) {
                const size_t g = site / positions;
                const size_t q = site % positions;
                const size_t oy = q / out.w;
                const size_t ox = q % out.w;
                const sc::WeightBlockView block = weights.block(g);
                for (size_t window = 0; window < 4; ++window) {
                    const size_t cy = 2 * oy + window / 2;
                    const size_t cx = 2 * ox + window % 2;
                    size_t idx = 0;
                    for (size_t ci = 0; ci < st.in_c; ++ci)
                        for (size_t ky = 0; ky < k; ++ky)
                            for (size_t kx = 0; kx < k; ++kx)
                                xs[idx++] = in.at(ci, cy + ky, cx + kx, 0);
                    xs[idx] = bias_line_;
                    if (use_apc) {
                        sc::referenceProductCountsMulti(
                            xs, block, /*approximate=*/true, 0, n_words,
                            counts_block.data() +
                                window * sc::kFilterLanes * lane_stride,
                            lane_stride);
                    } else {
                        sc::Xoshiro256ss sel(siteSeed(
                            seed ^ kSelectSalt, layer_idx, site * 4 + window));
                        sc::fillMuxSelects(n_inputs, len, sel, selects);
                        sc::referenceMuxProductMulti(
                            xs, block, selects, 0, n_words,
                            product_block.data() +
                                window * sc::kFilterLanes * n_words,
                            n_words);
                    }
                }
                for (size_t f = 0; f < block.lanes; ++f) {
                    const size_t p =
                        (g * sc::kFilterLanes + f) * positions + q;
                    if (use_apc) {
                        for (size_t w = 0; w < 4; ++w) {
                            const uint16_t *cnt =
                                counts_block.data() +
                                (w * sc::kFilterLanes + f) * lane_stride;
                            counts[w].assign(cnt, cnt + len);
                        }
                        sc::Btanh unit(state_count,
                                       static_cast<unsigned>(n_inputs));
                        if (use_max) {
                            out.arena.assign(
                                p, 0,
                                unit.transform(
                                    blocks::binaryMaxPoolReference(
                                        counts, cfg_.segment_len, 0,
                                        /*accumulate=*/true)));
                        } else {
                            blocks::binaryAveragePoolingSigned(
                                counts, n_inputs, steps);
                            out.arena.assign(p, 0,
                                             unit.transformSigned(steps));
                        }
                    } else {
                        for (size_t w = 0; w < 4; ++w) {
                            const uint64_t *prod =
                                product_block.data() +
                                (w * sc::kFilterLanes + f) * n_words;
                            stream_views[w] = sc::BitstreamView(prod, len);
                            streams[w].reset(len);
                            std::copy(prod, prod + n_words,
                                      streams[w].mutableWords().begin());
                        }
                        sc::Xoshiro256ss pool_rng(
                            siteSeed(seed ^ kPoolSalt, layer_idx, p));
                        sc::Stanh fsm(state_count);
                        out.arena.assign(
                            p, 0,
                            fsm.transform(
                                use_max ? blocks::maxPoolStreamsReference(
                                              stream_views,
                                              cfg_.segment_len, 0,
                                              /*accumulate=*/true)
                                        : blocks::averagePooling(
                                              streams, pool_rng)));
                    }
                }
            }
        });
    return out;
}

sc::BatchStreamArena
ScNetwork::referenceFc(const std::vector<sc::BitstreamView> &in,
                       size_t layer_idx, uint64_t seed) const
{
    const nn::PlanStage &st = plan_.stages[layer_idx];
    const sc::InterleavedWeightArena &weights = weights_[layer_idx];
    SCDCNN_ASSERT(in.size() == st.fan_in,
                  "fc layer expects %zu inputs, got %zu", st.fan_in,
                  in.size());
    const size_t n_inputs = st.fan_in + 1;
    const size_t len = cfg_.bitstream_len;
    const size_t n_words = (len + 63) / 64;
    const unsigned state_count = layer_k_[layer_idx];
    const bool use_apc = blocks::febUsesApc(stageFebKind(layer_idx));
    const size_t lane_stride = n_words * 64;

    sc::BatchStreamArena out;
    out.reset(st.out_c, 1, len);
    parallelForChunks(0, weights.groups(), [&](size_t lo, size_t hi) {
        std::vector<sc::BitstreamView> xs(in);
        xs.push_back(bias_line_);
        std::vector<uint16_t> selects;
        std::vector<uint16_t> counts_block(sc::kFilterLanes * lane_stride);
        std::vector<uint64_t> product_block(sc::kFilterLanes * n_words);
        std::vector<uint16_t> counts;
        for (size_t g = lo; g < hi; ++g) {
            const sc::WeightBlockView block = weights.block(g);
            if (use_apc) {
                sc::referenceProductCountsMulti(
                    xs, block, /*approximate=*/true, 0, n_words,
                    counts_block.data(), lane_stride);
            } else {
                sc::Xoshiro256ss sel(
                    siteSeed(seed ^ kSelectSalt, layer_idx, g));
                sc::fillMuxSelects(n_inputs, len, sel, selects);
                sc::referenceMuxProductMulti(xs, block, selects, 0, n_words,
                                             product_block.data(), n_words);
            }
            for (size_t f = 0; f < block.lanes; ++f) {
                const size_t o = g * sc::kFilterLanes + f;
                if (use_apc) {
                    const uint16_t *cnt =
                        counts_block.data() + f * lane_stride;
                    counts.assign(cnt, cnt + len);
                    sc::Btanh unit(state_count,
                                   static_cast<unsigned>(n_inputs));
                    out.assign(o, 0, unit.transform(counts));
                } else {
                    const uint64_t *prod =
                        product_block.data() + f * n_words;
                    sc::Bitstream stream(len);
                    std::copy(prod, prod + n_words,
                              stream.mutableWords().begin());
                    sc::Stanh fsm(state_count);
                    out.assign(o, 0, fsm.transform(stream));
                }
            }
        }
    });
    return out;
}

size_t
ScNetwork::predictReference(const nn::Tensor &image, uint64_t seed,
                            ForwardInfo *info) const
{
    const size_t len = cfg_.bitstream_len;
    const size_t n_words = (len + 63) / 64;
    const size_t n_convs = plan_.convCount();
    StreamGrid grid;
    encodeImages(std::span(&image, 1), {seed}, nullptr, grid);
    for (size_t l = 0; l < n_convs; ++l)
        grid = referenceConv(grid, l, seed ^ (0x1111ULL * (l + 1)));
    sc::BatchStreamArena flat = std::move(grid.arena);
    for (size_t l = n_convs; l < plan_.stages.size(); ++l)
        flat = referenceFc(imageZeroViews(flat), l,
                           seed ^ (0x1111ULL * (l + 1)));

    std::vector<sc::BitstreamView> xs = imageZeroViews(flat);
    xs.push_back(bias_line_);
    std::vector<sc::BitstreamView> ws(xs.size());
    std::vector<sc::ProductCountAccum> acc(out_.n_out);
    for (size_t o = 0; o < out_.n_out; ++o) {
        for (size_t i = 0; i < ws.size(); ++i)
            ws[i] = out_.at(o, i);
        sc::referenceProductCountTotalRange(xs, ws, 0, n_words, acc[o]);
    }
    const size_t pred =
        scoreImage(acc, out_.n_out, 1, 0, len, out_.n_in + 1, info);
    if (info != nullptr) {
        info->early_exit = false;
        info->cancelled = false;
    }
    return pred;
}

size_t
ScNetwork::predict(const nn::Tensor &image, uint64_t seed,
                   ForwardInfo *info) const
{
    return predictWith(image, seed, PredictOptions{}, info);
}

size_t
ScNetwork::predictWith(const nn::Tensor &image, uint64_t seed,
                       const PredictOptions &opts, ForwardInfo *info) const
{
    // The binary backend is deterministic and single-pass: no streams,
    // no segments, no seeds, nothing to cancel mid-flight. Dispatch
    // before any stream state is built.
    if (opts.mode == EngineMode::Binary) {
        std::vector<double> scores;
        const size_t pred = binary_.predict(image, &scores);
        if (info != nullptr) {
            info->scores = std::move(scores);
            info->effective_bits = 1;
            info->early_exit = false;
            info->cancelled = false;
        }
        return pred;
    }
    if (opts.mode == EngineMode::Reference)
        return predictReference(image, seed, info);

    // Fused / Progressive: a micro-batch of one on the batch kernels.
    const std::vector<const CancelSignal *> cancels{opts.cancel};
    std::vector<ForwardInfo> infos(1);
    const size_t pred =
        forwardFused(std::span(&image, 1), {seed}, opts, nullptr, &infos,
                     opts.cancel != nullptr ? &cancels : nullptr)[0];
    if (info != nullptr)
        *info = std::move(infos[0]);
    return pred;
}

std::vector<size_t>
ScNetwork::forwardBatch(const std::vector<nn::Tensor> &images,
                        uint64_t seed, ThreadPool *pool) const
{
    return forwardBatch(images, seed, PredictOptions{}, pool, nullptr);
}

std::vector<size_t>
ScNetwork::forwardBatch(const std::vector<nn::Tensor> &images,
                        uint64_t seed, const PredictOptions &opts,
                        ThreadPool *pool,
                        std::vector<ForwardInfo> *infos) const
{
    std::vector<uint64_t> seeds(images.size());
    for (size_t i = 0; i < images.size(); ++i)
        seeds[i] = seed + i * 7919;
    return forwardBatch(images, seeds, opts, pool, infos);
}

std::vector<size_t>
ScNetwork::forwardBatch(const std::vector<nn::Tensor> &images,
                        const std::vector<uint64_t> &seeds,
                        const PredictOptions &opts, ThreadPool *pool,
                        std::vector<ForwardInfo> *infos,
                        const std::vector<const CancelSignal *> *cancels)
    const
{
    SCDCNN_ASSERT(seeds.size() == images.size(),
                  "forwardBatch: one seed per image");
    SCDCNN_ASSERT(cancels == nullptr ||
                      cancels->size() == images.size(),
                  "forwardBatch: one cancel signal per image");
    if (infos != nullptr)
        infos->assign(images.size(), ForwardInfo{});
    if (images.empty())
        return {};
    if (batchKernelEligible(opts.mode))
        return forwardFused(images, seeds, opts, pool, infos, cancels);

    // Reference oracle and Binary backend: one image per task.
    std::vector<size_t> preds(images.size());
    const auto body = [&](size_t i) {
        preds[i] = predictWith(images[i], seeds[i], opts,
                               infos != nullptr ? &(*infos)[i] : nullptr);
    };
    if (pool != nullptr)
        parallelFor(*pool, 0, images.size(), body);
    else
        parallelFor(0, images.size(), body);
    return preds;
}

double
ScNetwork::errorRate(const nn::Dataset &ds, size_t max_images,
                     uint64_t seed, ThreadPool *pool) const
{
    const size_t n = std::min(ds.size(), max_images);
    SCDCNN_ASSERT(n > 0, "empty SC evaluation set");
    // One seed schedule and one parallel loop for all batched
    // prediction: forwardBatch's. An error rate is therefore
    // reproducible from the batch predictions at the same seed.
    std::vector<nn::Tensor> images;
    images.reserve(n);
    for (size_t i = 0; i < n; ++i)
        images.push_back(ds.samples[i].image);
    const std::vector<size_t> preds = forwardBatch(images, seed, pool);
    size_t wrong = 0;
    for (size_t i = 0; i < n; ++i)
        if (preds[i] != ds.samples[i].label)
            ++wrong;
    return static_cast<double>(wrong) / static_cast<double>(n);
}

} // namespace core
} // namespace scdcnn
