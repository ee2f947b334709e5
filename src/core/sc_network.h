/**
 * @file
 * The bit-level SC-DCNN inference engine.
 *
 * Runs any sequential conv/pool/fc network (the paper's LeNet5
 * included) entirely in the stochastic-computing domain: pixels and
 * (quantized) trained weights enter through SNGs as bipolar
 * bit-streams; every layer is evaluated by feature extraction blocks
 * (XNOR multipliers + MUX/APC adders + pooling + Stanh/Btanh) exactly
 * as the configured hardware would; the final fc layer runs in the
 * binary domain (APC counts accumulated per class, argmax). The
 * feature-extraction-block structure is derived from the layer list
 * by nn/topology.h's plan derivation, not pattern-matched against a
 * fixed shape.
 *
 * Weight streams are generated once per network instance and shared by
 * all feature extraction blocks of a filter, mirroring the
 * filter-aware SRAM sharing scheme of Section 5.1. Each stage's weight
 * streams (in the filter-interleaved layout) and each layer's pixel
 * streams (per image) are packed into contiguous arenas, so the fused
 * kernels stream through memory via BitstreamViews instead of chasing
 * per-Bitstream heap allocations.
 */

#ifndef SCDCNN_CORE_SC_NETWORK_H
#define SCDCNN_CORE_SC_NETWORK_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "blocks/pooling.h"
#include "core/binary_net.h"
#include "core/sc_config.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/topology.h"
#include "sc/bitstream.h"
#include "sc/fsm_batch.h"
#include "sc/fused.h"
#include "sc/rng.h"

namespace scdcnn {

class ThreadPool;

namespace core {

/**
 * Which kernel implementation the engine runs on.
 *
 * Fused is the production path: the batch-axis kernels (runs of
 * filter blocks folded against per-image operand tiles, word-parallel
 * over the packed uint64_t words, SIMD-dispatched where available),
 * table-driven activation FSMs, reusable per-thread workspaces and
 * layers fanned out across the thread pool. A single image is a
 * micro-batch of one on the same path. The network advances in one
 * whole-stream segment, so each weight block streams once per forward
 * pass and no cancellation signal is polled mid-stream.
 * Reference drives the same network structure through the bit-serial
 * oracle kernels (one bit per cycle, whole streams, one image at a
 * time) and the scalar Stanh/Btanh steppers — the single ground truth
 * the fused path is tested against and the baseline bench_throughput
 * measures speedup over. Progressive is Fused plus stochastic
 * computing's progressive precision: the network advances in
 * ScNetworkConfig::stream_segment_words segments, after each one the
 * output layer's class-score gap is tested, and an image leaves the
 * active set once its argmax margin exceeds
 * ScNetworkConfig::progressive_margin — a latency/accuracy trade, so
 * it is opt-in and never the default. Fused and Reference consume
 * identical RNG sequences, so their predictions are bit-exact across
 * modes, segment sizes, batch shapes and thread counts.
 * Binary is the XNOR-popcount sibling backend (core/binary_net.h):
 * the same derived plan executed at stream length 1 with
 * sign-quantized weights, popcount-sign activations, and no stream
 * sampling at all — fully deterministic (seeds are ignored), roughly
 * an order of magnitude faster than Fused, and differentially tested
 * for exact equality against a float sign-network oracle.
 */
enum class EngineMode
{
    Fused,
    Reference,
    Progressive,
    Binary,
};

/**
 * Cooperative cancellation signal checked at stream-segment
 * boundaries. Implementations must be thread-safe and cheap: the
 * engine queries it between segments (never inside a kernel), so a
 * cancelled forward pass stops burning stream cycles at the next
 * checkpoint instead of running to completion for a caller that no
 * longer wants the answer. The partial result up to the boundary is
 * still well-formed (scores over the consumed prefix, reported via
 * ForwardInfo with `cancelled` set); cancellation of one image in a
 * batch never perturbs its batch-mates — the image is removed from
 * the active set exactly like a Progressive early exit.
 */
class CancelSignal
{
  public:
    virtual ~CancelSignal() = default;
    virtual bool cancelled() const = 0;
};

/**
 * Per-forward-pass outcome details (scores and, in Progressive mode,
 * the effective stream length actually consumed).
 */
struct ForwardInfo
{
    std::vector<double> scores; //!< output-layer bipolar-sum scores
    size_t effective_bits = 0;  //!< stream cycles consumed
    bool early_exit = false;    //!< Progressive margin test fired
    bool cancelled = false;     //!< stopped by a CancelSignal
};

/**
 * Per-call engine selection, the only way to choose an engine: the
 * network holds no mode state, so callers that share one ScNetwork
 * across threads (the serving layer) mix precision policies per
 * request. predict(), the seed-schedule forwardBatch() and
 * errorRate() run PredictOptions{} (Fused, full precision).
 */
struct PredictOptions
{
    EngineMode mode = EngineMode::Fused;
    /** Progressive early-exit margin (ignored unless mode is
     *  Progressive); see ScNetworkConfig::progressive_margin. */
    double progressive_margin = kDefaultProgressiveMargin;
    /** Progressive floor on consumed stream cycles. */
    size_t progressive_min_bits = kDefaultProgressiveMinBits;
    /**
     * Cooperative cancellation for predictWith(): polled at
     * Progressive's segment boundaries. Fused and Reference run the
     * stream as one segment and Binary has none, so a request in
     * those modes is never polled mid-stream. Batch calls take a
     * per-image signal array instead — see forwardBatch. Must outlive
     * the call.
     */
    const CancelSignal *cancel = nullptr;
};

/**
 * SC-domain network built from a trained float network.
 *
 * Accepts any sequential conv/pool/fc topology the plan grammar of
 * nn/topology.h supports (buildLeNet5() is one instance): the
 * feature-extraction-block structure — geometry, fan-ins, FSM gains,
 * arena sizes, paper-group knobs — is derived from the layer list at
 * construction, with per-layer diagnostics for unsupported shapes.
 *
 * Every const member may be called from several threads at once. A
 * Fused or Progressive pass runs on the engine's one retained
 * forward-pass state (arenas, FSM and pooling states, accumulators)
 * and keeps its capacity for the next call; a pass that finds it in
 * use builds and frees a state of its own. Answers never depend on
 * which state a pass ran on or on the calls before it.
 */
class ScNetwork
{
  public:
    /**
     * @param trained     a trained sequential conv/pool/fc network
     *                    (validated against cfg.input_c/h/w geometry)
     * @param cfg         per-group FEB configuration + input geometry
     * @param weight_seed seed for the weight-stream SNGs
     */
    ScNetwork(const nn::Network &trained, ScNetworkConfig cfg,
              uint64_t weight_seed = 0xC0FFEE);

    /**
     * SC-domain forward pass + argmax for one image on the Fused
     * engine (predictWith() with PredictOptions{}). When @p info is
     * non-null, the class scores and the effective stream length
     * (== bitstream_len) are reported there. Per-phase timing goes to
     * the trace recorder's aggregate (obs/trace.h) while it is armed.
     */
    size_t predict(const nn::Tensor &image, uint64_t seed,
                   ForwardInfo *info = nullptr) const;

    /**
     * predict() with per-call engine/precision selection. Reads no
     * instance-wide mode state, so concurrent callers may use
     * different options against one shared network. Fused and
     * Progressive run the image as a micro-batch of one through
     * forwardBatch's kernels, so it is bit-exact with image i of any
     * forwardBatch call at the same seed.
     */
    size_t predictWith(const nn::Tensor &image, uint64_t seed,
                       const PredictOptions &opts,
                       ForwardInfo *info = nullptr) const;

    /**
     * predictWith() for callers written against the earlier signature
     * with a per-call phase-profile argument, which is gone (phase
     * timing lives in the trace aggregate); only a null profile was
     * ever valid to pass through it.
     */
    size_t predictWith(const nn::Tensor &image, uint64_t seed,
                       const PredictOptions &opts, std::nullptr_t,
                       ForwardInfo *info) const
    {
        return predictWith(image, seed, opts, info);
    }

    /**
     * Batched Fused forward pass: predictions for every image, fanned
     * out across @p pool (the process-global pool when null). Image i
     * runs at seed + i * 7919; every per-site generator is derived
     * from position, not evaluation order, so the result is identical
     * for any thread count — including 1 — and matches per-image
     * predict() calls at the same seeds.
     */
    std::vector<size_t> forwardBatch(const std::vector<nn::Tensor> &images,
                                     uint64_t seed,
                                     ThreadPool *pool = nullptr) const;

    /**
     * forwardBatch with per-image outcome details: when @p infos is
     * non-null it is resized to images.size() and entry i receives the
     * scores / effective_bits / early_exit of image i — what batch
     * callers (the serving layer) need beyond the bare class index.
     * The seed schedule and predictions are identical to the overload
     * above; @p opts selects the engine per the predictWith() rules.
     */
    std::vector<size_t> forwardBatch(const std::vector<nn::Tensor> &images,
                                     uint64_t seed,
                                     const PredictOptions &opts,
                                     ThreadPool *pool,
                                     std::vector<ForwardInfo> *infos) const;

    /**
     * forwardBatch with an explicit per-image seed (seeds.size() must
     * equal images.size()) instead of the seed + i * 7919 schedule —
     * the serving layer's micro-batches carry caller-chosen seeds, so
     * they cannot be expressed as a base-seed schedule. Image i is
     * bit-exact with predictWith(images[i], seeds[i], opts) on every
     * path.
     *
     * @p cancels, when non-null, carries one CancelSignal per image
     * (null entries = not cancellable): image i's signal is polled at
     * Progressive's segment boundaries (Fused runs one whole-stream
     * segment, so it polls none), and a cancelled image freezes in
     * place and leaves the active set exactly like a Progressive early
     * exit — its batch-mates' streams and results are untouched.
     * opts.cancel is ignored here.
     *
     * Fused and Progressive batches of any size, one image included,
     * run the batch kernels. Reference runs the bit-serial oracle per
     * image and Binary the deterministic XNOR-popcount backend per
     * image, both fanned out across the pool.
     */
    std::vector<size_t>
    forwardBatch(const std::vector<nn::Tensor> &images,
                 const std::vector<uint64_t> &seeds,
                 const PredictOptions &opts, ThreadPool *pool,
                 std::vector<ForwardInfo> *infos,
                 const std::vector<const CancelSignal *> *cancels =
                     nullptr) const;

    /**
     * Whether forwardBatch runs @p mode on the batch kernels: every
     * mode except the bit-serial Reference oracle and the Binary
     * backend (deterministic per image, so its parallel per-image
     * loop already is its batch path). What the serving layer
     * records per batch.
     */
    static bool batchKernelEligible(EngineMode mode)
    {
        return mode != EngineMode::Reference && mode != EngineMode::Binary;
    }

    /**
     * Classification error rate over (up to @p max_images of) the
     * dataset. Routed through forwardBatch — the one place the
     * per-image seed schedule and the parallel loop live — so results
     * are reproducible from the batch predictions; @p pool as in
     * forwardBatch.
     */
    double errorRate(const nn::Dataset &ds, size_t max_images,
                     uint64_t seed = 777, ThreadPool *pool = nullptr) const;

    /** The configuration this instance implements. */
    const ScNetworkConfig &config() const { return cfg_; }

    /**
     * Output attenuation of hidden stage @p layer relative to the
     * float network's activation: the ratio g_sc / g_float between
     * the gain the SC activation unit realizes and the gain the float
     * baseline was trained with. 1.0 when the unit could match the
     * trained gain; below 1.0 when the FSM mixing-time clamp forced a
     * smaller state count. The next layer's weight streams are
     * programmed at w / layerGain (saturating in the SNG — the
     * paper's pre-scaling) to compensate.
     */
    double layerGain(size_t layer) const { return layer_gain_.at(layer); }

    /** The activation state count hidden stage @p layer operates with. */
    unsigned layerStateCount(size_t layer) const
    {
        return layer_k_.at(layer);
    }

    /** Hidden feature-extraction stages (3 for LeNet5). */
    size_t stageCount() const { return plan_.stages.size(); }

    /** The derived construction plan this instance was built from. */
    const nn::NetworkPlan &plan() const { return plan_; }

    /** The XNOR-popcount sibling backend EngineMode::Binary runs —
     *  built from the same trained net and plan at construction. */
    const BinaryNetwork &binaryNet() const { return binary_; }

  private:
    /** A (c, h, w) grid of bit-streams per image, packed site-major /
     *  image-minor so the batch kernels address image b of a site as
     *  the image-0 view plus b * strideWords() words. */
    struct StreamGrid
    {
        size_t c = 0, h = 0, w = 0;
        sc::BatchStreamArena arena;

        sc::BitstreamView at(size_t ci, size_t y, size_t x,
                             size_t b) const
        {
            return arena.view((ci * h + y) * w + x, b);
        }
    };

    /** Output layer weight streams, class o's at slots
     *  [o*(n_in+1), (o+1)*(n_in+1)) (bias last), in the plain layout
     *  the popcount-total kernel reads. */
    struct OutputWeightStreams
    {
        size_t n_in = 0, n_out = 0;
        sc::StreamArena arena;

        sc::BitstreamView at(size_t o, size_t i) const
        {
            return arena.view(o * (n_in + 1) + i);
        }
    };

    /** One segment of the stream axis: words [w0, w1) covering cycles
     *  [c0, c0 + n_cycles). */
    struct SegRange
    {
        size_t w0 = 0, w1 = 0;
        size_t c0 = 0, n_cycles = 0;
    };

    /** Per-forward carried state of a hidden stage: the output grid
     *  plus per-pixel activation-FSM states, pooling-selector carry
     *  (max-pooled stages), and (MUX stages) the per-site generators,
     *  replicated per image at index site * B + image and seeded from
     *  position, so any thread partition reproduces the same streams
     *  and an image's state freezes in place when it leaves the active
     *  set. */
    struct StageRun
    {
        StreamGrid out;
        std::vector<uint16_t> fsm;                   //!< [pixel][image]
        std::vector<blocks::MaxPoolCarryState> pool; //!< [pixel][image]
        std::vector<sc::Xoshiro256ss> sel_rng;       //!< [site][window][image]
        std::vector<sc::Xoshiro256ss> pool_rng;      //!< [pixel][image]
    };

    /** Per-forward carried state of the binary output layer:
     *  accumulators per (class, image) plus per-image consumed cycles
     *  (frozen when the image leaves the active set). */
    struct OutputRun
    {
        std::vector<sc::ProductCountAccum> acc; //!< [class][image]
        std::vector<size_t> consumed;           //!< [image]
    };

    /**
     * Everything a Fused or Progressive pass writes besides its
     * answers: the encoded input grid, every hidden stage's run and
     * the output accumulators. A pass reshapes it to its own (B, L,
     * plan) and keeps the capacity, so an engine that keeps one
     * between calls stops allocating (and page-faulting) per batch,
     * the way the paper's layers reuse fixed on-chip buffers.
     */
    struct ForwardState
    {
        StreamGrid x;
        std::vector<StageRun> runs;
        OutputRun out;
    };

    /** SNG-encode every image into @p grid, image b at seeds[b]. */
    void encodeImages(std::span<const nn::Tensor> images,
                      const std::vector<uint64_t> &seeds, ThreadPool *pool,
                      StreamGrid &grid) const;

    /** Size @p run for hidden stage @p layer_idx over seeds.size()
     *  images and seed its generators from @p seeds (the stage seeds
     *  of each image). */
    void initStageRun(StageRun &run, size_t layer_idx,
                      const std::vector<uint64_t> &seeds) const;

    /**
     * One segment of hidden stage @p layer_idx over its producer's
     * grid @p in, for every active image. Every stage is the same
     * feature extraction block: a pooled (conv) stage has 4 windows
     * per output pixel, an unpooled (fc) stage 1, and the kernel is
     * whatever part of the input grid a window covers, so an fc stage
     * is one window over the whole (in_c, in_h, in_w) grid with a 1x1
     * output grid.
     */
    void runStageSegment(const StreamGrid &in, size_t layer_idx,
                         const SegRange &seg,
                         const std::vector<uint32_t> &active,
                         StageRun &run, ThreadPool *pool) const;

    void runOutputSegment(const std::vector<sc::BitstreamView> &in0,
                          const std::vector<size_t> &in_strides,
                          const SegRange &seg,
                          const std::vector<uint32_t> &active,
                          OutputRun &run) const;

    /** The batch-kernel driver behind Fused and Progressive: one
     *  shared segment loop advancing every active image through every
     *  layer, with per-image Progressive early exit and cancellation
     *  compacting the active set mid-stream. */
    std::vector<size_t>
    forwardFused(std::span<const nn::Tensor> images,
                 const std::vector<uint64_t> &seeds,
                 const PredictOptions &opts, ThreadPool *pool,
                 std::vector<ForwardInfo> *infos,
                 const std::vector<const CancelSignal *> *cancels) const;

    /** The bit-serial Reference oracle for one image: whole streams,
     *  reference kernels and scalar FSM steppers, no segments and no
     *  early exit. */
    size_t predictReference(const nn::Tensor &image, uint64_t seed,
                            ForwardInfo *info) const;

    /** Reference conv stage @p layer_idx over image 0 of @p in. */
    StreamGrid referenceConv(const StreamGrid &in, size_t layer_idx,
                             uint64_t seed) const;

    /** Reference fc stage @p layer_idx over the input views @p in. */
    sc::BatchStreamArena
    referenceFc(const std::vector<sc::BitstreamView> &in, size_t layer_idx,
                uint64_t seed) const;

    /** The retained ForwardState when the slot holds one, else a new
     *  empty one (a concurrent caller's own, freed on return). */
    std::unique_ptr<ForwardState> takeState() const;

    /** Put @p state back in the slot if the slot is empty; otherwise
     *  free it, so the engine retains at most one state. */
    void returnState(std::unique_ptr<ForwardState> state) const;

    /** The FEB kind hidden stage @p layer runs with (derived from its
     *  paper group and whether the stage pools). */
    blocks::FebKind stageFebKind(size_t layer) const
    {
        const nn::PlanStage &st = plan_.stages[layer];
        return cfg_.febKindFor(st.paper_group, st.pooled);
    }

    ScNetworkConfig cfg_;
    nn::NetworkPlan plan_;
    sc::Bitstream bias_line_; //!< the constant +1 stream

    /** Weight streams of the hidden stages in the filter-interleaved
     *  layout (weights_[l] is stage l: filter f, tap t of fan_in + 1,
     *  taps in (c_in, ky, kx) order, bias last), then the binary
     *  output layer's. */
    std::vector<sc::InterleavedWeightArena> weights_;
    OutputWeightStreams out_;

    std::vector<double> layer_gain_;
    std::vector<unsigned> layer_k_;

    /** Batched activation tables, built once at construction and
     *  shared by all pixels of a layer (null where the layer's FEB
     *  kind uses the other activation family). */
    sc::FsmTableCache fsm_tables_;
    std::vector<const sc::StanhBatchTable *> stanh_tables_;
    std::vector<const sc::BtanhBatchTable *> btanh_tables_;

    /** The EngineMode::Binary backend (declared after plan_: it is
     *  built from the trained net and the already-derived plan). */
    BinaryNetwork binary_;

    /** The one retained ForwardState, empty while a pass holds it.
     *  Only the hand-over takes the mutex; a pass never runs under
     *  it. */
    mutable std::mutex state_mu_;
    mutable std::unique_ptr<ForwardState> state_slot_;
};

} // namespace core
} // namespace scdcnn

#endif // SCDCNN_CORE_SC_NETWORK_H
