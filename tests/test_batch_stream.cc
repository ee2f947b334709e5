/**
 * @file
 * Batch-axis execution, bottom to top: the batch kernels must be
 * bit-exact with their bit-serial reference twins and with themselves
 * run one image at a time over shifted views (runs of filter blocks,
 * ragged lanes/taps/word ranges, non-contiguous active image sets,
 * SIMD on and off); the interleaved FSM batch transforms must match
 * the single-stream resumable steppers across segment boundaries; and
 * ScNetwork::forwardBatch must be bit-exact — scores and effective
 * bits — with the bit-serial Reference oracle for every FEB kind,
 * segment size and ragged batch shape (one image included), on every
 * pool width, and a mixed Progressive early-exit batch must leave
 * every image's outcome equal to its own single-image run.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/pooling.h"
#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/topology.h"
#include "nn/trainer.h"
#include "sc/bitstream.h"
#include "sc/fsm_batch.h"
#include "sc/fused.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

/** Restore the processwide SIMD selection after each test. */
class BatchKernel : public ::testing::Test
{
  protected:
    void TearDown() override { sc::simd::setEnabled(true); }
};

/** Batched operands: n_taps arena sites x B images plus a shared
 *  (stride-0) bias line, in the image-0-view + word-stride form the
 *  batch kernels consume. */
struct BatchOperands
{
    sc::BatchStreamArena arena;
    sc::Bitstream bias;
    std::vector<sc::BitstreamView> xs0;
    std::vector<size_t> strides;

    BatchOperands(size_t n_taps, size_t images, size_t len,
                  uint64_t seed)
    {
        arena.reset(n_taps, images, len);
        sc::SngBank bank(seed);
        sc::SplitMix64 vals(seed ^ 0xABCD);
        for (size_t i = 0; i < n_taps; ++i)
            for (size_t b = 0; b < images; ++b)
                arena.assign(i, b,
                             bank.bipolar(vals.nextInRange(-1, 1), len));
        bias = sc::constantStream(true, len);
        for (size_t i = 0; i < n_taps; ++i) {
            xs0.push_back(arena.view(i, 0));
            strides.push_back(arena.strideWords());
        }
        xs0.push_back(bias);
        strides.push_back(0);
    }
};

/**
 * One run of filter blocks through both batch kernels against the
 * per-image, per-block bit-serial oracle, over word ranges starting at
 * 0 and 1, both counter readings, SIMD on and off: the counts kernel
 * over the batch, the counts kernel one image at a time through that
 * image's shifted views (batch composition never changes an image's
 * counts), and the planes kernel with a plane cap above the fold width
 * transposed back to counts.
 */
void
checkRun(const BatchOperands &ops,
         std::span<const sc::WeightBlockView> run,
         const std::vector<uint32_t> &active, size_t n_words,
         size_t plane_cap, std::vector<uint64_t> &tile,
         std::vector<sc::BitstreamView> &shifted, const std::string &what)
{
    const size_t lanes = run.size() * sc::kFilterLanes;
    const size_t n_active = active.size();
    for (size_t w0 : {size_t{0}, size_t{1}}) {
        const size_t lane_stride = (n_words - w0) * 64;
        const size_t image_stride = lanes * lane_stride;
        const size_t plane_lane = (n_words - w0) * (plane_cap + 1);
        for (bool approximate : {false, true}) {
            std::vector<uint16_t> reference(n_active * image_stride, 0);
            sc::referenceProductCountsMultiBatch(
                ops.xs0, ops.strides, active.data(), n_active, run,
                approximate, w0, n_words, reference.data(), lane_stride,
                image_stride);
            for (bool simd_on : {true, false}) {
                sc::simd::setEnabled(simd_on);
                const std::string where =
                    what + " w0=" + std::to_string(w0) +
                    " approx=" + std::to_string(approximate) +
                    " simd=" + std::to_string(simd_on);
                std::vector<uint16_t> batched(n_active * image_stride, 0);
                sc::fusedProductCountsMultiBatch(
                    ops.xs0, ops.strides, active.data(), n_active, run,
                    approximate, w0, n_words, tile, batched.data(),
                    lane_stride, image_stride);
                EXPECT_EQ(batched, reference) << where;

                std::vector<uint16_t> per_image(n_active * image_stride,
                                                0);
                const std::vector<size_t> unit_strides(ops.xs0.size(), 0);
                const uint32_t only = 0;
                for (size_t j = 0; j < n_active; ++j) {
                    sc::shiftViewsForImage(ops.xs0, ops.strides, active[j],
                                           shifted);
                    sc::fusedProductCountsMultiBatch(
                        shifted, unit_strides, &only, 1, run, approximate,
                        w0, n_words, tile,
                        per_image.data() + j * image_stride, lane_stride,
                        0);
                }
                EXPECT_EQ(per_image, reference) << where;

                std::vector<uint64_t> planes(n_active * lanes * plane_lane);
                sc::fusedProductPlanesMultiBatch(
                    ops.xs0, ops.strides, active.data(), n_active, run,
                    approximate, w0, n_words, tile, planes.data(),
                    plane_cap, plane_lane, lanes * plane_lane);
                std::vector<uint16_t> spread(n_active * image_stride, 0);
                for (size_t j = 0; j < n_active; ++j)
                    for (size_t b = 0; b < run.size(); ++b)
                        for (size_t f = 0; f < run[b].lanes; ++f)
                            for (size_t q = 0; q < n_words - w0; ++q) {
                                const size_t r = b * sc::kFilterLanes + f;
                                sc::simd::avx2SpreadPlanesWord(
                                    planes.data() +
                                        (j * lanes + r) * plane_lane +
                                        q * (plane_cap + 1),
                                    plane_cap, approximate,
                                    spread.data() + j * image_stride +
                                        r * lane_stride + q * 64);
                            }
                EXPECT_EQ(spread, reference) << where;
            }
        }
    }
}

TEST_F(BatchKernel, ProductCountsMatchPerImageAndReference)
{
    constexpr size_t kImages = 4;
    // Tap counts straddling the 16-line Harley-Seal group (plus the
    // bias line), filter counts producing one full block, a full and a
    // ragged block, and three blocks ending ragged, and a stream length
    // with a partial tail word. Every contiguous run of blocks goes
    // through one call: runs of one, two and all blocks.
    for (size_t n_taps : {size_t{4}, size_t{17}, size_t{36}}) {
        for (size_t filters : {size_t{4}, size_t{6}, size_t{10}}) {
            const size_t len = 200;
            const size_t n_words = (len + 63) / 64;
            BatchOperands ops(n_taps, kImages, len,
                              900 + n_taps * 31 + filters);
            sc::InterleavedWeightArena weights;
            weights.reset(filters, n_taps + 1, len);
            sc::SngBank bank(77 + filters);
            sc::SplitMix64 vals(13 * n_taps);
            for (size_t f = 0; f < filters; ++f)
                for (size_t t = 0; t < n_taps + 1; ++t)
                    weights.assign(
                        f, t, bank.bipolar(vals.nextInRange(-1, 1), len));
            std::vector<sc::WeightBlockView> blocks;
            for (size_t g = 0; g < weights.groups(); ++g)
                blocks.push_back(weights.block(g));
            const size_t plane_cap = sc::planeCapForTaps(n_taps + 1) + 1;

            std::vector<sc::BitstreamView> shifted;
            std::vector<uint64_t> tile;
            // Non-contiguous active sets exercise the stride-offset
            // addressing, in and out of image order.
            for (const std::vector<uint32_t> &active :
                 {std::vector<uint32_t>{1, 3},
                  std::vector<uint32_t>{2, 0}}) {
                for (size_t g0 = 0; g0 < blocks.size(); ++g0) {
                    for (size_t g1 = g0 + 1; g1 <= blocks.size(); ++g1) {
                        const std::span<const sc::WeightBlockView> run(
                            blocks.data() + g0, g1 - g0);
                        const std::string what =
                            "taps=" + std::to_string(n_taps) +
                            " filters=" + std::to_string(filters) +
                            " run=[" + std::to_string(g0) + "," +
                            std::to_string(g1) + ") active=" +
                            std::to_string(active[0]) + "," +
                            std::to_string(active[1]);
                        checkRun(ops, run, active, n_words, plane_cap,
                                 tile, shifted, what);
                    }
                }
            }
        }
    }
}

TEST_F(BatchKernel, PlanePoolMatchesCountPoolAcrossShapes)
{
    // binaryMaxPoolPlanesBatch over canonical count planes must be
    // bit-exact — outputs and carried selector state — with
    // binaryMaxPoolRange over the (parity-substituted) transposed
    // counts: the 16-cycle-grid fast path and the masked general path,
    // across plane depths, pool widths, batch sizes, segment lengths
    // on and off the group grid, both counter readings, SIMD on and
    // off, carried over a word-aligned range split with a partial
    // zero-masked tail word.
    constexpr size_t kLen = 200; // 4 words, 8-cycle tail
    const size_t n_words = (kLen + 63) / 64;
    sc::SplitMix64 vals(0xB007);
    for (size_t plane_cap : {size_t{3}, size_t{5}, size_t{9}}) {
        for (size_t n_inputs : {size_t{2}, size_t{4}}) {
            for (size_t n_images : {size_t{1}, size_t{3}}) {
                for (size_t segment_len :
                     {size_t{16}, size_t{48}, size_t{10}}) {
                    for (bool parity : {true, false}) {
                        for (bool accumulate : {true, false}) {
                            for (bool simd_on : {true, false}) {
                                sc::simd::setEnabled(simd_on);
                                const size_t pstride = plane_cap + 1;
                                const size_t n_bufs =
                                    n_images * n_inputs;
                                // Random canonical planes + parity
                                // word, and the per-cycle counts a
                                // consumer with the same parity flag
                                // would see.
                                std::vector<std::vector<uint64_t>> bufs(
                                    n_bufs);
                                std::vector<std::vector<uint16_t>> eff(
                                    n_bufs);
                                for (size_t b = 0; b < n_bufs; ++b) {
                                    // +4 tail words for the pooling
                                    // quad-load overread.
                                    bufs[b].assign(n_words * pstride + 4,
                                                   0);
                                    eff[b].assign(n_words * 64, 0);
                                    for (size_t i = 0; i < kLen; ++i) {
                                        const auto c =
                                            static_cast<uint16_t>(
                                                vals.next() &
                                                ((1u << plane_cap) -
                                                 1));
                                        const uint64_t lsb =
                                            vals.next() & 1;
                                        const size_t w = i / 64;
                                        const uint64_t bit =
                                            uint64_t{1} << (i % 64);
                                        for (size_t p = 0;
                                             p < plane_cap; ++p)
                                            if ((c >> p) & 1)
                                                bufs[b][w * pstride +
                                                        p] |= bit;
                                        if (lsb != 0)
                                            bufs[b][w * pstride +
                                                    plane_cap] |= bit;
                                        eff[b][i] =
                                            parity ? static_cast<
                                                         uint16_t>(
                                                         (c & ~1u) |
                                                         lsb)
                                                   : c;
                                    }
                                }
                                std::vector<blocks::MaxPoolCarryState>
                                    st_p(n_images), st_c(n_images);
                                std::vector<
                                    blocks::MaxPoolCarryState *>
                                    st_ptrs(n_images);
                                std::vector<std::vector<uint16_t>>
                                    out_p(n_images), out_c(n_images);
                                for (size_t j = 0; j < n_images; ++j) {
                                    st_p[j].reset(n_inputs);
                                    st_c[j].reset(n_inputs);
                                    st_ptrs[j] = &st_p[j];
                                    out_p[j].assign(n_words * 64, 0);
                                    out_c[j].assign(n_words * 64, 0);
                                }
                                // Two ranges: [0, 128) and [128, 200).
                                for (size_t r0 : {size_t{0},
                                                  size_t{128}}) {
                                    const size_t nc =
                                        std::min(kLen, r0 + 128) - r0;
                                    std::vector<const uint64_t *> pp(
                                        n_bufs);
                                    std::vector<uint16_t *> op(
                                        n_images);
                                    for (size_t b = 0; b < n_bufs; ++b)
                                        pp[b] = bufs[b].data() +
                                                (r0 / 64) * pstride;
                                    for (size_t j = 0; j < n_images;
                                         ++j)
                                        op[j] = out_p[j].data() + r0;
                                    blocks::binaryMaxPoolPlanesBatch(
                                        pp.data(), n_images, n_inputs,
                                        plane_cap, parity, r0, nc,
                                        segment_len, accumulate,
                                        st_ptrs.data(), op.data());
                                    for (size_t j = 0; j < n_images;
                                         ++j) {
                                        std::vector<const uint16_t *>
                                            cp(n_inputs);
                                        for (size_t k = 0;
                                             k < n_inputs; ++k)
                                            cp[k] = eff[j * n_inputs +
                                                        k]
                                                        .data() +
                                                    r0;
                                        blocks::binaryMaxPoolRange(
                                            cp.data(), n_inputs, r0,
                                            nc, segment_len,
                                            accumulate, st_c[j],
                                            out_c[j].data() + r0);
                                    }
                                }
                                for (size_t j = 0; j < n_images; ++j) {
                                    EXPECT_EQ(
                                        std::vector<uint16_t>(
                                            out_p[j].begin(),
                                            out_p[j].begin() + kLen),
                                        std::vector<uint16_t>(
                                            out_c[j].begin(),
                                            out_c[j].begin() + kLen))
                                        << "cap=" << plane_cap
                                        << " inputs=" << n_inputs
                                        << " seg=" << segment_len
                                        << " parity=" << parity
                                        << " acc=" << accumulate
                                        << " simd=" << simd_on
                                        << " image=" << j;
                                    EXPECT_EQ(st_p[j].selected,
                                              st_c[j].selected)
                                        << "image=" << j;
                                    EXPECT_EQ(st_p[j].counters,
                                              st_c[j].counters)
                                        << "image=" << j;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(FsmBatchStreams, InterleavedStanhMatchesPerStreamAcrossSegments)
{
    // More streams than one interleave tile, carried across an uneven
    // segment split (128 + 72 cycles of a 200-cycle stream).
    constexpr size_t kStreams = 21;
    constexpr size_t kLen = 200;
    const size_t n_words = (kLen + 63) / 64;
    const sc::StanhBatchTable table(8);

    std::vector<std::vector<uint64_t>> ins(kStreams);
    sc::SplitMix64 vals(0x57A7);
    for (auto &in : ins) {
        in.resize(n_words);
        for (auto &w : in)
            w = vals.next();
        in.back() &= (uint64_t{1} << (kLen % 64)) - 1;
    }

    std::vector<std::vector<uint64_t>> whole(kStreams),
        segmented(kStreams);
    std::vector<uint16_t> states(kStreams, table.initialState());
    std::vector<const uint64_t *> in_ptrs(kStreams);
    std::vector<uint64_t *> out_ptrs(kStreams);
    std::vector<uint16_t *> state_ptrs(kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        whole[s].resize(n_words);
        segmented[s].resize(n_words);
        table.transformWords(ins[s].data(), kLen, whole[s].data());
    }
    // Segment 1: cycles [0, 128) = 2 words; segment 2: [128, 200).
    for (size_t s = 0; s < kStreams; ++s) {
        in_ptrs[s] = ins[s].data();
        out_ptrs[s] = segmented[s].data();
        state_ptrs[s] = &states[s];
    }
    table.transformWordsBatch(in_ptrs.data(), 128, out_ptrs.data(),
                              state_ptrs.data(), kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        in_ptrs[s] = ins[s].data() + 2;
        out_ptrs[s] = segmented[s].data() + 2;
    }
    table.transformWordsBatch(in_ptrs.data(), kLen - 128,
                              out_ptrs.data(), state_ptrs.data(),
                              kStreams);
    for (size_t s = 0; s < kStreams; ++s)
        EXPECT_EQ(segmented[s], whole[s]) << "stream=" << s;
}

TEST(FsmBatchStreams, InterleavedBtanhMatchesPerStreamAcrossSegments)
{
    constexpr size_t kStreams = 19;
    constexpr size_t kLen = 200;
    const size_t n_words = (kLen + 63) / 64;
    constexpr unsigned kInputs = 26;
    const sc::BtanhBatchTable table(16, kInputs);

    std::vector<std::vector<uint16_t>> counts(kStreams);
    std::vector<std::vector<int>> steps(kStreams);
    sc::SplitMix64 vals(0xB7A9);
    for (size_t s = 0; s < kStreams; ++s) {
        counts[s].resize(kLen);
        steps[s].resize(kLen);
        for (size_t i = 0; i < kLen; ++i) {
            counts[s][i] =
                static_cast<uint16_t>(vals.next() % (kInputs + 1));
            steps[s][i] = static_cast<int>(vals.next() % 9) - 4;
        }
    }

    std::vector<std::vector<uint64_t>> whole(kStreams),
        segmented(kStreams);
    std::vector<uint16_t> states(kStreams, table.initialState());
    std::vector<const uint16_t *> cnt_ptrs(kStreams);
    std::vector<const int *> step_ptrs(kStreams);
    std::vector<uint64_t *> out_ptrs(kStreams);
    std::vector<uint16_t *> state_ptrs(kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        whole[s].resize(n_words);
        segmented[s].resize(n_words);
        table.transformWords(counts[s].data(), kLen, whole[s].data());
        cnt_ptrs[s] = counts[s].data();
        out_ptrs[s] = segmented[s].data();
        state_ptrs[s] = &states[s];
    }
    table.transformWordsBatch(cnt_ptrs.data(), 128, out_ptrs.data(),
                              state_ptrs.data(), kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
        cnt_ptrs[s] = counts[s].data() + 128;
        out_ptrs[s] = segmented[s].data() + 2;
    }
    table.transformWordsBatch(cnt_ptrs.data(), kLen - 128,
                              out_ptrs.data(), state_ptrs.data(),
                              kStreams);
    for (size_t s = 0; s < kStreams; ++s)
        EXPECT_EQ(segmented[s], whole[s]) << "stream=" << s;

    // The signed-step variant against its single-stream twin.
    std::vector<std::vector<uint64_t>> signed_whole(kStreams),
        signed_batch(kStreams);
    states.assign(kStreams, table.initialState());
    for (size_t s = 0; s < kStreams; ++s) {
        signed_whole[s].resize(n_words);
        signed_batch[s].resize(n_words);
        table.transformSignedWords(steps[s].data(), kLen,
                                   signed_whole[s].data());
        step_ptrs[s] = steps[s].data();
        out_ptrs[s] = signed_batch[s].data();
        state_ptrs[s] = &states[s];
    }
    table.transformSignedWordsBatch(step_ptrs.data(), kLen,
                                    out_ptrs.data(), state_ptrs.data(),
                                    kStreams);
    for (size_t s = 0; s < kStreams; ++s)
        EXPECT_EQ(signed_batch[s], signed_whole[s]) << "stream=" << s;
}

/** The bit-serial Reference oracle's ForwardInfo for image i of a
 *  forwardBatch call at @p seed (seed schedule seed + i * 7919). */
std::vector<core::ForwardInfo>
referenceInfos(const core::ScNetwork &sc,
               const std::vector<nn::Tensor> &images, uint64_t seed)
{
    core::PredictOptions ref;
    ref.mode = core::EngineMode::Reference;
    std::vector<core::ForwardInfo> infos(images.size());
    for (size_t i = 0; i < images.size(); ++i)
        sc.predictWith(images[i], seed + i * 7919, ref, &infos[i]);
    return infos;
}

/** forwardBatch under @p opts against precomputed Reference outcomes:
 *  the scores and effective bits of every image must agree exactly,
 *  and no image may report an early exit (callers pass options under
 *  which the full stream runs). */
void
expectBatchedMatchesReference(const core::ScNetwork &sc,
                              const std::vector<nn::Tensor> &images,
                              uint64_t seed,
                              const core::PredictOptions &opts,
                              const std::vector<core::ForwardInfo> &ref,
                              const std::string &what)
{
    std::vector<core::ForwardInfo> bi;
    sc.forwardBatch(images, seed, opts, nullptr, &bi);
    ASSERT_EQ(bi.size(), ref.size()) << what;
    for (size_t i = 0; i < bi.size(); ++i) {
        EXPECT_EQ(bi[i].scores, ref[i].scores) << what << " image=" << i;
        EXPECT_EQ(bi[i].effective_bits, ref[i].effective_bits)
            << what << " image=" << i;
        EXPECT_FALSE(bi[i].early_exit) << what << " image=" << i;
    }
}

TEST(BatchEngine, BatchedMatchesReferenceForEveryFebKindAndSegmentSize)
{
    const struct
    {
        nn::PoolingMode pooling;
        core::AdderKind adder;
    } cases[] = {
        {nn::PoolingMode::Average, core::AdderKind::Mux},
        {nn::PoolingMode::Max, core::AdderKind::Mux},
        {nn::PoolingMode::Average, core::AdderKind::Apc},
        {nn::PoolingMode::Max, core::AdderKind::Apc},
    };
    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 5; ++i)
        images.push_back(nn::DigitDataset::render(i * 2 % 10, 40 + i));

    for (const auto &c : cases) {
        nn::Network net = nn::buildMiniLeNet(c.pooling, 23);
        core::ScNetworkConfig cfg;
        cfg.pooling = c.pooling;
        cfg.layer_adders = {c.adder, core::AdderKind::Apc,
                            core::AdderKind::Apc};
        cfg.bitstream_len = 200; // 4 words, 8-bit tail
        const std::vector<core::ForwardInfo> ref =
            referenceInfos(core::ScNetwork(net, cfg), images, 17);
        // 1-word, a size that does not divide the stream, and
        // whole-stream granularity, through both segment knobs: Fused
        // advances in batch_stream_segment_words, Progressive (with a
        // margin it never reaches) in stream_segment_words.
        for (size_t seg_words : {size_t{1}, size_t{3}, size_t{0}}) {
            cfg.stream_segment_words = seg_words;
            cfg.batch_stream_segment_words = seg_words;
            core::ScNetwork sc(net, cfg);
            const std::string what =
                "seg_words=" + std::to_string(seg_words);
            core::PredictOptions fused;
            expectBatchedMatchesReference(sc, images, 17, fused, ref,
                                          "fused " + what);
            core::PredictOptions prog;
            prog.mode = core::EngineMode::Progressive;
            prog.progressive_margin = 1e9;
            expectBatchedMatchesReference(sc, images, 17, prog, ref,
                                          "progressive " + what);
        }
    }
}

TEST(BatchEngine, RaggedBatchSizesMatchReference)
{
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 23);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 200;
    cfg.stream_segment_words = 3;
    cfg.batch_stream_segment_words = 3;
    core::ScNetwork sc(net, cfg);

    for (size_t batch : {size_t{1}, size_t{3}, size_t{8}}) {
        std::vector<nn::Tensor> images;
        for (size_t i = 0; i < batch; ++i)
            images.push_back(nn::DigitDataset::render(i % 10, 60 + i));
        core::PredictOptions opts;
        expectBatchedMatchesReference(sc, images, 31, opts,
                                      referenceInfos(sc, images, 31),
                                      "batch=" + std::to_string(batch));
    }
}

TEST(BatchEngine, ProgressiveMixedEarlyExitBatchStaysBitExact)
{
    // A trained network makes rendered digits decisive (they exit at
    // the margin check) while a uniform gray image stays ambiguous
    // (near-equal class scores, no exit) — a mixed batch in which some
    // images leave mid-stream. Compaction must not disturb anyone:
    // every image's outcome equals its own single-image run, and the
    // images that run the full stream equal the Reference oracle.
    nn::Dataset train = nn::DigitDataset::generate(1200, 5);
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 1);
    nn::TrainConfig tc;
    tc.epochs = 3;
    nn::Trainer(net, tc).train(train);

    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 1024;
    cfg.stream_segment_words = 2;
    core::ScNetwork sc(net, cfg);

    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 3; ++i)
        images.push_back(nn::DigitDataset::render(3 * i % 10, 80 + i));
    nn::Tensor gray = images[0];
    for (size_t i = 0; i < gray.size(); ++i)
        gray[i] = 0.5F;
    images.insert(images.begin() + 1, gray);

    core::PredictOptions opts;
    opts.mode = core::EngineMode::Progressive;
    opts.progressive_margin = 2.0;
    opts.progressive_min_bits = 128;
    std::vector<core::ForwardInfo> infos;
    const auto preds = sc.forwardBatch(images, 7, opts, nullptr, &infos);

    core::PredictOptions ref_opts;
    ref_opts.mode = core::EngineMode::Reference;
    size_t exits = 0;
    for (size_t i = 0; i < images.size(); ++i) {
        const uint64_t seed = 7 + i * 7919;
        core::ForwardInfo alone;
        EXPECT_EQ(sc.predictWith(images[i], seed, opts, &alone), preds[i])
            << "image=" << i;
        EXPECT_EQ(infos[i].scores, alone.scores) << "image=" << i;
        EXPECT_EQ(infos[i].effective_bits, alone.effective_bits)
            << "image=" << i;
        EXPECT_EQ(infos[i].early_exit, alone.early_exit) << "image=" << i;
        if (infos[i].early_exit) {
            ++exits;
            EXPECT_LT(infos[i].effective_bits, cfg.bitstream_len);
            continue;
        }
        core::ForwardInfo ref;
        EXPECT_EQ(sc.predictWith(images[i], seed, ref_opts, &ref), preds[i])
            << "image=" << i;
        EXPECT_EQ(infos[i].scores, ref.scores) << "image=" << i;
        EXPECT_EQ(infos[i].effective_bits, ref.effective_bits)
            << "image=" << i;
    }
    EXPECT_GT(exits, 0u) << "no image exited early";
    EXPECT_LT(exits, images.size()) << "every image exited early";
}

TEST(BatchEngine, BatchedPathIsThreadCountInvariant)
{
    // Conv stages of 6 and 10 filters (blocks of 4 + 2 and 4 + 4 + 2
    // lanes) and a 10-wide hidden fc: on pool widths 1..4 the chunk
    // boundaries of parallelForChunks split a position's run of filter
    // blocks at every offset (conv2's 75 items cut into chunks of 75,
    // 5, 4 and 3). Each configuration mixes a MUX stage with an APC
    // stage, so the per-(block, position, window) select generators
    // and both APC kernels (planes under max pooling, counts under
    // average pooling) meet every split; the bit-serial Reference
    // oracle pins the streams themselves.
    nn::TopologySpec spec;
    spec.convs = {{6, 5}, {10, 3}};
    spec.fc_hidden = {10};
    spec.seed = 29;
    const struct
    {
        nn::PoolingMode pooling;
        core::AdderKind conv1, conv2, fc;
    } cases[] = {
        {nn::PoolingMode::Max, core::AdderKind::Mux, core::AdderKind::Apc,
         core::AdderKind::Mux},
        {nn::PoolingMode::Average, core::AdderKind::Apc,
         core::AdderKind::Mux, core::AdderKind::Apc},
    };
    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 6; ++i)
        images.push_back(nn::DigitDataset::render(i % 10, 90 + i));

    for (const auto &c : cases) {
        nn::Network net = nn::buildTopology(spec, c.pooling);
        core::ScNetworkConfig cfg;
        cfg.pooling = c.pooling;
        cfg.layer_adders = {c.conv1, c.conv2, c.fc};
        cfg.bitstream_len = 200;
        cfg.stream_segment_words = 3;
        cfg.batch_stream_segment_words = 3;
        core::ScNetwork sc(net, cfg);
        const std::vector<core::ForwardInfo> ref =
            referenceInfos(sc, images, 55);

        core::PredictOptions opts;
        for (size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
            ThreadPool pool(width);
            std::vector<core::ForwardInfo> infos;
            sc.forwardBatch(images, 55, opts, &pool, &infos);
            for (size_t i = 0; i < images.size(); ++i) {
                EXPECT_EQ(infos[i].scores, ref[i].scores)
                    << "pooling=" << static_cast<int>(c.pooling)
                    << " width=" << width << " image=" << i;
                EXPECT_EQ(infos[i].effective_bits, ref[i].effective_bits)
                    << "pooling=" << static_cast<int>(c.pooling)
                    << " width=" << width << " image=" << i;
            }
        }
    }
}

} // namespace
} // namespace scdcnn
