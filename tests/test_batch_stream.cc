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
 * every image's outcome equal to its own single-image run. An engine
 * reuses its forward-pass state across calls, so its answers must not
 * depend on the calls before, nor on concurrent callers.
 */

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <utility>
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
    constexpr size_t kImages = 5;
    // Tap counts below (odd: 3 and 5 lines, with the bias line) and
    // straddling the 16-line Harley-Seal group (plus the bias line),
    // filter counts producing one full block, a full and a ragged block
    // (2 and 3 lanes), and three blocks ending ragged, and a stream
    // length with a partial tail word. Every contiguous run of blocks
    // goes through one call: runs of one, two and all blocks.
    for (size_t n_taps : {size_t{2}, size_t{4}, size_t{17}, size_t{36}}) {
        for (size_t filters :
             {size_t{4}, size_t{6}, size_t{7}, size_t{10}}) {
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
            // Non-contiguous active sets of 1, 2, 3 and 5 images
            // exercise the stride-offset addressing, in and out of image
            // order, the image pairs of the AVX-512 tier and an odd
            // count's lone last image.
            for (const std::vector<uint32_t> &active :
                 {std::vector<uint32_t>{2}, std::vector<uint32_t>{1, 3},
                  std::vector<uint32_t>{2, 0},
                  std::vector<uint32_t>{3, 0, 2},
                  std::vector<uint32_t>{4, 1, 3, 0, 2}}) {
                std::string images;
                for (uint32_t a : active) {
                    if (!images.empty())
                        images += ',';
                    images += std::to_string(a);
                }
                for (size_t g0 = 0; g0 < blocks.size(); ++g0) {
                    for (size_t g1 = g0 + 1; g1 <= blocks.size(); ++g1) {
                        const std::span<const sc::WeightBlockView> run(
                            blocks.data() + g0, g1 - g0);
                        const std::string what =
                            "taps=" + std::to_string(n_taps) +
                            " filters=" + std::to_string(filters) +
                            " run=[" + std::to_string(g0) + "," +
                            std::to_string(g1) + ") active=" + images;
                        checkRun(ops, run, active, n_words, plane_cap,
                                 tile, shifted, what);
                    }
                }
            }
        }
    }
}

/** Window contents of a plane-pooling case. */
enum class PoolWindows
{
    Random,
    /** Two windows with equal evidence on every 16-cycle group (one is
     *  the other with each group's cycles reversed) above the rest:
     *  grid-aligned decisions tie, and the earlier window must win. */
    MirroredTwins,
    /** Every count zero: every decision ties, and window 0 must win. */
    AllZero,
};

/**
 * Random canonical count planes plus a parity word per (pixel, window)
 * buffer, @p len cycles in @p words words, and the per-cycle counts a
 * consumer with the same parity flag sees.
 */
struct PlanePoolCase
{
    size_t n_inputs;
    size_t plane_cap;
    size_t len;
    size_t words;
    std::vector<std::vector<uint64_t>> bufs; //!< (pixel, window) order
    std::vector<std::vector<uint16_t>> eff;

    PlanePoolCase(size_t n_pixels, size_t n_inputs_, size_t plane_cap_,
                  size_t len_, bool parity, PoolWindows kind,
                  sc::SplitMix64 &vals)
        : n_inputs(n_inputs_), plane_cap(plane_cap_), len(len_),
          words((len_ + 63) / 64), bufs(n_pixels * n_inputs_),
          eff(n_pixels * n_inputs_)
    {
        // The twins: windows 0 and 1 of a pair, else 1 and 3.
        const size_t twin_a = n_inputs == 2 ? 0 : 1;
        const size_t twin_b = n_inputs == 2 ? 1 : 3;
        for (size_t b = 0; b < bufs.size(); ++b) {
            // +4 tail words for the pooling quad-load overread.
            bufs[b].assign(words * (plane_cap + 1) + 4, 0);
            eff[b].assign(words * 64, 0);
        }
        for (size_t b = 0; b < bufs.size(); ++b) {
            const size_t k = b % n_inputs;
            if (kind == PoolWindows::MirroredTwins && k == twin_b)
                continue; // mirrored from twin_a below
            for (size_t i = 0; i < len; ++i) {
                auto c = static_cast<uint16_t>(vals.next() &
                                               ((1u << plane_cap) - 1));
                uint64_t lsb = vals.next() & 1;
                if (kind == PoolWindows::AllZero) {
                    c = 0;
                    lsb = 0;
                }
                if (kind == PoolWindows::MirroredTwins && k != twin_a)
                    c = static_cast<uint16_t>(c >> 1);
                setCount(b, i, c, lsb, parity);
                if (kind == PoolWindows::MirroredTwins && k == twin_a) {
                    const size_t g = i / 16 * 16;
                    const size_t mirror = g + std::min<size_t>(len - g, 16) -
                                          1 - (i - g);
                    setCount(b + twin_b - twin_a, mirror, c, lsb, parity);
                }
            }
        }
    }

    void setCount(size_t b, size_t i, uint16_t c, uint64_t lsb, bool parity)
    {
        const size_t pstride = plane_cap + 1;
        uint64_t *word = bufs[b].data() + (i / 64) * pstride;
        const uint64_t bit = uint64_t{1} << (i % 64);
        for (size_t p = 0; p < plane_cap; ++p)
            if ((c >> p) & 1)
                word[p] |= bit;
        if (lsb != 0)
            word[plane_cap] |= bit;
        eff[b][i] = parity ? static_cast<uint16_t>((c & ~1u) | lsb) : c;
    }

    /** Pixel @p j's windows' counts over cycles [0, n). */
    std::vector<std::vector<uint16_t>> counts(size_t j, size_t n) const
    {
        std::vector<std::vector<uint16_t>> out;
        for (size_t k = 0; k < n_inputs; ++k)
            out.emplace_back(eff[j * n_inputs + k].begin(),
                             eff[j * n_inputs + k].begin() +
                                 static_cast<ptrdiff_t>(n));
        return out;
    }
};

/**
 * Pools every pixel of @p pc range by range (@p range_words words per
 * binaryMaxPoolPlanesBatch call, pixel j starting from window
 * j % n_inputs) and checks each pixel against the whole-stream
 * binaryMaxPoolReference over its parity-substituted counts: the
 * output, and the carried state the last call leaves — the counters'
 * evidence since the last decision (since the start with accumulate),
 * and the selection that decision made, read off the oracle's output
 * at the segment after it with window k's counts set to k there.
 */
void
checkPlanePool(const PlanePoolCase &pc, size_t range_words,
               size_t segment_len, bool parity, bool accumulate,
               const std::string &what)
{
    const size_t n_pixels = pc.bufs.size() / pc.n_inputs;
    const size_t pstride = pc.plane_cap + 1;
    std::vector<blocks::MaxPoolCarryState> states(n_pixels);
    std::vector<blocks::MaxPoolCarryState *> state_ptrs;
    std::vector<std::vector<uint16_t>> outs(
        n_pixels, std::vector<uint16_t>(pc.words * 64, 0));
    for (size_t j = 0; j < n_pixels; ++j) {
        states[j].reset(pc.n_inputs, j % pc.n_inputs);
        state_ptrs.push_back(&states[j]);
    }
    for (size_t w0 = 0; w0 < pc.words; w0 += range_words) {
        const size_t r0 = w0 * 64;
        const size_t nc = std::min(pc.len, r0 + range_words * 64) - r0;
        std::vector<const uint64_t *> pp;
        for (const auto &buf : pc.bufs)
            pp.push_back(buf.data() + w0 * pstride);
        std::vector<uint16_t *> op;
        for (auto &out : outs)
            op.push_back(out.data() + r0);
        blocks::binaryMaxPoolPlanesBatch(
            pp.data(), n_pixels, pc.n_inputs, pc.plane_cap, parity, r0, nc,
            segment_len, accumulate, state_ptrs.data(), op.data());
    }
    const size_t last = pc.len / segment_len * segment_len;
    for (size_t j = 0; j < n_pixels; ++j) {
        const std::string where = what + " pixel=" + std::to_string(j);
        const size_t first = j % pc.n_inputs;
        const auto counts = pc.counts(j, pc.len);
        EXPECT_EQ(std::vector<uint16_t>(outs[j].begin(),
                                        outs[j].begin() +
                                            static_cast<ptrdiff_t>(pc.len)),
                  blocks::binaryMaxPoolReference(counts, segment_len, first,
                                                 accumulate))
            << where;
        auto tagged = pc.counts(j, last);
        for (size_t k = 0; k < pc.n_inputs; ++k)
            tagged[k].resize(last + segment_len, static_cast<uint16_t>(k));
        EXPECT_EQ(states[j].selected,
                  blocks::binaryMaxPoolReference(tagged, segment_len, first,
                                                 accumulate)[last])
            << where;
        for (size_t k = 0; k < pc.n_inputs; ++k) {
            uint64_t evidence = 0;
            for (size_t i = accumulate ? 0 : last; i < pc.len; ++i)
                evidence += counts[k][i];
            EXPECT_EQ(states[j].counters[k], evidence)
                << where << " window=" << k;
        }
    }
}

TEST_F(BatchKernel, PlanePoolMatchesCountPoolAcrossShapes)
{
    // binaryMaxPoolPlanesBatch over canonical count planes, carried
    // range by range, must be bit-exact with the whole-stream oracle
    // over the (parity-substituted) counts — outputs and carried
    // selector state — on the 16-cycle-grid fast path and the masked
    // general path, for random windows, tied twins and all-zero
    // windows, nonzero starting selections, both counter readings, SIMD
    // on and off. First small shapes across plane depths, pool widths,
    // batch sizes and segment lengths on and off the group grid, over
    // a word-aligned range split with a partial zero-masked tail word.
    const PoolWindows kinds[] = {PoolWindows::Random,
                                 PoolWindows::MirroredTwins,
                                 PoolWindows::AllZero};
    sc::SplitMix64 vals(0xB007);
    constexpr size_t kLen = 200; // 4 words, 8-cycle tail
    for (size_t plane_cap : {size_t{3}, size_t{5}, size_t{9}})
        for (size_t n_inputs : {size_t{2}, size_t{4}})
            for (size_t n_images : {size_t{1}, size_t{3}})
                for (bool parity : {true, false})
                    for (PoolWindows kind : kinds) {
                        const PlanePoolCase pc(n_images, n_inputs,
                                               plane_cap, kLen, parity,
                                               kind, vals);
                        for (size_t segment_len :
                             {size_t{16}, size_t{48}, size_t{10}})
                            for (bool accumulate : {true, false})
                                for (bool simd_on : {true, false}) {
                                    sc::simd::setEnabled(simd_on);
                                    checkPlanePool(
                                        pc, 2, segment_len, parity,
                                        accumulate,
                                        "cap=" + std::to_string(plane_cap) +
                                            " inputs=" +
                                            std::to_string(n_inputs) +
                                            " images=" +
                                            std::to_string(n_images) +
                                            " seg=" +
                                            std::to_string(segment_len) +
                                            " parity=" +
                                            std::to_string(parity) +
                                            " kind=" +
                                            std::to_string(int(kind)) +
                                            " acc=" +
                                            std::to_string(accumulate) +
                                            " simd=" +
                                            std::to_string(simd_on));
                                }
                    }
    // Then the engine's shapes: 60 pixels of four windows (conv1's
    // 5-block run x 3 images) at conv1's and conv2's plane depths,
    // L = 1024 as one whole-stream range and as 4-word Progressive
    // ranges.
    for (size_t plane_cap : {size_t{5}, size_t{9}})
        for (PoolWindows kind : kinds) {
            const PlanePoolCase pc(60, 4, plane_cap, 1024, true, kind,
                                   vals);
            for (size_t range_words : {size_t{16}, size_t{4}})
                for (size_t segment_len : {size_t{16}, size_t{48}})
                    for (bool accumulate : {true, false})
                        for (bool simd_on : {true, false}) {
                            sc::simd::setEnabled(simd_on);
                            checkPlanePool(
                                pc, range_words, segment_len, true,
                                accumulate,
                                "engine cap=" + std::to_string(plane_cap) +
                                    " kind=" + std::to_string(int(kind)) +
                                    " range_words=" +
                                    std::to_string(range_words) +
                                    " seg=" + std::to_string(segment_len) +
                                    " acc=" + std::to_string(accumulate) +
                                    " simd=" + std::to_string(simd_on));
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
        const core::ScNetwork whole(net, cfg);
        const std::vector<core::ForwardInfo> ref =
            referenceInfos(whole, images, 17);
        // Fused runs whole-stream; Progressive (with a margin it never
        // reaches) advances in stream_segment_words segments: 1-word, a
        // size that does not divide the stream, and whole-stream
        // granularity (0 falls back to 4 words, all of a 200-bit
        // stream).
        expectBatchedMatchesReference(whole, images, 17,
                                      core::PredictOptions{}, ref, "fused");
        for (size_t seg_words : {size_t{1}, size_t{3}, size_t{0}}) {
            cfg.stream_segment_words = seg_words;
            core::ScNetwork sc(net, cfg);
            const std::string what =
                "seg_words=" + std::to_string(seg_words);
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
    core::ScNetwork sc(net, cfg);

    // Fused whole-stream, and Progressive (never exiting) in 3-word
    // segments that do not divide the 4-word stream.
    core::PredictOptions segmented;
    segmented.mode = core::EngineMode::Progressive;
    segmented.progressive_margin = 1e9;
    for (size_t batch : {size_t{1}, size_t{3}, size_t{8}}) {
        std::vector<nn::Tensor> images;
        for (size_t i = 0; i < batch; ++i)
            images.push_back(nn::DigitDataset::render(i % 10, 60 + i));
        const std::string what = "batch=" + std::to_string(batch);
        const std::vector<core::ForwardInfo> ref =
            referenceInfos(sc, images, 31);
        expectBatchedMatchesReference(sc, images, 31,
                                      core::PredictOptions{}, ref,
                                      "fused " + what);
        expectBatchedMatchesReference(sc, images, 31, segmented, ref,
                                      "progressive " + what);
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
        core::ScNetwork sc(net, cfg);
        const std::vector<core::ForwardInfo> ref =
            referenceInfos(sc, images, 55);

        // Fused whole-stream, and Progressive (never exiting) carrying
        // state across 3-word segment boundaries.
        core::PredictOptions segmented;
        segmented.mode = core::EngineMode::Progressive;
        segmented.progressive_margin = 1e9;
        for (const core::PredictOptions &opts :
             {core::PredictOptions{}, segmented}) {
            for (size_t width :
                 {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
                ThreadPool pool(width);
                std::vector<core::ForwardInfo> infos;
                sc.forwardBatch(images, 55, opts, &pool, &infos);
                for (size_t i = 0; i < images.size(); ++i) {
                    EXPECT_EQ(infos[i].scores, ref[i].scores)
                        << "pooling=" << static_cast<int>(c.pooling)
                        << " mode=" << static_cast<int>(opts.mode)
                        << " width=" << width << " image=" << i;
                    EXPECT_EQ(infos[i].effective_bits,
                              ref[i].effective_bits)
                        << "pooling=" << static_cast<int>(c.pooling)
                        << " mode=" << static_cast<int>(opts.mode)
                        << " width=" << width << " image=" << i;
                }
            }
        }
    }
}

/** What one forward call returned: the classes and every image's
 *  ForwardInfo. */
struct CallOutcome
{
    std::vector<size_t> preds;
    std::vector<core::ForwardInfo> infos;
};

/** Classes, score bits, effective bits and the exit/cancel flags of
 *  every image must agree exactly. */
void
expectSameOutcome(const CallOutcome &got, const CallOutcome &want,
                  const std::string &what)
{
    ASSERT_EQ(got.preds, want.preds) << what;
    ASSERT_EQ(got.infos.size(), want.infos.size()) << what;
    for (size_t i = 0; i < got.infos.size(); ++i) {
        const core::ForwardInfo &g = got.infos[i];
        const core::ForwardInfo &w = want.infos[i];
        ASSERT_EQ(g.scores.size(), w.scores.size()) << what;
        for (size_t o = 0; o < g.scores.size(); ++o)
            EXPECT_EQ(std::bit_cast<uint64_t>(g.scores[o]),
                      std::bit_cast<uint64_t>(w.scores[o]))
                << what << " image=" << i << " class=" << o;
        EXPECT_EQ(g.effective_bits, w.effective_bits)
            << what << " image=" << i;
        EXPECT_EQ(g.early_exit, w.early_exit) << what << " image=" << i;
        EXPECT_EQ(g.cancelled, w.cancelled) << what << " image=" << i;
    }
}

/** A cancellation that has already fired. */
struct AlreadyCancelled final : core::CancelSignal
{
    bool cancelled() const override { return true; }
};

std::vector<nn::Tensor>
renderImages(size_t n, uint64_t salt)
{
    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < n; ++i)
        images.push_back(nn::DigitDataset::render((i * 3 + salt) % 10,
                                                  salt * 100 + i));
    return images;
}

TEST(BatchEngine, AnswersDoNotDependOnTheEnginesCallHistory)
{
    // An engine keeps its forward-pass state between calls and reuses
    // it without clearing it. A sequence of calls of shrinking and
    // growing batches — a Progressive batch whose images exit at
    // different points, a batch with a cancelled image, a single-image
    // predictWith — must answer each call exactly as a freshly built
    // engine answers it alone, at a stream length with a partial tail
    // word (1000) and without one (1024), for a max-pooled APC net
    // (LeNet5's kinds) and one with a MUX stage and average pooling.
    const struct
    {
        nn::PoolingMode pooling;
        core::AdderKind conv1;
    } cases[] = {
        {nn::PoolingMode::Max, core::AdderKind::Apc},
        {nn::PoolingMode::Average, core::AdderKind::Mux},
    };
    const AlreadyCancelled cancelled;
    for (const auto &c : cases) {
        const nn::Network net = nn::buildMiniLeNet(c.pooling, 41);
        for (size_t len : {size_t{1000}, size_t{1024}}) {
            core::ScNetworkConfig cfg;
            cfg.pooling = c.pooling;
            cfg.layer_adders = {c.conv1, core::AdderKind::Apc,
                                core::AdderKind::Apc};
            cfg.bitstream_len = len;
            cfg.stream_segment_words = 3;

            core::PredictOptions exiting;
            exiting.mode = core::EngineMode::Progressive;
            exiting.progressive_margin = 0.1;
            exiting.progressive_min_bits = 192;
            core::PredictOptions full_progressive;
            full_progressive.mode = core::EngineMode::Progressive;
            full_progressive.progressive_margin = 1e9;

            using Call = std::function<CallOutcome(const core::ScNetwork &)>;
            const std::vector<nn::Tensor> b16 = renderImages(16, 1);
            const std::vector<nn::Tensor> b3 = renderImages(3, 2);
            const std::vector<nn::Tensor> b4 = renderImages(4, 3);
            const std::vector<nn::Tensor> b1 = renderImages(1, 4);
            const std::vector<nn::Tensor> b7 = renderImages(7, 5);
            const std::vector<std::pair<std::string, Call>> calls = {
                {"fused B=16",
                 [&](const core::ScNetwork &sc) {
                     CallOutcome r;
                     r.preds = sc.forwardBatch(b16, 11,
                                               core::PredictOptions{},
                                               nullptr, &r.infos);
                     return r;
                 }},
                {"progressive B=3 exiting",
                 [&](const core::ScNetwork &sc) {
                     CallOutcome r;
                     r.preds =
                         sc.forwardBatch(b3, 12, exiting, nullptr, &r.infos);
                     return r;
                 }},
                {"progressive B=4 one cancelled",
                 [&](const core::ScNetwork &sc) {
                     const std::vector<uint64_t> seeds = {13, 14, 15, 16};
                     const std::vector<const core::CancelSignal *> cancels =
                         {nullptr, nullptr, &cancelled, nullptr};
                     CallOutcome r;
                     r.preds = sc.forwardBatch(b4, seeds, full_progressive,
                                               nullptr, &r.infos, &cancels);
                     return r;
                 }},
                {"predictWith B=1",
                 [&](const core::ScNetwork &sc) {
                     CallOutcome r;
                     r.infos.resize(1);
                     r.preds = {sc.predictWith(b1[0], 17,
                                               core::PredictOptions{},
                                               &r.infos[0])};
                     return r;
                 }},
                {"fused B=7",
                 [&](const core::ScNetwork &sc) {
                     CallOutcome r;
                     r.preds = sc.forwardBatch(b7, 18,
                                               core::PredictOptions{},
                                               nullptr, &r.infos);
                     return r;
                 }},
            };

            const core::ScNetwork shared(net, cfg);
            for (const auto &[name, call] : calls) {
                const std::string what =
                    name + " pooling=" +
                    std::to_string(static_cast<int>(c.pooling)) +
                    " len=" + std::to_string(len);
                const CallOutcome want = call(core::ScNetwork(net, cfg));
                expectSameOutcome(call(shared), want, what);
                if (name == "progressive B=3 exiting") {
                    size_t exits = 0;
                    for (const core::ForwardInfo &info : want.infos)
                        exits += info.early_exit ? 1 : 0;
                    EXPECT_GT(exits, 0u) << what << ": no image exited";
                }
                if (name == "progressive B=4 one cancelled") {
                    EXPECT_TRUE(want.infos[2].cancelled) << what;
                    EXPECT_LT(want.infos[2].effective_bits, len) << what;
                }
            }
        }
    }
}

TEST(BatchEngine, ConcurrentCallersOnOneEngineMatchSerialCalls)
{
    // Four threads share one engine, so some calls find its retained
    // forward-pass state taken and run on a state of their own. Each
    // thread runs a different mix of batch sizes and modes, and every
    // answer must equal the same call made serially beforehand.
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 43);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 256;
    cfg.stream_segment_words = 1;
    const core::ScNetwork sc(net, cfg);

    core::PredictOptions progressive;
    progressive.mode = core::EngineMode::Progressive;
    progressive.progressive_margin = 0.1;
    progressive.progressive_min_bits = 64;

    constexpr size_t kThreads = 4;
    constexpr size_t kCallsPerThread = 6;
    // Call k of thread t: a batch of 1 + (t + k) % 5 images (a single
    // one through predictWith), Fused or Progressive by parity.
    const auto run = [&](size_t t, size_t k) {
        const size_t batch = 1 + (t + k) % 5;
        const std::vector<nn::Tensor> images =
            renderImages(batch, 10 + t * kCallsPerThread + k);
        const core::PredictOptions opts =
            (t + k) % 2 == 0 ? core::PredictOptions{} : progressive;
        const uint64_t seed = 1000 + 37 * t + k;
        CallOutcome r;
        if (batch == 1) {
            r.infos.resize(1);
            r.preds = {sc.predictWith(images[0], seed, opts, &r.infos[0])};
        } else {
            r.preds = sc.forwardBatch(images, seed, opts, nullptr, &r.infos);
        }
        return r;
    };

    std::vector<std::vector<CallOutcome>> serial(kThreads);
    for (size_t t = 0; t < kThreads; ++t)
        for (size_t k = 0; k < kCallsPerThread; ++k)
            serial[t].push_back(run(t, k));

    std::vector<std::vector<CallOutcome>> concurrent(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t k = 0; k < kCallsPerThread; ++k)
                concurrent[t].push_back(run(t, k));
        });
    for (std::thread &th : threads)
        th.join();

    for (size_t t = 0; t < kThreads; ++t)
        for (size_t k = 0; k < kCallsPerThread; ++k)
            expectSameOutcome(concurrent[t][k], serial[t][k],
                              "thread=" + std::to_string(t) +
                                  " call=" + std::to_string(k));
}

} // namespace
} // namespace scdcnn
