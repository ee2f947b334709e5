/**
 * @file
 * Tests for the fused word-parallel kernels (sc/fused.h) against their
 * bit-serial reference oracles, and for the determinism contract of
 * the batched network engine: same seed => same predictions, for any
 * engine mode and any thread count.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/inner_product.h"
#include "common/thread_pool.h"
#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"
#include "sc/counter.h"
#include "sc/fused.h"
#include "sc/ops.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

/** Random operand pair set: n streams of length len each. */
struct OperandSet
{
    std::vector<sc::Bitstream> xs, ws;
    std::vector<const sc::Bitstream *> xp, wp;

    OperandSet(size_t n, size_t len, uint64_t seed)
    {
        sc::SngBank bank(seed);
        sc::SplitMix64 vals(seed ^ 0xABCD);
        for (size_t i = 0; i < n; ++i) {
            xs.push_back(bank.bipolar(vals.nextInRange(-1, 1), len));
            ws.push_back(bank.bipolar(vals.nextInRange(-1, 1), len));
        }
        for (size_t i = 0; i < n; ++i) {
            xp.push_back(&xs[i]);
            wp.push_back(&ws[i]);
        }
    }
};

/** Sweep odd/even word counts, partial tails, and fan-ins around the
 *  APC parity-line cutoff. */
class FusedVsReference
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(FusedVsReference, ProductCountsBitExact)
{
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 1000 + n * 131 + len);
    for (bool approximate : {false, true}) {
        std::vector<uint16_t> fused;
        sc::fusedProductCounts(ops.xp, ops.wp, approximate, fused);
        EXPECT_EQ(fused,
                  sc::referenceProductCounts(ops.xp, ops.wp, approximate))
            << "n=" << n << " len=" << len << " approx=" << approximate;
    }
}

TEST_P(FusedVsReference, MuxProductBitExact)
{
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 2000 + n * 131 + len);
    sc::Xoshiro256ss rng(99 + n);
    std::vector<uint16_t> selects;
    sc::fillMuxSelects(n, len, rng, selects);
    sc::Bitstream fused;
    sc::fusedMuxProduct(ops.xp, ops.wp, selects, fused);
    EXPECT_EQ(fused, sc::referenceMuxProduct(ops.xp, ops.wp, selects))
        << "n=" << n << " len=" << len;
}

TEST_P(FusedVsReference, ProductCountTotalMatches)
{
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 3000 + n * 131 + len);
    for (bool approximate : {false, true}) {
        EXPECT_EQ(
            sc::fusedProductCountTotal(ops.xp, ops.wp, approximate),
            sc::referenceProductCountTotal(ops.xp, ops.wp, approximate))
            << "n=" << n << " len=" << len << " approx=" << approximate;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FusedVsReference,
    ::testing::Combine(
        // Fan-ins below/at/above the 4-line parity cutoff and past one
        // carry-save plane's worth of lines.
        ::testing::Values(1, 3, 4, 5, 26, 151),
        // Lengths around the 64-bit word boundary and realistic L.
        ::testing::Values(1, 63, 64, 65, 300, 1024)));

/** fusedProductCountsMultiBatch over the single image @p xs (its
 *  operand views themselves, image stride 0). */
void
productCountsOneImage(const std::vector<sc::BitstreamView> &xs,
                      const sc::WeightBlockView &block, bool approximate,
                      size_t begin_word, size_t end_word, uint16_t *out,
                      size_t out_stride)
{
    const std::vector<size_t> strides(xs.size(), 0);
    const uint32_t image = 0;
    std::vector<uint64_t> tile;
    sc::fusedProductCountsMultiBatch(xs, strides, &image, 1, {&block, 1},
                                     approximate, begin_word, end_word,
                                     tile, out, out_stride, 0);
}

/** A filter block plus the matching plain per-filter views. */
struct BlockSet
{
    OperandSet ops;         //!< xs shared window; ws reused as filters
    sc::InterleavedWeightArena arena;
    std::vector<std::vector<sc::Bitstream>> filter_ws;

    BlockSet(size_t taps, size_t len, size_t filters, uint64_t seed)
        : ops(taps, len, seed)
    {
        sc::SngBank bank(seed ^ 0xF117E5);
        sc::SplitMix64 vals(seed ^ 0xB10C);
        arena.reset(filters, taps, len);
        filter_ws.resize(filters);
        for (size_t f = 0; f < filters; ++f) {
            for (size_t t = 0; t < taps; ++t) {
                filter_ws[f].push_back(
                    bank.bipolar(vals.nextInRange(-1, 1), len));
                arena.assign(f, t, filter_ws[f].back());
            }
        }
    }
};

/** (taps, len, filters): fan-ins across the 16-line Harley-Seal group
 *  size, lengths across word/segment boundaries, ragged lane counts. */
class MultiVsReference
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>>
{
};

TEST_P(MultiVsReference, ProductCountsMultiBitExact)
{
    auto [taps, len, filters] = GetParam();
    BlockSet set(taps, len, filters, 4000 + taps * 131 + len + filters);
    const size_t n_words = (len + 63) / 64;
    const auto xs = sc::toViews(set.ops.xs);
    for (size_t g = 0; g < set.arena.groups(); ++g) {
        const sc::WeightBlockView block = set.arena.block(g);
        std::vector<uint16_t> fused(block.lanes * len, 0xAAAA);
        std::vector<uint16_t> ref(block.lanes * len, 0x5555);
        productCountsOneImage(xs, block, /*approximate=*/true, 0, n_words,
                              fused.data(), len);
        sc::referenceProductCountsMulti(xs, block, /*approximate=*/true,
                                        0, n_words, ref.data(), len);
        EXPECT_EQ(fused, ref) << "group " << g;
        // Layout round-trip: each lane equals the per-filter kernel on
        // the plain (non-interleaved) streams.
        for (size_t f = 0; f < block.lanes; ++f) {
            std::vector<uint16_t> plain;
            sc::fusedProductCounts(sc::toViews(set.ops.xs),
                                   sc::toViews(
                                       set.filter_ws[g * sc::kFilterLanes +
                                                     f]),
                                   /*approximate=*/true, plain);
            const std::vector<uint16_t> lane(
                fused.begin() + static_cast<ptrdiff_t>(f * len),
                fused.begin() + static_cast<ptrdiff_t>((f + 1) * len));
            EXPECT_EQ(lane, plain) << "group " << g << " lane " << f;
        }
    }
}

TEST_P(MultiVsReference, RangedSegmentsConcatenateToWholeStream)
{
    auto [taps, len, filters] = GetParam();
    BlockSet set(taps, len, filters, 5000 + taps * 131 + len + filters);
    const size_t n_words = (len + 63) / 64;
    const auto xs = sc::toViews(set.ops.xs);
    const sc::WeightBlockView block = set.arena.block(0);

    std::vector<uint16_t> whole(block.lanes * len);
    productCountsOneImage(xs, block, /*approximate=*/true, 0, n_words,
                          whole.data(), len);
    // Word-range partitions, including one that does not divide the
    // word count, must reproduce the whole-stream counts exactly.
    for (size_t seg_words : {size_t{1}, size_t{2}, size_t{3}}) {
        std::vector<uint16_t> stitched(block.lanes * len);
        for (size_t w0 = 0; w0 < n_words; w0 += seg_words) {
            const size_t w1 = std::min(w0 + seg_words, n_words);
            const size_t n_cycles = std::min(w1 * 64, len) - w0 * 64;
            std::vector<uint16_t> part(block.lanes * n_cycles);
            productCountsOneImage(xs, block, /*approximate=*/true, w0, w1,
                                  part.data(), n_cycles);
            for (size_t f = 0; f < block.lanes; ++f)
                std::copy(part.begin() +
                              static_cast<ptrdiff_t>(f * n_cycles),
                          part.begin() +
                              static_cast<ptrdiff_t>((f + 1) * n_cycles),
                          stitched.begin() +
                              static_cast<ptrdiff_t>(f * len + w0 * 64));
        }
        EXPECT_EQ(stitched, whole) << "seg_words " << seg_words;
    }
}

TEST_P(MultiVsReference, MuxProductMultiBitExact)
{
    auto [taps, len, filters] = GetParam();
    BlockSet set(taps, len, filters, 6000 + taps * 131 + len + filters);
    const size_t n_words = (len + 63) / 64;
    const auto xs = sc::toViews(set.ops.xs);
    const sc::WeightBlockView block = set.arena.block(0);
    sc::Xoshiro256ss rng(41 + taps);
    std::vector<uint16_t> selects;
    sc::fillMuxSelects(taps, len, rng, selects);

    std::vector<uint64_t> fused(block.lanes * n_words, 0xDEAD);
    std::vector<uint64_t> ref(block.lanes * n_words, 0xBEEF);
    sc::fusedMuxProductMulti(xs, block, selects, 0, n_words, fused.data(),
                             n_words);
    sc::referenceMuxProductMulti(xs, block, selects, 0, n_words,
                                 ref.data(), n_words);
    EXPECT_EQ(fused, ref);
    // Shared selects across lanes: lane f equals the single-filter MUX
    // product against filter f's plain streams.
    for (size_t f = 0; f < block.lanes; ++f) {
        sc::Bitstream single;
        sc::fusedMuxProduct(sc::toViews(set.ops.xs),
                            sc::toViews(set.filter_ws[f]), selects,
                            single);
        for (size_t w = 0; w < n_words; ++w)
            EXPECT_EQ(fused[f * n_words + w], single.words()[w])
                << "lane " << f << " word " << w;
    }
}

TEST_P(MultiVsReference, ProductCountTotalRangePartitionsExactly)
{
    auto [taps, len, filters] = GetParam();
    OperandSet ops(taps, len, 7000 + taps * 131 + len + filters);
    const size_t n_words = (len + 63) / 64;
    sc::ProductCountAccum whole;
    sc::fusedProductCountTotalRange(sc::toViews(ops.xs),
                                    sc::toViews(ops.ws), 0, n_words,
                                    whole);
    sc::ProductCountAccum ref;
    sc::referenceProductCountTotalRange(sc::toViews(ops.xs),
                                        sc::toViews(ops.ws), 0, n_words,
                                        ref);
    EXPECT_EQ(whole.total, ref.total);
    EXPECT_EQ(whole.exact_lsb_ones, ref.exact_lsb_ones);
    EXPECT_EQ(whole.approx_lsb_ones, ref.approx_lsb_ones);
    for (bool approximate : {false, true})
        EXPECT_EQ(whole.value(approximate),
                  sc::fusedProductCountTotal(ops.xp, ops.wp, approximate));
    // A 3-word partition (not dividing most word counts) sums to the
    // whole-stream partials.
    sc::ProductCountAccum parts;
    for (size_t w0 = 0; w0 < n_words; w0 += 3)
        sc::fusedProductCountTotalRange(sc::toViews(ops.xs),
                                        sc::toViews(ops.ws), w0,
                                        std::min(w0 + 3, n_words), parts);
    EXPECT_EQ(parts.total, whole.total);
    EXPECT_EQ(parts.exact_lsb_ones, whole.exact_lsb_ones);
    EXPECT_EQ(parts.approx_lsb_ones, whole.approx_lsb_ones);
}

TEST(MultiKernels, EmptyRangeAtTheRaggedTailIsANoOp)
{
    // begin == end == wordCount on a non-word-aligned length: the
    // clamped cycle count must be zero, not an underflow that sweeps
    // the output buffer.
    BlockSet set(3, 300, 2, 99);
    const size_t n_words = 5;
    const auto xs = sc::toViews(set.ops.xs);
    const sc::WeightBlockView block = set.arena.block(0);
    std::vector<uint16_t> out(8, 0x1234);
    productCountsOneImage(xs, block, true, n_words, n_words, out.data(),
                          4);
    sc::referenceProductCountsMulti(xs, block, true, n_words, n_words,
                                    out.data(), 4);
    std::vector<uint64_t> words(4, 0x77);
    sc::fusedMuxProductMulti(xs, block, {}, n_words, n_words,
                             words.data(), 2);
    for (uint16_t v : out)
        EXPECT_EQ(v, 0x1234);
    for (uint64_t w : words)
        EXPECT_EQ(w, 0x77u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiVsReference,
    ::testing::Combine(
        // Fan-ins below/at/above the 16-line Harley-Seal group and the
        // parity cutoff, plus large blocked-layer shapes.
        ::testing::Values(1, 3, 15, 16, 17, 40, 151),
        // Lengths around word and 4-word-segment boundaries.
        ::testing::Values(63, 64, 200, 256, 300),
        // Full blocks, ragged last block, single lane.
        ::testing::Values(1, 4, 6)));

TEST(FusedMuxBlock, MatchesMaterializedProductsBitExact)
{
    // The fused block-level MUX path must consume the RNG exactly like
    // the materialize-then-muxAdd path and produce the same stream.
    OperandSet ops(25, 512, 77);
    auto products = blocks::productStreams(ops.xs, ops.ws);
    sc::Xoshiro256ss sel_a(1234), sel_b(1234);
    sc::Bitstream classic =
        blocks::MuxInnerProduct::sumProducts(products, sel_a);
    sc::Bitstream fused =
        blocks::MuxInnerProduct::sumProductsFused(ops.xp, ops.wp, sel_b);
    EXPECT_EQ(classic, fused);
    // Generator states must coincide afterwards too.
    EXPECT_EQ(sel_a.next(), sel_b.next());
}

TEST(FusedCounterBlock, MatchesMaterializedProductsBitExact)
{
    OperandSet ops(26, 300, 78);
    auto products = blocks::productStreams(ops.xs, ops.ws);
    EXPECT_EQ(blocks::ApcInnerProduct::countsFused(ops.xp, ops.wp, true),
              sc::ApproxParallelCounter::counts(products));
    EXPECT_EQ(blocks::ApcInnerProduct::countsFused(ops.xp, ops.wp, false),
              sc::ParallelCounter::counts(products));
}

/** An untrained mini network is enough for engine equivalence: the
 *  kernels see arbitrary weight streams either way. */
core::ScNetwork
makeMiniScNet(nn::PoolingMode pooling, core::AdderKind first_adder)
{
    nn::Network net = nn::buildMiniLeNet(pooling, 21);
    core::ScNetworkConfig cfg;
    cfg.pooling = pooling;
    cfg.layer_adders = {first_adder, core::AdderKind::Apc,
                        core::AdderKind::Apc};
    cfg.bitstream_len = 256;
    return core::ScNetwork(net, cfg);
}

TEST(EngineModes, FusedMatchesReferencePredictions)
{
    // Covers all four FEB kinds: MUX/APC crossed with avg/max pooling.
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
    core::PredictOptions ref_opts;
    ref_opts.mode = core::EngineMode::Reference;
    for (const auto &c : cases) {
        core::ScNetwork sc_net = makeMiniScNet(c.pooling, c.adder);
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            nn::Tensor img = nn::DigitDataset::render(seed % 10, seed);
            const size_t fused = sc_net.predict(img, seed);
            const size_t reference = sc_net.predictWith(img, seed, ref_opts);
            EXPECT_EQ(fused, reference) << "seed=" << seed;
        }
    }
}

TEST(ForwardBatch, DeterministicAcrossThreadCounts)
{
    core::ScNetwork sc_net =
        makeMiniScNet(nn::PoolingMode::Average, core::AdderKind::Apc);
    std::vector<nn::Tensor> images;
    for (size_t i = 0; i < 8; ++i)
        images.push_back(nn::DigitDataset::render(i % 10, 50 + i));

    ThreadPool serial(1), quad(4);
    const auto preds1 = sc_net.forwardBatch(images, 42, &serial);
    const auto preds4 = sc_net.forwardBatch(images, 42, &quad);
    const auto preds_global = sc_net.forwardBatch(images, 42);
    EXPECT_EQ(preds1, preds4);
    EXPECT_EQ(preds1, preds_global);

    // The batch must equal per-image predict() at the batch seeds.
    for (size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(preds1[i], sc_net.predict(images[i], 42 + i * 7919));
}

TEST(ForwardBatch, EmptyBatchIsFine)
{
    core::ScNetwork sc_net =
        makeMiniScNet(nn::PoolingMode::Average, core::AdderKind::Apc);
    EXPECT_TRUE(sc_net.forwardBatch({}, 1).empty());
}

} // namespace
} // namespace scdcnn
