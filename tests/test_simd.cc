/**
 * @file
 * Bit-exactness of the runtime-dispatched SIMD kernels against the
 * always-built scalar paths (the dispatch rule of DESIGN.md: the
 * scalar path is the oracle, every SIMD tier must agree exactly). Each
 * test runs the same fused kernel with SIMD enabled and disabled and
 * compares; on hosts without AVX2 both runs take the scalar path and
 * the tests degenerate to self-comparison. The AVX-512 pair kernels
 * are also compared image by image with the AVX2 kernel, a test that
 * is skipped, with a message, where the CPU lacks AVX-512F.
 */

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sc/bitstream.h"
#include "sc/fused.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"

namespace scdcnn {
namespace {

/** Restore the processwide SIMD selection after each test. */
class SimdTest : public ::testing::Test
{
  protected:
    void TearDown() override { sc::simd::setEnabled(true); }
};

struct OperandSet
{
    std::vector<sc::Bitstream> xs, ws;
    std::vector<sc::BitstreamView> xv, wv;

    OperandSet(size_t n, size_t len, uint64_t seed)
    {
        sc::SngBank bank(seed);
        sc::SplitMix64 vals(seed ^ 0xABCD);
        for (size_t i = 0; i < n; ++i) {
            xs.push_back(bank.bipolar(vals.nextInRange(-1, 1), len));
            ws.push_back(bank.bipolar(vals.nextInRange(-1, 1), len));
        }
        xv = sc::toViews(xs);
        wv = sc::toViews(ws);
    }
};

class SimdVsScalar
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
  protected:
    void TearDown() { sc::simd::setEnabled(true); }
};

TEST_P(SimdVsScalar, ProductCountsMatch)
{
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 5000 + n * 131 + len);
    for (bool approximate : {false, true}) {
        std::vector<uint16_t> with_simd, without;
        sc::simd::setEnabled(true);
        sc::fusedProductCounts(ops.xv, ops.wv, approximate, with_simd);
        sc::simd::setEnabled(false);
        sc::fusedProductCounts(ops.xv, ops.wv, approximate, without);
        EXPECT_EQ(with_simd, without)
            << "n=" << n << " len=" << len << " approx=" << approximate;
    }
}

TEST_P(SimdVsScalar, LineCountsMatch)
{
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 6000 + n * 131 + len);
    for (bool approximate : {false, true}) {
        std::vector<uint16_t> with_simd, without;
        sc::simd::setEnabled(true);
        sc::fusedLineCounts(ops.xv, approximate, with_simd);
        sc::simd::setEnabled(false);
        sc::fusedLineCounts(ops.xv, approximate, without);
        EXPECT_EQ(with_simd, without)
            << "n=" << n << " len=" << len << " approx=" << approximate;
    }
}

TEST_P(SimdVsScalar, ProductCountTotalMatches)
{
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 7000 + n * 131 + len);
    for (bool approximate : {false, true}) {
        sc::simd::setEnabled(true);
        const uint64_t with_simd =
            sc::fusedProductCountTotal(ops.xv, ops.wv, approximate);
        sc::simd::setEnabled(false);
        const uint64_t without =
            sc::fusedProductCountTotal(ops.xv, ops.wv, approximate);
        EXPECT_EQ(with_simd, without)
            << "n=" << n << " len=" << len << " approx=" << approximate;
    }
}

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

TEST_P(SimdVsScalar, ProductCountsMultiMatch)
{
    // The AVX2 Harley-Seal fold against the scalar
    // plane-insertion path of the same kernel, over ragged lane counts
    // and word sub-ranges (the scalar path also covers the stream's
    // partial tail word when SIMD is on).
    auto [n, len] = GetParam();
    OperandSet ops(n, len, 8000 + n * 131 + len);
    for (size_t filters : {size_t{1}, size_t{4}, size_t{6}}) {
        sc::InterleavedWeightArena arena;
        arena.reset(filters, n, len);
        sc::SngBank bank(42 + filters);
        sc::SplitMix64 vals(7 * filters);
        for (size_t f = 0; f < filters; ++f)
            for (size_t t = 0; t < n; ++t)
                arena.assign(f, t,
                             bank.bipolar(vals.nextInRange(-1, 1), len));
        const size_t n_words = (len + 63) / 64;
        for (size_t g = 0; g < arena.groups(); ++g) {
            const sc::WeightBlockView block = arena.block(g);
            for (size_t w0 : {size_t{0}, std::min(n_words, size_t{3})}) {
                for (bool approximate : {false, true}) {
                    std::vector<uint16_t> with_simd(block.lanes * len);
                    std::vector<uint16_t> without(block.lanes * len);
                    sc::simd::setEnabled(true);
                    productCountsOneImage(ops.xv, block, approximate, w0,
                                          n_words, with_simd.data(), len);
                    sc::simd::setEnabled(false);
                    productCountsOneImage(ops.xv, block, approximate, w0,
                                          n_words, without.data(), len);
                    EXPECT_EQ(with_simd, without)
                        << "n=" << n << " len=" << len
                        << " filters=" << filters << " w0=" << w0
                        << " approx=" << approximate;
                }
            }
        }
    }
}

TEST_P(SimdVsScalar, MultiBatchKernelsMatch)
{
    // Both batch kernels over a 6-image batch-major arena (the engine's
    // layout): per-tap image strides, the last tap a stride-0 shared
    // bias line, and non-contiguous active lists of 1, 2, 3 and 5
    // images, so the gather's image addressing is compared, not only
    // image 0's, and the AVX-512 tier folds image pairs while an odd
    // count's last image takes the lone-image AVX2 fold. Every
    // contiguous run of the three filter blocks (4, 4 and a ragged 3
    // lanes) goes through one call, so runs of one, two and all blocks
    // fold against the same gathered tiles. The plane cap is one above
    // the fold's width, so the zero fill is compared too.
    auto [n, len] = GetParam();
    constexpr size_t kImages = 6;
    constexpr size_t kFilters = 11;
    sc::BatchStreamArena in;
    in.reset(n, kImages, len);
    sc::SngBank bank(9000 + n * 131 + len);
    sc::SplitMix64 vals(n ^ len);
    for (size_t t = 0; t < n; ++t)
        for (size_t b = 0; b < kImages; ++b)
            in.assign(t, b, bank.bipolar(vals.nextInRange(-1, 1), len));
    std::vector<sc::BitstreamView> xs0(n);
    std::vector<size_t> strides(n, in.strideWords());
    for (size_t t = 0; t < n; ++t)
        xs0[t] = in.view(t, 0);
    strides[n - 1] = 0;

    sc::InterleavedWeightArena arena;
    arena.reset(kFilters, n, len);
    for (size_t f = 0; f < kFilters; ++f)
        for (size_t t = 0; t < n; ++t)
            arena.assign(f, t, bank.bipolar(vals.nextInRange(-1, 1), len));
    std::vector<sc::WeightBlockView> blocks;
    for (size_t g = 0; g < arena.groups(); ++g)
        blocks.push_back(arena.block(g));
    ASSERT_EQ(blocks.back().lanes, 3u);
    const size_t n_words = (len + 63) / 64;
    const size_t cap = sc::planeCapForTaps(n) + 1;
    std::vector<uint64_t> tile;
    for (const std::vector<uint32_t> &active :
         {std::vector<uint32_t>{4}, std::vector<uint32_t>{2, 0},
          std::vector<uint32_t>{3, 0, 2},
          std::vector<uint32_t>{5, 1, 3, 0, 4}}) {
        const size_t n_active = active.size();
        for (size_t g0 = 0; g0 < blocks.size(); ++g0) {
            for (size_t g1 = g0 + 1; g1 <= blocks.size(); ++g1) {
                const std::span<const sc::WeightBlockView> run(
                    blocks.data() + g0, g1 - g0);
                const size_t lanes = run.size() * sc::kFilterLanes;
                for (size_t w0 : {size_t{0}, std::min(n_words, size_t{3})}) {
                    const size_t cycles = std::min(len, n_words * 64) -
                                          std::min(len, w0 * 64);
                    const size_t plane_lane = (n_words - w0) * (cap + 1);
                    for (bool approximate : {false, true}) {
                        std::vector<uint16_t> counts[2];
                        std::vector<uint64_t> planes[2];
                        for (int simd = 0; simd < 2; ++simd) {
                            sc::simd::setEnabled(simd == 1);
                            counts[simd].assign(n_active * lanes * cycles,
                                                0xFFFF);
                            planes[simd].assign(
                                n_active * lanes * plane_lane, ~uint64_t{0});
                            sc::fusedProductCountsMultiBatch(
                                xs0, strides, active.data(), n_active, run,
                                approximate, w0, n_words, tile,
                                counts[simd].data(), cycles,
                                lanes * cycles);
                            sc::fusedProductPlanesMultiBatch(
                                xs0, strides, active.data(), n_active, run,
                                approximate, w0, n_words, tile,
                                planes[simd].data(), cap, plane_lane,
                                lanes * plane_lane);
                        }
                        const auto where = [&] {
                            return "n=" + std::to_string(n) +
                                   " len=" + std::to_string(len) +
                                   " images=" + std::to_string(n_active) +
                                   " run=[" + std::to_string(g0) + "," +
                                   std::to_string(g1) +
                                   ") w0=" + std::to_string(w0) +
                                   " approx=" + std::to_string(approximate);
                        };
                        EXPECT_EQ(counts[1], counts[0]) << where();
                        EXPECT_EQ(planes[1], planes[0]) << where();
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimdVsScalar,
    ::testing::Combine(
        // Fan-ins around the parity cutoff (both parities of the
        // parity-line count: 2, 3), the 16-line Harley-Seal group
        // (15, 16, 17, 31, 32, 33), LeNet5's conv1, conv2 and fc
        // fan-ins (26, 501, 801), and across plane counts (801 needs
        // 10 planes).
        ::testing::Values(1, 2, 3, 4, 5, 15, 16, 17, 26, 31, 32, 33, 151,
                          257, 501, 801),
        // Lengths around the 256-bit SIMD block and 64-bit word
        // boundaries: pure-scalar, pure-SIMD, and mixed tails (200:
        // three full words and an 8-bit tail word, the engine tests'
        // length).
        ::testing::Values(1, 63, 64, 200, 255, 256, 257, 300, 511, 512,
                          1024)));

TEST_F(SimdTest, PairKernelsMatchAvx2PerImage)
{
    // Each image of the AVX-512 pair kernels against the AVX2 tile
    // kernel run on that image alone: tap counts below, at and above
    // the 16-line group (odd ones take the half adder), with and
    // without parity lines, a full and a ragged 3-lane block, word
    // ranges starting at 0 and 1, a partial tail word (left to the
    // caller by both) and a plane cap above the fold width.
    sc::simd::setEnabled(true);
    if (!sc::simd::avx512Enabled())
        GTEST_SKIP() << "AVX-512F tier not available: the image-pair "
                        "kernels did not run";
    sc::SplitMix64 vals(0x5A1D);
    for (size_t taps : {2u, 3u, 7u, 16u, 17u, 26u, 501u, 801u}) {
        for (size_t len : {200u, 1024u}) {
            sc::SngBank bank(taps * 17 + len);
            sc::InterleavedWeightArena arena;
            arena.reset(7, taps, len);
            for (size_t f = 0; f < 7; ++f)
                for (size_t t = 0; t < taps; ++t)
                    arena.assign(f, t,
                                 bank.bipolar(vals.nextInRange(-1, 1), len));
            const sc::WeightBlockView blocks[2] = {arena.block(0),
                                                   arena.block(1)};
            const size_t n_words = (len + 63) / 64;
            const size_t cap = sc::planeCapForTaps(taps) + 1;
            for (size_t w0 : {size_t{0}, size_t{1}}) {
                const size_t words = n_words - w0;
                std::vector<uint64_t> tile_data[2];
                for (auto &t : tile_data) {
                    t.resize(words * taps);
                    for (auto &w : t)
                        w = vals.next();
                }
                const uint64_t *const tiles[2] = {tile_data[0].data(),
                                                  tile_data[1].data()};
                const size_t lanes = 2 * sc::kFilterLanes;
                const size_t lane_stride = words * 64;
                const size_t plane_lane = words * (cap + 1);
                for (size_t parity_lines :
                     {size_t{0}, std::min<size_t>(4, taps)}) {
                    const std::string where =
                        "taps=" + std::to_string(taps) +
                        " len=" + std::to_string(len) +
                        " w0=" + std::to_string(w0) +
                        " parity=" + std::to_string(parity_lines);
                    std::vector<uint16_t> pair_counts[2], lone_counts[2];
                    std::vector<uint64_t> pair_planes[2], lone_planes[2];
                    for (size_t k = 0; k < 2; ++k) {
                        pair_counts[k].assign(lanes * lane_stride, 0xFFFF);
                        lone_counts[k] = pair_counts[k];
                        pair_planes[k].assign(lanes * plane_lane,
                                              ~uint64_t{0});
                        lone_planes[k] = pair_planes[k];
                    }
                    uint16_t *const count_outs[2] = {pair_counts[0].data(),
                                                     pair_counts[1].data()};
                    uint64_t *const plane_outs[2] = {pair_planes[0].data(),
                                                     pair_planes[1].data()};
                    const size_t folded = sc::simd::avx512ProductCountsTilePair(
                        tiles, blocks, 2, parity_lines, w0, n_words,
                        count_outs, lane_stride);
                    EXPECT_EQ(folded, len / 64 - w0) << where;
                    EXPECT_EQ(sc::simd::avx512ProductPlanesTilePair(
                                  tiles, blocks, 2, parity_lines, w0,
                                  n_words, cap, plane_outs, plane_lane),
                              folded)
                        << where;
                    for (size_t k = 0; k < 2; ++k) {
                        EXPECT_EQ(sc::simd::avx2ProductCountsTile(
                                      tiles[k], blocks, 2, parity_lines, w0,
                                      n_words, lone_counts[k].data(),
                                      lane_stride),
                                  folded)
                            << where;
                        EXPECT_EQ(sc::simd::avx2ProductPlanesTile(
                                      tiles[k], blocks, 2, parity_lines, w0,
                                      n_words, cap, lone_planes[k].data(),
                                      plane_lane),
                                  folded)
                            << where;
                        EXPECT_EQ(pair_counts[k], lone_counts[k])
                            << where << " image=" << k;
                        EXPECT_EQ(pair_planes[k], lone_planes[k])
                            << where << " image=" << k;
                    }
                }
            }
        }
    }
}

TEST_F(SimdTest, SumU16MatchesScalar)
{
    sc::SplitMix64 vals(99);
    // Full uint16 range (top-bit values would break a signed madd
    // accumulation) and a length crossing the 64-bit flush boundary.
    for (size_t n : {0ul, 1ul, 15ul, 16ul, 31ul, 32ul, 100ul, 4096ul,
                     (1ul << 18) + 17ul}) {
        std::vector<uint16_t> values(n);
        for (auto &v : values)
            v = static_cast<uint16_t>(vals.nextBelow(65536));
        uint64_t expect = 0;
        for (uint16_t v : values)
            expect += v;
        sc::simd::setEnabled(true);
        EXPECT_EQ(sc::simd::avx2SumU16(values.data(), n), expect)
            << "n=" << n;
        sc::simd::setEnabled(false);
        EXPECT_EQ(sc::simd::avx2SumU16(values.data(), n), expect)
            << "n=" << n;
    }
}

TEST_F(SimdTest, DisableIsObserved)
{
    sc::simd::setEnabled(false);
    EXPECT_FALSE(sc::simd::enabled());
    sc::simd::setEnabled(true);
    // Re-enabling only sticks where the CPU actually has AVX2.
    EXPECT_EQ(sc::simd::enabled(), sc::simd::available());
}

} // namespace
} // namespace scdcnn
