/**
 * @file
 * Golden answers of the Fused engine: the class and the exact score
 * bits of three images at fixed seeds, for four engine builds. The
 * Reference == Fused oracle cannot see a fault in weight programming,
 * because both engines read the same weight arenas; these answers pin
 * the programmed streams themselves — the bank's draw order, the
 * per-stream seeds and thresholds, and where each stream lands in the
 * arenas. They were recorded from the sequential build, one stream at
 * a time through SngBank::bipolar, and the parallel lane-programmed
 * build must reproduce them bit for bit on every SIMD tier.
 *
 * LeNet5 runs at L = 1024 (whole words), 1000 (a ragged tail word) and
 * 250 (a partial last draw: 250 bits take 63 four-bit draws). The
 * MUX-fc mini-LeNet programs its output layer at w / gain with a small
 * gain, so many of those weight streams saturate in the SNG.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/sc_network.h"
#include "nn/dataset.h"
#include "nn/network.h"

namespace scdcnn {
namespace {

/** One image's recorded answer. */
struct Golden
{
    size_t cls;
    uint64_t score_bits[10];
};

constexpr size_t kImages = 3;

/** The answer matches @p g: class, stream cycles and every score's
 *  bit pattern. */
void
expectAnswer(const core::ForwardInfo &info, size_t cls, const Golden &g,
             size_t len, const char *what)
{
    EXPECT_EQ(cls, g.cls) << what;
    EXPECT_EQ(info.effective_bits, len) << what;
    ASSERT_EQ(info.scores.size(), 10u) << what;
    for (size_t k = 0; k < 10; ++k) {
        uint64_t bits;
        std::memcpy(&bits, &info.scores[k], sizeof bits);
        EXPECT_EQ(bits, g.score_bits[k])
            << what << " class " << k << ": score " << info.scores[k];
    }
}

/** Check every image on @p sc (digit (3i + 1) mod 10 rendered at seed
 *  40 + i, run at seed 1000 + 17i), as one three-image batch — the
 *  input grid at an image stride — and one by one. */
void
expectGolden(const core::ScNetwork &sc, const Golden (&golden)[kImages])
{
    std::vector<nn::Tensor> images;
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < kImages; ++i) {
        images.push_back(nn::DigitDataset::render((i * 3 + 1) % 10, 40 + i));
        seeds.push_back(1000 + 17 * i);
    }
    const size_t len = sc.config().bitstream_len;
    std::vector<core::ForwardInfo> infos;
    const std::vector<size_t> classes = sc.forwardBatch(
        images, seeds, core::PredictOptions{}, nullptr, &infos);
    for (size_t i = 0; i < kImages; ++i) {
        SCOPED_TRACE(testing::Message() << "image " << i);
        expectAnswer(infos[i], classes[i], golden[i], len, "batch");
        core::ForwardInfo one;
        const size_t cls = sc.predictWith(images[i], seeds[i],
                                          core::PredictOptions{}, &one);
        expectAnswer(one, cls, golden[i], len, "single");
    }
}

/** The untrained LeNet5 at stream length @p len. */
core::ScNetwork
lenet5(size_t len)
{
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = len;
    return core::ScNetwork(nn::buildLeNet5(nn::PoolingMode::Max, 1), cfg);
}

TEST(EngineGolden, LeNet5WholeWords)
{
    const Golden golden[kImages] = {
        {1,
         {0xc003300000000000, 0xbfc2400000000000, 0xbff2d00000000000,
          0xc004300000000000, 0xbff3100000000000, 0xc004b80000000000,
          0xbff7a00000000000, 0xbff5a00000000000, 0xc000080000000000,
          0xc0000c0000000000}},
        {9,
         {0xc00ef80000000000, 0xc001640000000000, 0xc00bd80000000000,
          0xc012740000000000, 0xc006480000000000, 0xc00b980000000000,
          0xc005300000000000, 0xc006680000000000, 0xc008080000000000,
          0xbff9b80000000000}},
        {4,
         {0xbffea80000000000, 0xc008b00000000000, 0xc0056c0000000000,
          0xc010ce0000000000, 0xbff6180000000000, 0xbfff380000000000,
          0xc00dcc0000000000, 0xc005740000000000, 0xc0019c0000000000,
          0xbffd500000000000}},
    };
    expectGolden(lenet5(1024), golden);
}

TEST(EngineGolden, LeNet5RaggedTailWord)
{
    const Golden golden[kImages] = {
        {1,
         {0xc0074395810624dd, 0x3fdb4395810624dd, 0xc0030a3d70a3d70a,
          0xc0030624dd2f1aa0, 0xbfef5c28f5c28f5c, 0xc0029fbe76c8b439,
          0xbff5d2f1a9fbe76d, 0xbff7851eb851eb85, 0xc000fdf3b645a1cb,
          0xbffc7ae147ae147b}},
        {1,
         {0xc00c24dd2f1a9fbe, 0xc000bc6a7ef9db23, 0xc00bfbe76c8b4396,
          0xc0112f1a9fbe76c9, 0xc005126e978d4fdf, 0xc00a000000000000,
          0xc00628f5c28f5c29, 0xc0071a9fbe76c8b4, 0xc00804189374bc6a,
          0xc0016c8b43958106}},
        {4,
         {0xc00049ba5e353f7d, 0xc0085604189374bc, 0xc00428f5c28f5c29,
          0xc01078d4fdf3b646, 0xbff29fbe76c8b439, 0xc00126e978d4fdf4,
          0xc00f22d0e5604189, 0xc00a6a7ef9db22d1, 0xc000083126e978d5,
          0xbffc189374bc6a7f}},
    };
    expectGolden(lenet5(1000), golden);
}

TEST(EngineGolden, LeNet5PartialLastDraw)
{
    const Golden golden[kImages] = {
        {7,
         {0xc00c49ba5e353f7d, 0xc00872b020c49ba6, 0xbffe5604189374bc,
          0xc001ba5e353f7cee, 0xbff24dd2f1a9fbe7, 0xc003d70a3d70a3d7,
          0xbffe76c8b4395810, 0x3fd26e978d4fdf3b, 0xc001ba5e353f7cee,
          0xbff04189374bc6a8}},
        {8,
         {0xc013b645a1cac083, 0xc00c083126e978d5, 0xc0202d0e56041893,
          0xc0160c49ba5e353f, 0xc01049ba5e353f7d, 0xc015a1cac083126f,
          0xc019eb851eb851ec, 0xc0147ae147ae147b, 0xc0015810624dd2f2,
          0xc0163d70a3d70a3d}},
        {4,
         {0xbfa89374bc6a7efa, 0xc008b4395810624e, 0xc006978d4fdf3b64,
          0xbffac083126e978d, 0x3ff8b4395810624e, 0xbff604189374bc6a,
          0xc0078d4fdf3b645a, 0xc00e5604189374bc, 0xc00010624dd2f1aa,
          0xc00199999999999a}},
    };
    expectGolden(lenet5(250), golden);
}

TEST(EngineGolden, MuxFcMiniLeNetPreScaledSaturatingWeights)
{
    const Golden golden[kImages] = {
        {5,
         {0xbfe3400000000000, 0xc001900000000000, 0xbfff200000000000,
          0x3ff1a00000000000, 0xbfc0000000000000, 0x4000f00000000000,
          0x3fed400000000000, 0x3ff8000000000000, 0x3fde800000000000,
          0xc00a200000000000}},
        {2,
         {0x3ffc000000000000, 0x3fc0000000000000, 0x400fc00000000000,
          0x3ff2800000000000, 0x3ff7600000000000, 0x3ffa800000000000,
          0xbfd4000000000000, 0xbfe4c00000000000, 0xbfee000000000000,
          0xbfe1400000000000}},
        {1,
         {0x3fd5000000000000, 0x4012400000000000, 0x4001000000000000,
          0x3fef000000000000, 0xbfe9400000000000, 0x3fa8000000000000,
          0xbffe400000000000, 0xbfe1400000000000, 0x3ff4000000000000,
          0x3fcd000000000000}},
    };
    nn::Network net = nn::buildMiniLeNet(nn::PoolingMode::Max, 7);
    core::ScNetworkConfig cfg;
    cfg.pooling = nn::PoolingMode::Max;
    cfg.bitstream_len = 256;
    cfg.layer_adders = {core::AdderKind::Apc, core::AdderKind::Apc,
                        core::AdderKind::Mux};
    const core::ScNetwork sc(net, cfg);
    expectGolden(sc, golden);

    // The case only earns its place if the output layer's programmed
    // values w / gain leave the bipolar range and saturate.
    const double gain = sc.layerGain(sc.plan().stages.size() - 1);
    const std::vector<float> &w =
        *net.layer(sc.plan().output.layer_index).weights();
    size_t saturated = 0;
    for (float v : w)
        saturated += std::abs(v / gain) > 1.0;
    EXPECT_GT(saturated, w.size() / 4) << "gain " << gain;
}

} // namespace
} // namespace scdcnn
