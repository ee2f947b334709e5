/**
 * @file
 * Tests for the Section 5.2 weight storage method.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nn/dataset.h"
#include "nn/network.h"
#include "nn/quantize.h"
#include "nn/trainer.h"
#include "sc/rng.h"

namespace scdcnn {
namespace nn {
namespace {

TEST(WeightCode, MatchesPaperFormulaByHand)
{
    // x = 0.3, w = 3: Int((1.3/2) * 8) = Int(5.2) = 5.
    EXPECT_EQ(weightCode(0.3, 3), 5u);
    // x = -1 -> code 0; x -> 1 saturates at 2^w - 1.
    EXPECT_EQ(weightCode(-1.0, 3), 0u);
    EXPECT_EQ(weightCode(1.0, 3), 7u);
    EXPECT_EQ(weightCode(0.0, 8), 128u);
}

TEST(QuantizeWeight, ReconstructionFromCode)
{
    // x = 0.3 at 3 bits: y = 5/8, reconstructed 2*5/8-1 = 0.25.
    EXPECT_NEAR(quantizeWeight(0.3, 3), 0.25, 1e-12);
}

TEST(QuantizeWeight, ErrorBoundedByStep)
{
    sc::SplitMix64 rng(1);
    for (unsigned bits : {2u, 4u, 7u, 10u}) {
        const double step = 2.0 / std::pow(2.0, bits);
        for (int t = 0; t < 200; ++t) {
            double x = rng.nextInRange(-1.0, 1.0);
            EXPECT_LE(std::abs(quantizeWeight(x, bits) - x), step + 1e-12)
                << "bits=" << bits;
        }
    }
}

TEST(QuantizeWeight, MonotoneNonDecreasing)
{
    double prev = -2;
    for (double x = -1.0; x <= 1.0; x += 0.01) {
        double q = quantizeWeight(x, 5);
        EXPECT_GE(q, prev - 1e-12);
        prev = q;
    }
}

TEST(QuantizeWeight, HighPrecisionIsNearLossless)
{
    sc::SplitMix64 rng(2);
    for (int t = 0; t < 100; ++t) {
        double x = rng.nextInRange(-1.0, 1.0);
        EXPECT_NEAR(quantizeWeight(x, 20), x, 1e-5);
    }
}

TEST(QuantizeWeight, ErrorShrinksWithPrecision)
{
    sc::SplitMix64 rng(3);
    auto mean_err = [&rng](unsigned bits) {
        sc::SplitMix64 local(99);
        double e = 0;
        for (int t = 0; t < 500; ++t) {
            double x = local.nextInRange(-1.0, 1.0);
            e += std::abs(quantizeWeight(x, bits) - x);
        }
        return e / 500;
    };
    EXPECT_LT(mean_err(8), mean_err(4));
    EXPECT_LT(mean_err(4), mean_err(2));
}

TEST(QuantizeLayer, TouchesWeightsAndBiases)
{
    FullyConnected fc(4, 2);
    (*fc.weights()) = {0.3f, -0.6f, 0.111f, 0.999f, -0.2f, 0.0f,
                       0.5f, -0.5f};
    (*fc.biases()) = {0.3f, -0.123f};
    quantizeLayer(fc, 2);
    // 2 bits -> codes over {-1, -0.5, 0, 0.5}: every value on grid.
    for (float w : *fc.weights()) {
        double frac = (w + 1.0) / 0.5;
        EXPECT_NEAR(frac, std::round(frac), 1e-6);
    }
}

TEST(QuantizeLayer, MatchesPerWeightQuantizationBitForBit)
{
    // quantizeLayer computes the code grid once per layer; every value
    // it stores must be the float of quantizeWeight at the same
    // precision, and both must equal the Section 5.2 formula written
    // out with std::pow. The inputs are the edges (+-1, 0, out of
    // range) and, for every code step, the float just below it and
    // the step itself.
    for (unsigned bits = 1; bits <= 12; ++bits) {
        const double scale = std::pow(2.0, bits);
        std::vector<float> xs = {-1.0f, 1.0f, 0.0f, -0.0f, -1.5f, 1.5f};
        for (uint64_t k = 0; k <= (uint64_t{1} << bits); ++k) {
            const auto step = static_cast<float>(
                2.0 * static_cast<double>(k) / scale - 1.0);
            xs.push_back(step);
            xs.push_back(std::nextafter(step, -2.0f));
        }
        FullyConnected fc(xs.size(), 1);
        *fc.weights() = xs;
        (*fc.biases())[0] = xs[xs.size() / 2 + 1];
        quantizeLayer(fc, bits);
        const auto paper = [&](float x) {
            const double c = std::clamp(static_cast<double>(x), -1.0, 1.0);
            const uint64_t code =
                std::min(static_cast<uint64_t>((c + 1.0) / 2.0 * scale),
                         (uint64_t{1} << bits) - 1);
            return static_cast<float>(
                2.0 * (static_cast<double>(code) / scale) - 1.0);
        };
        for (size_t i = 0; i < xs.size(); ++i) {
            const float per_weight =
                static_cast<float>(quantizeWeight(xs[i], bits));
            EXPECT_EQ(std::bit_cast<uint32_t>((*fc.weights())[i]),
                      std::bit_cast<uint32_t>(per_weight))
                << "bits=" << bits << " x=" << xs[i];
            EXPECT_EQ(std::bit_cast<uint32_t>(per_weight),
                      std::bit_cast<uint32_t>(paper(xs[i])))
                << "bits=" << bits << " x=" << xs[i];
        }
        EXPECT_EQ(std::bit_cast<uint32_t>((*fc.biases())[0]),
                  std::bit_cast<uint32_t>(static_cast<float>(
                      quantizeWeight(xs[xs.size() / 2 + 1], bits))))
            << "bits=" << bits;
    }
}

TEST(QuantizeLeNet5, SevenBitsBarelyMovesAccuracy)
{
    // Figure 13: at w >= 7 the network error is flat. Use the mini net
    // at full LeNet5 shape cost would be slow; the property holds for
    // any trained tanh CNN.
    Dataset train = DigitDataset::generate(600, 20);
    Dataset test = DigitDataset::generate(300, 21);
    Network net = buildLeNet5(PoolingMode::Max, 7);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 32;
    Trainer(net, cfg).train(train);
    double base_err = Trainer::errorRate(net, test);

    Network q7 = net;
    quantizeNetwork(q7, {7, 7, 7});
    double q7_err = Trainer::errorRate(q7, test);
    EXPECT_NEAR(q7_err, base_err, 0.05);

    // 2-bit weights wreck it.
    Network q2 = net;
    quantizeNetwork(q2, {2, 2, 2});
    double q2_err = Trainer::errorRate(q2, test);
    EXPECT_GT(q2_err, base_err + 0.05);
}

TEST(QuantizeLeNet5SingleLayer, OnlyTargetsOneGroup)
{
    Network net = buildLeNet5(PoolingMode::Max, 8);
    Network original = net;
    quantizeNetworkGroup(net, 1, 2);
    // conv1 untouched, conv2 changed.
    EXPECT_EQ(*net.layer(0).weights(), *original.layer(0).weights());
    EXPECT_NE(*net.layer(3).weights(), *original.layer(3).weights());
    EXPECT_EQ(*net.layer(6).weights(), *original.layer(6).weights());
}

} // namespace
} // namespace nn
} // namespace scdcnn
