/**
 * @file
 * Host-side throughput microbenchmarks of the SC simulator primitives
 * (google-benchmark): stream generation (per stream, and the engine
 * build's weight programming in SNG streams/s), gate ops, counting, FSMs,
 * the engine's APC tile kernels and its max-pooling kernel over count
 * planes.
 */

#include <algorithm>
#include <bit>
#include <vector>

#include <benchmark/benchmark.h>

#include "blocks/pooling.h"
#include "sc/btanh.h"
#include "sc/counter.h"
#include "sc/fused.h"
#include "sc/ops.h"
#include "sc/rng.h"
#include "sc/simd.h"
#include "sc/sng.h"
#include "sc/stanh.h"

using namespace scdcnn::sc;

namespace {

void
BM_SngBipolar(benchmark::State &state, double x)
{
    const size_t len = static_cast<size_t>(state.range(0));
    Xoshiro256ss rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sngBipolar(x, len, rng));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(len));
}
BENCHMARK_CAPTURE(BM_SngBipolar, x0.3, 0.3)->Arg(256)->Arg(1024)->Arg(4096);
// x = 0 (p = 0.5) is what zero pixels and near-zero trained weights
// encode at: every stream bit is a coin flip.
BENCHMARK_CAPTURE(BM_SngBipolar, x0, 0.0)->Arg(256)->Arg(1024)->Arg(4096);

/**
 * Weight programming as the engine build does it: 1024 streams of
 * L = 1024 drawn by sngLanes, eight per call, into a plain arena from
 * seeds by index and thresholds spread over the range. @p lanes runs
 * the eight-lane generator on the host's SIMD tier, else the scalar
 * tier's per-stream loop (sngUnipolar's arithmetic); the label names
 * the tier. Items are streams, so items/s is SNG streams/s.
 */
void
BM_SngStreams(benchmark::State &state, bool lanes)
{
    constexpr size_t kLen = 1024;
    constexpr size_t kStreams = 1024;
    constexpr size_t kWords = kLen / 64;
    const SngBank bank(11);
    std::vector<uint64_t> out(kStreams * kWords);
    const bool was_enabled = simd::enabled();
    simd::setEnabled(lanes);
    for (auto _ : state) {
        for (size_t j = 0; j < kStreams; j += kSngLanes) {
            uint64_t seeds[kSngLanes];
            uint32_t thresholds[kSngLanes];
            for (size_t i = 0; i < kSngLanes; ++i) {
                seeds[i] = bank.seedAt(j + i);
                thresholds[i] = static_cast<uint32_t>((j + i) * 61 % 65537);
            }
            sngLanes(seeds, thresholds, kSngLanes, kLen,
                     out.data() + j * kWords, 1, kWords);
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kStreams));
    state.SetLabel(!simd::enabled()        ? "scalar"
                   : simd::avx512Enabled() ? "8 lanes avx512"
                                           : "8 lanes avx2");
    simd::setEnabled(was_enabled);
}
BENCHMARK_CAPTURE(BM_SngStreams, scalar, false);
BENCHMARK_CAPTURE(BM_SngStreams, lanes8, true);

void
BM_SngBipolarLfsr(benchmark::State &state)
{
    const size_t len = static_cast<size_t>(state.range(0));
    Lfsr lfsr(16, 0xACE1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sngBipolar(0.3, len, lfsr));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(len));
}
BENCHMARK(BM_SngBipolarLfsr)->Arg(1024);

void
BM_XnorMultiply(benchmark::State &state)
{
    const size_t len = static_cast<size_t>(state.range(0));
    SngBank bank(2);
    Bitstream a = bank.bipolar(0.4, len);
    Bitstream b = bank.bipolar(-0.2, len);
    for (auto _ : state)
        benchmark::DoNotOptimize(xnorMultiply(a, b));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(len));
}
BENCHMARK(BM_XnorMultiply)->Arg(1024)->Arg(8192);

void
BM_MuxAdd(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    SngBank bank(3);
    std::vector<Bitstream> ins;
    for (size_t i = 0; i < n; ++i)
        ins.push_back(bank.bipolar(0.1, 1024));
    Xoshiro256ss sel(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(muxAdd(ins, sel));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_MuxAdd)->Arg(16)->Arg(64)->Arg(256);

void
BM_ApcCounts(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    SngBank bank(5);
    std::vector<Bitstream> ins;
    for (size_t i = 0; i < n; ++i)
        ins.push_back(bank.bipolar(0.0, 1024));
    for (auto _ : state)
        benchmark::DoNotOptimize(ApproxParallelCounter::counts(ins));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(n) * 1024);
}
BENCHMARK(BM_ApcCounts)->Arg(16)->Arg(64)->Arg(256)->Arg(512);

void
BM_Stanh(benchmark::State &state)
{
    SngBank bank(6);
    Bitstream in = bank.bipolar(0.2, 4096);
    for (auto _ : state) {
        Stanh fsm(16);
        benchmark::DoNotOptimize(fsm.transform(in));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Stanh);

void
BM_Btanh(benchmark::State &state)
{
    SngBank bank(7);
    std::vector<Bitstream> ins;
    for (int i = 0; i < 64; ++i)
        ins.push_back(bank.bipolar(0.0, 1024));
    auto counts = ParallelCounter::counts(ins);
    for (auto _ : state) {
        Btanh unit(128, 64);
        benchmark::DoNotOptimize(unit.transform(counts));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Btanh);

/**
 * One engine-shaped APC batch-kernel call: a run of @p n_blocks filter
 * blocks over @p taps lines (the last a stride-0 bias line) folded
 * against the first @p images images of a batch-major arena, over the
 * whole L = 1024 stream. With @p planes the plane-emitting kernel (the
 * max-pooled conv layers' form) runs, else the counts kernel (fc's).
 * Two images per call take the AVX-512 pair fold where the CPU has it,
 * one image the AVX2 fold; the label names the tier that ran. Items
 * are folded (image, block, tap, word) lines.
 */
void
BM_ProductTile(benchmark::State &state, size_t taps, size_t n_blocks,
               bool planes)
{
    constexpr size_t kLen = 1024;
    constexpr size_t kWords = kLen / 64;
    constexpr size_t kImages = 2;
    const size_t images = static_cast<size_t>(state.range(0));
    SngBank bank(taps * 7 + n_blocks);
    SplitMix64 vals(taps);
    BatchStreamArena in;
    in.reset(taps - 1, kImages, kLen);
    for (size_t t = 0; t + 1 < taps; ++t)
        for (size_t b = 0; b < kImages; ++b)
            in.assign(t, b, bank.bipolar(vals.nextInRange(-1, 1), kLen));
    const Bitstream bias = constantStream(true, kLen);
    std::vector<BitstreamView> xs0;
    std::vector<size_t> strides;
    for (size_t t = 0; t + 1 < taps; ++t) {
        xs0.push_back(in.view(t, 0));
        strides.push_back(in.strideWords());
    }
    xs0.push_back(bias);
    strides.push_back(0);

    InterleavedWeightArena arena;
    arena.reset(n_blocks * kFilterLanes, taps, kLen);
    for (size_t f = 0; f < n_blocks * kFilterLanes; ++f)
        for (size_t t = 0; t < taps; ++t)
            arena.assign(f, t, bank.bipolar(vals.nextInRange(-1, 1), kLen));
    std::vector<WeightBlockView> blocks;
    for (size_t g = 0; g < arena.groups(); ++g)
        blocks.push_back(arena.block(g));

    const uint32_t active[kImages] = {0, 1};
    const size_t lanes = n_blocks * kFilterLanes;
    const size_t cap = planeCapForTaps(taps);
    const size_t plane_lane = kWords * (cap + 1);
    std::vector<uint64_t> tile;
    std::vector<uint16_t> counts(images * lanes * kLen);
    std::vector<uint64_t> plane_out(images * lanes * plane_lane);
    for (auto _ : state) {
        if (planes)
            fusedProductPlanesMultiBatch(xs0, strides, active, images,
                                         blocks, true, 0, kWords, tile,
                                         plane_out.data(), cap, plane_lane,
                                         lanes * plane_lane);
        else
            fusedProductCountsMultiBatch(xs0, strides, active, images,
                                         blocks, true, 0, kWords, tile,
                                         counts.data(), kLen, lanes * kLen);
        benchmark::DoNotOptimize(counts.data());
        benchmark::DoNotOptimize(plane_out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(images * n_blocks * taps *
                                                 kWords));
    if (!simd::enabled())
        state.SetLabel("scalar");
    else
        state.SetLabel(images == 2 && simd::avx512Enabled() ? "avx512 pair"
                                                            : "avx2");
}
// conv2: 20 channels x 5x5 + bias, a 7-block run, planes for pooling.
BENCHMARK_CAPTURE(BM_ProductTile, conv2, 501, 7, true)->Arg(1)->Arg(2);
// fc1: 800 inputs + bias, a 4-block run, counts for the activation.
BENCHMARK_CAPTURE(BM_ProductTile, fc1, 801, 4, false)->Arg(1)->Arg(2);

/**
 * One engine-shaped blocks::binaryMaxPoolPlanesBatch call: @p pixels
 * pixels of four pooling windows each, one whole-stream L = 1024
 * range, c = 16, accumulating counters, parity-substituted LSBs. The
 * window counts are synthetic APC column counts over @p taps lines
 * (Binomial(taps, 1/2)), each window of a pixel nudged up by a
 * different fraction of a count so the selector settles on a winner
 * at a pixel-dependent point, as trained windows do.
 */
void
BM_MaxPoolPlanesBatch(benchmark::State &state, size_t taps, size_t pixels)
{
    constexpr size_t kLen = 1024;
    constexpr size_t kWords = kLen / 64;
    constexpr size_t kWindows = 4;
    const size_t cap = planeCapForTaps(taps);
    const size_t pstride = cap + 1;
    SplitMix64 rng(taps * 1000 + pixels);
    std::vector<std::vector<uint64_t>> bufs(pixels * kWindows);
    std::vector<const uint64_t *> planes;
    for (size_t b = 0; b < bufs.size(); ++b) {
        // Four tail words cover the group-sum quad loads' overread.
        bufs[b].assign(kWords * pstride + 4, 0);
        const size_t nudge = (b + b / kWindows) % kWindows;
        for (size_t i = 0; i < kLen; ++i) {
            size_t c = rng.nextBelow(8) < nudge ? 1 : 0;
            for (size_t t = 0; t < taps; t += 64) {
                const size_t n = std::min<size_t>(64, taps - t);
                const uint64_t mask =
                    n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
                c += static_cast<size_t>(std::popcount(rng.next() & mask));
            }
            c = std::min(c, taps);
            uint64_t *word = bufs[b].data() + (i / 64) * pstride;
            const uint64_t bit = uint64_t{1} << (i % 64);
            for (size_t p = 0; p < cap; ++p)
                if ((c >> p) & 1)
                    word[p] |= bit;
            if (rng.next() & 1)
                word[cap] |= bit;
        }
        planes.push_back(bufs[b].data());
    }
    std::vector<scdcnn::blocks::MaxPoolCarryState> states(pixels);
    std::vector<scdcnn::blocks::MaxPoolCarryState *> state_ptrs;
    std::vector<std::vector<uint16_t>> outs(pixels,
                                            std::vector<uint16_t>(kLen));
    std::vector<uint16_t *> out_ptrs;
    for (size_t j = 0; j < pixels; ++j) {
        state_ptrs.push_back(&states[j]);
        out_ptrs.push_back(outs[j].data());
    }
    for (auto _ : state) {
        for (auto &s : states)
            s.reset(kWindows);
        scdcnn::blocks::binaryMaxPoolPlanesBatch(
            planes.data(), pixels, kWindows, cap, /*parity=*/true, 0, kLen,
            16, /*accumulate=*/true, state_ptrs.data(), out_ptrs.data());
        benchmark::DoNotOptimize(outs[0].data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(pixels * kLen));
}
// conv1: 5x5 window + bias (cap 5), a 5-block run of 3 images per call.
BENCHMARK_CAPTURE(BM_MaxPoolPlanesBatch, conv1, 26, 60);
// conv2: 20 channels x 5x5 + bias (cap 9), 50 pixels per call.
BENCHMARK_CAPTURE(BM_MaxPoolPlanesBatch, conv2, 501, 50);

} // namespace

BENCHMARK_MAIN();
