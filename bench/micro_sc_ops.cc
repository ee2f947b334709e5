/**
 * @file
 * Host-side throughput microbenchmarks of the SC simulator primitives
 * (google-benchmark): stream generation, gate ops, counting, FSMs.
 */

#include <benchmark/benchmark.h>

#include "sc/btanh.h"
#include "sc/counter.h"
#include "sc/ops.h"
#include "sc/rng.h"
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

} // namespace

BENCHMARK_MAIN();
