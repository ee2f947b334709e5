#include "nn/quantize.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/topology.h"

namespace scdcnn {
namespace nn {

namespace {

/** The w-bit code grid: 2^w (exact in a double) and the top code. */
struct CodeGrid
{
    explicit CodeGrid(unsigned bits)
        : scale(std::ldexp(1.0, static_cast<int>(bits))),
          max_code((uint64_t{1} << bits) - 1)
    {
        SCDCNN_ASSERT(bits >= 1 && bits <= 63, "bad precision %u", bits);
    }

    uint64_t code(double x) const
    {
        x = std::clamp(x, -1.0, 1.0);
        const auto c = static_cast<uint64_t>((x + 1.0) / 2.0 *
                                             scale); // Int(): truncate
        return std::min(c, max_code); // x = +1 saturates to the top code
    }

    double quantize(double x) const
    {
        return 2.0 * (static_cast<double>(code(x)) / scale) - 1.0;
    }

    double scale;
    uint64_t max_code;
};

} // namespace

uint64_t
weightCode(double x, unsigned bits)
{
    return CodeGrid(bits).code(x);
}

double
quantizeWeight(double x, unsigned bits)
{
    return CodeGrid(bits).quantize(x);
}

void
quantizeLayer(Layer &layer, unsigned bits)
{
    // One grid per layer: 2^w is computed once, not per weight.
    const CodeGrid grid(bits);
    if (auto *w = layer.weights())
        for (auto &v : *w)
            v = static_cast<float>(grid.quantize(v));
    if (auto *b = layer.biases())
        for (auto &v : *b)
            v = static_cast<float>(grid.quantize(v));
}

void
quantizeNetwork(Network &net, const std::array<unsigned, 3> &bits)
{
    // Grouping is derived from the topology walk, not from fixed
    // layer indices: the outline names every parameterized layer and
    // its paper group (output fc included, group 2).
    for (const StageOutline &s : outlineNetworkStages(net))
        quantizeLayer(net.layer(s.layer_index), bits[s.paper_group]);
}

void
quantizeNetworkGroup(Network &net, size_t which, unsigned bits)
{
    SCDCNN_ASSERT(which < 3, "layer group %zu out of range", which);
    for (const StageOutline &s : outlineNetworkStages(net))
        if (s.paper_group == which)
            quantizeLayer(net.layer(s.layer_index), bits);
}

void
signQuantizeLayer(Layer &layer)
{
    if (auto *w = layer.weights())
        for (auto &v : *w)
            v = static_cast<float>(signQuantizeWeight(v));
    if (auto *b = layer.biases())
        for (auto &v : *b)
            v = static_cast<float>(signQuantizeWeight(v));
}

void
signQuantizeNetwork(Network &net)
{
    for (const StageOutline &s : outlineNetworkStages(net))
        signQuantizeLayer(net.layer(s.layer_index));
}

} // namespace nn
} // namespace scdcnn
