#include "sc/sng.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace scdcnn {
namespace sc {

Bitstream
constantStream(bool v, size_t length)
{
    Bitstream s(length);
    if (v) {
        for (auto &w : s.mutableWords())
            w = ~uint64_t{0};
        s.maskTail();
    }
    return s;
}

Bitstream
sngUnipolar(double p, size_t length, Lfsr &lfsr)
{
    p = std::clamp(p, 0.0, 1.0);
    // LFSR states are uniform over [1, period]; emit 1 iff state <= T.
    const uint64_t period = lfsr.period();
    const auto threshold =
        static_cast<uint64_t>(std::llround(p * static_cast<double>(period)));
    Bitstream s(length);
    auto &words = s.mutableWords();
    for (size_t i = 0; i < length; ++i) {
        if (lfsr.next() <= threshold && threshold > 0)
            words[i / 64] |= uint64_t{1} << (i % 64);
    }
    return s;
}

Bitstream
sngBipolar(double x, size_t length, Lfsr &lfsr)
{
    return sngUnipolar((x + 1.0) / 2.0, length, lfsr);
}

namespace {

/** Lanes 0 and 2 of a draw, each in the low half of a 32-bit slot. */
constexpr uint64_t kEvenLanes = 0x0000FFFF0000FFFFull;
/** Bit 31 of each 32-bit slot. */
constexpr uint64_t kSlotTops = 0x8000000080000000ull;

/**
 * The four stream bits of one 64-bit draw, in the top nibble: bit
 * 60 + j is set iff 16-bit lane j (lane 0 in the low bits) is below
 * the threshold T. @p bias holds 2^31 + T - 1 in both 32-bit slots, so
 * bias - lane keeps slot bit 31 exactly when lane < T, and never
 * borrows across slots (T <= 65536). No branches: at p = 0.5 a per-bit
 * branch is a coin flip.
 */
inline uint64_t
drawNibble(uint64_t draw, uint64_t bias)
{
    const uint64_t even = (bias - (draw & kEvenLanes)) & kSlotTops;
    const uint64_t odd = (bias - ((draw >> 16) & kEvenLanes)) & kSlotTops;
    // Lanes 0, 1 at bits 30, 31 and lanes 2, 3 at bits 62, 63.
    const uint64_t pairs = (even >> 1) | odd;
    return (pairs | pairs << 30) & 0xF000000000000000ull;
}

} // namespace

Bitstream
sngUnipolar(double p, size_t length, Xoshiro256ss &rng)
{
    p = std::clamp(p, 0.0, 1.0);
    // Compare 16-bit lanes of each 64-bit draw against a 16-bit
    // threshold: 4 stream bits per generator call, draw d filling bits
    // [4d, 4d + 4). The 1/65536 value quantization is far below
    // stochastic noise at practical lengths.
    const auto threshold =
        static_cast<uint64_t>(std::llround(p * 65536.0));
    const uint64_t slot_bias = (uint64_t{1} << 31) + threshold - 1;
    const uint64_t bias = slot_bias | slot_bias << 32;
    Bitstream s(length);
    // Each draw's nibble enters at the top of the word and moves down
    // four bits per later draw, so draw 0 ends in bits 0..3. The tail
    // word takes only the draws its bits need and is shifted down the
    // rest of the way; bits of its last draw past length are masked.
    size_t draws = (length + 3) / 4;
    for (uint64_t &out : s.mutableWords()) {
        const size_t n = std::min<size_t>(draws, 16);
        uint64_t word = 0;
        for (size_t d = 0; d < n; ++d)
            word = (word >> 4) | drawNibble(rng.next(), bias);
        out = word >> (4 * (16 - n));
        draws -= n;
    }
    s.maskTail();
    return s;
}

Bitstream
sngBipolar(double x, size_t length, Xoshiro256ss &rng)
{
    return sngUnipolar((x + 1.0) / 2.0, length, rng);
}

SngBank::SngBank(uint64_t master_seed) : seeder_(master_seed) {}

Bitstream
SngBank::bipolar(double x, size_t length)
{
    Xoshiro256ss rng(seeder_.next());
    return sngBipolar(x, length, rng);
}

Bitstream
SngBank::unipolar(double p, size_t length)
{
    Xoshiro256ss rng(seeder_.next());
    return sngUnipolar(p, length, rng);
}

Xoshiro256ss
SngBank::makeRng()
{
    return Xoshiro256ss(seeder_.next());
}

} // namespace sc
} // namespace scdcnn
