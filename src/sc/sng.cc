#include "sc/sng.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sc/simd.h"

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

/** pushNibble's bias for threshold @p t (<= 65536): 2^31 + T - 1 in
 *  both 32-bit slots. */
uint64_t
slotBias(uint32_t t)
{
    const uint64_t slot_bias = (uint64_t{1} << 31) + t - 1;
    return slot_bias | slot_bias << 32;
}

/**
 * Shift the four stream bits of one 64-bit draw into the top nibble
 * of @p word, moving its earlier bits down four places: bit 60 + j is
 * set iff 16-bit lane j (lane 0 in the low bits) of @p draw is below
 * the threshold T. @p bias holds 2^31 + T - 1 in both 32-bit slots, so
 * bias - lane keeps slot bit 31 exactly when lane < T, and never
 * borrows across slots (T <= 65536). No branches: at p = 0.5 a per-bit
 * branch is a coin flip. @p U is uint64_t, or a vector of them, which
 * applies the same arithmetic lane-wise (vectors pass by reference, so
 * none crosses a call built for another ISA).
 */
template <class U>
inline void
pushNibble(U &word, const U &draw, const U &bias)
{
    const U even = (bias - (draw & kEvenLanes)) & kSlotTops;
    const U odd = (bias - ((draw >> 16) & kEvenLanes)) & kSlotTops;
    // Lanes 0, 1 at bits 30, 31 and lanes 2, 3 at bits 62, 63.
    const U pairs = (even >> 1) | odd;
    word = (word >> 4) | ((pairs | pairs << 30) & 0xF000000000000000ull);
}

/** Bits of a stream's last word that lie inside @p length. */
uint64_t
tailMask(size_t length)
{
    return length % 64 == 0 ? ~uint64_t{0}
                            : (uint64_t{1} << (length % 64)) - 1;
}

/**
 * The scalar SNG: the stream of @p length bits at threshold @p t from
 * @p rng, word w written to out[w * stride]. Compares 16-bit lanes of
 * each 64-bit draw against the 16-bit threshold: 4 stream bits per
 * generator call, draw d filling bits [4d, 4d + 4). Each draw's nibble
 * enters at the top of the word and moves down four bits per later
 * draw, so draw 0 ends in bits 0..3. The tail word takes only the
 * draws its bits need and is shifted down the rest of the way; bits
 * of its last draw past length are masked.
 */
void
fillUnipolar(uint32_t t, size_t length, Xoshiro256ss &rng, uint64_t *out,
             size_t stride)
{
    const uint64_t bias = slotBias(t);
    const size_t n_words = (length + 63) / 64;
    size_t draws = (length + 3) / 4;
    for (size_t w = 0; w < n_words; ++w) {
        const size_t n = std::min<size_t>(draws, 16);
        uint64_t word = 0;
        for (size_t d = 0; d < n; ++d)
            pushNibble(word, rng.next(), bias);
        word >>= 4 * (16 - n);
        out[w * stride] = w + 1 == n_words ? word & tailMask(length) : word;
        draws -= n;
    }
}

#if defined(__x86_64__) && defined(__GNUC__)

/** Eight 64-bit lanes: one ymm pair on AVX2, one zmm on AVX-512. */
using Lanes = uint64_t __attribute__((vector_size(64)));

/**
 * sngLanes' vector body: fillUnipolar on kSngLanes generators at once.
 * The step is Xoshiro256ss::next() lane-wise, its multiplies by 5 and
 * 9 as shift-adds (exact mod 2^64, and no 64-bit vector multiply is
 * needed). No target of its own: it is always inlined into the
 * target-attributed entry points below, which compile it for their
 * tier.
 */
__attribute__((always_inline)) inline void
drawLanes(const uint64_t *seeds, const uint32_t *thresholds, size_t n_lanes,
          size_t length, uint64_t *out, size_t word_stride,
          size_t lane_stride)
{
    Lanes s0, s1, s2, s3, bias;
    for (size_t i = 0; i < kSngLanes; ++i) {
        // Idle lanes draw a zero stream they never store.
        const Xoshiro256ss rng(i < n_lanes ? seeds[i] : 0);
        s0[i] = rng.state(0);
        s1[i] = rng.state(1);
        s2[i] = rng.state(2);
        s3[i] = rng.state(3);
        bias[i] = slotBias(i < n_lanes ? thresholds[i] : 0);
    }
    const size_t n_words = (length + 63) / 64;
    size_t draws = (length + 3) / 4;
    for (size_t w = 0; w < n_words; ++w) {
        const size_t n = std::min<size_t>(draws, 16);
        Lanes word = {};
        for (size_t d = 0; d < n; ++d) {
            const Lanes x = (s1 << 2) + s1;
            const Lanes r = (x << 7) | (x >> 57);
            const Lanes draw = (r << 3) + r;
            const Lanes t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = (s3 << 45) | (s3 >> 19);
            pushNibble(word, draw, bias);
        }
        word >>= 4 * (16 - n);
        if (w + 1 == n_words)
            word &= tailMask(length);
        for (size_t i = 0; i < n_lanes; ++i)
            out[w * word_stride + i * lane_stride] = word[i];
        draws -= n;
    }
}

__attribute__((target("avx512f"))) void
drawLanesAvx512(const uint64_t *seeds, const uint32_t *thresholds,
                size_t n_lanes, size_t length, uint64_t *out,
                size_t word_stride, size_t lane_stride)
{
    drawLanes(seeds, thresholds, n_lanes, length, out, word_stride,
              lane_stride);
}

__attribute__((target("avx2"))) void
drawLanesAvx2(const uint64_t *seeds, const uint32_t *thresholds,
              size_t n_lanes, size_t length, uint64_t *out,
              size_t word_stride, size_t lane_stride)
{
    drawLanes(seeds, thresholds, n_lanes, length, out, word_stride,
              lane_stride);
}

#endif

} // namespace

uint32_t
unipolarThreshold(double p)
{
    // The 1/65536 value quantization is far below stochastic noise at
    // practical lengths.
    return static_cast<uint32_t>(
        std::llround(std::clamp(p, 0.0, 1.0) * 65536.0));
}

uint32_t
bipolarThreshold(double x)
{
    return unipolarThreshold((x + 1.0) / 2.0);
}

Bitstream
sngUnipolar(double p, size_t length, Xoshiro256ss &rng)
{
    Bitstream s(length);
    fillUnipolar(unipolarThreshold(p), length, rng, s.mutableWords().data(),
                 1);
    return s;
}

Bitstream
sngBipolar(double x, size_t length, Xoshiro256ss &rng)
{
    return sngUnipolar((x + 1.0) / 2.0, length, rng);
}

void
sngLanes(const uint64_t *seeds, const uint32_t *thresholds, size_t n_lanes,
         size_t length, uint64_t *out, size_t word_stride,
         size_t lane_stride)
{
    SCDCNN_ASSERT(n_lanes <= kSngLanes, "%zu SNG lanes exceed %zu", n_lanes,
                  kSngLanes);
#if defined(__x86_64__) && defined(__GNUC__)
    if (simd::avx512Enabled())
        return drawLanesAvx512(seeds, thresholds, n_lanes, length, out,
                               word_stride, lane_stride);
    if (simd::enabled())
        return drawLanesAvx2(seeds, thresholds, n_lanes, length, out,
                             word_stride, lane_stride);
#endif
    for (size_t i = 0; i < n_lanes; ++i) {
        Xoshiro256ss rng(seeds[i]);
        fillUnipolar(thresholds[i], length, rng, out + i * lane_stride,
                     word_stride);
    }
}

SngBank::SngBank(uint64_t master_seed) : master_seed_(master_seed) {}

Bitstream
SngBank::bipolar(double x, size_t length)
{
    Xoshiro256ss rng(seedAt(next_++));
    return sngBipolar(x, length, rng);
}

Bitstream
SngBank::unipolar(double p, size_t length)
{
    Xoshiro256ss rng(seedAt(next_++));
    return sngUnipolar(p, length, rng);
}

Xoshiro256ss
SngBank::makeRng()
{
    return Xoshiro256ss(seedAt(next_++));
}

} // namespace sc
} // namespace scdcnn
