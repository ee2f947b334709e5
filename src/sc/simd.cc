#include "sc/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "sc/fused.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define SCDCNN_SIMD_X86 1
#include <immintrin.h>
#else
#define SCDCNN_SIMD_X86 0
#endif

namespace scdcnn {
namespace sc {
namespace simd {

namespace {

/** The SIMD tier in use: -1 = not yet decided, 0 = scalar, 1 = AVX2,
 *  2 = AVX2 plus the AVX-512 pair kernels. */
std::atomic<int> g_tier{-1};

/** SCDCNN_FORCE_SCALAR forces the scalar path when set to anything
 *  but empty or "0" (so FORCE_SCALAR=0 keeps AVX2 selected). */
bool
forcedScalar()
{
    const char *v = std::getenv("SCDCNN_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/** The highest tier the binary and the CPU support. */
int
hostTier()
{
#if SCDCNN_SIMD_X86
    if (!__builtin_cpu_supports("avx2"))
        return 0;
    return __builtin_cpu_supports("avx512f") ? 2 : 1;
#else
    return 0;
#endif
}

int
tier()
{
    int state = g_tier.load(std::memory_order_relaxed);
    if (state < 0) {
        state = forcedScalar() ? 0 : hostTier();
        g_tier.store(state, std::memory_order_relaxed);
    }
    return state;
}

} // namespace

bool
available()
{
    return hostTier() > 0;
}

bool
enabled()
{
    return tier() >= 1;
}

bool
avx512Enabled()
{
    return tier() == 2;
}

void
setEnabled(bool on)
{
    g_tier.store(on ? hostTier() : 0, std::memory_order_relaxed);
}

void
planeSumWeightsInit(PlaneSumWeights &wts, size_t n_planes, bool parity)
{
    SCDCNN_ASSERT(n_planes <= 12, "plane count %zu exceeds the 3-quad "
                                  "weight table",
                  n_planes);
    wts.n_planes = n_planes;
    wts.parity = parity;
    wts.base = parity ? 1 : 0;
    wts.quads =
        n_planes > wts.base ? (n_planes - wts.base + 3) / 4 : 0;
    for (size_t q = 0; q < 3; ++q) {
        wts.shift[q] = static_cast<unsigned>(wts.base + 4 * q);
        for (size_t b = 0; b < 32; ++b)
            wts.w[q][b] = 0;
    }
    for (size_t p = wts.base; p < n_planes; ++p) {
        const size_t i = p - wts.base;
        for (size_t b = 0; b < 8; ++b)
            wts.w[i / 4][(i % 4) * 8 + b] =
                static_cast<uint8_t>(1u << (i % 4));
    }
}

namespace {

/** Scalar twin of avx2PlaneWordSumsMulti. */
void
planeWordSumsScalar(const uint64_t *const *bufs, size_t n_bufs,
                    size_t pstride, size_t n_words,
                    const PlaneSumWeights &wts, uint16_t *sums)
{
    for (size_t b = 0; b < n_bufs; ++b) {
        for (size_t q = 0; q < n_words; ++q) {
            const uint64_t *pw = bufs[b] + q * pstride;
            uint16_t *dst = sums + (b * n_words + q) * 4;
            for (size_t g = 0; g < 4; ++g) {
                const auto group = [g](uint64_t v) {
                    return static_cast<unsigned>(
                        __builtin_popcountll((v >> (16 * g)) & 0xFFFF));
                };
                unsigned sum = 0;
                for (size_t p = wts.base; p < wts.n_planes; ++p)
                    sum += group(pw[p]) << p;
                if (wts.parity)
                    sum += group(pw[wts.n_planes]);
                dst[g] = static_cast<uint16_t>(sum);
            }
        }
    }
}

/** Scalar twin of the spreadGroup transpose. */
void
spreadPlanesGroupScalar(const uint64_t *pw, size_t n_planes, bool parity,
                        size_t group, uint16_t *out)
{
    for (size_t i = 0; i < 16; ++i) {
        const size_t b = group * 16 + i;
        uint16_t c = 0;
        for (size_t j = 0; j < n_planes; ++j)
            c |= static_cast<uint16_t>((pw[j] >> b) & 1) << j;
        if (parity)
            c = static_cast<uint16_t>(
                (c & ~uint16_t{1}) |
                static_cast<uint16_t>((pw[n_planes] >> b) & 1));
        out[i] = c;
    }
}

/** Scalar twin of avx2SpreadPlanesSelected. */
void
spreadPlanesSelectedScalar(const uint64_t *const *planes, size_t n_pixels,
                           size_t n_inputs, size_t n_planes, bool parity,
                           const uint8_t *sel, size_t n_groups,
                           uint16_t *const *outs)
{
    const size_t pstride = n_planes + 1;
    for (size_t j = 0; j < n_pixels; ++j)
        for (size_t g = 0; g < n_groups; ++g)
            spreadPlanesGroupScalar(
                planes[j * n_inputs + sel[j * n_groups + g]] +
                    (g / 4) * pstride,
                n_planes, parity, g % 4, outs[j] + g * 16);
}

} // namespace

#if SCDCNN_SIMD_X86

namespace {

/** Per-byte popcount: nibble lookup via PSHUFB. */
__attribute__((target("avx2"))) inline __m256i
popcountBytes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
        2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i nibble = _mm256_set1_epi8(0x0F);
    const __m256i lo = _mm256_and_si256(v, nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Sum of the four 64-bit lanes. */
__attribute__((target("avx2"))) inline uint64_t
horizontalSum64(__m256i v)
{
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/** Column counts of one 16-cycle group of a word's bit-planes: plane j
 *  is pw[j * stride], and lane l of the result holds the count of
 *  column 16 * group + l. With @p parity the count LSB is replaced by
 *  that column's bit of the parity word pw[n_planes * stride] (the
 *  approximate-counter substitution), so plane 0 is never read. */
__attribute__((target("avx2"))) inline __m256i
spreadGroup(const uint64_t *pw, size_t stride, size_t n_planes,
            bool parity, size_t group)
{
    // Lane l's column bit is bit l % 8 of byte 2 * group + l / 8 of the
    // plane word: a byte shuffle of the broadcast word puts that byte
    // under the lane (lanes 0-7 sit in the low 128-bit half, 8-15 in
    // the high one), a mask test widens the bit to 0 / all-ones, and
    // Horner's rule, planes high to low, weights it (acc = 2 acc + bit,
    // with the all-ones lane as -1).
    const __m256i bytes = _mm256_add_epi16(
        _mm256_setr_epi16(-0x8000, -0x8000, -0x8000, -0x8000, -0x8000,
                          -0x8000, -0x8000, -0x8000, -0x7FFF, -0x7FFF,
                          -0x7FFF, -0x7FFF, -0x7FFF, -0x7FFF, -0x7FFF,
                          -0x7FFF),
        _mm256_set1_epi16(static_cast<short>(2 * group)));
    const __m256i bit = _mm256_setr_epi16(1, 2, 4, 8, 16, 32, 64, 128, 1,
                                          2, 4, 8, 16, 32, 64, 128);
    const auto column = [&](uint64_t word) __attribute__((target("avx2"))) {
        const __m256i b = _mm256_shuffle_epi8(
            _mm256_set1_epi64x(static_cast<long long>(word)), bytes);
        return _mm256_cmpeq_epi16(_mm256_and_si256(b, bit), bit);
    };
    __m256i acc = _mm256_setzero_si256();
    const size_t low = parity ? 1 : 0;
    for (size_t j = n_planes; j-- > low;)
        acc = _mm256_sub_epi16(_mm256_add_epi16(acc, acc),
                               column(pw[j * stride]));
    if (parity)
        acc = _mm256_sub_epi16(_mm256_add_epi16(acc, acc),
                               column(pw[n_planes * stride]));
    return acc;
}

/** spreadGroup over all four groups: 64 counts into out[0..64). */
__attribute__((target("avx2"))) inline void
spreadWord(const uint64_t *pw, size_t stride, size_t n_planes,
           bool parity, uint16_t *out)
{
    for (size_t g = 0; g < 4; ++g)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + g * 16),
            spreadGroup(pw, stride, n_planes, parity, g));
}

// --- The APC fold: mismatch lines through a Harley-Seal chain ---------
//
// One fold reduces n lines of V::kLanes x 64 columns to the canonical
// bit-planes of their column counts, plus the approximate counter's
// parity word. Every APC kernel is an emitter around it. A vector
// policy V supplies the register, its carry-save adder and its line
// loads:
//
// - Avx2Fold: a ymm of four 64-bit columns (the four filter lanes of
//   one image's word, or four consecutive words of one stream); a
//   carry-save adder is five and/or/xor ops.
// - Avx512Fold: a zmm holding an image pair, image A's four filter
//   lanes in its low 256 bits and image B's in its high 256, against
//   the block's weight row broadcast to both halves; a carry-save
//   adder is two vpternlogq (0x96 sum, 0xE8 majority carry).
//
// The schedule is written once, in foldApc:
// - The fold counts *mismatch* lines x ^ w, so no line pays for the
//   XNOR's complement; the match count c = n - m is formed once per
//   fold by a bit-sliced borrow chain over planeCapForTaps(n) planes.
// - Lines accumulate through a Harley-Seal carry-save chain: each 16
//   lines feed the ones, twos, fours and eights planes through 15
//   carry-save adders, and the sixteens carry ripples into the high
//   planes at 2 ops per plane. With the 16 mismatch XORs that is 91
//   vector ops per 16 lines on AVX2 and 46 (plus the pair's 16 masked
//   broadcasts) on AVX-512 for twice the lanes, + 2 per high plane.
//   The schedule is fixed: no data-dependent branch remains in the
//   hot loop.
// - Leftover lines (n % 16) fold in pairs through one carry-save adder
//   whose twos carry ripples up; an odd last line takes a half adder.
// - The ones plane is the running XOR of every folded line, so the
//   parity of the first min(4, n) lines is read off it as soon as they
//   are in (ones starts at zero), and inverted when counting
//   mismatches of an odd number of lines.
//
// foldApc and the emitters carry no target attribute: the policies'
// target-specific code reaches them only through references (no
// vector crosses a call of a function built without AVX, which would
// change its ABI), and the target-attributed kernel entry points are
// `flatten`, so the whole chain is inlined and compiled for the
// entry point's ISA.

/** 256-bit fold lanes: one image, kFilterLanes columns per register. */
struct Avx2Fold
{
    using Vec = __m256i;
    static constexpr size_t kImages = 1;
    static constexpr size_t kLanes = kFilterLanes;

    /** Carry-save adder: a + b + c = lo + 2 * hi, per bit column. */
    __attribute__((target("avx2"))) static void
    csa(Vec &hi, Vec &lo, const Vec &a, const Vec &b, const Vec &c)
    {
        const Vec u = _mm256_xor_si256(a, b);
        const Vec carry =
            _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
        lo = _mm256_xor_si256(u, c);
        hi = carry;
    }

    /** Mismatch line @p i of a tile word row (rows[0]): the tap's word
     *  broadcast against the block's kFilterLanes weight words. */
    __attribute__((target("avx2"))) static void
    tileLine(Vec &line, const uint64_t *const *rows, const uint64_t *wrow,
             size_t i)
    {
        line = _mm256_xor_si256(
            _mm256_set1_epi64x(static_cast<long long>(rows[0][i])),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                wrow + i * kFilterLanes)));
    }
};

/** 512-bit fold lanes: an image pair, kFilterLanes columns of each. */
struct Avx512Fold
{
    using Vec = __m512i;
    static constexpr size_t kImages = 2;
    static constexpr size_t kLanes = 2 * kFilterLanes;

    /** Carry-save adder: a + b + c = lo + 2 * hi, per bit column. */
    __attribute__((target("avx512f"))) static void
    csa(Vec &hi, Vec &lo, const Vec &a, const Vec &b, const Vec &c)
    {
        const Vec carry = _mm512_ternarylogic_epi64(a, b, c, 0xE8);
        lo = _mm512_ternarylogic_epi64(a, b, c, 0x96);
        hi = carry;
    }

    /** Mismatch line @p i of the pair's word rows: image A's tap word
     *  in the low four lanes and B's in the high four (one broadcast,
     *  one masked broadcast) against the weight row in both halves. */
    __attribute__((target("avx512f"))) static void
    tileLine(Vec &line, const uint64_t *const *rows, const uint64_t *wrow,
             size_t i)
    {
        line = _mm512_xor_si512(
            _mm512_mask_set1_epi64(
                _mm512_set1_epi64(static_cast<long long>(rows[0][i])),
                0xF0, static_cast<long long>(rows[1][i])),
            _mm512_maskz_broadcast_i64x4(
                0xFF, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                          wrow + i * kFilterLanes))));
    }
};

/** Half adder of @p carry into @p plane; carry becomes the carry-out. */
template <class Vec>
inline void
halfAdd(Vec &plane, Vec &carry)
{
    const Vec t = plane & carry;
    plane ^= carry;
    carry = t;
}

/** Lines of the single-image kernel: four consecutive words of stream
 *  i, raw (ws == nullptr) or as mismatches against ws[i]. */
struct StreamLines
{
    const BitstreamView *xs;
    const BitstreamView *ws;
    size_t w;

    __attribute__((target("avx2"))) void operator()(size_t i,
                                                    __m256i &line) const
    {
        line = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(xs[i].words + w));
        if (ws != nullptr)
            line = _mm256_xor_si256(
                line, _mm256_loadu_si256(
                          reinterpret_cast<const __m256i *>(ws[i].words + w)));
    }
};

/**
 * The APC fold over lines 0 .. n, line(i, v) loading line i into v
 * (through that reference only, see above): pw[p][0..V::kLanes)
 * receives plane p of the column counts for p < n_planes =
 * planeCapForTaps(n), and pw[n_planes] the parity of the first
 * @p parity_lines counted lines (zero when parity_lines == 0). With
 * @p mismatch the lines are mismatches and the planes and parity are
 * those of the match lines.
 */
template <class V, class Lines>
inline void
foldApc(const Lines &line, size_t n, size_t n_planes, size_t parity_lines,
        bool mismatch, uint64_t (*pw)[V::kLanes])
{
    using Vec = typename V::Vec;
    const Vec zero{};
    Vec ones = zero, twos = zero, fours = zero, eights = zero;
    Vec lsb = zero;
    Vec high[kMaxCarrySavePlanes - 4] = {}; // planes 4 .. n_planes
    const auto carry_high = [&high, n_planes](Vec &carry) {
        for (size_t p = 4; p < n_planes; ++p)
            halfAdd(high[p - 4], carry);
    };
    // Lines i and i + 1 into ones; their twos carry into @p hi.
    const auto add_pair = [&line, &ones](Vec &hi, size_t i) {
        Vec a, b;
        line(i, a);
        line(i + 1, b);
        V::csa(hi, ones, ones, a, b);
    };

    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        Vec twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
        Vec sixteens;
        add_pair(twos_a, i);
        add_pair(twos_b, i + 2);
        if (i == 0)
            lsb = ones; // ones started at zero: lines 0..3's parity
        V::csa(fours_a, twos, twos, twos_a, twos_b);
        add_pair(twos_a, i + 4);
        add_pair(twos_b, i + 6);
        V::csa(fours_b, twos, twos, twos_a, twos_b);
        V::csa(eights_a, fours, fours, fours_a, fours_b);
        add_pair(twos_a, i + 8);
        add_pair(twos_b, i + 10);
        V::csa(fours_a, twos, twos, twos_a, twos_b);
        add_pair(twos_a, i + 12);
        add_pair(twos_b, i + 14);
        V::csa(fours_b, twos, twos, twos_a, twos_b);
        V::csa(eights_b, fours, fours, fours_a, fours_b);
        V::csa(sixteens, eights, eights, eights_a, eights_b);
        carry_high(sixteens);
    }
    for (; i < n; i += 2) {
        Vec carry;
        if (i + 1 < n) {
            add_pair(carry, i);
        } else {
            line(i, carry);
            halfAdd(ones, carry);
        }
        if (std::min(i + 2, n) == parity_lines)
            lsb = ones; // n < 16: the first parity_lines lines are in
        halfAdd(twos, carry);
        halfAdd(fours, carry);
        halfAdd(eights, carry);
        carry_high(carry);
    }

    const Vec low[4] = {ones, twos, fours, eights};
    Vec borrow = zero;
    for (size_t p = 0; p < n_planes; ++p) {
        Vec plane = p < 4 ? low[p] : high[p - 4];
        if (mismatch) {
            // Bit p of n - m, with the borrow of the planes below.
            const Vec m = plane;
            plane = m ^ borrow;
            if ((n >> p) & 1) {
                plane = ~plane;
                borrow = m & borrow;
            } else {
                borrow = m | borrow;
            }
        }
        std::memcpy(pw[p], &plane, sizeof plane);
    }
    if (parity_lines == 0)
        lsb = zero;
    else if (mismatch && (parity_lines & 1) != 0)
        lsb = ~lsb;
    std::memcpy(pw[n_planes], &lsb, sizeof lsb);
}

/** Words of [begin_word, end_word) the tile kernels fold: the full
 *  ones (the stream's partial tail word, if the range reaches it,
 *  stays with the scalar caller, so no tail masking is needed). */
size_t
fullTileWords(const WeightBlockView &block, size_t begin_word,
              size_t end_word)
{
    const size_t full_end = std::min(end_word, block.length / 64);
    return full_end > begin_word ? full_end - begin_word : 0;
}

/**
 * The run loop of the tile kernels, word outer and block inner (the
 * policy's images' word rows stay in L1 while every block of the run
 * folds against them): folds the full words of [begin_word, end_word)
 * of the V::kImages tiles and hands each (image k, range-local word q,
 * run lane r) column to emit(k, q, r, col, n_planes), plane p at
 * col[p * V::kLanes] and the parity word at col[n_planes * V::kLanes].
 * Only each block's real lanes are emitted.
 *
 * @return the number of words folded.
 */
template <class V, class Emit>
inline size_t
foldTileRun(const uint64_t *const *tiles, const WeightBlockView *blocks,
            size_t n_blocks, size_t parity_lines, size_t begin_word,
            size_t end_word, const Emit &emit)
{
    const size_t n_words = fullTileWords(blocks[0], begin_word, end_word);
    const size_t taps = blocks[0].taps;
    const size_t n_planes = planeCapForTaps(taps);
    SCDCNN_ASSERT(n_planes <= kMaxCarrySavePlanes, "too many input streams");
    for (size_t q = 0; q < n_words; ++q) {
        const uint64_t *rows[V::kImages];
        for (size_t k = 0; k < V::kImages; ++k)
            rows[k] = tiles[k] + q * taps;
        for (size_t b = 0; b < n_blocks; ++b) {
            const uint64_t *wrow = blocks[b].at(begin_word + q, 0);
            alignas(64) uint64_t pw[kMaxCarrySavePlanes + 1][V::kLanes];
            foldApc<V>(
                [&rows, wrow](size_t i, typename V::Vec &line) {
                    V::tileLine(line, rows, wrow, i);
                },
                taps, n_planes, parity_lines, true, pw);
            for (size_t k = 0; k < V::kImages; ++k)
                for (size_t f = 0; f < blocks[b].lanes; ++f)
                    emit(k, q, b * kFilterLanes + f,
                         &pw[0][k * kFilterLanes + f], n_planes);
        }
    }
    return n_words;
}

/** Counts emitter of the tile kernels: each column transposed into 64
 *  per-cycle counts at outs[k][r * lane_stride + q * 64]. */
template <class V>
inline size_t
productCountsTiles(const uint64_t *const *tiles,
                   const WeightBlockView *blocks, size_t n_blocks,
                   size_t parity_lines, size_t begin_word, size_t end_word,
                   uint16_t *const *outs, size_t lane_stride)
{
    return foldTileRun<V>(
        tiles, blocks, n_blocks, parity_lines, begin_word, end_word,
        [&](size_t k, size_t q, size_t r, const uint64_t *col,
            size_t n_planes) {
            spreadWord(col, V::kLanes, n_planes, parity_lines > 0,
                       outs[k] + r * lane_stride + q * 64);
        });
}

/** Planes emitter of the tile kernels: each column's planes, zeroed up
 *  to @p plane_cap, and its parity word at outs[k][r * lane_stride +
 *  q * (plane_cap + 1)]. */
template <class V>
inline size_t
productPlanesTiles(const uint64_t *const *tiles,
                   const WeightBlockView *blocks, size_t n_blocks,
                   size_t parity_lines, size_t begin_word, size_t end_word,
                   size_t plane_cap, uint64_t *const *outs,
                   size_t lane_stride)
{
    SCDCNN_ASSERT(planeCapForTaps(blocks[0].taps) <= plane_cap,
                  "fold needs %zu planes, cap %zu",
                  planeCapForTaps(blocks[0].taps), plane_cap);
    return foldTileRun<V>(
        tiles, blocks, n_blocks, parity_lines, begin_word, end_word,
        [&](size_t k, size_t q, size_t r, const uint64_t *col,
            size_t n_planes) {
            uint64_t *dst =
                outs[k] + r * lane_stride + q * (plane_cap + 1);
            size_t p = 0;
            for (; p < n_planes; ++p)
                dst[p] = col[p * V::kLanes];
            for (; p < plane_cap; ++p)
                dst[p] = 0;
            dst[plane_cap] = col[n_planes * V::kLanes];
        });
}

} // namespace

__attribute__((target("avx2"), flatten)) size_t
avx2ProductCountBlocks(const BitstreamView *xs, const BitstreamView *ws,
                       size_t n, size_t length, size_t parity_lines,
                       uint16_t *out)
{
    if (!enabled())
        return 0;
    const size_t n_full_words = (length / 256) * 4;
    const size_t n_planes = planeCapForTaps(n);
    SCDCNN_ASSERT(n_planes <= kMaxCarrySavePlanes, "too many input streams");
    for (size_t w = 0; w < n_full_words; w += 4) {
        alignas(32) uint64_t pw[kMaxCarrySavePlanes + 1][4];
        foldApc<Avx2Fold>(StreamLines{xs, ws, w}, n, n_planes,
                          parity_lines, ws != nullptr, pw);
        for (size_t lane = 0; lane < 4; ++lane)
            spreadWord(&pw[0][lane], 4, n_planes, parity_lines > 0,
                       out + (w + lane) * 64);
    }
    return n_full_words;
}

__attribute__((target("avx2"), flatten)) size_t
avx2ProductCountsTile(const uint64_t *tile, const WeightBlockView *blocks,
                      size_t n_blocks, size_t parity_lines,
                      size_t begin_word, size_t end_word, uint16_t *out,
                      size_t lane_stride)
{
    if (!enabled())
        return 0;
    return productCountsTiles<Avx2Fold>(&tile, blocks, n_blocks,
                                        parity_lines, begin_word, end_word,
                                        &out, lane_stride);
}

__attribute__((target("avx2"), flatten)) size_t
avx2ProductPlanesTile(const uint64_t *tile, const WeightBlockView *blocks,
                      size_t n_blocks, size_t parity_lines,
                      size_t begin_word, size_t end_word, size_t plane_cap,
                      uint64_t *out, size_t lane_stride)
{
    if (!enabled())
        return 0;
    return productPlanesTiles<Avx2Fold>(&tile, blocks, n_blocks,
                                        parity_lines, begin_word, end_word,
                                        plane_cap, &out, lane_stride);
}

__attribute__((target("avx512f"), flatten)) size_t
avx512ProductCountsTilePair(const uint64_t *const tiles[2],
                            const WeightBlockView *blocks, size_t n_blocks,
                            size_t parity_lines, size_t begin_word,
                            size_t end_word, uint16_t *const outs[2],
                            size_t lane_stride)
{
    if (!avx512Enabled())
        return 0;
    return productCountsTiles<Avx512Fold>(tiles, blocks, n_blocks,
                                          parity_lines, begin_word,
                                          end_word, outs, lane_stride);
}

__attribute__((target("avx512f"), flatten)) size_t
avx512ProductPlanesTilePair(const uint64_t *const tiles[2],
                            const WeightBlockView *blocks, size_t n_blocks,
                            size_t parity_lines, size_t begin_word,
                            size_t end_word, size_t plane_cap,
                            uint64_t *const outs[2], size_t lane_stride)
{
    if (!avx512Enabled())
        return 0;
    return productPlanesTiles<Avx512Fold>(tiles, blocks, n_blocks,
                                          parity_lines, begin_word,
                                          end_word, plane_cap, outs,
                                          lane_stride);
}

void
avx2SpreadPlanesWord(const uint64_t *pw, size_t n_planes, bool parity,
                     uint16_t *out)
{
    SCDCNN_ASSERT(n_planes < 16, "plane count %zu too large", n_planes);
    if (enabled()) {
        spreadWord(pw, 1, n_planes, parity, out);
        return;
    }
    for (size_t g = 0; g < 4; ++g)
        spreadPlanesGroupScalar(pw, n_planes, parity, g, out + g * 16);
}

__attribute__((target("avx2"))) static void
avx2PlaneWordSumsMultiImpl(const uint64_t *const *bufs, size_t n_bufs,
                           size_t pstride, size_t n_words,
                           const PlaneSumWeights &wts, uint16_t *sums)
{
    // One quad = planes [base + 4q, base + 4q + 4) in the four 64-bit
    // ymm lanes. maddubs pairs byte popcounts with the per-byte
    // relative digit weights 2^i: a 16-bit product lane covers bytes
    // 2i, 2i+1 — one 16-cycle group of one plane (<= 16 * 8 = 128, no
    // maddubs saturation). Scaled by the quad's shift, every lane and
    // every partial sum stays below the 16-bit group-sum bound, so the
    // quads and the parity word (all-ones weights in the first lane of
    // its broadcast) add up in 16-bit lanes; folding the four 64-bit
    // lanes leaves the word's four group sums.
    __m256i w[3];
    __m128i shift[3];
    for (size_t q = 0; q < wts.quads; ++q) {
        w[q] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(wts.w[q]));
        shift[q] = _mm_cvtsi32_si128(static_cast<int>(wts.shift[q]));
    }
    const __m256i parity_w = _mm256_setr_epi64x(0x0101010101010101, 0, 0, 0);
    for (size_t b = 0; b < n_bufs; ++b) {
        const uint64_t *pw = bufs[b];
        uint16_t *dst = sums + b * n_words * 4;
        for (size_t q = 0; q < n_words; ++q, pw += pstride, dst += 4) {
            __m256i acc = _mm256_setzero_si256();
            for (size_t i = 0; i < wts.quads; ++i) {
                const __m256i v = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(pw + wts.base + i * 4));
                acc = _mm256_add_epi16(
                    acc, _mm256_sll_epi16(
                             _mm256_maddubs_epi16(popcountBytes(v), w[i]),
                             shift[i]));
            }
            if (wts.parity)
                acc = _mm256_add_epi16(
                    acc, _mm256_maddubs_epi16(
                             popcountBytes(_mm256_set1_epi64x(
                                 static_cast<long long>(pw[wts.n_planes]))),
                             parity_w));
            __m128i t = _mm_add_epi16(_mm256_castsi256_si128(acc),
                                      _mm256_extracti128_si256(acc, 1));
            t = _mm_add_epi16(t, _mm_srli_si128(t, 8));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst), t);
        }
    }
}

void
avx2PlaneWordSumsMulti(const uint64_t *const *bufs, size_t n_bufs,
                       size_t pstride, size_t n_words,
                       const PlaneSumWeights &wts, uint16_t *sums)
{
    if (enabled()) {
        avx2PlaneWordSumsMultiImpl(bufs, n_bufs, pstride, n_words, wts,
                                   sums);
        return;
    }
    planeWordSumsScalar(bufs, n_bufs, pstride, n_words, wts, sums);
}

__attribute__((target("avx2"))) static void
avx2SpreadPlanesSelectedImpl(const uint64_t *const *planes,
                             size_t n_pixels, size_t n_inputs,
                             size_t n_planes, bool parity,
                             const uint8_t *sel, size_t n_groups,
                             uint16_t *const *outs)
{
    const size_t pstride = n_planes + 1;
    for (size_t j = 0; j < n_pixels; ++j) {
        const uint64_t *const *in = planes + j * n_inputs;
        const uint8_t *row = sel + j * n_groups;
        for (size_t g = 0; g < n_groups; ++g)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(outs[j] + g * 16),
                spreadGroup(in[row[g]] + (g / 4) * pstride, 1, n_planes,
                            parity, g % 4));
    }
}

void
avx2SpreadPlanesSelected(const uint64_t *const *planes, size_t n_pixels,
                         size_t n_inputs, size_t n_planes, bool parity,
                         const uint8_t *sel, size_t n_groups,
                         uint16_t *const *outs)
{
    SCDCNN_ASSERT(n_planes < 16, "plane count %zu too large", n_planes);
    if (enabled()) {
        avx2SpreadPlanesSelectedImpl(planes, n_pixels, n_inputs, n_planes,
                                     parity, sel, n_groups, outs);
        return;
    }
    spreadPlanesSelectedScalar(planes, n_pixels, n_inputs, n_planes,
                               parity, sel, n_groups, outs);
}

__attribute__((target("avx2"))) size_t
avx2ProductCountTotal(const BitstreamView *xs, const BitstreamView *ws,
                      size_t n, size_t begin_word, size_t end_word,
                      size_t parity_lines, uint64_t *total,
                      uint64_t *exact_lsb_ones, uint64_t *approx_lsb_ones)
{
    if (!enabled())
        return 0;
    const size_t n_full_words =
        end_word > begin_word ? ((end_word - begin_word) / 4) * 4 : 0;
    const __m256i all_ones = _mm256_set1_epi8(-1);
    const __m256i zero = _mm256_setzero_si256();

    __m256i total_acc = zero;
    __m256i exact_acc = zero;
    __m256i approx_acc = zero;
    for (size_t w = begin_word; w < begin_word + n_full_words; w += 4) {
        __m256i parity_all = zero;
        __m256i parity_leading = zero;
        for (size_t i = 0; i < n; ++i) {
            const __m256i xv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(xs[i].words + w));
            const __m256i wv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(ws[i].words + w));
            const __m256i product = _mm256_xor_si256(
                _mm256_xor_si256(xv, wv), all_ones);
            total_acc = _mm256_add_epi64(
                total_acc, _mm256_sad_epu8(popcountBytes(product), zero));
            parity_all = _mm256_xor_si256(parity_all, product);
            if (i < parity_lines)
                parity_leading = _mm256_xor_si256(parity_leading, product);
        }
        exact_acc = _mm256_add_epi64(
            exact_acc, _mm256_sad_epu8(popcountBytes(parity_all), zero));
        approx_acc = _mm256_add_epi64(
            approx_acc,
            _mm256_sad_epu8(popcountBytes(parity_leading), zero));
    }
    *total += horizontalSum64(total_acc);
    *exact_lsb_ones += horizontalSum64(exact_acc);
    *approx_lsb_ones += horizontalSum64(approx_acc);
    return n_full_words;
}

__attribute__((target("avx2"))) static uint64_t
avx2SumU16Impl(const uint16_t *values, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t sum = 0;
    size_t i = 0;
    while (i + 16 <= n) {
        // Zero-extend to 32-bit lanes (full uint16 range) and flush
        // the lane accumulators to 64 bits before they can overflow:
        // each of the 8 lanes gains at most 2 * 65535 per iteration,
        // so 2^14 iterations stay under 2^31.
        __m256i acc = zero;
        const size_t chunk_end =
            std::min(n - (n - i) % 16, i + (size_t{1} << 14) * 16);
        for (; i + 16 <= chunk_end; i += 16) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(values + i));
            acc = _mm256_add_epi32(acc,
                                   _mm256_unpacklo_epi16(v, zero));
            acc = _mm256_add_epi32(acc,
                                   _mm256_unpackhi_epi16(v, zero));
        }
        alignas(32) uint32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (uint32_t l : lanes)
            sum += l;
    }
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

uint64_t
avx2SumU16(const uint16_t *values, size_t n)
{
    if (!enabled() || n < 32) {
        uint64_t sum = 0;
        for (size_t i = 0; i < n; ++i)
            sum += values[i];
        return sum;
    }
    return avx2SumU16Impl(values, n);
}

/** In-place 16x16 uint16 transpose: m[r] holds row r (16 consecutive
 *  cycles of stream r); afterwards m[c] holds column c (all 16 streams
 *  at cycle c). Three unpack stages + a cross-lane permute. */
__attribute__((target("avx2"))) static void
transpose16x16Epi16(__m256i m[16])
{
    __m256i a[16], b[16];
    for (int i = 0; i < 8; ++i) {
        a[2 * i] = _mm256_unpacklo_epi16(m[2 * i], m[2 * i + 1]);
        a[2 * i + 1] = _mm256_unpackhi_epi16(m[2 * i], m[2 * i + 1]);
    }
    for (int q = 0; q < 4; ++q) {
        b[4 * q + 0] =
            _mm256_unpacklo_epi32(a[4 * q + 0], a[4 * q + 2]);
        b[4 * q + 1] =
            _mm256_unpackhi_epi32(a[4 * q + 0], a[4 * q + 2]);
        b[4 * q + 2] =
            _mm256_unpacklo_epi32(a[4 * q + 1], a[4 * q + 3]);
        b[4 * q + 3] =
            _mm256_unpackhi_epi32(a[4 * q + 1], a[4 * q + 3]);
    }
    // After this stage, a[8h + c] holds streams 8h..8h+7 at cycle c
    // (low lane) and cycle c + 8 (high lane).
    for (int h = 0; h < 2; ++h) {
        for (int j = 0; j < 4; ++j) {
            a[8 * h + 2 * j] =
                _mm256_unpacklo_epi64(b[8 * h + j], b[8 * h + 4 + j]);
            a[8 * h + 2 * j + 1] =
                _mm256_unpackhi_epi64(b[8 * h + j], b[8 * h + 4 + j]);
        }
    }
    for (int c = 0; c < 8; ++c) {
        m[c] = _mm256_permute2x128_si256(a[c], a[8 + c], 0x20);
        m[c + 8] = _mm256_permute2x128_si256(a[c], a[8 + c], 0x31);
    }
}

__attribute__((target("avx2"))) static size_t
avx2BtanhWordsBatchImpl(const uint16_t *const *counts, size_t n_full,
                        uint64_t *const *outs, uint16_t *const *states,
                        size_t n_streams, unsigned k, unsigned n_inputs)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i vmax = _mm256_set1_epi16(static_cast<short>(k - 1));
    const __m256i vthr =
        _mm256_set1_epi16(static_cast<short>(k / 2 - 1));
    const __m256i vn = _mm256_set1_epi16(static_cast<short>(n_inputs));
    for (size_t s0 = 0; s0 < n_streams; s0 += 16) {
        const size_t tile = std::min<size_t>(16, n_streams - s0);
        alignas(32) uint16_t st_buf[16] = {};
        for (size_t s = 0; s < tile; ++s)
            st_buf[s] = *states[s0 + s];
        __m256i st = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(st_buf));
        for (size_t w = 0; w < n_full; ++w) {
            // Four 16-cycle tiles per word: transpose the 16x16 count
            // block so one register holds every stream's count for a
            // cycle, then all counters step together — add, clamp with
            // max/min, compare against the upper-half threshold.
            alignas(32) uint16_t a16[4][16];
            for (int q = 0; q < 4; ++q) {
                __m256i m[16];
                for (size_t s = 0; s < tile; ++s)
                    m[s] = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(
                            counts[s0 + s] + w * 64 +
                            static_cast<size_t>(q) * 16));
                for (size_t s = tile; s < 16; ++s)
                    m[s] = zero;
                transpose16x16Epi16(m);
                __m256i acc = zero;
                for (int cyc = 0; cyc < 16; ++cyc) {
                    const __m256i delta = _mm256_sub_epi16(
                        _mm256_add_epi16(m[cyc], m[cyc]), vn);
                    st = _mm256_add_epi16(st, delta);
                    st = _mm256_max_epi16(st, zero);
                    st = _mm256_min_epi16(st, vmax);
                    acc = _mm256_or_si256(
                        acc,
                        _mm256_and_si256(
                            _mm256_cmpgt_epi16(st, vthr),
                            _mm256_set1_epi16(
                                static_cast<short>(1u << cyc))));
                }
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(a16[q]), acc);
            }
            for (size_t s = 0; s < tile; ++s)
                outs[s0 + s][w] =
                    static_cast<uint64_t>(a16[0][s]) |
                    (static_cast<uint64_t>(a16[1][s]) << 16) |
                    (static_cast<uint64_t>(a16[2][s]) << 32) |
                    (static_cast<uint64_t>(a16[3][s]) << 48);
        }
        _mm256_store_si256(reinterpret_cast<__m256i *>(st_buf), st);
        for (size_t s = 0; s < tile; ++s)
            *states[s0 + s] = st_buf[s];
    }
    return n_full;
}

size_t
avx2BtanhWordsBatch(const uint16_t *const *counts, size_t length,
                    uint64_t *const *outs, uint16_t *const *states,
                    size_t n_streams, unsigned k, unsigned n_inputs)
{
    if (!enabled())
        return 0;
    // int16 lane bounds: an approximate counter can report up to
    // 2 * n_inputs, so |state + delta| < k + 4 * n_inputs must stay
    // inside the signed-16 range.
    if (k > 8192 || n_inputs > 4096)
        return 0;
    const size_t n_full = length / 64;
    if (n_full == 0 || n_streams == 0)
        return 0;
    return avx2BtanhWordsBatchImpl(counts, n_full, outs, states,
                                   n_streams, k, n_inputs);
}

__attribute__((target("avx2"))) size_t
avx2XnorPopcountMulti(const uint64_t *x_words, const WeightBlockView &block,
                      uint32_t *matches)
{
    if (!enabled())
        return 0;
    const size_t full = block.length / 64;
    const __m256i all_ones = _mm256_set1_epi8(-1);
    const __m256i zero = _mm256_setzero_si256();
    // Lane f of the 64-bit accumulator carries filter f's running
    // match count; psadbw folds each match word's byte popcounts into
    // its lane, so the loop is one broadcast, one vector load and four
    // cheap vector ops per input word for all kFilterLanes filters.
    __m256i acc = zero;
    for (size_t w = 0; w < full; ++w) {
        const __m256i xv =
            _mm256_set1_epi64x(static_cast<long long>(x_words[w]));
        const __m256i wv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(block.at(w, 0)));
        const __m256i match =
            _mm256_xor_si256(_mm256_xor_si256(xv, wv), all_ones);
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(popcountBytes(match), zero));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    for (size_t f = 0; f < block.lanes; ++f)
        matches[f] += static_cast<uint32_t>(lanes[f]);
    return full;
}

#else // !SCDCNN_SIMD_X86

size_t
avx2ProductCountBlocks(const BitstreamView *, const BitstreamView *,
                       size_t, size_t, size_t, uint16_t *)
{
    return 0;
}

size_t
avx2ProductCountsTile(const uint64_t *, const WeightBlockView *, size_t,
                      size_t, size_t, size_t, uint16_t *, size_t)
{
    return 0;
}

size_t
avx2ProductPlanesTile(const uint64_t *, const WeightBlockView *, size_t,
                      size_t, size_t, size_t, size_t, uint64_t *, size_t)
{
    return 0;
}

size_t
avx512ProductCountsTilePair(const uint64_t *const[2],
                            const WeightBlockView *, size_t, size_t, size_t,
                            size_t, uint16_t *const[2], size_t)
{
    return 0;
}

size_t
avx512ProductPlanesTilePair(const uint64_t *const[2],
                            const WeightBlockView *, size_t, size_t, size_t,
                            size_t, size_t, uint64_t *const[2], size_t)
{
    return 0;
}

void
avx2SpreadPlanesWord(const uint64_t *pw, size_t n_planes, bool parity,
                     uint16_t *out)
{
    for (size_t g = 0; g < 4; ++g)
        spreadPlanesGroupScalar(pw, n_planes, parity, g, out + g * 16);
}

void
avx2PlaneWordSumsMulti(const uint64_t *const *bufs, size_t n_bufs,
                       size_t pstride, size_t n_words,
                       const PlaneSumWeights &wts, uint16_t *sums)
{
    planeWordSumsScalar(bufs, n_bufs, pstride, n_words, wts, sums);
}

void
avx2SpreadPlanesSelected(const uint64_t *const *planes, size_t n_pixels,
                         size_t n_inputs, size_t n_planes, bool parity,
                         const uint8_t *sel, size_t n_groups,
                         uint16_t *const *outs)
{
    spreadPlanesSelectedScalar(planes, n_pixels, n_inputs, n_planes,
                               parity, sel, n_groups, outs);
}

size_t
avx2ProductCountTotal(const BitstreamView *, const BitstreamView *, size_t,
                      size_t, size_t, size_t, uint64_t *, uint64_t *,
                      uint64_t *)
{
    return 0;
}

uint64_t
avx2SumU16(const uint16_t *values, size_t n)
{
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i)
        sum += values[i];
    return sum;
}

size_t
avx2BtanhWordsBatch(const uint16_t *const *, size_t, uint64_t *const *,
                    uint16_t *const *, size_t, unsigned, unsigned)
{
    return 0;
}

size_t
avx2XnorPopcountMulti(const uint64_t *, const WeightBlockView &,
                      uint32_t *)
{
    return 0;
}

#endif // SCDCNN_SIMD_X86

} // namespace simd
} // namespace sc
} // namespace scdcnn
