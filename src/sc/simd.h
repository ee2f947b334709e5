/**
 * @file
 * Runtime-dispatched SIMD kernels for the word-parallel hot paths.
 *
 * The portable scalar implementations in sc/fused.cc and
 * blocks/pooling.cc are the always-built default and the correctness
 * oracle; the AVX2 and AVX-512 variants here are selected at runtime
 * when the host CPU supports them and must be bit-exact with the
 * scalar paths (the
 * dispatch rule DESIGN.md documents, enforced by tests/test_simd.cc).
 *
 * Kernels:
 *  - avx2ProductCountBlocks, avx2Product{Counts,Planes}Tile and
 *    avx512Product{Counts,Planes}TilePair: thin emitters around one
 *    APC fold (simd.cc), templated on a vector policy, that counts
 *    mismatch lines x ^ w through a Harley-Seal carry-save chain and
 *    converts to match counts c = n - m once per fold; the emitters
 *    transpose the planes to uint16 counts or store them as planes.
 *    The *Tile kernels read one image's gathered [word][tap] operand
 *    tile (sc/fused.h) and fold each of its word rows against a whole
 *    run of filter blocks in a ymm (four filter lanes, and/or/xor
 *    carry-save adders: 91 vector ops + 2 per high plane per 16
 *    lines). The *TilePair kernels fold two images' tiles at once in a
 *    zmm (image A's four lanes low, image B's high, the weight row
 *    loaded once for both; carry-save adders are two vpternlogq);
 *  - avx2ProductCountTotal: the popcount reductions of
 *    fusedProductCountTotal (nibble-LUT shuffle + psadbw);
 *  - avx2SumU16: the segment accumulation of the masked binary
 *    max-pooling kernel.
 *
 * Dispatch is by tier: enabled() is true when the binary carries the
 * SIMD paths, the CPU reports AVX2, and neither SCDCNN_FORCE_SCALAR
 * nor setEnabled(false) turned them off; avx512Enabled() additionally
 * needs AVX-512F. Callers branch on the tier and fall back to the
 * scalar path for tails and small sizes; the batch kernels fold image
 * pairs on the AVX-512 tier and a lone image (an odd count's last, or
 * a one-image call) on AVX2. Every tier is bit-exact with the scalar
 * path.
 */

#ifndef SCDCNN_SC_SIMD_H
#define SCDCNN_SC_SIMD_H

#include <cstddef>
#include <cstdint>

#include "sc/bitstream.h"

namespace scdcnn {
namespace sc {
namespace simd {

/** Whether AVX2 paths were compiled in and the CPU supports them. */
bool available();

/** Whether the AVX2 paths are currently selected: available(), not
 *  disabled via the SCDCNN_FORCE_SCALAR environment variable, and not
 *  turned off with setEnabled(false). */
bool enabled();

/** Whether the AVX-512 pair kernels are currently selected: enabled()
 *  and the CPU reports AVX-512F. */
bool avx512Enabled();

/** Test hook: select (true) every SIMD tier the CPU supports, or
 *  bypass (false) all of them, at runtime. Enabling when !available()
 *  is a no-op. */
void setEnabled(bool on);

/**
 * APC fold column counts over full 4-word blocks of the operand views
 * (the four 64-bit vector lanes are four consecutive words): processes
 * words [0, W) where W is the largest multiple of 4 with W * 64 <=
 * length, writing counts for cycles [0, W * 64) into @p out. Lines are
 * xs[i] when ws == nullptr, else the XNOR products xs[i] ^~ ws[i]. The
 * approximate-counter LSB (parity of the first @p parity_lines lines)
 * is fused in when parity_lines > 0.
 *
 * @return the number of words processed (the scalar caller continues
 *         from there); 0 when AVX2 is not enabled.
 */
size_t avx2ProductCountBlocks(const BitstreamView *xs,
                              const BitstreamView *ws, size_t n,
                              size_t length, size_t parity_lines,
                              uint16_t *out);

/**
 * Run-of-blocks APC column counts over one image's gathered operand
 * tile: for every full word w of [@p begin_word, @p end_word) (a word
 * is full when all 64 of its cycles lie inside the blocks' length),
 * the tile's word row (tile + (w - begin_word) * taps, one word per
 * tap) is folded against the weight row (taps x kFilterLanes words) of
 * each of the @p n_blocks blocks in turn, so the row is read by linear
 * index from L1 across the whole run. Each input word is broadcast
 * against the kFilterLanes weight words with the filters in the
 * 64-bit vector lanes, so one fold serves a whole filter block.
 * Counts for run lane r = b * kFilterLanes + f, range-local cycle i
 * land at out[r * lane_stride + i]; only each block's real lanes are
 * written. The approximate-counter LSB is fused in when
 * @p parity_lines > 0.
 *
 * @return the number of words processed from begin_word (the scalar
 *         caller continues from there); 0 when AVX2 is not enabled.
 */
size_t avx2ProductCountsTile(const uint64_t *tile,
                             const WeightBlockView *blocks, size_t n_blocks,
                             size_t parity_lines, size_t begin_word,
                             size_t end_word, uint16_t *out,
                             size_t lane_stride);

/**
 * Plane-emitting variant of avx2ProductCountsTile: the same fold, but
 * the per-word result is stored as the canonical bit-planes of the
 * column counts instead of being transposed into per-cycle uint16
 * counts. For run lane r, range-local word q, the @p plane_cap planes
 * land at out[r * lane_stride + q * (plane_cap+1) + p] (planes at or
 * above planeCapForTaps(taps) are zeroed) and the leading-lines parity
 * word at index plane_cap. Skipping the transpose matters when only
 * segment sums of most lanes' counts are consumed (the Figure 8
 * selector's losing inputs): sums follow from plane popcounts, and
 * per-cycle counts can be recovered exactly for the one selected input
 * via avx2SpreadPlanesWord.
 *
 * @return the number of words processed from begin_word (the scalar
 *         caller continues from there); 0 when AVX2 is not enabled.
 */
size_t avx2ProductPlanesTile(const uint64_t *tile,
                             const WeightBlockView *blocks, size_t n_blocks,
                             size_t parity_lines, size_t begin_word,
                             size_t end_word, size_t plane_cap,
                             uint64_t *out, size_t lane_stride);

/**
 * Image-pair variant of avx2ProductCountsTile: folds the tiles of two
 * images, tiles[0] (image A) and tiles[1] (image B), against each
 * weight row in one 512-bit fold, A's kFilterLanes lanes in the low
 * 256 bits and B's in the high 256, so each weight row is loaded once
 * per pair and every vector op covers both images. Image k's counts
 * land at outs[k] in avx2ProductCountsTile's layout, bit-exact with
 * two avx2ProductCountsTile calls.
 *
 * @return the number of words processed from begin_word (the scalar
 *         caller continues from there for both images); 0 when the
 *         AVX-512 tier is not enabled.
 */
size_t avx512ProductCountsTilePair(const uint64_t *const tiles[2],
                                   const WeightBlockView *blocks,
                                   size_t n_blocks, size_t parity_lines,
                                   size_t begin_word, size_t end_word,
                                   uint16_t *const outs[2],
                                   size_t lane_stride);

/**
 * Image-pair variant of avx2ProductPlanesTile (see
 * avx512ProductCountsTilePair): image k's planes land at outs[k] in
 * avx2ProductPlanesTile's layout.
 *
 * @return the number of words processed from begin_word; 0 when the
 *         AVX-512 tier is not enabled.
 */
size_t avx512ProductPlanesTilePair(const uint64_t *const tiles[2],
                                   const WeightBlockView *blocks,
                                   size_t n_blocks, size_t parity_lines,
                                   size_t begin_word, size_t end_word,
                                   size_t plane_cap,
                                   uint64_t *const outs[2],
                                   size_t lane_stride);

/**
 * Transpose one word's canonical count planes back into 64 per-cycle
 * uint16 counts: pw[0 .. n_planes) are the planes, pw[n_planes] the
 * parity word; when @p parity is true each count's LSB is replaced by
 * the parity bit (the approximate-counter substitution). Bit-exact
 * with the transposes of the counts kernels. Falls back to a scalar
 * loop when AVX2 is not enabled.
 */
void avx2SpreadPlanesWord(const uint64_t *pw, size_t n_planes,
                          bool parity, uint16_t *out);

/**
 * Precomputed byte weights for avx2PlaneWordSumsMulti. Quads start at
 * the first live plane (base = 1 under parity, else 0, so no quad is
 * spent on the substituted plane 0): quad q's 32 weight bytes hold the
 * relative digit values 2^i for planes base + 4q + i (zero for slots
 * past the plane count), and shift[q] = base + 4q rescales the quad's
 * partial sums. Built once per pooling call via planeSumWeightsInit.
 */
struct PlaneSumWeights
{
    uint8_t w[3][32];
    unsigned shift[3];
    size_t base;
    size_t quads;
    size_t n_planes;
    bool parity;
};

/** Fill @p wts for @p n_planes count planes (must be <= 12) with the
 *  parity-word LSB substitution applied when @p parity. */
void planeSumWeightsInit(PlaneSumWeights &wts, size_t n_planes,
                         bool parity);

/**
 * Per-16-cycle-group count sums of @p n_words consecutive plane words
 * of @p n_bufs plane buffers (word q of buffer b at bufs[b] + q *
 * pstride, pstride = planes + parity word): writes to
 * sums[(b * n_words + q) * 4 + g] the sum of (b, q)'s per-cycle counts
 * over cycles [16g, 16g + 16), i.e. popcount-weighted plane digits
 * (with the parity substitution when wts.parity). With at most 12
 * planes a group sum is at most 16 * 4095, so it fits 16 bits. One
 * byte-popcount + maddubs pass per 4-plane quad, reduced in vector
 * registers — the Figure 8 selector's segment evidence without
 * materializing any per-cycle counts — and one runtime dispatch for a
 * whole pooling call's sum table. The quad loads read whole 4-plane
 * groups, so each word's planes must stay readable for
 * wts.base + wts.quads * 4 words (pad the plane buffer's tail by two
 * words). Falls back to a scalar loop when AVX2 is not enabled.
 */
void avx2PlaneWordSumsMulti(const uint64_t *const *bufs, size_t n_bufs,
                            size_t pstride, size_t n_words,
                            const PlaneSumWeights &wts, uint16_t *sums);

/**
 * Table-driven forwarding of the Figure 8 selector over count planes:
 * for pixel j < @p n_pixels and range-local 16-cycle group g <
 * @p n_groups, transposes group g of the plane buffer
 * planes[j * n_inputs + sel[j * n_groups + g]] (word q's planes at
 * + q * (n_planes + 1), parity word last, as avx2SpreadPlanesWord
 * reads them) into the 16 counts outs[j][16 g .. 16 g + 16). Only the
 * groups a selector emits are transposed, one dispatch per pooling
 * call.
 */
void avx2SpreadPlanesSelected(const uint64_t *const *planes,
                              size_t n_pixels, size_t n_inputs,
                              size_t n_planes, bool parity,
                              const uint8_t *sel, size_t n_groups,
                              uint16_t *const *outs);

/**
 * Popcount reduction over full 4-word groups of the word range
 * [@p begin_word, @p end_word): accumulates the total product popcount
 * plus the all-lines and leading-lines parity popcounts for the
 * covered cycles. The range must contain only full words (the caller
 * keeps the stream's partial tail word for the scalar path).
 *
 * @return the number of words processed from begin_word; 0 when AVX2
 *         is not enabled.
 */
size_t avx2ProductCountTotal(const BitstreamView *xs,
                             const BitstreamView *ws, size_t n,
                             size_t begin_word, size_t end_word,
                             size_t parity_lines, uint64_t *total,
                             uint64_t *exact_lsb_ones,
                             uint64_t *approx_lsb_ones);

/**
 * Sum of @p n uint16 values (the masked pooling segment accumulator),
 * exact for the full uint16 range and any length (lane accumulators
 * are flushed to 64 bits before they can overflow). Falls back to a
 * scalar loop when AVX2 is not enabled.
 */
uint64_t avx2SumU16(const uint16_t *values, size_t n);

/**
 * Binary XNOR-popcount accumulation over the full words of a binary
 * weight block (taps == 1, one packed sign stream per lane): for every
 * full word w (all 64 bits inside block.length) and lane f,
 * popcount(~(x_words[w] ^ lane word)) is added into matches[f]. The
 * partial tail word (its pad bits need masking) stays with the scalar
 * caller, as does initializing matches.
 *
 * @return the number of words processed; 0 when AVX2 is not enabled.
 */
size_t avx2XnorPopcountMulti(const uint64_t *x_words,
                             const WeightBlockView &block,
                             uint32_t *matches);

/**
 * Lane-parallel Btanh batch step: the saturating up/down counter of
 * stream s advances as an int16 lane, 16 streams per register, so the
 * whole micro-batch steps per cycle in a handful of vector ops instead
 * of 16 serial table walks. Stream s consumes counts[s] (one uint16
 * per cycle), writes output words to outs[s], and carries its counter
 * in *states[s] — bit-exact with the scalar saturating step
 * clamp(state + 2c - n_inputs, 0, k - 1), output = state >= k/2.
 *
 * Only whole 64-cycle words are processed; the caller finishes the
 * partial tail word (and masks its pad bits) from the carried states.
 *
 * @return the number of whole words processed per stream; 0 when AVX2
 *         is not enabled or (k, n_inputs) would overflow int16 lanes
 *         (the caller then takes its scalar path for everything).
 */
size_t avx2BtanhWordsBatch(const uint16_t *const *counts, size_t length,
                           uint64_t *const *outs,
                           uint16_t *const *states, size_t n_streams,
                           unsigned k, unsigned n_inputs);

} // namespace simd
} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_SIMD_H
