#include "sc/fused.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "sc/counter.h"
#include "sc/simd.h"

namespace scdcnn {
namespace sc {

namespace {

size_t
checkOperands(const std::vector<BitstreamView> &xs,
              const std::vector<BitstreamView> *ws)
{
    SCDCNN_ASSERT(!xs.empty(), "fused kernel called with zero streams");
    const size_t len = xs[0].length;
    for (const auto &s : xs)
        SCDCNN_ASSERT(s.length == len, "stream length mismatch");
    if (ws != nullptr) {
        SCDCNN_ASSERT(ws->size() == xs.size(), "operand count mismatch");
        for (const auto &s : *ws)
            SCDCNN_ASSERT(s.length == len, "weight length mismatch");
    }
    return len;
}

/** Approximate-counter parity lines of an n-line fold (0 = exact). */
size_t
parityLines(bool approximate, size_t n)
{
    return approximate
               ? std::min(ApproxParallelCounter::kLsbParityLines, n)
               : 0;
}

/**
 * The scalar APC fold of one word: lines line(0 .. n) insert serially
 * into the carry-save planes[0 .. kMaxCarrySavePlanes), which end up
 * holding the canonical bit-planes of the column counts; @p lsb gets
 * the parity of the first @p parity_lines lines. Returns the number of
 * planes used. The twin of sc/simd.cc's Harley-Seal fold, by a
 * different route (match lines, serial insertion), so the SIMD-vs-
 * scalar tests compare two algorithms, not one.
 */
template <class Line>
int
foldWord(size_t n, size_t parity_lines, const Line &line, uint64_t *planes,
         uint64_t &lsb)
{
    std::fill(planes, planes + kMaxCarrySavePlanes, uint64_t{0});
    lsb = 0;
    int used = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t carry = line(i);
        if (i < parity_lines)
            lsb ^= carry;
        int p = 0;
        while (carry != 0) {
            SCDCNN_ASSERT(p < kMaxCarrySavePlanes,
                          "too many input streams");
            const uint64_t t = planes[p] & carry;
            planes[p] ^= carry;
            carry = t;
            ++p;
        }
        used = std::max(used, p);
    }
    return used;
}

/** Counts emitter of the scalar fold: the first @p limit columns'
 *  counts into out, the LSB replaced by the parity with @p approximate. */
void
spreadCounts(const uint64_t *planes, int used, uint64_t lsb,
             bool approximate, size_t limit, uint16_t *out)
{
    for (size_t b = 0; b < limit; ++b) {
        uint16_t c = 0;
        for (int p = 0; p < used; ++p)
            c |= static_cast<uint16_t>((planes[p] >> b) & 1) << p;
        if (approximate)
            c = static_cast<uint16_t>(
                (c & ~uint16_t{1}) | static_cast<uint16_t>((lsb >> b) & 1));
        out[b] = c;
    }
}

/**
 * Carry-save vertical count over packed words. Lines are either the
 * raw streams (ws == nullptr) or the XNOR products xs[i] ^ ~ws[i],
 * formed word-by-word without materializing product streams. Full
 * 4-word blocks go through the AVX2 fold when available; the scalar
 * fold handles the rest (and everything, when SIMD is off).
 */
void
countsImpl(const std::vector<BitstreamView> &xs,
           const std::vector<BitstreamView> *ws, bool approximate,
           std::vector<uint16_t> &out)
{
    const size_t len = checkOperands(xs, ws);
    out.resize(len);

    const size_t n = xs.size();
    const size_t n_words = (len + 63) / 64;
    const size_t tail = len % 64;
    const uint64_t tail_mask =
        tail == 0 ? ~uint64_t{0} : ((uint64_t{1} << tail) - 1);
    const size_t parity_lines = parityLines(approximate, n);

    size_t w_begin = 0;
    if (simd::enabled() && n >= 2)
        w_begin = simd::avx2ProductCountBlocks(
            xs.data(), ws != nullptr ? ws->data() : nullptr, n, len,
            parity_lines, out.data());

    for (size_t w = w_begin; w < n_words; ++w) {
        const uint64_t word_mask =
            (w + 1 == n_words) ? tail_mask : ~uint64_t{0};
        uint64_t planes[kMaxCarrySavePlanes];
        uint64_t lsb;
        const int used = foldWord(
            n, parity_lines,
            [&](size_t i) {
                const uint64_t x = xs[i].words[w];
                return ws == nullptr ? x
                                     : ~(x ^ (*ws)[i].words[w]) & word_mask;
            },
            planes, lsb);
        const size_t base = w * 64;
        spreadCounts(planes, used, lsb, approximate,
                     std::min<size_t>(64, len - base), out.data() + base);
    }
}

/** Shared operand checks of the filter-blocked ranged kernels;
 *  returns the cycle count covered by [begin_word, end_word). */
size_t
checkMultiOperands(const std::vector<BitstreamView> &xs,
                   const WeightBlockView &block, size_t begin_word,
                   size_t end_word)
{
    SCDCNN_ASSERT(block.lanes >= 1 && block.lanes <= kFilterLanes,
                  "bad filter block lane count %zu", block.lanes);
    SCDCNN_ASSERT(xs.size() == block.taps,
                  "operand count %zu != block taps %zu", xs.size(),
                  block.taps);
    SCDCNN_ASSERT(!xs.empty(), "fused kernel called with zero streams");
    for (const auto &s : xs)
        SCDCNN_ASSERT(s.length == block.length, "stream length mismatch");
    const size_t n_words = block.wordCount();
    SCDCNN_ASSERT(begin_word <= end_word && end_word <= n_words,
                  "bad word range [%zu, %zu) for %zu words", begin_word,
                  end_word, n_words);
    // Clamp both ends: an empty range starting at the ragged tail word
    // (begin == end == wordCount, length % 64 != 0) must yield 0, not
    // underflow.
    return std::min(end_word * 64, block.length) -
           std::min(begin_word * 64, block.length);
}

} // namespace

void
fusedMuxProductMulti(const std::vector<BitstreamView> &xs,
                     const WeightBlockView &block,
                     const std::vector<uint16_t> &selects,
                     size_t begin_word, size_t end_word, uint64_t *out,
                     size_t out_word_stride)
{
    const size_t n_cycles =
        checkMultiOperands(xs, block, begin_word, end_word);
    SCDCNN_ASSERT(selects.size() == n_cycles,
                  "select count %zu != ranged cycle count %zu",
                  selects.size(), n_cycles);
    const size_t len = block.length;
    for (size_t w = begin_word; w < end_word; ++w) {
        const size_t base = (w - begin_word) * 64;
        const size_t limit = std::min<size_t>(64, len - w * 64);
        uint64_t acc[kFilterLanes] = {};
        for (size_t b = 0; b < limit; ++b) {
            const uint16_t k = selects[base + b];
            SCDCNN_ASSERT(k < xs.size(), "select %u out of range",
                          unsigned{k});
            const uint64_t xb = (xs[k].words[w] >> b) & 1;
            const uint64_t *wrow = block.at(w, k);
            for (size_t f = 0; f < block.lanes; ++f)
                acc[f] |= (~(xb ^ (wrow[f] >> b)) & uint64_t{1}) << b;
        }
        for (size_t f = 0; f < block.lanes; ++f)
            out[f * out_word_stride + (w - begin_word)] = acc[f];
    }
}

void
fusedProductCountTotalRange(const std::vector<BitstreamView> &xs,
                            const std::vector<BitstreamView> &ws,
                            size_t begin_word, size_t end_word,
                            ProductCountAccum &acc)
{
    const size_t len = checkOperands(xs, &ws);
    const size_t n = xs.size();
    const size_t n_words = (len + 63) / 64;
    SCDCNN_ASSERT(begin_word <= end_word && end_word <= n_words,
                  "bad word range [%zu, %zu) for %zu words", begin_word,
                  end_word, n_words);
    const size_t tail = len % 64;
    const uint64_t tail_mask =
        tail == 0 ? ~uint64_t{0} : ((uint64_t{1} << tail) - 1);
    const size_t parity_lines =
        std::min(ApproxParallelCounter::kLsbParityLines, n);

    uint64_t total = 0;
    uint64_t exact_lsb_ones = 0;
    uint64_t approx_lsb_ones = 0;
    size_t w = begin_word;
    // The AVX2 reduction covers full words only; the stream's partial
    // tail word (when the range reaches it) stays scalar.
    const size_t full_end = std::min(end_word, len / 64);
    if (simd::enabled() && full_end > w)
        w += simd::avx2ProductCountTotal(xs.data(), ws.data(), n, w,
                                         full_end, parity_lines, &total,
                                         &exact_lsb_ones,
                                         &approx_lsb_ones);
    for (; w < end_word; ++w) {
        const uint64_t word_mask =
            (w + 1 == n_words) ? tail_mask : ~uint64_t{0};
        uint64_t parity_all = 0;
        uint64_t parity_leading = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t product =
                ~(xs[i].words[w] ^ ws[i].words[w]) & word_mask;
            total += static_cast<uint64_t>(std::popcount(product));
            parity_all ^= product;
            if (i < parity_lines)
                parity_leading ^= product;
        }
        exact_lsb_ones +=
            static_cast<uint64_t>(std::popcount(parity_all));
        approx_lsb_ones +=
            static_cast<uint64_t>(std::popcount(parity_leading));
    }
    acc.total += total;
    acc.exact_lsb_ones += exact_lsb_ones;
    acc.approx_lsb_ones += approx_lsb_ones;
}

namespace {

/**
 * The scalar twin of the SIMD tile kernels over words [w, end_word) of
 * one image's operand tile (word row q = w - begin_word at
 * tile + q * taps): per (word, block, lane), word outer and block
 * inner like the SIMD loop, foldWord over the lane's match lines
 * (tail-word columns past the stream length masked to zero), handed to
 * emit(word, run_lane, planes, used, lsb).
 */
template <class Emit>
void
foldTileScalar(const uint64_t *tile, std::span<const WeightBlockView> blocks,
               size_t parity_lines, size_t begin_word, size_t w,
               size_t end_word, const Emit &emit)
{
    const size_t taps = blocks[0].taps;
    const size_t n_words = blocks[0].wordCount();
    const size_t tail = blocks[0].length % 64;
    const uint64_t tail_mask =
        tail == 0 ? ~uint64_t{0} : ((uint64_t{1} << tail) - 1);
    for (; w < end_word; ++w) {
        const uint64_t word_mask =
            (w + 1 == n_words) ? tail_mask : ~uint64_t{0};
        const uint64_t *row = tile + (w - begin_word) * taps;
        for (size_t b = 0; b < blocks.size(); ++b) {
            const uint64_t *wrow = blocks[b].at(w, 0);
            for (size_t f = 0; f < blocks[b].lanes; ++f) {
                uint64_t planes[kMaxCarrySavePlanes];
                uint64_t lsb;
                const int used = foldWord(
                    taps, parity_lines,
                    [&](size_t i) {
                        return ~(row[i] ^ wrow[i * kFilterLanes + f]) &
                               word_mask;
                    },
                    planes, lsb);
                emit(w, b * kFilterLanes + f, planes, used, lsb);
            }
        }
    }
}

/** Shared operand checks of the run kernels: every block of the run
 *  matches the window (taps, length) and the word range. */
void
checkRunOperands(const std::vector<BitstreamView> &xs0,
                 const std::vector<size_t> &x_strides,
                 std::span<const WeightBlockView> blocks, size_t begin_word,
                 size_t end_word)
{
    SCDCNN_ASSERT(!blocks.empty(), "empty filter block run");
    checkMultiOperands(xs0, blocks[0], begin_word, end_word);
    for (const WeightBlockView &block : blocks)
        SCDCNN_ASSERT(block.lanes >= 1 && block.lanes <= kFilterLanes &&
                          block.taps == blocks[0].taps &&
                          block.length == blocks[0].length,
                      "filter block run mixes shapes");
    SCDCNN_ASSERT(x_strides.size() == xs0.size(),
                  "stride count %zu != operand count %zu",
                  x_strides.size(), xs0.size());
}

/**
 * The one gather of the run kernels: image @p img's words
 * [begin_word, end_word) of every tap into the [word][tap] tile at
 * @p tile. Each tap's range is read as consecutive words (whole cache
 * lines), so the fold that follows never touches the site-major arena
 * again.
 */
void
gatherTile(const std::vector<BitstreamView> &xs0,
           const std::vector<size_t> &x_strides, size_t img,
           size_t begin_word, size_t end_word, uint64_t *tile)
{
    const size_t taps = xs0.size();
    const size_t n_words = end_word - begin_word;
    for (size_t t = 0; t < taps; ++t) {
        const uint64_t *src =
            xs0[t].words + img * x_strides[t] + begin_word;
        for (size_t q = 0; q < n_words; ++q)
            tile[q * taps + t] = src[q];
    }
}

/**
 * The image loop of the run kernels: active images go in pairs, in
 * active-list order, while the AVX-512 pair kernels are selected and
 * two remain; a lone image (an odd count's last, or every image
 * without that tier) goes alone. Per group, each image's tile is
 * gathered into @p tile (the pair's tiles back to back), fold(tiles,
 * n_tiles, j) runs the SIMD kernel for active positions j ..
 * j + n_tiles and returns the words it folded, and the scalar twin
 * finishes each image from there through emit(j, word, r, planes,
 * used, lsb).
 */
template <class Fold, class Emit>
void
foldRunImages(const std::vector<BitstreamView> &xs0,
              const std::vector<size_t> &x_strides, const uint32_t *images,
              size_t n_images, std::span<const WeightBlockView> blocks,
              size_t parity_lines, size_t begin_word, size_t end_word,
              std::vector<uint64_t> &tile, const Fold &fold,
              const Emit &emit)
{
    const bool vector = simd::enabled() && blocks[0].taps >= 2;
    const size_t group =
        vector && simd::avx512Enabled() && n_images >= 2 ? 2 : 1;
    const size_t tile_words = (end_word - begin_word) * blocks[0].taps;
    tile.resize(group * tile_words);
    const uint64_t *const tiles[2] = {tile.data(),
                                      tile.data() + (group - 1) * tile_words};
    for (size_t j = 0; j < n_images;) {
        const size_t n_tiles = std::min(group, n_images - j);
        for (size_t k = 0; k < n_tiles; ++k)
            gatherTile(xs0, x_strides, images[j + k], begin_word, end_word,
                       tile.data() + k * tile_words);
        const size_t w = begin_word + (vector ? fold(tiles, n_tiles, j) : 0);
        for (size_t k = 0; k < n_tiles; ++k)
            foldTileScalar(tiles[k], blocks, parity_lines, begin_word, w,
                           end_word,
                           [&, pos = j + k](size_t word, size_t r,
                                            const uint64_t *planes,
                                            int used, uint64_t lsb) {
                               emit(pos, word, r, planes, used, lsb);
                           });
        j += n_tiles;
    }
}

} // namespace

void
fusedProductCountsMultiBatch(const std::vector<BitstreamView> &xs0,
                             const std::vector<size_t> &x_strides,
                             const uint32_t *images, size_t n_images,
                             std::span<const WeightBlockView> blocks,
                             bool approximate, size_t begin_word,
                             size_t end_word, std::vector<uint64_t> &tile,
                             uint16_t *out, size_t lane_stride,
                             size_t image_stride)
{
    checkRunOperands(xs0, x_strides, blocks, begin_word, end_word);
    const size_t length = blocks[0].length;
    const size_t parity_lines = parityLines(approximate, blocks[0].taps);
    foldRunImages(
        xs0, x_strides, images, n_images, blocks, parity_lines, begin_word,
        end_word, tile,
        [&](const uint64_t *const *tiles, size_t n_tiles, size_t j) {
            uint16_t *const img_out = out + j * image_stride;
            if (n_tiles == 1)
                return simd::avx2ProductCountsTile(
                    tiles[0], blocks.data(), blocks.size(), parity_lines,
                    begin_word, end_word, img_out, lane_stride);
            uint16_t *const outs[2] = {img_out, img_out + image_stride};
            return simd::avx512ProductCountsTilePair(
                tiles, blocks.data(), blocks.size(), parity_lines,
                begin_word, end_word, outs, lane_stride);
        },
        [&](size_t j, size_t word, size_t r, const uint64_t *planes,
            int used, uint64_t lsb) {
            spreadCounts(planes, used, lsb, approximate,
                         std::min<size_t>(64, length - word * 64),
                         out + j * image_stride + r * lane_stride +
                             (word - begin_word) * 64);
        });
}

size_t
planeCapForTaps(size_t taps)
{
    return static_cast<size_t>(std::bit_width(taps));
}

void
fusedProductPlanesMultiBatch(const std::vector<BitstreamView> &xs0,
                             const std::vector<size_t> &x_strides,
                             const uint32_t *images, size_t n_images,
                             std::span<const WeightBlockView> blocks,
                             bool approximate, size_t begin_word,
                             size_t end_word, std::vector<uint64_t> &tile,
                             uint64_t *out, size_t plane_cap,
                             size_t lane_stride, size_t image_stride)
{
    checkRunOperands(xs0, x_strides, blocks, begin_word, end_word);
    const size_t taps = blocks[0].taps;
    SCDCNN_ASSERT(plane_cap >= planeCapForTaps(taps),
                  "plane cap %zu below width %zu for %zu taps", plane_cap,
                  planeCapForTaps(taps), taps);
    const size_t parity_lines = parityLines(approximate, taps);
    foldRunImages(
        xs0, x_strides, images, n_images, blocks, parity_lines, begin_word,
        end_word, tile,
        [&](const uint64_t *const *tiles, size_t n_tiles, size_t j) {
            uint64_t *const img_out = out + j * image_stride;
            if (n_tiles == 1)
                return simd::avx2ProductPlanesTile(
                    tiles[0], blocks.data(), blocks.size(), parity_lines,
                    begin_word, end_word, plane_cap, img_out, lane_stride);
            uint64_t *const outs[2] = {img_out, img_out + image_stride};
            return simd::avx512ProductPlanesTilePair(
                tiles, blocks.data(), blocks.size(), parity_lines,
                begin_word, end_word, plane_cap, outs, lane_stride);
        },
        [&](size_t j, size_t word, size_t r, const uint64_t *planes,
            int used, uint64_t lsb) {
            SCDCNN_ASSERT(static_cast<size_t>(used) <= plane_cap,
                          "fold used %d planes, cap %zu", used, plane_cap);
            uint64_t *dst = out + j * image_stride + r * lane_stride +
                            (word - begin_word) * (plane_cap + 1);
            std::fill(dst, dst + plane_cap, uint64_t{0});
            std::copy(planes, planes + used, dst);
            dst[plane_cap] = lsb;
        });
}

void
referenceProductCountsMultiBatch(const std::vector<BitstreamView> &xs0,
                                 const std::vector<size_t> &x_strides,
                                 const uint32_t *images, size_t n_images,
                                 std::span<const WeightBlockView> blocks,
                                 bool approximate, size_t begin_word,
                                 size_t end_word, uint16_t *out,
                                 size_t lane_stride, size_t image_stride)
{
    std::vector<BitstreamView> xs_img(xs0.size());
    for (size_t j = 0; j < n_images; ++j) {
        shiftViewsForImage(xs0, x_strides, images[j], xs_img);
        for (size_t b = 0; b < blocks.size(); ++b)
            referenceProductCountsMulti(
                xs_img, blocks[b], approximate, begin_word, end_word,
                out + j * image_stride + b * kFilterLanes * lane_stride,
                lane_stride);
    }
}

void
shiftViewsForImage(const std::vector<BitstreamView> &xs0,
                   const std::vector<size_t> &x_strides, size_t image,
                   std::vector<BitstreamView> &out)
{
    SCDCNN_ASSERT(x_strides.size() == xs0.size(),
                  "stride count %zu != operand count %zu",
                  x_strides.size(), xs0.size());
    out.resize(xs0.size());
    for (size_t i = 0; i < xs0.size(); ++i)
        out[i] = BitstreamView(xs0[i].words + image * x_strides[i],
                               xs0[i].length);
}

void
referenceProductCountsMulti(const std::vector<BitstreamView> &xs,
                            const WeightBlockView &block, bool approximate,
                            size_t begin_word, size_t end_word,
                            uint16_t *out, size_t out_stride)
{
    const size_t n_cycles =
        checkMultiOperands(xs, block, begin_word, end_word);
    const size_t n = xs.size();
    const size_t parity_lines =
        std::min(ApproxParallelCounter::kLsbParityLines, n);
    const size_t c0 = begin_word * 64;
    for (size_t f = 0; f < block.lanes; ++f) {
        for (size_t i = 0; i < n_cycles; ++i) {
            const size_t cycle = c0 + i;
            uint16_t c = 0;
            uint16_t lsb = 0;
            for (size_t t = 0; t < n; ++t) {
                const uint16_t bit =
                    xs[t].get(cycle) == block.get(f, t, cycle) ? 1 : 0;
                c = static_cast<uint16_t>(c + bit);
                if (t < parity_lines)
                    lsb ^= bit;
            }
            if (approximate)
                c = static_cast<uint16_t>((c & ~uint16_t{1}) | lsb);
            out[f * out_stride + i] = c;
        }
    }
}

void
referenceMuxProductMulti(const std::vector<BitstreamView> &xs,
                         const WeightBlockView &block,
                         const std::vector<uint16_t> &selects,
                         size_t begin_word, size_t end_word, uint64_t *out,
                         size_t out_word_stride)
{
    const size_t n_cycles =
        checkMultiOperands(xs, block, begin_word, end_word);
    SCDCNN_ASSERT(selects.size() == n_cycles,
                  "select count %zu != ranged cycle count %zu",
                  selects.size(), n_cycles);
    const size_t n_seg_words = end_word - begin_word;
    for (size_t f = 0; f < block.lanes; ++f)
        std::fill(out + f * out_word_stride,
                  out + f * out_word_stride + n_seg_words, uint64_t{0});
    const size_t c0 = begin_word * 64;
    for (size_t i = 0; i < n_cycles; ++i) {
        const uint16_t k = selects[i];
        SCDCNN_ASSERT(k < xs.size(), "select %u out of range",
                      unsigned{k});
        const bool xb = xs[k].get(c0 + i);
        for (size_t f = 0; f < block.lanes; ++f)
            if (xb == block.get(f, k, c0 + i))
                out[f * out_word_stride + i / 64] |= uint64_t{1}
                                                    << (i % 64);
    }
}

void
referenceProductCountTotalRange(const std::vector<BitstreamView> &xs,
                                const std::vector<BitstreamView> &ws,
                                size_t begin_word, size_t end_word,
                                ProductCountAccum &acc)
{
    const size_t len = checkOperands(xs, &ws);
    const size_t n = xs.size();
    const size_t n_words = (len + 63) / 64;
    SCDCNN_ASSERT(begin_word <= end_word && end_word <= n_words,
                  "bad word range [%zu, %zu) for %zu words", begin_word,
                  end_word, n_words);
    const size_t parity_lines =
        std::min(ApproxParallelCounter::kLsbParityLines, n);
    const size_t c0 = begin_word * 64;
    const size_t c1 = std::min(end_word * 64, len);
    for (size_t i = c0; i < c1; ++i) {
        uint64_t c = 0;
        uint64_t parity_all = 0;
        uint64_t parity_leading = 0;
        for (size_t t = 0; t < n; ++t) {
            const uint64_t bit = xs[t].get(i) == ws[t].get(i) ? 1 : 0;
            c += bit;
            parity_all ^= bit;
            if (t < parity_lines)
                parity_leading ^= bit;
        }
        acc.total += c;
        acc.exact_lsb_ones += parity_all;
        acc.approx_lsb_ones += parity_leading;
    }
}

void
fillMuxSelects(size_t n_inputs, size_t length, Xoshiro256ss &rng,
               std::vector<uint16_t> &selects)
{
    SCDCNN_ASSERT(n_inputs > 0, "MUX needs at least one input");
    SCDCNN_ASSERT(n_inputs <= 65536,
                  "MUX fan-in %zu exceeds the uint16_t select range",
                  n_inputs);
    selects.resize(length);
    for (size_t i = 0; i < length; ++i)
        selects[i] = static_cast<uint16_t>(rng.nextBelow(n_inputs));
}

void
fusedMuxProduct(const std::vector<BitstreamView> &xs,
                const std::vector<BitstreamView> &ws,
                const std::vector<uint16_t> &selects, Bitstream &out)
{
    const size_t len = checkOperands(xs, &ws);
    SCDCNN_ASSERT(selects.size() == len,
                  "select count %zu != stream length %zu", selects.size(),
                  len);
    out.reset(len);
    auto &words = out.mutableWords();
    const size_t n_words = words.size();
    for (size_t w = 0; w < n_words; ++w) {
        const size_t base = w * 64;
        const size_t limit = std::min<size_t>(64, len - base);
        uint64_t acc = 0;
        for (size_t b = 0; b < limit; ++b) {
            const uint16_t k = selects[base + b];
            SCDCNN_ASSERT(k < xs.size(), "select %u out of range",
                          unsigned{k});
            const uint64_t product = ~(xs[k].words[w] ^ ws[k].words[w]);
            acc |= ((product >> b) & uint64_t{1}) << b;
        }
        words[w] = acc;
    }
}

void
fusedProductCounts(const std::vector<BitstreamView> &xs,
                   const std::vector<BitstreamView> &ws, bool approximate,
                   std::vector<uint16_t> &out)
{
    countsImpl(xs, &ws, approximate, out);
}

void
fusedLineCounts(const std::vector<BitstreamView> &streams,
                bool approximate, std::vector<uint16_t> &out)
{
    countsImpl(streams, nullptr, approximate, out);
}

uint64_t
fusedProductCountTotal(const std::vector<BitstreamView> &xs,
                       const std::vector<BitstreamView> &ws,
                       bool approximate)
{
    const size_t len = checkOperands(xs, &ws);
    ProductCountAccum acc;
    fusedProductCountTotalRange(xs, ws, 0, (len + 63) / 64, acc);
    // Replacing each count's LSB changes the sum by (parity_4 - parity_n)
    // per cycle; both corrections reduce to whole-stream popcounts.
    return acc.value(approximate);
}

Bitstream
referenceMuxProduct(const std::vector<BitstreamView> &xs,
                    const std::vector<BitstreamView> &ws,
                    const std::vector<uint16_t> &selects)
{
    const size_t len = checkOperands(xs, &ws);
    SCDCNN_ASSERT(selects.size() == len,
                  "select count %zu != stream length %zu", selects.size(),
                  len);
    Bitstream out(len);
    for (size_t i = 0; i < len; ++i) {
        const uint16_t k = selects[i];
        SCDCNN_ASSERT(k < xs.size(), "select %u out of range",
                      unsigned{k});
        if (xs[k].get(i) == ws[k].get(i))
            out.set(i, true);
    }
    return out;
}

std::vector<uint16_t>
referenceProductCounts(const std::vector<BitstreamView> &xs,
                       const std::vector<BitstreamView> &ws,
                       bool approximate)
{
    const size_t len = checkOperands(xs, &ws);
    const size_t n = xs.size();
    const size_t parity_lines =
        std::min(ApproxParallelCounter::kLsbParityLines, n);
    std::vector<uint16_t> out(len);
    for (size_t i = 0; i < len; ++i) {
        uint16_t c = 0;
        uint16_t lsb = 0;
        for (size_t k = 0; k < n; ++k) {
            const uint16_t bit = xs[k].get(i) == ws[k].get(i) ? 1 : 0;
            c = static_cast<uint16_t>(c + bit);
            if (k < parity_lines)
                lsb ^= bit;
        }
        if (approximate)
            c = static_cast<uint16_t>((c & ~uint16_t{1}) | lsb);
        out[i] = c;
    }
    return out;
}

uint64_t
referenceProductCountTotal(const std::vector<BitstreamView> &xs,
                           const std::vector<BitstreamView> &ws,
                           bool approximate)
{
    uint64_t total = 0;
    for (uint16_t c : referenceProductCounts(xs, ws, approximate))
        total += c;
    return total;
}

// ------- Binary (L = 1) XNOR-popcount kernels ---------------------

void
fusedXnorPopcountMulti(const BitstreamView &x, const WeightBlockView &block,
                       uint32_t *matches)
{
    SCDCNN_ASSERT(block.taps == 1,
                  "binary weight block has %zu taps, expected 1",
                  block.taps);
    SCDCNN_ASSERT(x.length == block.length,
                  "operand length %zu != block length %zu", x.length,
                  block.length);
    for (size_t f = 0; f < block.lanes; ++f)
        matches[f] = 0;
    const size_t n_words = block.wordCount();
    size_t w = simd::avx2XnorPopcountMulti(x.words, block, matches);
    for (; w < n_words; ++w) {
        const size_t hi = std::min<size_t>(64, block.length - w * 64);
        const uint64_t mask =
            hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
        const uint64_t xw = x.words[w];
        const uint64_t *wrow = block.at(w, 0);
        for (size_t f = 0; f < block.lanes; ++f)
            matches[f] += static_cast<uint32_t>(
                std::popcount(~(xw ^ wrow[f]) & mask));
    }
}

void
referenceXnorPopcountMulti(const BitstreamView &x,
                           const WeightBlockView &block, uint32_t *matches)
{
    SCDCNN_ASSERT(block.taps == 1,
                  "binary weight block has %zu taps, expected 1",
                  block.taps);
    SCDCNN_ASSERT(x.length == block.length,
                  "operand length %zu != block length %zu", x.length,
                  block.length);
    for (size_t f = 0; f < block.lanes; ++f) {
        uint32_t m = 0;
        for (size_t i = 0; i < block.length; ++i)
            if (x.get(i) == block.get(f, 0, i))
                ++m;
        matches[f] = m;
    }
}

void
fusedSignPack(const int32_t *s, size_t n, uint64_t *out)
{
    const size_t n_words = (n + 63) / 64;
    for (size_t w = 0; w < n_words; ++w) {
        const size_t hi = std::min<size_t>(64, n - w * 64);
        uint64_t word = 0;
        for (size_t b = 0; b < hi; ++b)
            word |= static_cast<uint64_t>(s[w * 64 + b] >= 0) << b;
        out[w] = word;
    }
}

void
referenceSignPack(const int32_t *s, size_t n, uint64_t *out)
{
    const size_t n_words = (n + 63) / 64;
    for (size_t w = 0; w < n_words; ++w)
        out[w] = 0;
    for (size_t i = 0; i < n; ++i)
        if (s[i] >= 0)
            out[i / 64] |= uint64_t{1} << (i % 64);
}

void
fusedBinaryPool4(const int32_t *windows, size_t n_pixels, bool max_pool,
                 int32_t *out)
{
    if (max_pool) {
        for (size_t p = 0; p < n_pixels; ++p) {
            const int32_t *w = windows + 4 * p;
            out[p] = std::max(std::max(w[0], w[1]),
                              std::max(w[2], w[3]));
        }
    } else {
        for (size_t p = 0; p < n_pixels; ++p) {
            const int32_t *w = windows + 4 * p;
            out[p] = w[0] + w[1] + w[2] + w[3];
        }
    }
}

void
referenceBinaryPool4(const int32_t *windows, size_t n_pixels,
                     bool max_pool, int32_t *out)
{
    for (size_t p = 0; p < n_pixels; ++p) {
        int32_t acc = windows[4 * p];
        for (size_t w = 1; w < 4; ++w)
            acc = max_pool ? std::max(acc, windows[4 * p + w])
                           : acc + windows[4 * p + w];
        out[p] = acc;
    }
}

} // namespace sc
} // namespace scdcnn
