/**
 * @file
 * Stochastic number generators (SNGs).
 *
 * An SNG is a comparator between a random number source and a threshold
 * register: cycle i emits 1 iff rng_i < T. With T proportional to the
 * encoded probability the stream's expected fraction of ones equals that
 * probability. Two source flavours are provided:
 *
 *  - Lfsr-driven: models the hardware SNG (Kim et al., ASP-DAC'16 RNG);
 *  - Xoshiro-driven: fast host-side source for Monte-Carlo experiments.
 *
 * Values outside the encodable range are saturated, mirroring the
 * pre-scaling requirement discussed in Section 3.2 of the paper.
 */

#ifndef SCDCNN_SC_SNG_H
#define SCDCNN_SC_SNG_H

#include <cstdint>

#include "sc/bitstream.h"
#include "sc/rng.h"

namespace scdcnn {
namespace sc {

/** Stream of @p length copies of bit @p v (bipolar +1 / -1). */
Bitstream constantStream(bool v, size_t length);

/** Unipolar stream for p in [0,1] (saturated) from an LFSR SNG. */
Bitstream sngUnipolar(double p, size_t length, Lfsr &lfsr);

/** Bipolar stream for x in [-1,1] (saturated) from an LFSR SNG. */
Bitstream sngBipolar(double x, size_t length, Lfsr &lfsr);

/** Unipolar stream from a Xoshiro-driven SNG (Monte-Carlo harnesses). */
Bitstream sngUnipolar(double p, size_t length, Xoshiro256ss &rng);

/** Bipolar stream from a Xoshiro-driven SNG (Monte-Carlo harnesses). */
Bitstream sngBipolar(double x, size_t length, Xoshiro256ss &rng);

/** Comparator threshold T of the Xoshiro SNG for p in [0,1]
 *  (saturated): T = round(p * 65536), and a cycle emits 1 iff its
 *  16-bit draw lane is below T. */
uint32_t unipolarThreshold(double p);

/** Threshold of the bipolar stream for x in [-1,1]:
 *  unipolarThreshold((x + 1) / 2). */
uint32_t bipolarThreshold(double x);

/** Streams one sngLanes call draws together. */
constexpr size_t kSngLanes = 8;

/**
 * Up to kSngLanes Xoshiro-driven SNG streams drawn in lock step: lane
 * i < @p n_lanes is, bit for bit, the stream sngUnipolar draws from
 * Xoshiro256ss(seeds[i]) at threshold thresholds[i]. Word w of lane i
 * is written to out[w * word_stride + i * lane_stride], bits past
 * @p length zeroed, so the lanes land straight in an arena layout.
 *
 * On the AVX-512 and AVX2 tiers (sc/simd.h) the generator is
 * xoshiro256** in eight 64-bit vector lanes, with sngUnipolar's SWAR
 * comparison applied lane-wise; the scalar tier runs sngUnipolar's
 * loop lane by lane. Both share one arithmetic.
 */
void sngLanes(const uint64_t *seeds, const uint32_t *thresholds,
              size_t n_lanes, size_t length, uint64_t *out,
              size_t word_stride, size_t lane_stride);

/**
 * A bank of independent SNGs.
 *
 * Hardware shares physical RNGs between SNGs via phase shifting; for
 * simulation purposes what matters is that distinct operands receive
 * streams that are statistically independent of each other. The bank
 * derives one fresh generator per request from a master seed, so a given
 * bank instance reproduces the same stream sequence run after run.
 * Request k's generator seed is a pure function of (master seed, k)
 * (seedAt), so streams can also be drawn out of order, e.g. split
 * across threads, and still match the sequential draw.
 */
class SngBank
{
  public:
    explicit SngBank(uint64_t master_seed);

    /** Next independent bipolar stream for x in [-1,1]. */
    Bitstream bipolar(double x, size_t length);

    /** Next independent unipolar stream for p in [0,1]. */
    Bitstream unipolar(double p, size_t length);

    /** A fresh independent generator (for MUX select lines etc.). */
    Xoshiro256ss makeRng();

    /** Generator seed of the bank's request @p k (0-based, counting
     *  every call above): SplitMix64's draw k of the master seed. */
    uint64_t seedAt(uint64_t k) const
    {
        return SplitMix64(master_seed_ + k * SplitMix64::kGamma).next();
    }

  private:
    uint64_t master_seed_;
    uint64_t next_ = 0; //!< index of the next request
};

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_SNG_H
