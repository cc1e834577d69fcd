/**
 * @file
 * The golden layer's scoring core: one exactness budget and one
 * int16 dot kernel.
 *
 * Every CPU golden — the flat index, the filtered and IVF scans,
 * the per-epoch corpus view, probe selection and the k-means
 * assignment — scores through dotBlock(). The budget below is what
 * makes its int32 accumulator exact and its float-reported scores
 * bit-comparable with the device's; it is checked once per vector
 * where vectors enter the golden layer, never per dot.
 */

#ifndef CISRAM_BASELINE_GOLDEN_HH
#define CISRAM_BASELINE_GOLDEN_HH

#include <cstddef>
#include <cstdint>

namespace cisram::baseline {

/**
 * The exactness budget. Embedding and query elements are quantized
 * to [-kMaxElement, kMaxElement] (workloads.hh), and every inner
 * product satisfies |dot| <= kMaxDot: the range of the device's
 * native int16 distance accumulator. The same bound keeps the
 * golden's int32 accumulator exact and every score exactly
 * representable as a float (kMaxDot < 2^24).
 */
constexpr int32_t kMaxElement = 7;
constexpr int32_t kMaxDot = INT16_MAX;

/**
 * True iff `vec` (dim elements) is inside the budget: every element
 * in [-kMaxElement, kMaxElement] and kMaxElement * sum_d |vec[d]| <=
 * kMaxDot. Then its dot with any other in-budget vector is within
 * kMaxDot, whatever the dimension.
 */
bool withinDotBudget(const int16_t *vec, size_t dim);

/**
 * The one int16 dot kernel: scores[q * nrows + r] = queries[q] .
 * rows[r] for `nq` contiguous queries (nq x dim) against `nrows`
 * rows given by pointer, so contiguous index slices, gathered ids
 * and freshly generated row blocks all feed it alike. int32
 * accumulation, exact for in-budget inputs. Plain loops, blocked
 * four queries per row pass, which the compiler vectorizes.
 */
void dotBlock(const int16_t *queries, size_t nq,
              const int16_t *const *rows, size_t nrows, size_t dim,
              int32_t *scores);

} // namespace cisram::baseline

#endif // CISRAM_BASELINE_GOLDEN_HH
