#include "baseline/golden.hh"

#include <algorithm>
#include <cstdlib>

namespace cisram::baseline {

bool
withinDotBudget(const int16_t *vec, size_t dim)
{
    // No early exit, so the loop vectorizes: rows are checked by the
    // million when an index is built.
    int32_t maxAbs = 0;
    int64_t l1 = 0;
    for (size_t d = 0; d < dim; ++d) {
        int32_t a = std::abs(static_cast<int32_t>(vec[d]));
        maxAbs = std::max(maxAbs, a);
        l1 += a;
    }
    return maxAbs <= kMaxElement && kMaxElement * l1 <= kMaxDot;
}

void
dotBlock(const int16_t *queries, size_t nq,
         const int16_t *const *rows, size_t nrows, size_t dim,
         int32_t *scores)
{
    size_t q = 0;
    // Four queries share each load of a row element.
    for (; q + 4 <= nq; q += 4) {
        const int16_t *q0 = queries + q * dim;
        const int16_t *q1 = q0 + dim;
        const int16_t *q2 = q1 + dim;
        const int16_t *q3 = q2 + dim;
        for (size_t r = 0; r < nrows; ++r) {
            const int16_t *row = rows[r];
            int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
            for (size_t d = 0; d < dim; ++d) {
                int32_t x = row[d];
                a0 += q0[d] * x;
                a1 += q1[d] * x;
                a2 += q2[d] * x;
                a3 += q3[d] * x;
            }
            int32_t *s = scores + q * nrows + r;
            s[0] = a0;
            s[nrows] = a1;
            s[2 * nrows] = a2;
            s[3 * nrows] = a3;
        }
    }
    for (; q < nq; ++q) {
        const int16_t *qv = queries + q * dim;
        for (size_t r = 0; r < nrows; ++r) {
            const int16_t *row = rows[r];
            int32_t a = 0;
            for (size_t d = 0; d < dim; ++d)
                a += qv[d] * static_cast<int32_t>(row[d]);
            scores[q * nrows + r] = a;
        }
    }
}

} // namespace cisram::baseline
