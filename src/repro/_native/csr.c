/* CSR x dense block product, the epoch-boundary residual kernel.
 *
 * out[i, j] = sum over p in row i of data[p] * X[indices[p], j], for a
 * row-major (ncols, k) operand X and a row-major (nrows, k) result.
 * Each row is summed in index order, one accumulator per column, so
 * column j of the result depends on column j of X only: the product of
 * a column subset equals that subset of the full product, bit for bit.
 * Built with -ffp-contract=off so no a*x+s is fused into an FMA.
 */

#include <stdint.h>

void csr_matmat(int64_t nrows, int64_t k,
                const int64_t *restrict indptr,
                const int64_t *restrict indices,
                const double *restrict data,
                const double *restrict X,
                double *restrict out)
{
    for (int64_t i = 0; i < nrows; ++i) {
        const int64_t start = indptr[i], end = indptr[i + 1];
        if (k == 1) {
            /* One column (every matvec): a register accumulator instead
             * of a load and store of out[i] per entry. Same sum in the
             * same order, so bitwise the general loop's result, but 3-4x
             * faster (labels-block matvec 354 -> 87 us, best of 200, one
             * pinned x86-64 server core). */
            double s = 0.0;
            for (int64_t p = start; p < end; ++p)
                s += data[p] * X[indices[p]];
            out[i] = s;
            continue;
        }
        double *restrict row = out + i * k;
        for (int64_t j = 0; j < k; ++j)
            row[j] = 0.0;
        for (int64_t p = start; p < end; ++p) {
            const double a = data[p];
            const double *restrict xr = X + indices[p] * k;
            /* Four columns per step: -O2 vectorizes this straight-line
             * body but not the plain loop (2.4x faster at k = 51 on an
             * x86-64 server core). Each column still sums in index
             * order, so the result is bitwise that of the plain loop. */
            int64_t j = 0;
            for (; j + 4 <= k; j += 4) {
                row[j] += a * xr[j];
                row[j + 1] += a * xr[j + 1];
                row[j + 2] += a * xr[j + 2];
                row[j + 3] += a * xr[j + 3];
            }
            for (; j < k; ++j)
                row[j] += a * xr[j];
        }
    }
}
