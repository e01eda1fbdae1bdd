/* The native kernels of the pools and of their epoch boundaries:
 *
 *   csr_matmat        the CSR x dense block product;
 *   column_residuals  AsyRGS's per-column residual check;
 *   normal_residuals  AsyRK's normal-equations residual A^T (b - A x);
 *   row_segment       a pool worker's whole epoch segment (and
 *                     row_directions, its draws on their own);
 *   gate_*            the pools' start and end gates.
 *
 * The product, both checks and the segment's block update form their
 * row products A_r x_c through one gather, gather(): each column summed
 * in index order, one accumulator per column, so column c of a product
 * depends on column c of x only. The sums are the plain loop's, bit for
 * bit: built with -ffp-contract=off, no a*x+s is fused into an FMA.
 */

#include <stdint.h>
#include <time.h>
#ifdef __linux__
#include <limits.h>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

/* Two adjacent columns of one row in one 16-byte register (GCC and
 * Clang generic vectors: SSE2 on x86-64, NEON on AArch64). */
typedef double lanes2 __attribute__((vector_size(16)));

/* Columns i and i + 1 of the row xr, or column i and a zero lane when
 * i + 1 is not below w. An unaligned load; each lane is one aligned
 * double, so a load never tears an element another thread writes. */
static inline lanes2 load_lanes(const double *xr, int i, int w)
{
    lanes2 v = {xr[i], 0.0};
    if (i + 1 < w)
        __builtin_memcpy(&v, xr + i, sizeof v);
    return v;
}

/* out[j] = sum over p in start..end-1 of data[p] * x[indices[p] * ldx + j]
 * for j < w <= 8, in four registers. Each lane is a separate multiply
 * and add, in index order: the scalar loop's bits. Inlined with a
 * constant w; lanes past w are zero and never stored. */
static inline __attribute__((always_inline)) void
gather_pass(const int64_t *restrict indices, const double *restrict data,
            int64_t start, int64_t end, const double *x, int64_t ldx,
            int w, double *restrict out)
{
    if (w == 1) {  /* one column: a scalar register, fewer instructions */
        double s = 0.0;
        for (int64_t p = start; p < end; ++p)
            s += data[p] * x[indices[p] * ldx];
        *out = s;
        return;
    }
    lanes2 s0 = {0.0, 0.0}, s1 = s0, s2 = s0, s3 = s0;
    for (int64_t p = start; p < end; ++p) {
        const double *xr = x + indices[p] * ldx;
        const lanes2 a = {data[p], data[p]};
        s0 += a * load_lanes(xr, 0, w);
        if (w > 2)
            s1 += a * load_lanes(xr, 2, w);
        if (w > 4)
            s2 += a * load_lanes(xr, 4, w);
        if (w > 6)
            s3 += a * load_lanes(xr, 6, w);
    }
    const double sums[8] = {s0[0], s0[1], s1[0], s1[1],
                            s2[0], s2[1], s3[0], s3[1]};
    for (int j = 0; j < w; ++j)
        out[j] = sums[j];
}

/* out[j] = A_r x[:, j] for the w adjacent columns j < w of x (row
 * stride ldx), over the row's entries start..end-1: eight columns a
 * pass, the last pass (one to eight) by its width. Inlined, as is
 * gather_listed: a call a row cost a third of AsyRK's check on 5-entry
 * rows. x is not restrict: pool workers write it while others read. */
static inline __attribute__((always_inline)) void
gather(const int64_t *restrict indices, const double *restrict data,
       int64_t start, int64_t end, const double *x, int64_t ldx, int64_t w,
       double *restrict out)
{
    int64_t j = 0;
    for (; w - j > 8; j += 8)
        gather_pass(indices, data, start, end, x + j, ldx, 8, out + j);
#define REST(n) \
    case n: gather_pass(indices, data, start, end, x + j, ldx, n, out + j); break
    switch (w - j) {
    REST(8); REST(7); REST(6); REST(5); REST(4); REST(3); REST(2); REST(1);
    }
#undef REST
}

/* Listed columns are gathered over their span lo..hi (the columns
 * between computed and dropped) while it is at most this many times
 * their count, else one at a time: on 300-entry rows the span wins at
 * 17 columns in 49 and loses at 13 in 49. */
#define SPAN_LIMIT 3

/* out[c - lo] = A_r x[:, c] for each listed column c = cols[q], q < n,
 * all in lo..hi: over the span in one gather, or one gather a column
 * (see SPAN_LIMIT). Only out[c - lo] of listed columns is defined. */
static inline __attribute__((always_inline)) void
gather_listed(const int64_t *restrict indices, const double *restrict data,
              int64_t start, int64_t end, const double *x, int64_t ldx,
              const int64_t *restrict cols, int64_t n, int64_t lo,
              int64_t hi, double *restrict out)
{
    if (hi - lo + 1 <= SPAN_LIMIT * n) {
        gather(indices, data, start, end, x + lo, ldx, hi - lo + 1, out);
        return;
    }
    for (int64_t q = 0; q < n; ++q)
        gather(indices, data, start, end, x + cols[q], ldx, 1,
               out + cols[q] - lo);
}

/* The smallest and largest of n listed columns (hi < lo when n = 0,
 * so nothing is gathered), or -1 when one is not in [0, k); else 0. */
static int listed_span(const int64_t *cols, int64_t n, int64_t k,
                       int64_t *lo, int64_t *hi)
{
    *lo = k;
    *hi = -1;
    for (int64_t q = 0; q < n; ++q) {
        if (cols[q] < 0 || cols[q] >= k)
            return -1;
        *lo = cols[q] < *lo ? cols[q] : *lo;
        *hi = cols[q] > *hi ? cols[q] : *hi;
    }
    return 0;
}

/* CSR x dense block product: out[i, j] = sum over p in row i of
 * data[p] * X[indices[p], j], for a row-major (ncols, k) operand X and
 * a row-major (nrows, k) result. The product of a column subset equals
 * that subset of the full product, bit for bit. */
void csr_matmat(int64_t nrows, int64_t k,
                const int64_t *restrict indptr,
                const int64_t *restrict indices,
                const double *restrict data,
                const double *restrict X,
                double *restrict out)
{
    for (int64_t i = 0; i < nrows; ++i)
        gather(indices, data, indptr[i], indptr[i + 1], X, k, k, out + i * k);
}

/* The epoch-boundary residual check: for each listed column c =
 * cols[q], out[q] += sum over rows i of (b[i, c] - A_i x_c)^2 into the
 * caller's zeroed out, for the (ncols, k) operand x and the (nrows, k)
 * right-hand side b, each read in place with its row stride (ldx, ldb
 * elements) and unit column stride: the live iterate block needs no
 * copy of its request columns. work holds k doubles. The rows are
 * visited in order, each product summed in index order as in
 * csr_matmat. NumPy's norm of B - A X along axis 0 picks its own order
 * (row order at two or more columns, where the sums agree bit for bit;
 * pairwise on a lone contiguous column), so the two agree to rounding,
 * not bitwise. Returns -1, computing nothing, when a listed column is
 * not in [0, k); else 0. */
int column_residuals(int64_t nrows, int64_t k,
                     const int64_t *restrict indptr,
                     const int64_t *restrict indices,
                     const double *restrict data,
                     const double *restrict x, int64_t ldx,
                     const double *restrict b, int64_t ldb,
                     const int64_t *restrict cols, int64_t ncols,
                     double *restrict out, double *restrict work)
{
    int64_t lo, hi;
    if (listed_span(cols, ncols, k, &lo, &hi))
        return -1;
    for (int64_t i = 0; i < nrows; ++i) {
        const double *br = b + i * ldb;
        gather_listed(indices, data, indptr[i], indptr[i + 1], x, ldx, cols,
                      ncols, lo, hi, work);
        for (int64_t q = 0; q < ncols; ++q) {
            const double r = br[cols[q]] - work[cols[q] - lo];
            out[q] += r * r;
        }
    }
    return 0;
}

/* AsyRK's epoch-boundary check, the normal-equations residual: for
 * each listed column c = cols[q], g[j, q] = sum over rows i of
 * A[i, j] * (b[i, c] - A_i x_c) and sq[q] = sum over j of g[j, q]^2 in
 * row order, into the caller's zeroed row-major (n, ncols) block g and
 * sq. x (n rows) and b (nrows rows) are read in place with their row
 * strides, as in column_residuals; work holds k doubles. Each row's
 * residual is formed by the gather, then scattered over the row's
 * support four columns at a time in registers. Rows are visited in
 * order, so g[j, q] sums in the order of row j of the transpose: g
 * equals csr_matmat(A^T, b - csr_matmat(A, x)) bit for bit, with no
 * transpose and no copy of x. Returns -1, computing nothing, when a
 * listed column is not in [0, k); else 0. */
int normal_residuals(int64_t nrows, int64_t n, int64_t k,
                     const int64_t *restrict indptr,
                     const int64_t *restrict indices,
                     const double *restrict data,
                     const double *restrict x, int64_t ldx,
                     const double *restrict b, int64_t ldb,
                     const int64_t *restrict cols, int64_t ncols,
                     double *restrict g, double *restrict sq,
                     double *restrict work)
{
    int64_t lo, hi;
    if (listed_span(cols, ncols, k, &lo, &hi))
        return -1;
    for (int64_t i = 0; i < nrows; ++i) {
        const int64_t start = indptr[i], end = indptr[i + 1];
        const double *br = b + i * ldb;
        gather_listed(indices, data, start, end, x, ldx, cols, ncols, lo, hi,
                      work);
        int64_t q = 0;
        for (; q + 4 <= ncols; q += 4) {  /* four residuals in registers */
            const double r0 = br[cols[q]] - work[cols[q] - lo];
            const double r1 = br[cols[q + 1]] - work[cols[q + 1] - lo];
            const double r2 = br[cols[q + 2]] - work[cols[q + 2] - lo];
            const double r3 = br[cols[q + 3]] - work[cols[q + 3] - lo];
            for (int64_t p = start; p < end; ++p) {
                const double a = data[p];
                double *gr = g + indices[p] * ncols + q;
                gr[0] += a * r0;
                gr[1] += a * r1;
                gr[2] += a * r2;
                gr[3] += a * r3;
            }
        }
        for (; q < ncols; ++q) {
            const double r = br[cols[q]] - work[cols[q] - lo];
            for (int64_t p = start; p < end; ++p)
                g[indices[p] * ncols + q] += data[p] * r;
        }
    }
    for (int64_t j = 0; j < n; ++j)
        for (int64_t q = 0; q < ncols; ++q)
            sq[q] += g[j * ncols + q] * g[j * ncols + q];
    return 0;
}

/* One worker's epoch segment of the pool (Algorithm 1, lines 5-7, plus
 * the pool's bookkeeping): the one per-draw step every pool worker runs.
 *
 * Each draw takes the worker's next direction from the Philox stream,
 * gathers row r from the live shared iterate, forms
 * gamma = (b[r] - A_r x) / norms[r] over the active columns and
 * scatters: into iterate row offset + r (the coordinate rule, AsyRGS
 * and its shards) or into the row's support (the projection rule,
 * Kaczmarz). It then commits its progress ticket and logs how many
 * foreign commits landed during its span.
 *
 * x is deliberately not restrict: the pool's other worker threads write
 * it while this one reads, and those reads are the paper's inconsistent
 * reads. With `atomic` set, each element the coordinate rule writes is
 * added to by one compare-exchange (Assumption A-1); the gather stays
 * unlocked.
 */

/* The pool's shared arrays and a worker's fixed parameters, bound once
 * per worker (see repro._native.RowSegment). */
struct row_segment {
    const int64_t *indptr;
    const int64_t *indices;
    const double *data;
    const double *b;        /* (n_rows, k), row-major */
    const double *norms;    /* (n_rows,) */
    const double *cdf;      /* (n_rows,), read in adaptive mode only */
    double *x;              /* (x_rows, k), row-major, shared */
    double *acc;            /* (k,) scratch: per-column sums, then gamma */
    int64_t *progress;      /* (nproc,) commit tickets, shared */
    int64_t *row_nnz;       /* (nproc,) */
    int64_t *col_updates;   /* (nproc,) */
    int64_t *delay_sum;     /* (nproc,) */
    int64_t *delay_max;     /* (nproc,) */
    int64_t *delay_count;   /* (nproc,) */
    int64_t *delay_log;     /* (nproc, log_capacity) */
    int64_t n_rows, k, offset, project, adaptive, atomic, wid, nproc;
    int64_t log_capacity;
    double beta;
    uint32_t key0, key1;
};

/* Philox-4x32-10 (Salmon et al., SC'11), as repro.rng.philox4x32. */
static void philox4x32_10(uint32_t c[4], uint32_t k0, uint32_t k1)
{
    for (int round = 0; round < 10; ++round) {
        if (round) {
            k0 += 0x9E3779B9u;
            k1 += 0xBB67AE85u;
        }
        const uint64_t p0 = (uint64_t)0xD2511F53u * c[0];
        const uint64_t p1 = (uint64_t)0xCD9E8D57u * c[2];
        const uint32_t c0 = (uint32_t)(p1 >> 32) ^ c[1] ^ k0;
        const uint32_t c2 = (uint32_t)(p0 >> 32) ^ c[3] ^ k1;
        c[0] = c0;
        c[1] = (uint32_t)p1;
        c[2] = c2;
        c[3] = (uint32_t)p0;
    }
}

/* The last Philox block evaluated: consecutive stream positions share
 * a block of four words. */
struct philox_block {
    int64_t index;
    uint32_t words[4];
};

/* Word `position` of the keyed stream: block position / 4 as a 64-bit
 * counter in the first two lanes, the word at position mod 4. */
static uint32_t stream_word(struct philox_block *blk, uint32_t k0,
                            uint32_t k1, int64_t position)
{
    const int64_t index = position >> 2;
    if (index != blk->index) {
        blk->words[0] = (uint32_t)index;
        blk->words[1] = (uint32_t)((uint64_t)index >> 32);
        blk->words[2] = 0;
        blk->words[3] = 0;
        philox4x32_10(blk->words, k0, k1);
        blk->index = index;
    }
    return blk->words[position & 3];
}

/* The row a worker draws at its local position `done`: global stream
 * position wid + done * nproc, mapped to {0..n_rows-1} by the
 * multiply-shift (w * n_rows) >> 32. With a CDF, that uniform draw d is
 * mapped through the inverse CDF at the stratified quantile
 * (d + 1/2) / n_rows: the first index whose CDF value exceeds it
 * (NumPy's searchsorted side="right"), clamped to n_rows - 1. */
static int64_t draw_row(struct philox_block *blk, uint32_t k0, uint32_t k1,
                        int64_t n_rows, int64_t wid, int64_t nproc,
                        const double *cdf, int64_t done)
{
    const uint32_t w = stream_word(blk, k0, k1, wid + done * nproc);
    int64_t d = (int64_t)(((uint64_t)w * (uint64_t)n_rows) >> 32);
    if (cdf) {
        const double u = ((double)d + 0.5) / (double)n_rows;
        int64_t lo = 0, hi = n_rows;
        while (lo < hi) {
            const int64_t mid = lo + ((hi - lo) >> 1);
            if (u < cdf[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        d = lo < n_rows - 1 ? lo : n_rows - 1;
    }
    return d;
}

/* Rows drawn at local positions start .. start + count - 1, into out
 * (cdf is NULL for uniform sampling): the draws row_segment makes. */
void row_directions(uint32_t key0, uint32_t key1, int64_t n_rows,
                    int64_t wid, int64_t nproc, const double *cdf,
                    int64_t start, int64_t count, int64_t *out)
{
    struct philox_block blk = {-1, {0, 0, 0, 0}};
    for (int64_t i = 0; i < count; ++i)
        out[i] = draw_row(&blk, key0, key1, n_rows, wid, nproc, cdf,
                          start + i);
}

static int64_t committed(const struct row_segment *s)
{
    int64_t total = 0;
    for (int64_t w = 0; w < s->nproc; ++w)
        total += __atomic_load_n(&s->progress[w], __ATOMIC_RELAXED);
    return total;
}

/* *xi += v as one indivisible read-modify-write: a 64-bit
 * compare-exchange loop on the element, retried while another worker
 * wrote it in between. The sum is the plain += of the same operands,
 * so an exchange that succeeds at once (always, at one worker) stores
 * the non-atomic path's bits. */
static void add_atomic(double *xi, double v)
{
    double seen, sum;
    __atomic_load(xi, &seen, __ATOMIC_RELAXED);
    do
        sum = seen + v;
    while (!__atomic_compare_exchange(xi, &seen, &sum, 1, __ATOMIC_RELAXED,
                                      __ATOMIC_RELAXED));
}

/* One update of row r on nact >= 1 active columns act[0..nact), all
 * in lo..hi: the gather leaves column c's sum in acc[c - lo], which
 * then holds its gamma. */
static void update_block(const struct row_segment *s, int64_t r,
                         const int64_t *act, int64_t nact, int64_t lo,
                         int64_t hi)
{
    const int64_t start = s->indptr[r], end = s->indptr[r + 1], k = s->k;
    double *x = s->x;
    double *restrict acc = s->acc;
    if (nact == 1)  /* one column: the scalar pass, inlined */
        gather_pass(s->indices, s->data, start, end, x + lo, k, 1, acc);
    else
        gather_listed(s->indices, s->data, start, end, x, k, act, nact, lo,
                      hi, acc);
    const double *br = s->b + r * k;
    const double norm = s->norms[r];
    for (int64_t j = 0; j < nact; ++j)
        acc[act[j] - lo] = (br[act[j]] - acc[act[j] - lo]) / norm;
    if (!s->project) {
        double *xg = x + (s->offset + r) * k;
        if (s->atomic) {
            for (int64_t j = 0; j < nact; ++j)
                add_atomic(xg + act[j], s->beta * acc[act[j] - lo]);
        } else {
            for (int64_t j = 0; j < nact; ++j)
                xg[act[j]] += s->beta * acc[act[j] - lo];
        }
        return;
    }
    if (nact == 1) {  /* a lone column's step is beta * gamma */
        const double step = s->beta * acc[0];
        for (int64_t p = start; p < end; ++p)
            x[s->indices[p] * k + lo] += step * s->data[p];
        return;
    }
    for (int64_t p = start; p < end; ++p) {
        const double step = s->beta * s->data[p];
        double *xr = x + s->indices[p] * k;
        for (int64_t j = 0; j < nact; ++j)
            xr[act[j]] += step * acc[act[j] - lo];
    }
}

/* Run the worker's draws at local positions done .. target - 1 on the
 * active columns act[0..nact) (sorted, fixed for the segment); returns
 * target, the worker's new position, or -1, drawing nothing, when an
 * active column is not in [0, k). With no active column a draw still
 * commits and counts its row, but writes nothing. */
int64_t row_segment(const struct row_segment *s, const int64_t *act,
                    int64_t nact, int64_t done, int64_t target)
{
    int64_t lo, hi;
    if (listed_span(act, nact, s->k, &lo, &hi))
        return -1;
    struct philox_block blk = {-1, {0, 0, 0, 0}};
    const double *cdf = s->adaptive ? s->cdf : NULL;
    const int64_t wid = s->wid;
    int64_t *log = s->delay_log + wid * s->log_capacity;
    for (; done < target; ) {
        const int64_t r = draw_row(&blk, s->key0, s->key1, s->n_rows, wid,
                                   s->nproc, cdf, done);
        /* Ticket before the read: everything committed after this and
         * before our own commit raced with us. */
        const int64_t before = committed(s);
        if (nact > 0)
            update_block(s, r, act, nact, lo, hi);
        ++done;
        __atomic_store_n(&s->progress[wid], done, __ATOMIC_RELAXED);
        s->row_nnz[wid] += s->indptr[r + 1] - s->indptr[r];
        s->col_updates[wid] += nact;
        /* Write-log entry: foreign commits during our span. */
        const int64_t sample = committed(s) - before - 1;
        s->delay_sum[wid] += sample;
        if (sample > s->delay_max[wid])
            s->delay_max[wid] = sample;
        const int64_t j = s->delay_count[wid];
        if (j < s->log_capacity)
            log[j] = sample;
        s->delay_count[wid] = j + 1;
    }
    return done;
}

/* The pool's epoch gates, on three int64 words of its shared control
 * block (see repro._native.Gate): the error flag, the start gate's
 * generation and the end gate's arrival count. The parent opens the
 * start gate by zeroing the arrivals, bumping the generation and waking
 * every worker; each worker adds itself to the arrivals at the end of
 * its segment, and the last one wakes the parent.
 *
 * Sleeping is a futex on the low 32 bits of the word, with
 * FUTEX_PRIVATE_FLAG: the workers and the parent are threads of one
 * process, so the kernel keys the wait on that process's address space
 * alone. There is no spin phase: on one CPU a spin only delays the
 * thread it waits for. Every wait returns after at most `timeout`
 * seconds, so the caller can look around (a dead peer, a stop) between
 * slices. Elsewhere the wait is a poll with short sleeps. */

struct gate {
    int64_t *error;    /* nonzero once a worker failed */
    int64_t *start;    /* start-gate generation */
    int64_t *arrived;  /* workers at the end gate this epoch */
    int64_t nproc;
};

/* The futex word of an int64 slot: its low-order half. The high half
 * stays zero, so the slot reads as the word's value. */
static uint32_t *low_word(int64_t *slot)
{
    return (uint32_t *)slot + (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__);
}

static double now_s(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* Sleep while *word == seen, for at most `timeout` seconds (or until a
 * wake, a signal or a spurious return: callers re-check the word). */
static void word_wait(uint32_t *word, uint32_t seen, double timeout)
{
    if (timeout <= 0.0)
        return;
#ifdef __linux__
    struct timespec t;
    t.tv_sec = (time_t)timeout;
    t.tv_nsec = (long)((timeout - (double)t.tv_sec) * 1e9);
    syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, seen, &t, NULL, 0);
#else
    (void)word;
    (void)seen;
    struct timespec t = {0, 50000};  /* 50 us */
    if (timeout < 50e-6)
        t.tv_nsec = (long)(timeout * 1e9);
    nanosleep(&t, NULL);
#endif
}

static void word_wake(uint32_t *word, int count)
{
#ifdef __linux__
    syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, count, NULL, NULL, 0);
#else
    (void)word;
    (void)count;
#endif
}

/* Parent: open the start gate for one epoch. Every worker must be
 * parked at it (all arrived, or none started yet). */
void gate_open(const struct gate *g)
{
    __atomic_store_n(low_word(g->arrived), 0, __ATOMIC_SEQ_CST);
    __atomic_add_fetch(low_word(g->start), 1, __ATOMIC_SEQ_CST);
    word_wake(low_word(g->start), INT_MAX);
}

/* Parent: wait at most `timeout` seconds for the end gate. Returns 1
 * once every worker arrived, -1 once the error flag is set, 0 if the
 * slice ran out first. */
int gate_wait_end(const struct gate *g, double timeout)
{
    uint32_t *word = low_word(g->arrived);
    const double deadline = now_s() + timeout;
    for (;;) {
        const uint32_t seen = __atomic_load_n(word, __ATOMIC_ACQUIRE);
        if (__atomic_load_n(g->error, __ATOMIC_ACQUIRE))
            return -1;
        if (seen >= (uint32_t)g->nproc)
            return 1;
        const double left = deadline - now_s();
        if (left <= 0.0)
            return 0;
        word_wait(word, seen, left);
    }
}

/* Worker: wait at most `timeout` seconds for the start gate to move on
 * from generation `seen`; returns the generation then current (`seen`
 * if the slice ran out first). */
int64_t gate_wait_start(const struct gate *g, int64_t seen, double timeout)
{
    uint32_t *word = low_word(g->start);
    const double deadline = now_s() + timeout;
    for (;;) {
        const uint32_t now = __atomic_load_n(word, __ATOMIC_ACQUIRE);
        if (now != (uint32_t)seen)
            return now;
        const double left = deadline - now_s();
        if (left <= 0.0)
            return seen;
        word_wait(word, now, left);
    }
}

/* Worker: arrive at the end gate; the last arrival wakes the parent. */
void gate_arrive(const struct gate *g)
{
    uint32_t *word = low_word(g->arrived);
    if (__atomic_add_fetch(word, 1, __ATOMIC_SEQ_CST) == (uint32_t)g->nproc)
        word_wake(word, 1);
}

/* Worker: report a failure. The first nonzero `code` sticks in the
 * error flag; the end gate is opened so the parent sees it at once. */
void gate_fail(const struct gate *g, int64_t code)
{
    int64_t none = 0;
    __atomic_compare_exchange_n(g->error, &none, code, 0, __ATOMIC_SEQ_CST,
                                __ATOMIC_SEQ_CST);
    __atomic_add_fetch(low_word(g->arrived), 1, __ATOMIC_SEQ_CST);
    word_wake(low_word(g->arrived), INT_MAX);
}
