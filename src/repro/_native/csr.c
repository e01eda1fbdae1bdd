/* The native kernels of the pools and of the epoch-boundary check.
 *
 * CSR x dense block product.
 *
 * out[i, j] = sum over p in row i of data[p] * X[indices[p], j], for a
 * row-major (ncols, k) operand X and a row-major (nrows, k) result.
 * Each row is summed in index order, one accumulator per column, so
 * column j of the result depends on column j of X only: the product of
 * a column subset equals that subset of the full product, bit for bit.
 * Built with -ffp-contract=off so no a*x+s is fused into an FMA.
 */

#include <stdint.h>
#include <time.h>
#ifdef __linux__
#include <limits.h>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

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

/* The epoch-boundary residual check: for each listed column c =
 * cols[q], out[q] = sum over rows i of (b[i, c] - A_i x_c)^2, for the
 * (ncols, k) operand x and the (nrows, k) right-hand side b, each read
 * in place with its row stride (ldx, ldb elements) and unit column
 * stride: the live iterate block needs no copy of its request columns.
 * The rows are visited in order, each product summed in index order as
 * in csr_matmat. NumPy's norm of B - A X along axis 0 picks its own
 * order (row order on the few-hundred-row blocks measured at two or
 * more columns, where the sums agree bit for bit; pairwise on a lone
 * contiguous column), so the two agree to rounding, not bitwise.
 * Returns -1, computing nothing, when a listed column is not in [0, k);
 * else 0. */
int column_residuals(int64_t nrows, int64_t k,
                     const int64_t *restrict indptr,
                     const int64_t *restrict indices,
                     const double *restrict data,
                     const double *restrict x, int64_t ldx,
                     const double *restrict b, int64_t ldb,
                     const int64_t *restrict cols, int64_t ncols,
                     double *restrict out)
{
    for (int64_t q = 0; q < ncols; ++q) {
        if (cols[q] < 0 || cols[q] >= k)
            return -1;
        out[q] = 0.0;
    }
    for (int64_t i = 0; i < nrows; ++i) {
        const int64_t start = indptr[i], end = indptr[i + 1];
        const double *br = b + i * ldb;
        int64_t q = 0;
        /* Four columns per pass over the row, their sums in registers:
         * on a 300-row matrix with ~7.5 entries a row, at k = 8, this
         * is 7.6 us against 11.8 us for update_block's scratch-array
         * sums (best of 200, one pinned x86-64 core), and each column
         * still sums in index order. */
        for (; q + 4 <= ncols; q += 4) {
            const int64_t c0 = cols[q], c1 = cols[q + 1];
            const int64_t c2 = cols[q + 2], c3 = cols[q + 3];
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t p = start; p < end; ++p) {
                const double a = data[p];
                const double *xr = x + indices[p] * ldx;
                s0 += a * xr[c0];
                s1 += a * xr[c1];
                s2 += a * xr[c2];
                s3 += a * xr[c3];
            }
            const double r0 = br[c0] - s0, r1 = br[c1] - s1;
            const double r2 = br[c2] - s2, r3 = br[c3] - s3;
            out[q] += r0 * r0;
            out[q + 1] += r1 * r1;
            out[q + 2] += r2 * r2;
            out[q + 3] += r3 * r3;
        }
        for (; q < ncols; ++q) {
            const int64_t c = cols[q];
            double s = 0.0;
            for (int64_t p = start; p < end; ++p)
                s += data[p] * x[indices[p] * ldx + c];
            const double r = br[c] - s;
            out[q] += r * r;
        }
    }
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

/* One update of row r on a lone column j: a register accumulator. */
static void update_lone(const struct row_segment *s, int64_t r, int64_t j)
{
    const int64_t start = s->indptr[r], end = s->indptr[r + 1], k = s->k;
    double *x = s->x;
    double dot = 0.0;
    for (int64_t p = start; p < end; ++p)
        dot += s->data[p] * x[s->indices[p] * k + j];
    const double gamma = (s->b[r * k + j] - dot) / s->norms[r];
    if (!s->project) {
        double *xg = x + (s->offset + r) * k + j;
        if (s->atomic)
            add_atomic(xg, s->beta * gamma);
        else
            *xg += s->beta * gamma;
        return;
    }
    const double step = s->beta * gamma;
    for (int64_t p = start; p < end; ++p)
        x[s->indices[p] * k + j] += step * s->data[p];
}

/* One update of row r on nact >= 2 active columns act[0..nact): the
 * row entries outside, the columns inside, one accumulator per column
 * in acc. Each column still sums in index order. `prefix` says act is
 * 0..nact-1, so column j is read at j without the indirection. */
static void update_block(const struct row_segment *s, int64_t r,
                         const int64_t *act, int64_t nact, int prefix)
{
    const int64_t start = s->indptr[r], end = s->indptr[r + 1], k = s->k;
    double *x = s->x;
    double *restrict acc = s->acc;
    for (int64_t j = 0; j < nact; ++j)
        acc[j] = 0.0;
    for (int64_t p = start; p < end; ++p) {
        const double a = s->data[p];
        const double *xr = x + s->indices[p] * k;
        int64_t j = 0;
        /* Four columns per step, as in csr_matmat. */
        if (prefix) {
            for (; j + 4 <= nact; j += 4) {
                acc[j] += a * xr[j];
                acc[j + 1] += a * xr[j + 1];
                acc[j + 2] += a * xr[j + 2];
                acc[j + 3] += a * xr[j + 3];
            }
            for (; j < nact; ++j)
                acc[j] += a * xr[j];
        } else {
            for (; j + 4 <= nact; j += 4) {
                acc[j] += a * xr[act[j]];
                acc[j + 1] += a * xr[act[j + 1]];
                acc[j + 2] += a * xr[act[j + 2]];
                acc[j + 3] += a * xr[act[j + 3]];
            }
            for (; j < nact; ++j)
                acc[j] += a * xr[act[j]];
        }
    }
    const double *br = s->b + r * k;
    const double norm = s->norms[r];
    for (int64_t j = 0; j < nact; ++j)
        acc[j] = (br[act[j]] - acc[j]) / norm;
    if (!s->project) {
        double *xg = x + (s->offset + r) * k;
        if (s->atomic) {
            for (int64_t j = 0; j < nact; ++j)
                add_atomic(xg + act[j], s->beta * acc[j]);
        } else {
            for (int64_t j = 0; j < nact; ++j)
                xg[act[j]] += s->beta * acc[j];
        }
        return;
    }
    for (int64_t p = start; p < end; ++p) {
        const double step = s->beta * s->data[p];
        double *xr = x + s->indices[p] * k;
        for (int64_t j = 0; j < nact; ++j)
            xr[act[j]] += step * acc[j];
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
    for (int64_t j = 0; j < nact; ++j)
        if (act[j] < 0 || act[j] >= s->k)
            return -1;
    struct philox_block blk = {-1, {0, 0, 0, 0}};
    const double *cdf = s->adaptive ? s->cdf : NULL;
    const int64_t wid = s->wid;
    const int prefix = nact > 0 && act[nact - 1] == nact - 1;
    int64_t *log = s->delay_log + wid * s->log_capacity;
    for (; done < target; ) {
        const int64_t r = draw_row(&blk, s->key0, s->key1, s->n_rows, wid,
                                   s->nproc, cdf, done);
        /* Ticket before the read: everything committed after this and
         * before our own commit raced with us. */
        const int64_t before = committed(s);
        if (nact == 1)
            update_lone(s, r, act[0]);
        else if (nact > 1)
            update_block(s, r, act, nact, prefix);
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
