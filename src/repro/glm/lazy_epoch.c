/* The GLM loops over raw CSR arrays (see repro/glm/native.py), each with
 * the float operations of its NumPy body in the same order.  FMA
 * contraction would change the bits: -ffp-contract=off, no fast-math. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__FAST_MATH__)
#error "the GLM loops must not be compiled with -ffast-math"
#endif

/* extern "Python": factor[:rows] = the loss's factors at margins[:rows]
 * for rows start.. of the call's row list; non-zero when it raised. */
static int repro_gradient_factor(void *ctx, int64_t start, int64_t rows);

#define AT(array, k) (wide ? ((const int64_t *)(array))[k] \
                           : (int64_t)((const int32_t *)(array))[k])

/* Updates v (length dim) in place over rows order[:n]: hinge's gradient
 * factor inline, any other loss's from the callback.  seen (dim long,
 * zeroed) holds 1 + base + a column's slot in the chunk that last touched
 * it, so values up to the current base are stale; g and touched hold the
 * chunk's gradient and column by slot.  stats gets (nnz_processed,
 * n_updates, dense_ops).  Returns 0, or -1 if the callback raised. */
int64_t repro_lazy_epoch(void *ctx, int hinge, const void *indptr,
                         const void *indices, int wide, const double *data,
                         const double *y, const int64_t *order, int64_t n,
                         int64_t chunk, double *v, int64_t dim, double lr,
                         int decay_on, double decay, double rebase_threshold,
                         double *margins, double *factor, double *g,
                         int64_t *touched, int64_t *seen, int64_t *stats)
{
    double scale = 1.0;
    int64_t nnz = 0, updates = 0, dense = 0, base = 0;
    for (int64_t a = 0; a < n; a += chunk) {
        int64_t rows = n - a < chunk ? n - a : chunk;
        int64_t chunk_nnz = 0, distinct = 0;
        for (int64_t r = 0; r < rows; r++) {
            int64_t i = order[a + r], hi = AT(indptr, i + 1);
            double acc = 0.0;
            for (int64_t k = AT(indptr, i); k < hi; k++, chunk_nnz++)
                acc += data[k] * v[AT(indices, k)];
            margins[r] = scale * acc;
            factor[r] = (y[i] * margins[r] < 1.0) ? -y[i] : 0.0;
        }
        if (!hinge && repro_gradient_factor(ctx, a, rows) != 0)
            return -1;  /* else the callback overwrote the hinge factors */
        for (int64_t r = 0; r < rows; r++) {
            int64_t i = order[a + r], hi = AT(indptr, i + 1);
            for (int64_t k = AT(indptr, i); k < hi; k++) {
                int64_t col = AT(indices, k), slot = seen[col] - 1 - base;
                if (slot < 0) {  /* first touch in this chunk */
                    slot = distinct++;
                    seen[col] = base + slot + 1;
                    touched[slot] = col;
                    g[slot] = 0.0;
                }
                g[slot] += data[k] * factor[r];
            }
        }
        if (decay_on) {
            scale *= decay;
            if (fabs(scale) < rebase_threshold) {
                for (int64_t j = 0; j < dim; j++)
                    v[j] *= scale;
                scale = 1.0;
                dense += dim;
            }
        }
        double c = (-lr) / scale;
        for (int64_t t = 0; t < distinct; t++)
            v[touched[t]] += c * (g[t] / (double)rows);
        dense += distinct;
        base += distinct;
        nnz += 2 * chunk_nnz;
        updates += 1;
    }
    for (int64_t j = 0; j < dim; j++)
        v[j] *= scale;
    stats[0] = nnz;
    stats[1] = updates;
    stats[2] = dense + dim;
    return 0;
}

/* The head of NumPy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
} bitgen_t;

/* Uniform on [0, top], top < 2^32 - 1, as NumPy's random_bounded_uint64:
 * no draw for 0, else Lemire's multiply-and-reject on next_uint32. */
static int64_t bounded(bitgen_t *bitgen, int64_t top)
{
    if (top == 0)
        return 0;
    uint64_t excl = (uint64_t)top + 1, m;
    uint32_t threshold = (uint32_t)((UINT32_MAX - (uint64_t)top) % excl);
    do
        m = (uint64_t)bitgen->next_uint32(bitgen->state) * excl;
    while ((uint32_t)m < threshold);
    return (int64_t)(m >> 32);
}

/* NumPy's _shuffle_int: swap a[i] and a[bounded(i)], i = n - 1 .. first. */
static void shuffle(bitgen_t *bitgen, int64_t n, int64_t first, int64_t *a)
{
    for (int64_t i = n - 1; i >= first; i--) {
        int64_t j = bounded(bitgen, i), swap = a[j];
        a[j] = a[i];
        a[i] = swap;
    }
}

/* rows[:size] = NumPy 2.4's Generator.choice(n, size, replace=False) from
 * bitgen, bit for bit: for n > 10000 and size > n / 50 the tail of a
 * shuffled arange(n) (rows n long), else Floyd's algorithm over a linear-
 * probe table (the fewest 2^k slots above (int)(1.2 * size)), shuffled.
 * Returns 0, or -1 if the table cannot be allocated. */
static int choice(bitgen_t *bitgen, int64_t n, int64_t size, int64_t *rows)
{
    if (n > 10000 && size > n / 50) {
        for (int64_t i = 0; i < n; i++)
            rows[i] = i;
        shuffle(bitgen, n, n - size > 1 ? n - size : 1, rows);
        memmove(rows, rows + (n - size), (size_t)size * sizeof *rows);
        return 0;
    }
    int64_t mask = (int64_t)(1.2 * (double)size);
    for (int shift = 1; shift < 64; shift <<= 1)
        mask |= mask >> shift;
    int64_t *table = malloc((size_t)(mask + 1) * sizeof *table);
    if (!table)
        return -1;
    for (int64_t slot = 0; slot <= mask; slot++)
        table[slot] = -1;
    for (int64_t j = n - size; j < n; j++) {
        int64_t val = bounded(bitgen, j), loc = val & mask;
        while (table[loc] != -1 && table[loc] != val)
            loc = (loc + 1) & mask;
        if (table[loc] != -1)  /* drawn before: take j instead */
            for (val = j, loc = j & mask; table[loc] != -1;)
                loc = (loc + 1) & mask;
        table[loc] = rows[j - n + size] = val;
    }
    free(table);
    shuffle(bitgen, size, 1, rows);
    return 0;
}

/* cols[:n], values[:n] (n to *support) get the non-+0.0 entries of SciPy's
 * (X[rows].T @ factor) / b at w in first-touch order, for rows[:b] of the
 * checked n_rows x dim CSR matrix; with a bitgen (a bitgen_t address, else
 * 0) choice draws rows[:b] first (rows n_rows long).  Margins as SciPy's
 * CSR matvec, g[col] += data[k] * factor[r] in row-major order as its CSC
 * matvec, / b once per column; g and marks (dim long) are zero on entry and
 * return: no error return follows a write to them.  Returns -3 if out of
 * memory, -2 if a row is out of range, -1 if the callback raised, else nnz. */
int64_t repro_batch_gradient(void *ctx, int hinge, const void *indptr,
                             const void *indices, int wide, int64_t n_rows,
                             const double *data, const double *y,
                             int64_t *rows, double *margins, double *factor,
                             uint8_t *marks, double *g, int64_t *cols,
                             double *values, int64_t *support,
                             uintptr_t bitgen, int64_t b, const double *w)
{
    if (bitgen && choice((bitgen_t *)bitgen, n_rows, b, rows) != 0)
        return -3;
    int64_t total = 0, n = 0, kept = 0;
    for (int64_t r = 0; r < b; r++) {
        int64_t i = rows[r];
        if (i < 0 || i >= n_rows)
            return -2;
        int64_t lo = AT(indptr, i), hi = AT(indptr, i + 1);
        double acc = 0.0;
        for (int64_t k = lo; k < hi; k++)
            acc += data[k] * w[AT(indices, k)];
        margins[r] = acc;
        factor[r] = (y[i] * acc < 1.0) ? -y[i] : 0.0;
        total += hi - lo;
    }
    if (!hinge && repro_gradient_factor(ctx, 0, b) != 0)
        return -1;  /* else the callback overwrote the hinge factors */
    for (int64_t r = 0; r < b; r++) {
        int64_t i = rows[r], hi = AT(indptr, i + 1);
        for (int64_t k = AT(indptr, i); k < hi; k++) {
            int64_t col = AT(indices, k);
            if (!marks[col]) {
                marks[col] = 1;
                cols[n++] = col;
            }
            g[col] += data[k] * factor[r];
        }
    }
    for (int64_t t = 0; t < n; t++) {
        int64_t col = cols[t];
        double value = g[col] / (double)b;
        marks[col] = 0;
        g[col] = 0.0;
        if (value != 0.0 || signbit(value)) {  /* -0.0: a tiny sum / b */
            cols[kept] = col;
            values[kept++] = value;
        }
    }
    *support = kept;
    return total;
}
