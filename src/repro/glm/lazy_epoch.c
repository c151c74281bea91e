/* The GLM loops over raw CSR arrays (see repro/glm/native.py), each with
 * the float operations of its NumPy body in the same order.  FMA
 * contraction would change the bits: -ffp-contract=off, no fast-math. */
#include <math.h>
#include <stdint.h>

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

/* g (dim long, zeroed) gets SciPy's (X[rows].T @ factor) / b at w, for
 * rows[:b] of the n_rows x dim CSR matrix whose arrays hold nnz entries:
 * margins as its CSR matvec, g[col] += data[k] * factor[r] in row-major
 * occurrence order as its CSC matvec, then / b once per touched column
 * (marked in divided, dim long, zeroed).  Each index is checked as read:
 * returns -2 if one is out of range, -1 if the callback raised, else nnz. */
int64_t repro_batch_gradient(void *ctx, int hinge, const void *indptr,
                             const void *indices, int wide, int64_t n_rows,
                             int64_t nnz, const double *data, const double *y,
                             const int64_t *rows, int64_t b, const double *w,
                             int64_t dim, double *margins, double *factor,
                             double *g, uint8_t *divided)
{
    int64_t total = 0;
    for (int64_t r = 0; r < b; r++) {
        int64_t i = rows[r];
        if (i < 0 || i >= n_rows)
            return -2;
        int64_t lo = AT(indptr, i), hi = AT(indptr, i + 1);
        if (lo < 0 || lo > hi || hi > nnz)
            return -2;
        double acc = 0.0;
        for (int64_t k = lo; k < hi; k++) {
            int64_t col = AT(indices, k);
            if (col < 0 || col >= dim)
                return -2;
            acc += data[k] * w[col];
        }
        margins[r] = acc;
        factor[r] = (y[i] * acc < 1.0) ? -y[i] : 0.0;
        total += hi - lo;
    }
    if (!hinge && repro_gradient_factor(ctx, 0, b) != 0)
        return -1;  /* else the callback overwrote the hinge factors */
    for (int64_t r = 0; r < b; r++) {
        int64_t i = rows[r], hi = AT(indptr, i + 1);
        for (int64_t k = AT(indptr, i); k < hi; k++)
            g[AT(indices, k)] += data[k] * factor[r];
    }
    for (int64_t r = 0; r < b; r++) {  /* an untouched +0.0 / b is +0.0 */
        int64_t i = rows[r], hi = AT(indptr, i + 1);
        for (int64_t k = AT(indptr, i); k < hi; k++) {
            int64_t col = AT(indices, k);
            if (!divided[col]) {
                divided[col] = 1;
                g[col] /= (double)b;
            }
        }
    }
    return total;
}
