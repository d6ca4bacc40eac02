/* Native batched 2x2 rotation-chain kernels for the "cchain" mesh backend.
 *
 * Shipped as source and compiled on first use (see build.py); the Python
 * wrappers pass raw complex128 buffers as interleaved (re, im) double pairs,
 * which matches numpy's in-memory layout exactly, so every kernel operates
 * in place on the caller's arrays with zero marshalling.
 *
 * The closed forms are bit-for-bit the ones the numpy engine evaluates
 * (engine.mzi_block_coefficients and the scalar Clements chain in
 * mzi_mesh._clements_chain_scalar); the test-suite pins both kernels against
 * the pure-numpy reference walks to 1e-10.  Two symbols are exported:
 * cchain_propagate and cchain_clements_chain_stack.
 *
 * All integer arguments are C `long` (LP64 => 64-bit), matching np.intp on
 * the Linux targets this builds on.
 */

#include <math.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* propagate: apply a chain of MZIs to batched states, in place        */
/* ------------------------------------------------------------------ */

/* Entries of the MZI transfer matrix, closed form of Eq. 1:
 *   T = 1/2 [[(e^{it}-1)e^{ip},  i(e^{it}+1)],
 *            [i(e^{it}+1)e^{ip}, 1-e^{it}   ]]
 * scaled by the per-MZI amplitude transmission.  blocks[k] holds the four
 * complex entries (t00, t01, t10, t11) as eight doubles.
 */
static void mzi_blocks(const double *thetas, const double *phis, long n_mzi,
                       double transmission, double *blocks)
{
    long k;
    for (k = 0; k < n_mzi; ++k) {
        double ct = cos(thetas[k]), st = sin(thetas[k]);
        double cp = cos(phis[k]), sp = sin(phis[k]);
        double half = 0.5 * transmission;
        double am_re = half * (ct - 1.0), am_im = half * st; /* half*(e^{it}-1) */
        double t01_re = -half * st, t01_im = half * (ct + 1.0);
        double *b = blocks + 8 * k;
        b[0] = am_re * cp - am_im * sp;   /* t00 = half*(e^{it}-1)*e^{ip} */
        b[1] = am_re * sp + am_im * cp;
        b[2] = t01_re;                    /* t01 = i*half*(e^{it}+1) */
        b[3] = t01_im;
        b[4] = t01_re * cp - t01_im * sp; /* t10 = t01 * e^{ip} */
        b[5] = t01_re * sp + t01_im * cp;
        b[6] = -am_re;                    /* t11 = half*(1-e^{it}) */
        b[7] = -am_im;
    }
}

/* Rows per tile of the propagate walk: each MZI block is read once per tile
 * instead of once per row, and a tile of rows (8 x dim complex) stays in L1
 * for the meshes the compiler builds. */
#define PROPAGATE_TILE_ROWS 8

/* Propagate `batch` complex state rows of length `dim` through the MZI chain
 * in flat application order, then apply the output phase screen.  Applying
 * the MZIs sequentially is exactly the column program's semantics: the
 * greedy column schedule preserves per-mode application order, so columns
 * are only a vectorization of this walk (reference_apply is the same walk).
 *
 * Rows are independent, so the walk runs over tiles of PROPAGATE_TILE_ROWS
 * rows: every MZI is applied to the whole tile before the next block is
 * read.  Each row sees the same arithmetic in the same order as a one-row
 * call, so the result is bit-identical for every batch size.
 *
 * work:          (batch, dim) complex128, interleaved, mutated in place
 * modes:         (n_mzi,) upper mode index of each MZI, application order
 * thetas/phis:   (n_mzi,) phase arrays
 * output_phases: (dim,) complex128 interleaved
 * Returns 0 on success, -1 if scratch allocation failed (caller falls back).
 */
int cchain_propagate(double *work, long batch, long dim,
                     const long *modes, long n_mzi,
                     const double *thetas, const double *phis,
                     const double *output_phases, double transmission)
{
    double *blocks = NULL;
    long start, b, k, j;
    if (n_mzi > 0) {
        blocks = (double *) malloc((size_t)(8 * n_mzi) * sizeof(double));
        if (blocks == NULL)
            return -1;
        mzi_blocks(thetas, phis, n_mzi, transmission, blocks);
    }
    for (start = 0; start < batch; start += PROPAGATE_TILE_ROWS) {
        long stop = start + PROPAGATE_TILE_ROWS < batch
                        ? start + PROPAGATE_TILE_ROWS : batch;
        for (k = 0; k < n_mzi; ++k) {
            const double *t = blocks + 8 * k;
            double *u = work + 2 * (start * dim + modes[k]);
            for (b = start; b < stop; ++b, u += 2 * dim) {
                double ur = u[0], ui = u[1], lr = u[2], li = u[3];
                u[0] = t[0] * ur - t[1] * ui + t[2] * lr - t[3] * li;
                u[1] = t[0] * ui + t[1] * ur + t[2] * li + t[3] * lr;
                u[2] = t[4] * ur - t[5] * ui + t[6] * lr - t[7] * li;
                u[3] = t[4] * ui + t[5] * ur + t[6] * li + t[7] * lr;
            }
        }
        for (b = start; b < stop; ++b) {
            double *row = work + 2 * b * dim;
            for (j = 0; j < dim; ++j) {
                double pr = output_phases[2 * j], pi = output_phases[2 * j + 1];
                double vr = row[2 * j], vi = row[2 * j + 1];
                row[2 * j] = vr * pr - vi * pi;
                row[2 * j + 1] = vr * pi + vi * pr;
            }
        }
    }
    free(blocks);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Clements nulling chain                                              */
/* ------------------------------------------------------------------ */

/* One full anti-diagonal nulling chain over an (n, n) complex work matrix,
 * mutated in place; thetas/phis receive one entry per op.  This is the
 * native form of the "slim scalar chain" in mzi_mesh._clements_chain_scalar:
 * the ops form one sequential dependency chain, so a C loop (instead of
 * n(n-1)/2 Python iterations of small-slice updates) is the entire win.
 *
 * is_left[i] != 0 selects a left (row-pair) op on rows (mode, mode+1) with
 * pivot column `pivot`; otherwise a right (column-pair) op on columns
 * (mode, mode+1) with pivot row `pivot`.  `tol` is the dark-cell clamp
 * (NULL_TOLERANCE): pivot magnitudes at or below it are treated as zero so
 * dark subspaces get parked deterministically, matching the numpy solvers.
 */
static void cchain_clements_chain(double *work, long n,
                                  const unsigned char *is_left,
                                  const long *op_modes, const long *op_pivots,
                                  long n_ops, double *thetas, double *phis,
                                  double tol)
{
    long i, j;
    for (i = 0; i < n_ops; ++i) {
        long mode = op_modes[i], pivot = op_pivots[i];
        double ar, ai, br, bi, a_abs, b_abs, theta, phi;
        if (is_left[i]) {
            const double *pa = work + 2 * (mode * n + pivot);
            const double *pb = work + 2 * ((mode + 1) * n + pivot);
            ar = pa[0]; ai = pa[1]; br = pb[0]; bi = pb[1];
        } else {
            const double *pa = work + 2 * (pivot * n + mode);
            ar = pa[0]; ai = pa[1]; br = pa[2]; bi = pa[3];
        }
        a_abs = hypot(ar, ai);
        if (a_abs <= tol) a_abs = 0.0;
        b_abs = hypot(br, bi);
        if (b_abs <= tol) b_abs = 0.0;
        if (is_left[i]) {
            double ct, st, cp, sp;
            double t00r, t00i, t01r, t01i, t10r, t10i, t11r, t11i;
            theta = 2.0 * atan2(a_abs, b_abs);
            /* phi = arg(b * conj(a)) */
            phi = (a_abs > 0.0 && b_abs > 0.0)
                ? atan2(bi * ar - br * ai, br * ar + bi * ai) : 0.0;
            ct = cos(theta); st = sin(theta);
            cp = cos(phi); sp = sin(phi);
            /* t00 = 0.5(e^{it}-1)e^{ip}; t01 = 0.5i(e^{it}+1);
             * t10 = t01 e^{ip};          t11 = 0.5(1-e^{it}) */
            t00r = 0.5 * ((ct - 1.0) * cp - st * sp);
            t00i = 0.5 * ((ct - 1.0) * sp + st * cp);
            t01r = -0.5 * st; t01i = 0.5 * (ct + 1.0);
            t10r = t01r * cp - t01i * sp;
            t10i = t01r * sp + t01i * cp;
            t11r = 0.5 * (1.0 - ct); t11i = -0.5 * st;
            {
                double *ru = work + 2 * mode * n;
                double *rl = work + 2 * (mode + 1) * n;
                for (j = 0; j < n; ++j) {
                    double ur = ru[2 * j], ui = ru[2 * j + 1];
                    double lr = rl[2 * j], li = rl[2 * j + 1];
                    ru[2 * j] = t00r * ur - t00i * ui + t01r * lr - t01i * li;
                    ru[2 * j + 1] = t00r * ui + t00i * ur + t01r * li + t01i * lr;
                    rl[2 * j] = t10r * ur - t10i * ui + t11r * lr - t11i * li;
                    rl[2 * j + 1] = t10r * ui + t10i * ur + t11r * li + t11i * lr;
                }
            }
        } else {
            double ct, st, cp, sp, plr, pli;
            double h00r, h00i, h01r, h01i, h10r, h10i, h11r, h11i;
            theta = 2.0 * atan2(b_abs, a_abs);
            /* phi = -arg(-b * conj(a)) */
            phi = (a_abs > 0.0 && b_abs > 0.0)
                ? -atan2(-(bi * ar - br * ai), -(br * ar + bi * ai)) : 0.0;
            /* e_theta = e^{-it}, e_phi = e^{-ip}: conj-transposed block */
            ct = cos(theta); st = -sin(theta);
            cp = cos(phi); sp = -sin(phi);
            /* h00 = 0.5(e_t-1)e_p; h01 = -0.5i(e_t+1)e_p;
             * h10 = -0.5i(e_t+1);  h11 = 0.5(1-e_t) */
            h00r = 0.5 * ((ct - 1.0) * cp - st * sp);
            h00i = 0.5 * ((ct - 1.0) * sp + st * cp);
            plr = 0.5 * st; pli = -0.5 * (ct + 1.0);  /* -0.5i(e_t+1) */
            h10r = plr; h10i = pli;
            h01r = plr * cp - pli * sp;
            h01i = plr * sp + pli * cp;
            h11r = 0.5 * (1.0 - ct); h11i = -0.5 * st;
            {
                double *cu = work + 2 * mode;
                long stride = 2 * n;
                for (j = 0; j < n; ++j) {
                    double *p = cu + j * stride;
                    double ur = p[0], ui = p[1], lr = p[2], li = p[3];
                    p[0] = h00r * ur - h00i * ui + h10r * lr - h10i * li;
                    p[1] = h00r * ui + h00i * ur + h10r * li + h10i * lr;
                    p[2] = h01r * ur - h01i * ui + h11r * lr - h11i * li;
                    p[3] = h01r * ui + h01i * ur + h11r * li + h11i * lr;
                }
            }
        }
        thetas[i] = theta;
        phis[i] = phi;
    }
}

/* Stacked form: `count` independent (n, n) matrices decomposed back to back.
 * The chains of different stack members are fully independent, so the stack
 * loop stays outer for cache locality (one matrix resident at a time).
 * thetas/phis are (count, n_ops) row-major.
 */
int cchain_clements_chain_stack(double *work, long count, long n,
                                const unsigned char *is_left,
                                const long *op_modes, const long *op_pivots,
                                long n_ops, double *thetas, double *phis,
                                double tol)
{
    long s;
    for (s = 0; s < count; ++s)
        cchain_clements_chain(work + 2 * s * n * n, n, is_left, op_modes,
                              op_pivots, n_ops, thetas + s * n_ops,
                              phis + s * n_ops, tol);
    return 0;
}
