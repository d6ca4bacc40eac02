/* Native batched 2x2 rotation-chain kernels for the "cchain" mesh backend.
 *
 * Shipped as source and compiled on first use (see build.py); the Python
 * wrappers pass raw complex128 buffers as interleaved (re, im) double pairs,
 * which matches numpy's in-memory layout exactly, so every kernel operates
 * in place on the caller's arrays with zero marshalling.
 *
 * The MZI blocks of the walk are bit-for-bit the closed form the numpy engine
 * evaluates (engine.mzi_block_coefficients).  The Clements decomposition
 * builds each nulling block from its pivot pair without trig, algebraically
 * equal to the blocks of the numpy chains (mzi_mesh._clements_chain_scalar),
 * and its push phase evaluates the closed forms of
 * mzi_mesh._refactor_phase_mzi_vec.  The test-suite pins every kernel
 * against the pure-numpy paths.  Two symbols are exported:
 *
 *   cchain_propagate             the MZI chain + output phase screen on
 *                                batched states, or (transpose != 0) the
 *                                transposed mesh: the rows of the unitary
 *                                instead of its columns;
 *   cchain_clements_chain_stack  a whole Clements decomposition of a stack:
 *                                the nulling chain, then the push of every
 *                                left op through the output phase screen.
 *
 * All integer arguments are C `long` (LP64 => 64-bit), matching np.intp on
 * the Linux targets this builds on.  The source needs GCC or Clang (vector
 * extensions); on x86-64 glibc it also carries an AVX2 clone of the
 * decomposition chain, which needs the loader's ifunc support.
 */

#include <math.h>
#include <stdlib.h>
#include <sys/mman.h>

/* ------------------------------------------------------------------ */
/* propagate: apply a chain of MZIs to batched states, in place        */
/* ------------------------------------------------------------------ */

/* Entries of the MZI transfer matrix, closed form of Eq. 1:
 *   T = 1/2 [[(e^{it}-1)e^{ip},  i(e^{it}+1)],
 *            [i(e^{it}+1)e^{ip}, 1-e^{it}   ]]
 * scaled by the per-MZI amplitude transmission.  blocks[k] holds the four
 * complex entries (t00, t01, t10, t11) as eight doubles.
 */
static void mzi_block(double theta, double phi, double transmission,
                      double *b)
{
    double ct = cos(theta), st = sin(theta);
    double cp = cos(phi), sp = sin(phi);
    double half = 0.5 * transmission;
    double am_re = half * (ct - 1.0), am_im = half * st; /* half*(e^{it}-1) */
    double t01_re = -half * st, t01_im = half * (ct + 1.0);
    b[0] = am_re * cp - am_im * sp;   /* t00 = half*(e^{it}-1)*e^{ip} */
    b[1] = am_re * sp + am_im * cp;
    b[2] = t01_re;                    /* t01 = i*half*(e^{it}+1) */
    b[3] = t01_im;
    b[4] = t01_re * cp - t01_im * sp; /* t10 = t01 * e^{ip} */
    b[5] = t01_re * sp + t01_im * cp;
    b[6] = -am_re;                    /* t11 = half*(1-e^{it}) */
    b[7] = -am_im;
}

static void mzi_blocks(const double *thetas, const double *phis, long n_mzi,
                       double transmission, double *blocks)
{
    long k;
    for (k = 0; k < n_mzi; ++k)
        mzi_block(thetas[k], phis[k], transmission, blocks + 8 * k);
}

/* The 2x2 complex update of an element pair, (u, l) <- (x u + y l, z u + w l),
 * in place: u = (pu[0], pu[1]) and l = (pl[0], pl[1]) as (re, im), the block
 * entries x, y, z, w as (re, im) pairs of scalars of type T (double, or the
 * lanes_t vectors below). */
#define ROTATE(T, pu, pl, xr, xi, yr, yi, zr, zi, wr, wi)                    \
    do {                                                                     \
        T *pu_ = (pu), *pl_ = (pl);                                          \
        T ur = pu_[0], ui = pu_[1], lr = pl_[0], li = pl_[1];                \
        pu_[0] = (xr) * ur - (xi) * ui + (yr) * lr - (yi) * li;              \
        pu_[1] = (xr) * ui + (xi) * ur + (yr) * li + (yi) * lr;              \
        pl_[0] = (zr) * ur - (zi) * ui + (wr) * lr - (wi) * li;              \
        pl_[1] = (zr) * ui + (zi) * ur + (wr) * li + (wi) * lr;              \
    } while (0)

/* Multiply `count` interleaved complex entries of `row` by the phase screen. */
static void apply_phase_screen(double *row, long count, const double *phases)
{
    long j;
    for (j = 0; j < count; ++j) {
        double pr = phases[2 * j], pi = phases[2 * j + 1];
        double vr = row[2 * j], vi = row[2 * j + 1];
        row[2 * j] = vr * pr - vi * pi;
        row[2 * j + 1] = vr * pi + vi * pr;
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
 * With `transpose` set the rows walk the transposed mesh instead,
 * U^T = M_1^T ... M_last^T D: the phase screen first, then the MZIs in
 * reverse order with t01 and t10 swapped.  A basis vector e_i then comes out
 * as row i of U, which is how the dense build gets the leading rows of a
 * mesh without building the rest.
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
                     const double *output_phases, double transmission,
                     int transpose)
{
    double *blocks = NULL;
    long start, b, k, step;
    if (n_mzi > 0) {
        blocks = (double *) malloc((size_t)(8 * n_mzi) * sizeof(double));
        if (blocks == NULL)
            return -1;
        mzi_blocks(thetas, phis, n_mzi, transmission, blocks);
        if (transpose) {
            for (k = 0; k < n_mzi; ++k) {
                double *t = blocks + 8 * k, re = t[2], im = t[3];
                t[2] = t[4]; t[3] = t[5];
                t[4] = re; t[5] = im;
            }
        }
    }
    for (start = 0; start < batch; start += PROPAGATE_TILE_ROWS) {
        long stop = start + PROPAGATE_TILE_ROWS < batch
                        ? start + PROPAGATE_TILE_ROWS : batch;
        if (transpose)
            for (b = start; b < stop; ++b)
                apply_phase_screen(work + 2 * b * dim, dim, output_phases);
        for (step = 0; step < n_mzi; ++step) {
            const double *t;
            double *u;
            k = transpose ? n_mzi - 1 - step : step;
            t = blocks + 8 * k;
            u = work + 2 * (start * dim + modes[k]);
            for (b = start; b < stop; ++b, u += 2 * dim)
                ROTATE(double, u, u + 2,
                       t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]);
        }
        if (!transpose)
            for (b = start; b < stop; ++b)
                apply_phase_screen(work + 2 * b * dim, dim, output_phases);
    }
    free(blocks);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Clements nulling chain                                              */
/* ------------------------------------------------------------------ */

/* Solve one nulling op from its pivot pair (a, b) and build the 2x2 block
 * it applies, c = (c00, c01, c10, c11) as four (re, im) pairs: M(theta, phi)
 * on rows (mode, mode+1) for a left op, which nulls a; its conjugate
 * transpose on columns (mode, mode+1) for a right op, which nulls b.
 * `tol` is the dark-cell clamp (NULL_TOLERANCE): pivot magnitudes at or
 * below it are treated as zero so dark subspaces get parked
 * deterministically, matching the numpy solvers.
 *
 * theta and phi are the numpy solvers' atan2 forms.  The block needs no
 * trig: with r2 = |a|^2 + |b|^2, a left op has theta/2 = atan2(|a|, |b|),
 * so e^{i theta} = (|b|^2 - |a|^2 + 2i|a||b|) / r2, and
 * e^{i phi} = b conj(a) / (|a||b|); a right op mirrors both.
 */
static void nulling_op(int left, double ar, double ai, double br, double bi,
                       double tol, double *theta_out, double *phi_out,
                       double *c)
{
    double a = sqrt(ar * ar + ai * ai), b = sqrt(br * br + bi * bi);
    double pr = br * ar + bi * ai, pi = bi * ar - br * ai;  /* b conj(a) */
    double er = 1.0, ei = 0.0, r2, x, y, z;
    if (a <= tol) a = 0.0;
    if (b <= tol) b = 0.0;
    if (left) {
        *theta_out = 2.0 * atan2(a, b);
        *phi_out = 0.0;
        if (a > 0.0 && b > 0.0) {
            *phi_out = atan2(pi, pr);
            er = pr / (a * b); ei = pi / (a * b);
        }
    } else {
        *theta_out = 2.0 * atan2(b, a);
        *phi_out = 0.0;
        if (a > 0.0 && b > 0.0) {
            *phi_out = -atan2(-pi, -pr);
            er = -pr / (a * b); ei = -pi / (a * b);  /* e^{-i phi} */
        }
    }
    r2 = a * a + b * b;
    if (r2 == 0.0) {            /* both dark: theta = 0, the block is i*swap */
        if (left) b = 1.0; else a = 1.0;
        r2 = 1.0;
    }
    if (left) {
        /* t00 = (-a^2 + i ab) e^{ip} / r2; t01 = (-ab + i b^2) / r2;
         * t10 = t01 e^{ip};               t11 = (a^2 - i ab) / r2 */
        x = -a * a / r2; y = a * b / r2; z = b * b / r2;
        c[0] = x * er - y * ei; c[1] = x * ei + y * er;
        c[2] = -y; c[3] = z;
        c[4] = -y * er - z * ei; c[5] = -y * ei + z * er;
        c[6] = -x; c[7] = -y;
    } else {
        /* e_p = e^{-i phi}: h00 = (-b^2 - i ab) e_p / r2;
         * h10 = (-ab - i a^2) / r2; h01 = h10 e_p; h11 = (b^2 + i ab) / r2 */
        x = -b * b / r2; y = -a * b / r2; z = -a * a / r2;
        c[0] = x * er - y * ei; c[1] = x * ei + y * er;
        c[4] = y; c[5] = z;
        c[2] = y * er - z * ei; c[3] = y * ei + z * er;
        c[6] = -x; c[7] = -y;
    }
}

/* Slot of the next op in the application-order phase arrays: the right ops
 * in recording order fill the leading slots, the left ops in reversed
 * recording order the trailing ones (the order the push phase walks). */
static long op_slot(int left, long n_ops, long *left_seen, long *right_seen)
{
    return left ? n_ops - 1 - (*left_seen)++ : (*right_seen)++;
}

/* Up to LANES matrices run one chain in the lanes of a vector value (GCC and
 * Clang vector extension; the compiler maps it onto the target's SIMD
 * registers, two SSE2 or NEON registers on the baseline builds). */
#define LANES 4
typedef double lanes_t __attribute__((vector_size(LANES * sizeof(double))));

/* x86-64 glibc builds carry a second, AVX2 copy of the chain (one register
 * per lane vector), picked once at load time through an ifunc.  Other hosts
 * (musl has no ifunc) build the baseline copy only.  AVX2 brings no FMA, so
 * both copies round identically. */
#if defined(__has_attribute) && defined(__x86_64__) && defined(__GLIBC__)
#if __has_attribute(target_clones)
#define LANES_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef LANES_CLONES
#define LANES_CLONES
#endif

/* Full anti-diagonal nulling chains of `used` (1..LANES) (n, n) complex
 * matrices at once, each mutated in place; thetas[l]/phis[l] receive one
 * entry per op of matrix l, in application order (op_slot).  This is the
 * native form of the "slim scalar chain" in mzi_mesh._clements_chain_scalar:
 * the ops of one matrix form a sequential dependency chain, so a C loop
 * (instead of n(n-1)/2 Python iterations of small-slice updates) is the
 * entire win, and the lanes add the only parallelism there is: across
 * matrices.
 *
 * is_left[i] != 0 selects a left (row-pair) op on rows (mode, mode+1) with
 * pivot column `pivot`; otherwise a right (column-pair) op on columns
 * (mode, mode+1) with pivot row `pivot`.
 *
 * The matrices are packed into one (n, n) array of (re, im) lane pairs,
 * lane l from work[l], so every row or column update moves all of them with
 * vector operations; each op is solved per lane by the same nulling_op.
 * Lanes from `used` up are padding: never solved, never written back.  Each
 * real lane sees the same arithmetic whatever the other lanes hold, so the
 * result does not depend on the grouping.
 * Returns -1 if the scratch allocation failed.
 */
LANES_CLONES
static int clements_chain_lanes(double *const *work, long used, long n,
                                const unsigned char *is_left,
                                const long *op_modes, const long *op_pivots,
                                long n_ops, double *const *thetas,
                                double *const *phis, double tol)
{
    long e, i, j, k, lane, left_seen = 0, right_seen = 0;
    size_t bytes = (size_t)(2 * n * n) * sizeof(lanes_t);
    /* mapped, not malloc'ed: freeing a large malloc block raises glibc's
     * mmap threshold for the rest of the process, which kept later numpy
     * arrays on the heap and cost ~5 MB of peak RSS over a compile */
    lanes_t *w = (lanes_t *) mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (w == MAP_FAILED)
        return -1;
    for (e = 0; e < 2 * n * n; ++e)
        for (lane = 0; lane < LANES; ++lane)
            w[e][lane] = work[lane < used ? lane : 0][e];
    for (i = 0; i < n_ops; ++i) {
        long mode = op_modes[i], pivot = op_pivots[i];
        long slot = op_slot(is_left[i], n_ops, &left_seen, &right_seen);
        double block[8];
        lanes_t c[8], *pu, *pl;
        if (is_left[i]) {
            pu = w + 2 * (mode * n + pivot); pl = pu + 2 * n;
        } else {
            pu = w + 2 * (pivot * n + mode); pl = pu + 2;
        }
        for (lane = 0; lane < LANES; ++lane) {
            if (lane < used)
                nulling_op(is_left[i], pu[0][lane], pu[1][lane], pl[0][lane],
                           pl[1][lane], tol, thetas[lane] + slot,
                           phis[lane] + slot, block);
            for (k = 0; k < 8; ++k)
                c[k][lane] = block[k];
        }
        /* the pair's entries left of the pivot column (left op) or below
         * the pivot row (right op) were nulled in both rows or columns by
         * earlier ops, so the rotation skips them; the numpy chains rotate
         * the full pair and stay the oracle */
        if (is_left[i]) {
            lanes_t *ru = w + 2 * mode * n, *rl = ru + 2 * n;
            for (j = pivot; j < n; ++j)
                ROTATE(lanes_t, ru + 2 * j, rl + 2 * j,
                       c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]);
        } else {
            lanes_t *cu = w + 2 * mode;
            for (j = 0; j <= pivot; ++j)
                ROTATE(lanes_t, cu + 2 * j * n, cu + 2 * j * n + 2,
                       c[0], c[1], c[4], c[5], c[2], c[3], c[6], c[7]);
        }
    }
    for (e = 0; e < 2 * n * n; ++e)
        for (lane = 0; lane < used; ++lane)
            work[lane][e] = w[e][lane];
    munmap(w, bytes);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Clements push phase                                                 */
/* ------------------------------------------------------------------ */

typedef struct { double re, im; } cplx;

static cplx conj_mul(cplx a, cplx b)  /* conj(a) * b */
{
    cplx r = { a.re * b.re + a.im * b.im, a.re * b.im - a.im * b.re };
    return r;
}

static cplx cdiv(cplx a, cplx b)      /* Smith's algorithm */
{
    cplx r;
    if (fabs(b.re) >= fabs(b.im)) {
        double ratio = b.im / b.re, denom = b.re + b.im * ratio;
        r.re = (a.re + a.im * ratio) / denom;
        r.im = (a.im - a.re * ratio) / denom;
    } else {
        double ratio = b.re / b.im, denom = b.re * ratio + b.im;
        r.re = (a.re * ratio + a.im) / denom;
        r.im = (a.im * ratio - a.re) / denom;
    }
    return r;
}

/* Commute one left op through the output phase screen, in place.
 *
 * After the nulling chain, U = L_1^{-1} ... L_q^{-1} D M_p ... M_1.  The push
 * walks the left ops in reversed recording order -- slots n_ops - n_left ..
 * n_ops - 1 of the application-order arrays -- and refactors each
 * L^{-1} diag(d0, d1) = A on its mode pair as diag(d0', d1') M(theta', phi'),
 * which leaves U = D' * (physical MZI chain).  The closed forms are those of
 * mzi_mesh._refactor_phase_mzi_vec, 1e-12 branch thresholds included: with
 * x = |a00|, y = |a01| and r = |(x, y)|, theta' = 2 atan2(x, y), so
 * sin(theta'/2) = x/r, cos(theta'/2) = y/r and e^{i phi'} = (a00/x)
 * conj(a01/y), and M(theta', phi') needs no further trig.
 *
 * d:           (d0, d1) of the op's mode pair, complex128 interleaved
 * theta, phi:  the left op's phases in, the pushed MZI's phases out
 */
static void push_op(double *d, double *theta, double *phi)
{
    double l[8], x, y, r, sh, ch;
    cplx d0 = { d[0], d[1] }, d1 = { d[2], d[3] };
    cplx a00, a01, a10, a11, e_phi = { 1.0, 0.0 }, m01, n0, n1;
    mzi_block(*theta, *phi, 1.0, l);
    /* A = L^dagger diag(d0, d1) */
    a00 = conj_mul((cplx) { l[0], l[1] }, d0);
    a01 = conj_mul((cplx) { l[4], l[5] }, d1);
    a10 = conj_mul((cplx) { l[2], l[3] }, d0);
    a11 = conj_mul((cplx) { l[6], l[7] }, d1);
    x = sqrt(a00.re * a00.re + a00.im * a00.im);
    y = sqrt(a01.re * a01.re + a01.im * a01.im);
    r = sqrt(x * x + y * y);
    sh = x / r;
    ch = y / r;
    *theta = 2.0 * atan2(x, y);
    *phi = 0.0;
    if (sh > 1e-12 && ch > 1e-12) {
        *phi = atan2(a00.im, a00.re) - atan2(a01.im, a01.re);
        e_phi = conj_mul((cplx) { a01.re / y, a01.im / y },
                         (cplx) { a00.re / x, a00.im / x });
    }
    /* with h = e^{i theta'/2} = ch + i sh: m01 = i ch h, m10 = m01 e^{i phi'},
     * m00 = i sh h e^{i phi'}, m11 = -i sh h; |m01| = |m10| = ch, and a 2x2
     * unitary row never has both entries tiny, so the selected denominator
     * is always well conditioned */
    m01 = (cplx) { -ch * sh, ch * ch };
    if (ch > 1e-12) {
        n0 = cdiv(a01, m01);
        n1 = cdiv(a10, (cplx) { m01.re * e_phi.re - m01.im * e_phi.im,
                                m01.re * e_phi.im + m01.im * e_phi.re });
    } else {
        cplx m00 = { -sh * sh, sh * ch };
        n0 = cdiv(a00, (cplx) { m00.re * e_phi.re - m00.im * e_phi.im,
                                m00.re * e_phi.im + m00.im * e_phi.re });
        n1 = cdiv(a11, (cplx) { sh * sh, -sh * ch });
    }
    d[0] = n0.re; d[1] = n0.im;
    d[2] = n1.re; d[3] = n1.im;
}

/* Stacked form: `count` independent (n, n) matrices decomposed back to back,
 * each by its nulling chain and then its push phase.  The chains run in
 * groups of up to LANES matrices (clements_chain_lanes); the grouping never
 * changes a result.
 *
 * work:          (count, n, n) complex128, nulled in place
 * modes:         (n_ops,) upper mode of every MZI in application order
 * thetas/phis:   (count, n_ops) row-major, receive the mesh phases in
 *                application order
 * output_phases: (count, n) complex128, receive the output phase screens
 * Returns 0 on success, -1 if scratch allocation failed.
 */
int cchain_clements_chain_stack(double *work, long count, long n,
                                const unsigned char *is_left,
                                const long *op_modes, const long *op_pivots,
                                long n_ops, const long *modes,
                                double *thetas, double *phis,
                                double *output_phases, double tol)
{
    long s, i, slot, lane, n_left = 0;
    for (s = 0; s < count; s += LANES) {
        long used = count - s < LANES ? count - s : LANES;
        double *matrices[LANES], *lane_thetas[LANES], *lane_phis[LANES];
        for (lane = 0; lane < used; ++lane) {
            matrices[lane] = work + 2 * (s + lane) * n * n;
            lane_thetas[lane] = thetas + (s + lane) * n_ops;
            lane_phis[lane] = phis + (s + lane) * n_ops;
        }
        if (clements_chain_lanes(matrices, used, n, is_left, op_modes,
                                 op_pivots, n_ops, lane_thetas, lane_phis,
                                 tol) != 0)
            return -1;
    }
    for (i = 0; i < n_ops; ++i)
        n_left += is_left[i] != 0;
    for (s = 0; s < count; ++s) {
        const double *matrix = work + 2 * s * n * n;
        double *diagonal = output_phases + 2 * s * n;
        for (i = 0; i < n; ++i) {
            diagonal[2 * i] = matrix[2 * (i * n + i)];
            diagonal[2 * i + 1] = matrix[2 * (i * n + i) + 1];
        }
        for (slot = n_ops - n_left; slot < n_ops; ++slot)
            push_op(diagonal + 2 * modes[slot], thetas + s * n_ops + slot,
                    phis + s * n_ops + slot);
    }
    return 0;
}
