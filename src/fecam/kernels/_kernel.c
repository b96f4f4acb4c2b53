/* fecam compiled kernels: the two-step match and MNA stamping.
 *
 * Part 1 is the two-step ternary match over the valid-compacted, bit-compressed
 * derived planes (see fecam/planes.py):
 *
 *   step 1 (even cell positions):  (qe & ce) == ve
 *   step 2 (odd  cell positions):  (qo & co) == vo
 *
 * All inputs are the exact arrays the NumPy kernel consumes —
 * (M, C) uint32 row-major planes, (Q, C) uint32 packed queries — and
 * all outputs are integer counts, so results are bit-identical to the
 * NumPy evaluation by construction (the hypothesis suites enforce it).
 *
 * Evaluation is branchless per row (both steps always computed, the
 * counts segmented afterwards): slower on paper than early-exit for
 * wildcard-light tables, but it auto-vectorizes, which wins by an
 * order of magnitude in practice.  The early-termination *energy*
 * story is arithmetic over the counts downstream, not a property of
 * how software evaluates them.
 *
 * Banks are contiguous row segments of the compacted planes
 * (seg_starts has n_banks + 1 entries, bank b owning rows
 * [seg_starts[b], seg_starts[b+1])) — exactly the segment structure
 * the NumPy kernel recovers with reduceat/bincount.
 *
 * The omp pragmas are active only when built with -fopenmp; without
 * it they are ignored and the kernel runs single-threaded.
 *
 * Part 2 (fecam_mna_*, at the end of the file) assembles the SPICE
 * engine's Jacobian and residual and runs its Newton iteration around
 * the caller's linear solve; see the comments there.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define FECAM_API __attribute__((visibility("default")))

/* Bumped whenever an exported signature changes; the Python side
 * refuses a library whose ABI does not match. */
#define FECAM_KERNEL_ABI 5

FECAM_API int64_t fecam_kernel_abi(void) { return FECAM_KERNEL_ABI; }

FECAM_API int64_t fecam_kernel_openmp(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* Software pext(x, 0x5555...): identical masked-shift compaction to
 * fecam.planes.compress_even, so compressed queries are bit-identical
 * to the NumPy path's. */
static inline uint32_t pext_even(uint64_t x) {
    x &= 0x5555555555555555ULL;
    x = (x | (x >> 1))  & 0x3333333333333333ULL;
    x = (x | (x >> 2))  & 0x0F0F0F0F0F0F0F0FULL;
    x = (x | (x >> 4))  & 0x00FF00FF00FF00FFULL;
    x = (x | (x >> 8))  & 0x0000FFFF0000FFFFULL;
    x = (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
    return (uint32_t)x;
}

/* Compress n packed uint64 query chunks into their even- and odd-bit
 * uint32 halves (n = Q * n_chunks; layout is irrelevant elementwise). */
FECAM_API void fecam_compress_queries(const uint64_t *q, int64_t n,
                                      uint32_t *qe, uint32_t *qo) {
    for (int64_t i = 0; i < n; i++) {
        qe[i] = pext_even(q[i]);
        qo[i] = pext_even(q[i] >> 1);
    }
}

static inline int64_t row_eq(const uint32_t *q, const uint32_t *c,
                             const uint32_t *v, int64_t n_chunks) {
    uint32_t miss = 0;
    for (int64_t k = 0; k < n_chunks; k++)
        miss |= (q[k] & c[k]) ^ v[k];
    return miss == 0;
}

/* Per-(bank, query) step-1 eliminations, step-2 misses, and full
 * matches.  Outputs are (n_banks, n_q) int64 row-major; every cell is
 * written, so callers may pass uninitialized buffers. */
FECAM_API void fecam_count_matches(
    const uint32_t *ce, const uint32_t *ve,
    const uint32_t *co, const uint32_t *vo,       /* (M, C) row-major */
    const uint32_t *qe, const uint32_t *qo,       /* (Q, C) row-major */
    const int64_t *seg_starts,                    /* (n_banks + 1,)   */
    int64_t n_banks, int64_t n_q, int64_t n_chunks,
    int64_t *step1, int64_t *step2, int64_t *full, /* (n_banks, n_q)  */
    int64_t *per_query                             /* (n_q,) totals   */)
{
    if (n_chunks == 1) {
        /* Common case (width <= 64): one compressed chunk per row. */
#pragma omp parallel for schedule(static)
        for (int64_t q = 0; q < n_q; q++) {
            const uint32_t qe_q = qe[q];
            const uint32_t qo_q = qo[q];
            int64_t q_total = 0;
            for (int64_t b = 0; b < n_banks; b++) {
                const int64_t lo = seg_starts[b];
                const int64_t hi = seg_starts[b + 1];
                int64_t surv = 0;
                int64_t hits = 0;
                for (int64_t m = lo; m < hi; m++) {
                    const int64_t s1 = (qe_q & ce[m]) == ve[m];
                    const int64_t s2 = (qo_q & co[m]) == vo[m];
                    surv += s1;
                    hits += s1 & s2;
                }
                step1[b * n_q + q] = (hi - lo) - surv;
                step2[b * n_q + q] = surv - hits;
                full[b * n_q + q] = hits;
                q_total += hits;
            }
            per_query[q] = q_total;
        }
        return;
    }
#pragma omp parallel for schedule(static)
    for (int64_t q = 0; q < n_q; q++) {
        const uint32_t *qe_q = qe + q * n_chunks;
        const uint32_t *qo_q = qo + q * n_chunks;
        int64_t q_total = 0;
        for (int64_t b = 0; b < n_banks; b++) {
            const int64_t lo = seg_starts[b];
            const int64_t hi = seg_starts[b + 1];
            int64_t surv = 0;
            int64_t hits = 0;
            for (int64_t m = lo; m < hi; m++) {
                const uint32_t *crow = ce + m * n_chunks;
                const uint32_t *vrow = ve + m * n_chunks;
                const int64_t s1 = row_eq(qe_q, crow, vrow, n_chunks);
                surv += s1;
                if (s1)
                    hits += row_eq(qo_q, co + m * n_chunks,
                                   vo + m * n_chunks, n_chunks);
            }
            step1[b * n_q + q] = (hi - lo) - surv;
            step2[b * n_q + q] = surv - hits;
            full[b * n_q + q] = hits;
            q_total += hits;
        }
        per_query[q] = q_total;
    }
}

/* Candidate-index ("sparse") variant of the count pass, mirroring the
 * NumPy kernel's "table" strategy: the 256-entry step-1 index maps a
 * query's low compressed even byte to the short ascending list of rows
 * consistent with it; every other row is a guaranteed step-1 miss by
 * index construction.  ce0_at/ve0_at are the candidates' chunk-0
 * planes pre-gathered in index order (sequential reads), indices maps
 * positions back to compacted-plane rows for the remaining chunks,
 * step 2, and bank attribution.  For typical care densities this
 * touches a few percent of the Q x M pairs.
 *
 * bank_of has M entries when n_banks > 1; with one bank it may be a
 * dummy (it is never read). */
FECAM_API void fecam_count_matches_sparse(
    const uint32_t *ce, const uint32_t *ve,
    const uint32_t *co, const uint32_t *vo,       /* (M, C) row-major */
    const uint32_t *qe, const uint32_t *qo,       /* (Q, C) row-major */
    const int64_t *indptr,                        /* (257,)           */
    const int64_t *indices,                       /* (K,) rows, asc.  */
    const uint32_t *ce0_at, const uint32_t *ve0_at, /* (K,) gathered  */
    const int64_t *bank_of,                       /* (M,) or dummy    */
    const int64_t *seg_counts,                    /* (n_banks,)       */
    int64_t n_banks, int64_t n_q, int64_t n_chunks,
    int64_t *step1, int64_t *step2, int64_t *full, /* (n_banks, n_q)  */
    int64_t *per_query                             /* (n_q,) totals   */)
{
#pragma omp parallel
    {
        /* Non-candidates are step-1 misses: start every bank at its
         * row count (decremented per survivor below) and zero the
         * rest.  Done row-major up front — per-query column writes
         * would touch a fresh cache line per (bank, query) cell. */
#pragma omp for schedule(static)
        for (int64_t b = 0; b < n_banks; b++) {
            int64_t *r1 = step1 + b * n_q;
            int64_t *r2 = step2 + b * n_q;
            int64_t *rf = full + b * n_q;
            const int64_t rows_b = seg_counts[b];
            for (int64_t q = 0; q < n_q; q++) {
                r1[q] = rows_b;
                r2[q] = 0;
                rf[q] = 0;
            }
        }
#pragma omp for schedule(static)
    for (int64_t q = 0; q < n_q; q++) {
        const uint32_t *qe_q = qe + q * n_chunks;
        const uint32_t *qo_q = qo + q * n_chunks;
        const uint32_t qe0 = qe_q[0];
        const int64_t xi = qe0 & 0xFF;
        const int64_t start = indptr[xi];
        const int64_t end = indptr[xi + 1];
        /* First a pure chunk-0 survivor count over the bucket — a
         * branch-free compare-sum the compiler vectorizes.  Most
         * queries have zero survivors (the paper's step-1 miss rate),
         * so the expensive per-survivor processing below rarely runs
         * and the common case stays a straight SIMD reduction. */
        int64_t n0 = 0;
        for (int64_t pos = start; pos < end; pos++)
            n0 += (int64_t)((qe0 & ce0_at[pos]) == ve0_at[pos]);
        per_query[q] = 0;
        if (n0 == 0)
            continue;
        int64_t q_total = 0;
        for (int64_t pos = start; pos < end; pos++) {
            if ((qe0 & ce0_at[pos]) != ve0_at[pos])
                continue;   /* chunk-0 step-1 miss */
            const int64_t m = indices[pos];
            if (n_chunks > 1
                && !row_eq(qe_q + 1, ce + m * n_chunks + 1,
                           ve + m * n_chunks + 1, n_chunks - 1))
                continue;   /* later-chunk step-1 miss */
            const int64_t b = (n_banks > 1) ? bank_of[m] : 0;
            step1[b * n_q + q]--;
            if (row_eq(qo_q, co + m * n_chunks,
                       vo + m * n_chunks, n_chunks)) {
                full[b * n_q + q]++;
                q_total++;
            } else {
                step2[b * n_q + q]++;
            }
        }
        per_query[q] = q_total;
    }
    }  /* omp parallel */
}

/* Second pass: emit the matching (query, arena row) pairs, grouped by
 * query with arena rows ascending — the NumPy kernel's (and a priority
 * encoder's) order.  offsets is the (n_q + 1,) exclusive prefix sum of
 * per-query match totals from fecam_count_matches; only queries that
 * actually matched are rescanned, so the pass costs O(matching
 * queries x rows), a vanishing share of typical workloads. */
FECAM_API void fecam_fill_matches(
    const uint32_t *ce, const uint32_t *ve,
    const uint32_t *co, const uint32_t *vo,       /* (M, C) row-major */
    const uint32_t *qe, const uint32_t *qo,       /* (Q, C) row-major */
    const int64_t *valid_rows,                    /* (M,) arena rows  */
    int64_t n_rows, int64_t n_q, int64_t n_chunks,
    const int64_t *offsets,                       /* (n_q + 1,)       */
    int64_t *match_q, int64_t *match_rows         /* (offsets[n_q],)  */)
{
#pragma omp parallel for schedule(dynamic, 64)
    for (int64_t q = 0; q < n_q; q++) {
        int64_t slot = offsets[q];
        const int64_t end = offsets[q + 1];
        if (slot == end)
            continue;
        const uint32_t *qe_q = qe + q * n_chunks;
        const uint32_t *qo_q = qo + q * n_chunks;
        for (int64_t m = 0; m < n_rows && slot < end; m++) {
            if (row_eq(qe_q, ce + m * n_chunks,
                       ve + m * n_chunks, n_chunks)
                && row_eq(qo_q, co + m * n_chunks,
                          vo + m * n_chunks, n_chunks)) {
                match_q[slot] = q;
                match_rows[slot] = valid_rows[m];
                slot++;
            }
        }
    }
}

/* Candidate-index variant of the fill pass.  Index lists ascend within
 * each bucket, so walking one emits rows in the same ascending order
 * as the full scan. */
FECAM_API void fecam_fill_matches_sparse(
    const uint32_t *ce, const uint32_t *ve,
    const uint32_t *co, const uint32_t *vo,       /* (M, C) row-major */
    const uint32_t *qe, const uint32_t *qo,       /* (Q, C) row-major */
    const int64_t *indptr,                        /* (257,)           */
    const int64_t *indices,                       /* (K,) rows, asc.  */
    const uint32_t *ce0_at, const uint32_t *ve0_at, /* (K,) gathered  */
    const int64_t *valid_rows,                    /* (M,) arena rows  */
    int64_t n_q, int64_t n_chunks,
    const int64_t *offsets,                       /* (n_q + 1,)       */
    int64_t *match_q, int64_t *match_rows         /* (offsets[n_q],)  */)
{
#pragma omp parallel for schedule(dynamic, 64)
    for (int64_t q = 0; q < n_q; q++) {
        int64_t slot = offsets[q];
        const int64_t end = offsets[q + 1];
        if (slot == end)
            continue;
        const uint32_t *qe_q = qe + q * n_chunks;
        const uint32_t *qo_q = qo + q * n_chunks;
        const uint32_t qe0 = qe_q[0];
        const int64_t xi = qe0 & 0xFF;
        const int64_t bucket_end = indptr[xi + 1];
        for (int64_t pos = indptr[xi];
             pos < bucket_end && slot < end; pos++) {
            if ((qe0 & ce0_at[pos]) != ve0_at[pos])
                continue;
            const int64_t m = indices[pos];
            if (n_chunks > 1
                && !row_eq(qe_q + 1, ce + m * n_chunks + 1,
                           ve + m * n_chunks + 1, n_chunks - 1))
                continue;
            if (row_eq(qo_q, co + m * n_chunks,
                       vo + m * n_chunks, n_chunks)) {
                match_q[slot] = q;
                match_rows[slot] = valid_rows[m];
                slot++;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* MNA stamping for the SPICE engine (fecam/spice/analysis.py).
 *
 * The circuit arrives as a flat table built once per analysis: one
 * 7-int64 row per stamp record, {kind, n0, n1, n2, n3, poff, soff},
 * with unknown indices in n0..n3 (-1 is ground), the record's
 * parameters at par + poff and its integration state at state + soff.
 * The element classes' record() methods write the rows, in circuit
 * order; a MOSFET is its channel row followed by its five capacitor
 * rows, a FeFET its channel row, seven capacitor rows, then the
 * polarization row.
 *
 * Contract: J and F are bit-identical to the per-element Python
 * stamp() loop.  Every contribution is added in the order stamp()
 * adds it, every expression keeps Python's operand order, and the
 * transcendental functions are the libm ones CPython's math module
 * calls.  That holds only while the compiler neither reassociates nor
 * contracts a*b + c into an FMA: build.py passes -ffp-contract=off and
 * never -ffast-math.
 */

enum { MNA_RES = 1, MNA_CAP, MNA_VSRC, MNA_MOS, MNA_FET, MNA_POL };
#define MNA_ROW 7

/* Unknown k of the iterate, 0.0 for ground (TerminalVoltages). */
#define MNA_V(k) ((k) < 0 ? 0.0 : x[k])

static inline void add_j(double *J, int64_t n, int64_t r, int64_t c,
                         double v) {
    if (r >= 0 && c >= 0)
        J[r * n + c] += v;
}

static inline void add_f(double *F, int64_t r, double v) {
    if (r >= 0)
        F[r] += v;
}

/* A two-terminal conductance g between a and b (resistor, capacitor
 * companion): the four Jacobian entries in stamp() order. */
static inline void add_g(double *J, int64_t n, int64_t a, int64_t b,
                         double g) {
    add_j(J, n, a, a, g);
    add_j(J, n, a, b, -g);
    add_j(J, n, b, a, -g);
    add_j(J, n, b, b, g);
}

/* fecam.devices.mosfet.softplus / _sigmoid / ekv_f / ekv_f_prime. */
static inline double softplus(double x) {
    if (x > 40.0) return x;
    if (x < -40.0) return exp(x);
    return log1p(exp(x));
}

static inline double sigmoid(double x) {
    if (x > 40.0) return 1.0;
    if (x < -40.0) return exp(x);
    return 1.0 / (1.0 + exp(-x));
}

static inline double ekv_f(double u) {
    const double s = softplus(u / 2.0);
    return s * s;
}

static inline double ekv_f_prime(double u) {
    return softplus(u / 2.0) * sigmoid(u / 2.0);
}

/* Channel rows stamp the drain-source current and its four partial
 * derivatives (columns in the element's terminal order). */
static inline void stamp_channel(double *J, double *F, int64_t n,
                                 const int64_t *nd, int64_t i_d,
                                 int64_t i_s, double ids, const double *g) {
    add_f(F, i_d, ids);
    add_f(F, i_s, -ids);
    for (int k = 0; k < 4; k++) {
        add_j(J, n, i_d, nd[k], g[k]);
        add_j(J, n, i_s, nd[k], -g[k]);
    }
}

/* Mosfet._ids_and_derivs + stamp (terminals d, g, s, b).
 * par: sign, vth, n, i_s (i_spec * multiplier), lambda_clm, vt. */
static void stamp_mos(double *J, double *F, int64_t n, const int64_t *nd,
                      const double *p, const double *x) {
    const double vd = MNA_V(nd[0]), vg = MNA_V(nd[1]);
    const double vs = MNA_V(nd[2]), vb = MNA_V(nd[3]);
    const double sign = p[0], vth = p[1], slope = p[2], i_s = p[3];
    const double lam = p[4], vt = p[5];
    const double vdb = sign * (vd - vb);
    const double vgb = sign * (vg - vb);
    const double vsb = sign * (vs - vb);
    const double vp = (vgb - sign * vth) / slope;
    const double uf = (vp - vsb) / vt;
    const double ur = (vp - vdb) / vt;
    const double f_f = ekv_f(uf), f_r = ekv_f(ur);
    const double fp_f = ekv_f_prime(uf), fp_r = ekv_f_prime(ur);
    const double vds = vdb - vsb;
    const double vds_smooth = sqrt(vds * vds + 1e-6);
    const double clm = 1.0 + lam * vds_smooth;
    const double dclm_dvds = lam * vds / vds_smooth;
    const double core = f_f - f_r;
    const double ids = i_s * core * clm;
    const double d_dvg = i_s * clm * (fp_f - fp_r) / (slope * vt);
    const double d_dvs = i_s * (-clm * fp_f / vt - core * dclm_dvds);
    const double d_dvd = i_s * (clm * fp_r / vt + core * dclm_dvds);
    double g[4];
    g[0] = sign * d_dvd * sign;
    g[1] = sign * d_dvg * sign;
    g[2] = sign * d_dvs * sign;
    g[3] = -(g[0] + g[1] + g[2]);
    stamp_channel(J, F, n, nd, nd[0], nd[2], sign * ids, g);
}

/* FeFet._ids_and_derivs + the channel half of stamp (terminals fg, d,
 * s, bg).  par: k_bg, vth_mid, mw_fg, n, i_s, lambda_clm, vt, i_leak
 * (times multiplier); s is the committed domain fraction. */
static void stamp_fet(double *J, double *F, int64_t n, const int64_t *nd,
                      const double *p, double s, const double *x) {
    const double v_fg = MNA_V(nd[0]), v_d = MNA_V(nd[1]);
    const double v_s = MNA_V(nd[2]), v_bg = MNA_V(nd[3]);
    const double k_bg = p[0], vth_mid = p[1], mw_fg = p[2], slope = p[3];
    const double i_s = p[4], lam = p[5], vt = p[6], i_leak = p[7];
    const double vth_eff = vth_mid - (s - 0.5) * mw_fg;
    const double vp = (v_fg + k_bg * v_bg - vth_eff) / slope;
    const double uf = (vp - v_s) / vt;
    const double ur = (vp - v_d) / vt;
    const double f_f = ekv_f(uf), f_r = ekv_f(ur);
    const double fp_f = ekv_f_prime(uf), fp_r = ekv_f_prime(ur);
    const double vds = v_d - v_s;
    const double vds_smooth = sqrt(vds * vds + 1e-6);
    const double clm = 1.0 + lam * vds_smooth;
    const double dclm = lam * vds / vds_smooth;
    const double core = f_f - f_r;
    double ids = i_s * core * clm;
    const double dvp = (fp_f - fp_r) / (slope * vt);
    double g[4];
    g[0] = i_s * clm * dvp;
    g[3] = i_s * clm * dvp * k_bg;
    g[2] = i_s * (-clm * fp_f / vt - core * dclm);
    g[1] = i_s * (clm * fp_r / vt + core * dclm);
    if (i_leak > 0.0) {
        const double xl = vds / (2.0 * vt);
        /* max(-60.0, min(60.0, xl)) with Python's tie rules. */
        double xc = xl < 60.0 ? xl : 60.0;
        xc = xc > -60.0 ? xc : -60.0;
        const double t = tanh(xc);
        ids += i_leak * t;
        const double g_leak = i_leak * (1.0 - t * t) / (2.0 * vt);
        g[1] += g_leak;
        g[2] -= g_leak;
    }
    stamp_channel(J, F, n, nd, nd[1], nd[2], ids, g);
}

/* Polarization row parameters (fecam.devices.ferroelectric). */
enum { POL_KAPPA, POL_T_FE, POL_EA, POL_ALPHA, POL_TAU0, POL_E_SMOOTH,
       POL_APS2, POL_MULT, POL_FD, POL_MAX_EXP, POL_LOG10_MAX_EXP };

/* FeFet.fe_field */
static inline double fe_field(const double *p, double v_fg, double v_d,
                              double v_s) {
    const double v_chan = 0.5 * (v_d + v_s);
    return p[POL_KAPPA] * (v_fg - v_chan) / p[POL_T_FE];
}

/* FerroelectricLayer.tau */
static double fe_tau(const double *p, double e_field) {
    const double e_mag = fabs(e_field);
    if (e_mag <= 0.0)
        return INFINITY;
    const double ratio = p[POL_EA] / e_mag;
    if (p[POL_ALPHA] * log10(ratio) > p[POL_LOG10_MAX_EXP])
        return INFINITY;
    const double exponent = pow(ratio, p[POL_ALPHA]);
    if (exponent > p[POL_MAX_EXP])
        return INFINITY;
    return p[POL_TAU0] * exp(exponent);
}

/* FerroelectricLayer.preview */
static double fe_preview(const double *p, double e_field, double dt,
                         double s0) {
    if (dt <= 0.0)
        return s0;
    const double tau = fe_tau(p, e_field);
    if (isinf(tau))
        return s0;
    const double xs = e_field / p[POL_E_SMOOTH];
    double target;
    if (xs > 40.0)
        target = 1.0;
    else if (xs < -40.0)
        target = 0.0;
    else
        target = 1.0 / (1.0 + exp(-xs));
    return target + (s0 - target) * exp(-dt / tau);
}

/* FeFet._pol_current */
static inline double pol_current(const double *p, double s, double v_fg,
                                 double v_d, double v_s, double h) {
    const double e = fe_field(p, v_fg, v_d, v_s);
    const double s_new = fe_preview(p, e, h, s);
    const double dq = p[POL_APS2] * (s_new - s);
    return p[POL_MULT] * dq / h;
}

/* The polarization half of FeFet.stamp (terminals fg, d, s). */
static void stamp_pol(double *J, double *F, int64_t n, const int64_t *nd,
                      const double *p, double s, const double *x,
                      double h) {
    const double v_fg = MNA_V(nd[0]), v_d = MNA_V(nd[1]);
    const double v_s = MNA_V(nd[2]);
    const double i_pol = pol_current(p, s, v_fg, v_d, v_s, h);
    if (!(i_pol != 0.0 || fe_tau(p, fe_field(p, v_fg, v_d, v_s)) < 1.0))
        return;
    const double d = p[POL_FD];
    double di[3];
    di[0] = (pol_current(p, s, v_fg + d, v_d, v_s, h) - i_pol) / d;
    di[1] = (pol_current(p, s, v_fg, v_d + d, v_s, h) - i_pol) / d;
    di[2] = (pol_current(p, s, v_fg, v_d, v_s + d, h) - i_pol) / d;
    add_f(F, nd[0], i_pol);
    add_f(F, nd[1], -0.5 * i_pol);
    add_f(F, nd[2], -0.5 * i_pol);
    for (int k = 0; k < 3; k++) {
        add_j(J, n, nd[0], nd[k], di[k]);
        add_j(J, n, nd[1], nd[k], -0.5 * di[k]);
        add_j(J, n, nd[2], nd[k], -0.5 * di[k]);
    }
}

/* Zero and assemble the dense (n, n) Jacobian J and residual F at the
 * iterate x.  tran selects the transient companion models (timestep
 * h); the gmin diagonal on the n_nodes node rows comes last, as in
 * _System.assemble. */
FECAM_API void fecam_mna_assemble(
    const int64_t *rows, int64_t n_rows, const double *par,
    const double *state, const double *x, int64_t n, int64_t n_nodes,
    int64_t tran, double h, double gmin, double *J, double *F)
{
    memset(J, 0, (size_t)(n * n) * sizeof(double));
    memset(F, 0, (size_t)n * sizeof(double));
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t *row = rows + r * MNA_ROW;
        const int64_t *nd = row + 1;
        const double *p = par + row[5];
        switch (row[0]) {
        case MNA_RES: {
            const double g = p[0];
            const double current = g * (MNA_V(nd[0]) - MNA_V(nd[1]));
            add_f(F, nd[0], current);
            add_f(F, nd[1], -current);
            add_g(J, n, nd[0], nd[1], g);
            break;
        }
        case MNA_CAP: {
            const double c = p[0];
            if (!tran || c <= 0)
                break;
            const double geq = c / h;
            const double current =
                (c * (MNA_V(nd[0]) - MNA_V(nd[1])) - state[row[6]]) / h;
            add_f(F, nd[0], current);
            add_f(F, nd[1], -current);
            add_g(J, n, nd[0], nd[1], geq);
            break;
        }
        case MNA_VSRC: {
            const int64_t ibr = nd[2];
            const double i_branch = x[ibr];
            add_f(F, nd[0], i_branch);
            add_f(F, nd[1], -i_branch);
            add_j(J, n, nd[0], ibr, 1.0);
            add_j(J, n, nd[1], ibr, -1.0);
            add_f(F, ibr, (MNA_V(nd[0]) - MNA_V(nd[1])) - p[0]);
            add_j(J, n, ibr, nd[0], 1.0);
            add_j(J, n, ibr, nd[1], -1.0);
            break;
        }
        case MNA_MOS:
            stamp_mos(J, F, n, nd, p, x);
            break;
        case MNA_FET:
            stamp_fet(J, F, n, nd, p, state[row[6]], x);
            break;
        case MNA_POL:
            if (tran)
                stamp_pol(J, F, n, nd, p, state[row[6]], x, h);
            break;
        }
    }
    for (int64_t k = 0; k < n_nodes; k++) {
        J[k * n + k] += gmin;
        F[k] += gmin * x[k];
    }
}

/* One Newton solve's working set, owned by the caller (the ctypes
 * Structure fecam.kernels.compiled.MnaNewton mirrors this layout, field
 * for field).  The tolerances are NewtonOptions'; residual is max|F| of
 * the iterate the last J and -F were assembled at. */
typedef struct {
    const int64_t *rows;
    int64_t n_rows;
    const double *par;
    const double *state;
    double *x;        /* (n,) the iterate, updated in place */
    double *dx;       /* (n,) the update the caller solved for */
    double *J;        /* (n, n) Jacobian at x */
    double *neg_f;    /* (n,) -F at x */
    int64_t n;
    int64_t n_nodes;
    int64_t tran;
    double h, gmin;
    double v_limit, abstol_v, abstol_i, reltol, residual_tol;
    double residual;
} mna_newton_t;

/* One iteration of _System.solve_newton after its linear solve, then
 * the assembly the next solve needs.  With update set, dx is applied
 * exactly as the Python loop applies it: any non-finite entry returns
 * -1 with x untouched; node entries are clipped to +-v_limit; x moves
 * by dx; and the step has converged (return 1, nothing assembled) when
 * every |dx| is within abstol + reltol*|x| (volts on node rows, amperes
 * on branch rows) and residual — still the one the solve started from —
 * is within residual_tol.  Otherwise (and always without update) J and
 * -F are assembled at x, residual becomes max|F| (NaN if any entry is,
 * like np.max) and the return is 0. */
FECAM_API int64_t fecam_mna_newton(mna_newton_t *w, int64_t update)
{
    const int64_t n = w->n, n_nodes = w->n_nodes;
    double *x = w->x, *dx = w->dx, *neg_f = w->neg_f;
    if (update) {
        for (int64_t k = 0; k < n; k++)
            if (!isfinite(dx[k]))
                return -1;
        const double lim = w->v_limit;
        for (int64_t k = 0; k < n_nodes; k++) {
            double d = dx[k];
            /* np.clip(dv, -lim, lim) is min(max(d, -lim), lim), ties
             * (signed zeros) going to the bound; d is finite here. */
            d = d > -lim ? d : -lim;
            d = d < lim ? d : lim;
            dx[k] = d;
            x[k] = x[k] + d;
        }
        for (int64_t k = n_nodes; k < n; k++)
            x[k] = x[k] + dx[k];
        int converged = 1;
        for (int64_t k = 0; k < n_nodes; k++)
            if (!(fabs(dx[k]) <= w->abstol_v + w->reltol * fabs(x[k])))
                converged = 0;
        for (int64_t k = n_nodes; k < n; k++)
            if (!(fabs(dx[k]) <= w->abstol_i + w->reltol * fabs(x[k])))
                converged = 0;
        if (converged && w->residual <= w->residual_tol)
            return 1;
    }
    fecam_mna_assemble(w->rows, w->n_rows, w->par, w->state, x, n, n_nodes,
                       w->tran, w->h, w->gmin, w->J, neg_f);
    double peak = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double a = fabs(neg_f[k]);
        if (a > peak || isnan(a))
            peak = a;
        neg_f[k] = -neg_f[k];
    }
    w->residual = peak;
    return 0;
}

/* Accept the converged timestep h at x: capacitor rows store their
 * charge, polarization rows advance the domain fraction (the commit()
 * methods of Capacitor, Mosfet and FeFet). */
FECAM_API void fecam_mna_commit(
    const int64_t *rows, int64_t n_rows, const double *par, double *state,
    const double *x, double h)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t *row = rows + r * MNA_ROW;
        const int64_t *nd = row + 1;
        const double *p = par + row[5];
        if (row[0] == MNA_CAP) {
            state[row[6]] = p[0] * (MNA_V(nd[0]) - MNA_V(nd[1]));
        } else if (row[0] == MNA_POL && h > 0.0) {
            const double e = fe_field(p, MNA_V(nd[0]), MNA_V(nd[1]),
                                      MNA_V(nd[2]));
            state[row[6]] = fe_preview(p, e, h, state[row[6]]);
        }
    }
}
