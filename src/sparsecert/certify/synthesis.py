"""Certificate synthesis for entrywise and block structures via one LP.

A contraction certificate needs gamma with, for every w and admissible P,
2 * sum_{k in I} ||(Ww)^k|| <= gamma * ||w||, where W = (B - H^T A) B^+ and H
is free.  Writing Omega[W]_{kl} for the (l -> k) block induced norm, the
quantity max_l pi_s(Col_l(Omega[W])) is such a gamma, so the synthesizer
minimizes it over H.

The columns of Omega are coupled through H (every column of W sees every
column block of H), so per-column subproblems would not be independent; the
whole objective goes into a single LP instead.  Two relaxations keep it
linear, both erring upward (certificates stay valid):

* block induced norms are replaced by entrywise surrogates (column sums, row
  sums, max entry, total sum) chosen per (source tag, target tag), exact for
  the polyhedral pairs and for 1x1 blocks;
* the selection norm pi_s is replaced by its continuous relaxation, whose
  epigraph is linear by LP duality (exact when all block weights are 1, in
  particular for entrywise sparsity).

The reported gamma is the LP's optimal value, which is unique even though
the minimizing H need not be, so re-solves under different pivot rules agree
to solver tolerance.
"""

from __future__ import annotations

import numpy as np

from .. import norms, structures
from ..engine import LinearProgram, Status, solve_lp
from .conditions import Certificate

_LP_ENTRY_BUDGET = 4e7  # tableau cells; beyond this the dense solver thrashes


class SynthesisNotOptimalError(RuntimeError):
    """The synthesis LP stopped without an optimum; ``status`` says how."""

    def __init__(self, status):
        super().__init__(f"synthesis LP did not reach optimality: {status.value}")
        self.status = status


def psi_s(h, structure, s, phi="l1"):
    """Exact noise-amplification constant for l1-ball noise metrics.

    Maximizes the retained-mass seminorm of H^T v over the extreme points
    +-e_i of the unit l1 ball, i.e. over the rows of H.
    """
    if phi != "l1":
        raise norms.UnsupportedNormError(
            "psi_s is tractable only for the l1 noise metric")
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.size == 0:
        return 0.0
    return max(norms.ps_seminorm(structure, row, s) for row in h)


def _rep_blocks(structure):
    """Representation-space row ranges, norm tags, and weights per block."""
    if structure.kind == "plain":
        n = structure.n
        return [range(i, i + 1) for i in range(n)], ["l1"] * n, np.ones(n)
    if structure.kind == "group":
        sizes = [len(v) for v in structure.blocks]
        offs = np.concatenate([[0], np.cumsum(sizes)])
        ranges = [range(offs[l], offs[l + 1]) for l in range(len(sizes))]
        return ranges, list(structure.block_norms), np.asarray(structure.weights, dtype=float)
    raise norms.UnsupportedNormError(
        "LP synthesis covers entrywise and block structures only")


def _surrogate_kind(from_tag, to_tag):
    if from_tag == "l1":
        return "per_entry" if to_tag == "linf" else "per_col"
    if to_tag == "linf":
        return "per_row"
    return "total"


def _surrogate_exact(kind, from_tag, to_tag, rows, cols):
    if rows == 1 and cols == 1:
        return True
    if kind == "per_entry":
        return True
    if kind == "per_col":
        return to_tag == "l1" or rows == 1
    if kind == "per_row":
        return from_tag == "linf" or cols == 1
    return False


def synth_certificate_group(a, b, structure, s, phi="l1", pivot="dantzig",
                            maxiter=200000):
    """Best LP-synthesized contraction certificate; see the module docstring.

    b = None uses the structure's canonical representation map.  The result
    carries the full H and W, the identity residual of B = WB + H^T A, and
    exactness flags for the reported gamma and beta.
    """
    if structure.kind not in ("plain", "group"):
        raise norms.UnsupportedNormError(
            "LP synthesis covers entrywise and block structures only")
    if phi != "l1":
        raise norms.UnsupportedNormError(
            "certificate synthesis needs the l1 noise metric (beta is "
            "intractable otherwise)")
    if s < 0:
        raise ValueError("s must be nonnegative")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if b is None:
        bmat = structures._build_rep_map(structure).matrix
    else:
        bmat = b.matrix if hasattr(b, "matrix") else np.atleast_2d(np.asarray(b, dtype=float))
    m, n_amb = a.shape
    big_m = bmat.shape[0]
    if bmat.shape[1] != n_amb:
        raise ValueError("A and B must share their domain dimension")
    if np.linalg.matrix_rank(bmat) < n_amb:
        raise norms.UnsupportedNormError(
            "synthesis requires a representation map with full column rank")
    b_pinv = np.linalg.pinv(bmat)

    ranges, tags, chi = _rep_blocks(structure)
    kk = len(ranges)
    # when s = 1 with unit weights the relaxed selection of a column is just
    # twice its maximum, so scalar blocks can bound g directly and the
    # CVaR-style machinery drops out
    simple_max = float(s) == 1.0 and _weights_unit(chi)

    nh = m * big_m
    counter = [nh]

    def alloc(count):
        start = counter[0]
        counter[0] += count
        return start

    def vh(i, j):
        return i * big_m + j

    e_var = {}
    for k in range(kk):
        for l in range(kk):
            if len(ranges[k]) > 1 or len(ranges[l]) > 1:
                e_var[(k, l)] = alloc(len(ranges[k]) * len(ranges[l]))
    if simple_max:
        lam_off = mu_off = None
    else:
        lam_off = alloc(kk)
        mu_off = alloc(kk * kk)
    g_var = alloc(1)
    nvars = counter[0]

    rows, rhs = [], []

    def add_row(cols, rhs_val):
        row = np.zeros(nvars)
        for idx, coeff in cols:
            row[idx] += coeff
        rows.append(row)
        rhs.append(rhs_val)

    exact_pairs = True
    # W = C - H^T D with C = B B^+, D = A B^+ (entries affine in H)
    c_full = bmat @ b_pinv
    d_full = a @ b_pinv

    def w_terms(r, c, sg, factor):
        # LP terms for factor * sg * W_rc (affine in H) and the constant side
        cols = [(vh(i, r), -factor * sg * d_full[i, c]) for i in range(m)]
        return cols, -factor * sg * c_full[r, c]

    def sink(k, l):
        # the surrogate value of pair (k, l) flows into g (weight 2, s=1
        # unit-weight case) or into the relaxed-selection row via mu/lam
        if simple_max:
            return [(g_var, -1.0)], 2.0
        return [(lam_off + l, -chi[k]), (mu_off + k * kk + l, -1.0)], 1.0

    for k in range(kk):
        for l in range(kk):
            rk, ck = list(ranges[k]), list(ranges[l])
            kind = _surrogate_kind(tags[l], tags[k])
            if not _surrogate_exact(kind, tags[l], tags[k], len(rk), len(ck)):
                exact_pairs = False
            tail, factor = sink(k, l)
            if (k, l) not in e_var:
                for sg in (1.0, -1.0):
                    cols, const = w_terms(rk[0], ck[0], sg, factor)
                    add_row(cols + tail, const)
                continue
            base = e_var[(k, l)]

            def ve(r_pos, c_pos):
                return base + r_pos * len(ck) + c_pos

            for ri, r in enumerate(rk):
                for ci, c in enumerate(ck):
                    for sg in (1.0, -1.0):
                        cols, const = w_terms(r, c, sg, 1.0)
                        add_row(cols + [(ve(ri, ci), -1.0)], const)
            if kind == "per_col":
                groups = [[(ri, ci) for ri in range(len(rk))]
                          for ci in range(len(ck))]
            elif kind == "per_entry":
                groups = [[(ri, ci)] for ri in range(len(rk))
                          for ci in range(len(ck))]
            elif kind == "per_row":
                groups = [[(ri, ci) for ci in range(len(ck))]
                          for ri in range(len(rk))]
            else:
                groups = [[(ri, ci) for ri in range(len(rk))
                           for ci in range(len(ck))]]
            for grp in groups:
                add_row([(ve(ri, ci), factor) for ri, ci in grp] + tail, 0.0)

    if not simple_max:
        # 2*(s*lam_l + sum_k mu_kl) <= g completes the relaxed selection dual
        for l in range(kk):
            add_row([(lam_off + l, 2.0 * float(s))]
                    + [(mu_off + k * kk + l, 2.0) for k in range(kk)]
                    + [(g_var, -1.0)], 0.0)

    g_mat = np.array(rows)
    h_vec = np.array(rhs)
    if g_mat.shape[0] * (nvars + g_mat.shape[0]) > _LP_ENTRY_BUDGET:
        raise norms.UnsupportedNormError(
            "synthesis LP too large for the dense solver "
            f"({g_mat.shape[0]} rows, {nvars} variables)")
    lb = np.concatenate([np.full(nh, -np.inf), np.zeros(nvars - nh)])
    cost = np.zeros(nvars)
    cost[g_var] = 1.0
    x, report = solve_lp(
        LinearProgram(c=cost, G=g_mat, h=h_vec, senses=("le",) * g_mat.shape[0],
                      lb=lb),
        maxiter=maxiter, pivot=pivot)
    if report.status != Status.OPTIMAL:
        raise SynthesisNotOptimalError(report.status)

    h_opt = x[:nh].reshape(m, big_m)
    w_opt = (bmat - h_opt.T @ a) @ b_pinv
    gamma = max(0.0, float(report.objective))
    identity_residual = float(
        np.linalg.norm(bmat - w_opt @ bmat - h_opt.T @ a))

    # tighter (still valid) recheck with exact induced norms where available
    omega_vals = np.zeros((kk, kk))
    omega_exact = np.ones((kk, kk), dtype=bool)
    for k in range(kk):
        for l in range(kk):
            blockm = w_opt[np.ix_(list(ranges[k]), list(ranges[l]))]
            omega_vals[k, l], omega_exact[k, l] = norms.induced_norm(
                blockm, tags[l], tags[k])
    gamma_recheck = max(
        norms.pi_s(omega_vals[:, l], chi, s) for l in range(kk))
    exact_gamma = bool(exact_pairs and np.all(omega_exact)
                       and abs(gamma - gamma_recheck) <= 1e-8
                       and _weights_unit(chi))

    beta = psi_s(h_opt, structure, s, phi)
    details = {
        "lp_iterations": report.iterations,
        "lp_delta": report.delta,
        "gamma_recheck_exact_norms": float(gamma_recheck),
        "pivot": pivot,
    }
    return Certificate(gamma=gamma, beta=float(beta), s=float(s), phi=phi,
                       method="ColumnLP", h_matrix=h_opt, w_matrix=w_opt,
                       identity_residual=identity_residual,
                       exact_gamma=exact_gamma, exact_beta=True,
                       details=details)


def _weights_unit(chi):
    return bool(np.all(np.abs(np.asarray(chi) - 1.0) < 1e-12))
