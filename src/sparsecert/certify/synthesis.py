"""Certificate synthesis for entrywise and block structures via LPs.

A contraction certificate needs gamma with, for every w and admissible P,
2 * sum_{k in I} ||(Ww)^k|| <= gamma * ||w||, where W = (B - H^T A) B^+ and H
is free.  Writing Omega[W]_{kl} for the (l -> k) block induced norm, the
quantity max_l pi_s(Col_l(Omega[W])) is such a gamma, so the synthesizer
minimizes it over H.

Row block k of W depends only on the columns of H in block k.  At s = 1 with
unit weights the objective is 2 * max_{k,l} Omega_kl, so the row blocks
decouple: one small LP per target block k minimizes g_k = 2 * max_l Omega_kl
over H[:, block k], and gamma = max_k g_k is the optimum of the joint
problem.  For plain structures each piece is min ||e_r - A^T h_r||_inf
(Juditsky & Nemirovski, Math. Program. B 127, 2011).  Elsewhere (s != 1 or
non-unit weights) pi_s couples the blocks of a column of Omega, and the whole
objective stays in one joint LP.  Both come from one builder, parameterized
by the target blocks.  Two relaxations keep every LP linear, both erring
upward (certificates stay valid):

* block induced norms are replaced by entrywise surrogates (column sums, row
  sums, max entry, total sum) chosen per (source tag, target tag), exact for
  the polyhedral pairs and for 1x1 blocks;
* the selection norm pi_s is replaced by its continuous relaxation, whose
  epigraph is linear by LP duality (exact when all block weights are 1, in
  particular for entrywise sparsity).

The per-block LPs of target blocks with the same (size, norm tag) share
their constraint matrix and differ only in the right-hand side, which holds
the block's rows of C.  Stage one therefore solves their LP duals (Juditsky &
Nemirovski's kernel-ball maximization, max{z_r : Az = 0, ||z|| <= 1} for
plain structures): one feasible set per signature, with the blocks'
right-hand sides as costs, all known before the first pivot.  So one
``LPSequence.solve_many`` per signature solves them: one cold start for the
first block, then the others in lockstep from the basis it ended on, on one
stacked tableau.  g_k is minus the dual optimum and H[:, block k] is read
from the dual's multipliers.

beta = psi_1(H) = 2 * max_k max_i ||H[i, block k]|| decouples the same way.
In the per-block case a second LP per block minimizes that block norm subject
to g_k <= gamma (l2 blocks minimize the l1 norm, a linear surrogate), and the
block keeps the new columns only if their true block norm is smaller.  Its G,
too, depends only on the block's signature, so stage two solves the duals in
one warm-started sequence per signature as well.  It runs lazily: blocks are
visited in descending order of their first-stage norm, and the visit stops
once the next one cannot raise the running maximum, which gives the beta of
running it on every block.  A stage-two LP that is not optimal only costs
time: its block keeps the stage-one columns.  The joint LP's beta is
whatever vertex the simplex lands on.

The reported gamma is the LP optimal value, which is unique even though the
minimizing H need not be, so the primal and dual routes to it agree to
solver tolerance.  It is never below the recheck of the final W with exact
induced norms.  The recheck and beta = psi_s(H) read pi_s from the
certified upper bound of ``norms.select_blocks``: the exact selection for
unit and integer weights and up to its block limit of real weights, the
fractional bound past it, so neither is ever optimistic.  ``exact_gamma``
needs unit weights, exact induced norms and an LP optimum that meets the
recheck; ``exact_beta`` needs the largest mass a row's selection keeps to
meet the largest row bound.  Each stage keeps its ``LPSequence``s in one
dict, and ``details`` sums their tallies.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import norms, structures
from ..engine import LinearProgram, LPSequence, Status
# the benchmark's layer tracer (perfbench/spans.py) looks ``solve_lp`` up here
from ..engine import solve_lp  # noqa: F401
from .conditions import Certificate

_LP_ENTRY_BUDGET = 4e7  # tableau cells; beyond this the dense solver thrashes
_MAXITER = 200000       # pivots per synthesis LP
# entrywise surrogate of a block induced norm, by (source tag, target tag)
_PER_ENTRY, _PER_COL, _PER_ROW, _TOTAL = range(4)
_NORM_ORD = {"l1": 1, "l2": 2, "linf": np.inf}


class SynthesisNotOptimalError(RuntimeError):
    """The synthesis LP stopped without an optimum; ``status`` says how."""

    def __init__(self, status):
        super().__init__(f"synthesis LP did not reach optimality: {status.value}")
        self.status = status


def psi_s(h, structure, s, phi="l1"):
    """Noise-amplification constant for l1-ball noise metrics.

    Maximizes the retained-mass seminorm of H^T v over the extreme points
    +-e_i of the unit l1 ball, i.e. over the rows of H: exact wherever
    ``norms.pi_s`` is, else its certified upper bound.
    """
    if phi != "l1":
        raise norms.UnsupportedNormError(
            "psi_s is tractable only for the l1 noise metric")
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.size == 0:
        return 0.0
    return max(norms.ps_seminorm(structure, row, s) for row in h)


class _Layout:
    """W = C - H^T D (C = B B^+, D = A B^+) and its block layout."""

    def __init__(self, structure, a, bmat):
        self.b_pinv = np.linalg.pinv(bmat)
        self.c_full = bmat @ self.b_pinv
        self.d_full = a @ self.b_pinv
        self.offs, self.block_of = structure.offsets, structure.block_of
        self.tags, self.chi = structure.block_norms, np.asarray(structure.weights)
        self.sizes = np.diff(self.offs)
        self.pos = np.arange(self.offs[-1]) - self.offs[self.block_of]
        # pair (k, l) bounds the l -> k block: target tag on rows, source on
        # columns
        tags = np.array(self.tags)
        from_l1, from_linf = (tags == "l1")[None, :], (tags == "linf")[None, :]
        to_l1, to_linf = from_l1.T, from_linf.T
        self.kind = np.where(from_l1, np.where(to_linf, _PER_ENTRY, _PER_COL),
                             np.where(to_linf, _PER_ROW, _TOTAL))
        rows1 = (self.sizes == 1)[:, None]
        cols1 = (self.sizes == 1)[None, :]
        self.pair_exact = (rows1 & cols1) | (self.kind == _PER_ENTRY) \
            | ((self.kind == _PER_COL) & (to_l1 | rows1)) \
            | ((self.kind == _PER_ROW) & (from_linf | cols1))


def _synthesis_lp(lay, targets, s, simple):
    """The LP minimizing the targets' share of gamma over H[:, their rows].

    Rows come in the order (target, source block, W-entry pairs, surrogate
    sums).  ``simple`` (s = 1, unit weights) bounds twice each surrogate by g
    directly; otherwise each surrogate flows into the relaxed-selection dual
    through lam and mu, closed by one row 2*(s*lam_l + sum_k mu_kl) <= g per
    column block l.  Variables: H[:, rows] row-major, the surrogate entries
    of the non-scalar pairs, [lam, mu,] and g last; H is free, the others
    are >= 0, so the LP is solved through its dual (``_dual_lp``) or with
    H split (``_split_free``).  Returns the LP, the number of H variables
    and ``rhs``: rhs(r0) is the LP's h with the target
    rows moved to start at row r0 of C, which for a single target is the h
    of any block with its size and tag (G does not depend on C).
    """
    kk = lay.sizes.size
    m, big_m = lay.d_full.shape
    targets = np.asarray(targets)
    rows_t = np.concatenate([np.arange(lay.offs[k], lay.offs[k + 1])
                             for k in targets])
    tpos = np.repeat(np.arange(targets.size), lay.sizes[targets])
    a_tot = rows_t.size
    nh = m * a_tot

    # one W entry per (target row, column), row-major
    t_e = np.repeat(np.arange(a_tot), big_m)
    c_e = np.tile(np.arange(big_m), a_tot)
    r_e = rows_t[t_e]
    k_e, l_e = lay.block_of[r_e], lay.block_of[c_e]
    ri_e, ci_e = lay.pos[r_e], lay.pos[c_e]
    n_ent = t_e.size
    scalar = (lay.sizes[k_e] == 1) & (lay.sizes[l_e] == 1)
    pair = tpos[t_e] * kk + l_e
    within = ri_e * lay.sizes[l_e] + ci_e
    span = 2 * int(lay.sizes.max()) ** 2 + 2

    # surrogate variables |W_rc| <= E_rc of the non-scalar pairs, numbered in
    # row order, and the sums of them that each surrogate kind bounds
    ns = np.nonzero(~scalar)[0]
    ns = ns[np.argsort(pair[ns] * span + within[ns], kind="stable")]
    n_sur = ns.size
    kind = lay.kind[k_e[ns], l_e[ns]]
    grp = np.select([kind == _PER_ENTRY, kind == _PER_COL, kind == _PER_ROW],
                    [within[ns], ci_e[ns], ri_e[ns]], 0)
    grp_keys, grp_of = np.unique(pair[ns] * span + grp, return_inverse=True)
    grp_pair = grp_keys // span

    keys = np.concatenate([2 * pair * span + 2 * within,
                           2 * pair * span + 2 * within + 1,
                           (2 * grp_pair + 1) * span + grp_keys % span])
    rowpos = np.empty(keys.size, dtype=int)
    rowpos[np.argsort(keys, kind="stable")] = np.arange(keys.size)
    p_plus, p_minus = rowpos[:n_ent], rowpos[n_ent:2 * n_ent]
    p_grp = rowpos[2 * n_ent:]

    g_var = nh + n_sur + (0 if simple else kk + kk * kk)
    nvars = g_var + 1
    n_core = keys.size
    nrows = n_core + (0 if simple else kk)
    # size the tableau of the LP actually solved: stage one (``simple``)
    # solves the dual, one row per variable here and one column per row;
    # the joint LP has a negative beside each H column (``_split_free``)
    rows, cols = (nvars, nrows) if simple else (nrows, nvars + nh)
    if rows * (cols + rows) > _LP_ENTRY_BUDGET:
        raise norms.UnsupportedNormError(
            "synthesis LP too large for the dense solver "
            f"({rows} rows, {cols} variables)")

    factor = 2.0 if simple else 1.0
    f_e = np.where(scalar, factor, 1.0)
    coef = np.zeros((n_ent, m, a_tot))
    coef[np.arange(n_ent), :, t_e] = lay.d_full[:, c_e].T * -f_e[:, None]
    coef = coef.reshape(n_ent, nh)
    g_mat = np.zeros((nrows, nvars))
    g_mat[p_plus, :nh] = coef
    g_mat[p_minus, :nh] = -coef

    def rhs(r0):
        const = lay.c_full[r_e - rows_t[0] + r0, c_e] * f_e
        h = np.zeros(nrows)
        h[p_plus] = -const
        h[p_minus] = const
        return h

    sur_cols = nh + np.arange(n_sur)
    g_mat[p_plus[ns], sur_cols] = -1.0
    g_mat[p_minus[ns], sur_cols] = -1.0
    g_mat[p_grp[grp_of], sur_cols] = factor

    sc = np.nonzero(scalar)[0]
    sink_rows = np.concatenate([p_plus[sc], p_minus[sc], p_grp])
    if simple:
        g_mat[sink_rows, g_var] = -1.0
    else:
        sink_k = np.concatenate([k_e[sc], k_e[sc], targets[grp_pair // kk]])
        sink_l = np.concatenate([l_e[sc], l_e[sc], grp_pair % kk])
        lam_off, mu_off = nh + n_sur, nh + n_sur + kk
        g_mat[sink_rows, lam_off + sink_l] = -lay.chi[sink_k]
        g_mat[sink_rows, mu_off + sink_k * kk + sink_l] = -1.0
        sel = n_core + np.arange(kk)
        g_mat[sel, lam_off + np.arange(kk)] = 2.0 * float(s)
        g_mat[np.tile(sel, kk), mu_off + np.arange(kk * kk)] = 2.0
        g_mat[sel, g_var] = -1.0

    cost = np.zeros(nvars)
    cost[g_var] = 1.0
    return LinearProgram(c=cost, G=g_mat, h=rhs(rows_t[0]),
                         senses=("le",) * nrows), nh, rhs


def _dual_lp(lp, nh):
    """The dual of a per-block LP, with zero cost (the cost is its h).

    The primal min c.x over G x <= h, x[:nh] free, x[nh:] >= 0 has the dual
    max -h.p over p >= 0 with G_free^T p = -c_free and -G_rest^T p <= c_rest,
    written as a minimization: its optimum is minus the primal one.  The
    reported duals y of these rows are a primal optimum, x = (y[:nh],
    -y[nh:]).
    """
    g_t = lp.G.T
    return LinearProgram(
        c=np.zeros(lp.h.size), G=np.vstack([g_t[:nh], -g_t[nh:]]),
        h=np.concatenate([-lp.c[:nh], lp.c[nh:]]),
        senses=("eq",) * nh + ("le",) * (lp.c.size - nh))


def _split_free(lp, nh):
    """``lp`` with its first ``nh`` variables free, over x >= 0: each free
    column is followed by its negative, so x[2i] - x[2i + 1] is free
    variable i for i < nh."""
    var = np.concatenate([np.repeat(np.arange(nh), 2),
                          np.arange(nh, lp.c.size)])
    sign = np.ones(var.size)
    sign[1:2 * nh:2] = -1.0
    return LinearProgram(c=sign * lp.c[var], G=lp.G[:, var] * sign, h=lp.h,
                         senses=lp.senses)


def _beta_lp(lay, k, lp, rhs, gamma):
    """Stage two for block k: min max_i ||H[i, block k]|| s.t. g <= gamma.

    ``lp`` is the stage-one LP of block k's signature and ``rhs`` block k's
    right-hand side; its last variable g is fixed at gamma.
    Linf and scalar blocks bound |H_ij| <= t; the others bound |H_ij| <= u_ij
    and sum_j u_ij <= t, the l1 norm (a linear surrogate for l2).
    Variables: H[:, block k] row-major (free, as in ``_synthesis_lp``), the
    stage-one surrogates, t, [u].
    """
    m, a = lay.d_full.shape[0], int(lay.sizes[k])
    nh = m * a
    n0 = lp.c.size - 1
    split = a > 1 and lay.tags[k] != "linf"
    nvars = n0 + 1 + (nh if split else 0)
    r0 = rhs.size
    nrows = r0 + 2 * nh + (m if split else 0)
    g_mat = np.zeros((nrows, nvars))
    h_vec = np.zeros(nrows)
    g_mat[:r0, :n0] = lp.G[:, :n0]
    h_vec[:r0] = rhs - lp.G[:, n0] * gamma
    eye = np.eye(nh)
    bound = slice(r0, r0 + 2 * nh)
    g_mat[bound, :nh] = np.vstack([eye, -eye])
    if split:
        g_mat[bound, n0 + 1:] = np.vstack([-eye, -eye])
        g_mat[r0 + 2 * nh:, n0] = -1.0
        g_mat[r0 + 2 * nh:, n0 + 1:] = np.kron(np.eye(m), np.ones(a))
    else:
        g_mat[bound, n0] = -1.0
    cost = np.zeros(nvars)
    cost[n0] = 1.0
    return LinearProgram(c=cost, G=g_mat, h=h_vec, senses=("le",) * nrows)


def _block_norm(h, tag):
    """max_i ||h[i, :]||_tag over the rows of one block of H."""
    return float(np.linalg.norm(h, _NORM_ORD[tag], axis=1).max(initial=0.0))


def _optimal(report):
    """``report``, which must be optimal: SynthesisNotOptimalError if not."""
    if report.status != Status.OPTIMAL:
        raise SynthesisNotOptimalError(report.status)
    return report


class _StageOne(NamedTuple):
    """Stage one of one block at s = 1, unit weights."""
    lp: LinearProgram   # the stage-one LP of the block's signature
    rhs: np.ndarray     # the block's right-hand side of that LP
    h_cols: np.ndarray  # H[:, block k]
    g: float            # g_k


def _stage_one(lay, seqs):
    """Per-block LPs at s = 1, unit weights: one ``_StageOne`` per block.

    Blocks of one (size, tag) share G and differ only in h, so one dual LP
    per signature serves them all: its costs are their h, solved as one
    batch (``solve_many``) by the signature's ``LPSequence`` in ``seqs``,
    and block k's H is read from its duals.
    """
    m = lay.d_full.shape[0]
    blocks = {}
    for k in range(lay.sizes.size):
        blocks.setdefault((lay.sizes[k], lay.tags[k]), []).append(k)
    out = [None] * lay.sizes.size
    for key, ks in blocks.items():
        lp, nh, rhs = _synthesis_lp(lay, ks[:1], 1.0, simple=True)
        seqs[key] = LPSequence(_dual_lp(lp, nh), _MAXITER)
        hs = np.array([rhs(lay.offs[k]) for k in ks])
        for k, h, (_, report) in zip(ks, hs, seqs[key].solve_many(hs)):
            report = _optimal(report)
            cols = report.dual[:nh].reshape(m, lay.sizes[k])
            out[k] = _StageOne(lp, h, cols, -float(report.objective))
    return out


def _settle_block(lay, k, stage, gamma, seqs):
    """Block k's columns of H after stage two, and their block norm.

    Stage two solves the dual of ``_beta_lp`` in the block signature's
    ``LPSequence`` in ``seqs``, which the signature's first block opens.
    Its H replaces the stage-one H only when that LP is optimal and its
    true block norm is smaller.
    """
    h1 = stage.h_cols
    tag = lay.tags[k]
    norm1 = _block_norm(h1, tag)
    beta = _beta_lp(lay, k, stage.lp, stage.rhs, gamma)
    key = (lay.sizes[k], tag)
    if key not in seqs:
        seqs[key] = LPSequence(_dual_lp(beta, h1.size), _MAXITER)
    report = seqs[key].solve(beta.h)[1]
    if report.status == Status.OPTIMAL:
        h2 = report.dual[:h1.size].reshape(h1.shape)
        norm2 = _block_norm(h2, tag)
        if norm2 < norm1:
            return h2, norm2
    return h1, norm1


def synth_certificate_group(a, b, structure, s, phi="l1"):
    """Best LP-synthesized contraction certificate; see the module docstring.

    b = None uses the structure's own ``structure.b``.  The result
    carries the full H and W, the identity residual of B = WB + H^T A, and
    exactness flags for the reported gamma and beta.  ``details`` counts the
    LPs solved (``lps``, of which ``beta_lps`` in stage two), their pivots
    (``lp_iterations``), per stage the ``LPSequence``s (at most one per
    block signature), their pivots and the stage-two LPs not optimal
    (``stage_one_*``, ``stage_two_*``), and the largest gap (``lp_delta``).
    Every LP is capped at ``_MAXITER`` pivots.
    """
    if structure.kind not in ("plain", "group"):
        raise norms.UnsupportedNormError(
            "LP synthesis covers entrywise and block structures only")
    if phi != "l1":
        raise norms.UnsupportedNormError(
            "certificate synthesis needs the l1 noise metric (beta is "
            "intractable otherwise)")
    if not 0 <= s < np.inf:   # NaN fails too
        raise ValueError("s must be a finite number >= 0")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    bmat, _ = structures.representation(structure, b)
    m, n_amb = a.shape
    big_m = bmat.shape[0]
    if bmat.shape[1] != n_amb:
        raise ValueError("A and B must share their domain dimension")
    if np.linalg.matrix_rank(bmat) < n_amb:
        raise norms.UnsupportedNormError(
            "synthesis requires a representation map with full column rank")

    lay = _Layout(structure, a, bmat)
    kk = lay.sizes.size
    # when s = 1 with unit weights the relaxed selection of a column is just
    # twice its maximum, so the row blocks of W decouple
    simple_max = float(s) == 1.0 and norms.unit_weights(lay.chi)
    # the LPSequences of stage one and stage two by block signature, and of
    # the joint LP
    one, two, joint = {}, {}, {}
    if simple_max:
        stages = _stage_one(lay, one)
        gamma_lp = max(st.g for st in stages)
        cols = [st.h_cols for st in stages]
        norm1 = np.array([_block_norm(c, t) for c, t in zip(cols, lay.tags)])
        settled = 0.0
        for k in np.argsort(-norm1, kind="stable"):
            if norm1[k] <= settled:
                break
            cols[k], value = _settle_block(lay, k, stages[k], gamma_lp, two)
            settled = max(settled, value)
        h_opt = np.hstack(cols)
    else:
        lp, nh, _ = _synthesis_lp(lay, range(kk), s, simple=False)
        lp = _split_free(lp, nh)
        joint["joint"] = LPSequence(lp, _MAXITER)
        x, report = joint["joint"].solve(lp.c)
        gamma_lp = float(_optimal(report).objective)
        h_opt = (x[0:2 * nh:2] - x[1:2 * nh:2]).reshape(m, big_m)

    w_opt = (bmat - h_opt.T @ a) @ lay.b_pinv
    identity_residual = float(
        np.linalg.norm(bmat - w_opt @ bmat - h_opt.T @ a))

    # tighter (still valid) recheck with exact induced norms where available
    if np.all(lay.sizes == 1):   # 1x1 blocks: the norm is the magnitude
        omega_vals = np.abs(w_opt)
        omega_exact = True
    else:
        omega_vals, omega_exact = norms.omega(structure, w_opt)
    if simple_max:
        gamma_recheck = 2.0 * float(omega_vals.max())
    else:
        gamma_recheck = max(
            norms.pi_s(omega_vals[:, l], lay.chi, s) for l in range(kk))
    exact_gamma = bool(np.all(lay.pair_exact) and np.all(omega_exact)
                       and abs(gamma_lp - gamma_recheck) <= 1e-8
                       and norms.unit_weights(lay.chi))
    gamma = max(0.0, gamma_lp, gamma_recheck)

    # beta = psi_s(H), twice the largest row bound; exact when some row's
    # selected mass reaches it
    rows = [norms.select_blocks(norms.group_block_norms(structure, row),
                                lay.chi, s) for row in h_opt]
    beta = 2.0 * max((upper for _, _, upper in rows), default=0.0)
    exact_beta = beta == 2.0 * max((value for value, _, _ in rows), default=0.0)
    every = [*one.values(), *two.values(), *joint.values()]
    details = {
        "lps": sum(q.lps for q in every),
        "beta_lps": sum(q.lps for q in two.values()),
        "lp_iterations": sum(q.iterations for q in every),
        "stage_one_sequences": len(one),
        "stage_one_iterations": sum(q.iterations for q in one.values()),
        "stage_two_sequences": len(two),
        "stage_two_iterations": sum(q.iterations for q in two.values()),
        "stage_two_not_optimal": sum(q.not_optimal for q in two.values()),
        "lp_delta": max((q.delta for q in every), default=0.0),
        "gamma_recheck_exact_norms": float(gamma_recheck),
    }
    return Certificate(gamma=gamma, beta=float(beta), s=float(s), phi=phi,
                       method="ColumnLP", h_matrix=h_opt, w_matrix=w_opt,
                       identity_residual=identity_residual,
                       exact_gamma=exact_gamma, exact_beta=exact_beta,
                       details=details)
