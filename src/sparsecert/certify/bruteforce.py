"""Brute-force nullspace verdicts.

Where the structure norm is polyhedral (``norms.has_lp_form``: plain, and
group structures with l1/linf blocks) the quantity of interest is the exact
maximum of the retained mass over {z in Ker(A), ||Bz|| <= 1}, obtained by
maximizing every signed-support linear functional with one LP each (the max
of finitely many linear maximizations is the max of the convex objective
over the polytope).  One enumeration serves both kinds: a plain structure is
the group of singleton l1 blocks, so its maximal projectors are the supports
of size min(floor(s), n).  Per inclusion-maximal block set, each coordinate
of an l1 block gets a sign and each linf block a (representative, sign).  The LPs
are written in the one encoding of ``norms.structure_norm_epigraph``,
variables [u+ | u- | t] >= 0 with z = u+ - u-; for a representation map
other than the canonical one the signs run over the coordinates of B z.
The LPs of one enumeration share their feasible set and differ only in the
cost, so they go through ``solve_lp_costs``: one phase one per verdict, and
each LP starts at the optimal basis of the one before.  l2 blocks and low
rank leave the polyhedral world: there the search is Monte-Carlo plus
projected ratio ascent on a kernel basis, which can certify badness (a
witness is a witness) but never goodness, so those paths return a bracket
instead of a value.

Verdict semantics are uniform: gamma_value is the maximal retained fraction
  max_z  (worst-P retained mass of Bz) / ||Bz||,
CertifiedGood needs an exhaustive method whose LPs all ended optimal and a
certified upper bound max_k (value_k + delta_k) < 1/2 - 1e-9; ties at 1/2
are CertifiedBad (two sparse signals share a measurement, non-uniqueness).
An enumeration with an LP that did not end optimal reports at most a bracket,
or CertifiedBad by witness.  ``details`` carries the LP count, the total
pivots (``lp_iterations``), the largest per-LP gap (``lp_delta``) and
``lps_not_optimal``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .. import norms, structures
from ..engine import LinearProgram, Status, solve_lp_costs
# the benchmark's layer tracer (perfbench/spans.py) looks ``solve_lp`` up here
from ..engine import solve_lp  # noqa: F401
from .conditions import NullspaceVerdict, worst_condition_projector, _kernel_basis

_LP_BUDGET = 20000
_GOOD_MARGIN = 1e-9


def _classify(structure, bmat, s, gamma, z, upper, details):
    """Map a found maximum (and maximizer z) to a verdict.  ``upper`` is a
    certified upper bound on the exact maximum, or None when the search was
    not exhaustive."""
    exhaustive = upper is not None
    certified = exhaustive and upper < 0.5 - _GOOD_MARGIN
    if z is None or gamma <= 1e-15:
        if certified:
            return NullspaceVerdict(status="CertifiedGood", s=s,
                                    gamma_value=0.0, details=details)
        return NullspaceVerdict(status="Unknown", s=s, bracket=(0.0, 1.0),
                                details=details)
    w = bmat @ z
    proj, lhs = worst_condition_projector(structure, w, s)
    retained = 0.5 * lhs
    total = norms.structure_norm(structure, w)
    if certified:
        return NullspaceVerdict(status="CertifiedGood", s=s, gamma_value=gamma,
                                witness=z, witness_projector=proj,
                                details=details)
    if retained >= (total - retained) - 1e-12 * max(1.0, total):
        witnessed = retained / total if total > 0 else 1.0
        return NullspaceVerdict(status="CertifiedBad", s=s,
                                gamma_value=gamma if exhaustive else witnessed,
                                bracket=None if exhaustive else (witnessed, 1.0),
                                witness=z, witness_projector=proj,
                                details=details)
    if exhaustive:
        details = dict(details, note=f"certified upper bound {upper:.12g} is not "
                       "below 1/2 - 1e-9; too close to certify")
        return NullspaceVerdict(status="Unknown", s=s, gamma_value=gamma,
                                witness=z, details=details)
    return NullspaceVerdict(status="Unknown", s=s, bracket=(gamma, 1.0),
                            witness=z, details=details)


def _maximize(lp, costs, witness):
    """Maximize -c.x over the feasible set of ``lp`` for every c of
    ``costs``, warm-started (``solve_lp_costs``).

    Returns (best value, witness(x) at the best, upper, stats): ``upper`` is
    max over the LPs of value + delta, a certified upper bound on the
    maximum, or None when some LP did not end optimal, since its value is
    then unknown.
    """
    best, best_z, upper = 0.0, None, 0.0
    iterations = not_optimal = 0
    gap = 0.0
    for x, rep in solve_lp_costs(lp, costs):
        iterations += rep.iterations
        if rep.status is not Status.OPTIMAL:
            not_optimal += 1
            continue
        val = -rep.objective
        upper = max(upper, val + rep.delta)
        gap = max(gap, rep.delta)
        if val > best:
            best, best_z = val, witness(x)
    stats = {"lp_iterations": iterations, "lp_delta": gap,
             "lps_not_optimal": not_optimal}
    return best, best_z, None if not_optimal else upper, stats


# ---------------------------------------------------------------------------
# polyhedral: enumeration over maximal projectors, signs and representatives


def _kernel_ball_lp(a, structure, lift=None):
    """The shared LP of one enumeration, with zero cost.

    Variables [u+ | u- | t] of ``norms.structure_norm_epigraph`` for the
    representation map ``lift`` (None: the canonical one), z = u+ - u-.
    Rows: [A, -A] (u+, u-) = 0, the epigraph rows, and the normalization
    cost @ v <= 1, so the feasible z span the unit ball of ||B z|| in
    Ker(A).  For plain with the canonical B this is A(u+ - u-) = 0,
    sum(u+ + u-) <= 1.
    """
    m, n = a.shape
    cost, g_ball = norms.structure_norm_epigraph(structure, n, lift)
    r = g_ball.shape[0]
    g = np.zeros((m + r + 1, cost.size))
    g[:m, :n] = a
    g[:m, n:2 * n] = -a
    g[m:m + r] = g_ball
    g[-1] = cost
    h = np.zeros(m + r + 1)
    h[-1] = 1.0
    return LinearProgram(c=np.zeros(cost.size), G=g, h=h,
                         senses=("eq",) * m + ("le",) * (r + 1))


def _signed_costs(structure, s, n, nv, lift=None):
    """The costs one verdict maximizes over: (LP count, plans, costs).

    One plan per maximal projector (``structures.iter_projectors``; a plain
    support is a set of singleton l1 blocks): the multiplicities of its
    l1-block coordinates, each of which gets a sign, and its linf blocks,
    each of which picks a (representative, sign).  Without linf blocks the
    first sign is pinned (z -> -z symmetry).  The count is known before any
    LP runs, except that the enumeration stops past ``_LP_BUDGET`` plans,
    each of which has an LP: ``costs`` is then None and the count a lower
    bound.  ``costs`` yields the vectors lazily, mirrored on u-.  The
    coordinates are those of z for the canonical B; for another B
    (``lift``) they are those of B z, whose blocks do not overlap, and each
    functional f of B z is the cost f @ B of z.
    """
    if lift is None:
        blocks, tags = norms.lp_blocks(structure, n)
        nf = n
    else:
        offs, tags, _ = norms.rep_blocks(structure)
        blocks = [tuple(range(lo, hi)) for lo, hi in zip(offs[:-1], offs[1:])]
        nf = lift.shape[0]
    plans = []
    count = 0
    for proj in structures.iter_projectors(structure, s):
        chosen = proj.support if structure.kind == "plain" else proj.block_set
        mult = {}
        linf_members = []
        for l in sorted(chosen):
            if tags[l] == "l1":
                for i in blocks[l]:
                    mult[i] = mult.get(i, 0.0) + 1.0
            else:
                linf_members.append(blocks[l])
        u1 = sorted(mult)
        if not u1 and not linf_members:
            continue  # the zero projector: nothing to maximize
        combos = 2 ** max(len(u1) - (0 if linf_members else 1), 0)
        for v in linf_members:
            combos *= 2 * len(v)
        count += combos
        plans.append((mult, u1, linf_members))
        if len(plans) > _LP_BUDGET:
            return count, plans, None

    def costs():
        for mult, u1, linf_members in plans:
            rep_space = [[(i, sg) for i in v for sg in (1.0, -1.0)]
                         for v in linf_members]
            pinned = () if linf_members else (1.0,)  # z -> -z symmetry
            for rest in itertools.product((1.0, -1.0),
                                          repeat=len(u1) - len(pinned)):
                for picks in itertools.product(*rep_space):
                    f = np.zeros(nf)
                    for i, sg in zip(u1, pinned + rest):
                        f[i] += mult[i] * sg
                    for i, sg in picks:
                        f[i] += sg
                    if lift is not None:
                        f = f @ lift
                    c = np.zeros(nv)
                    c[:n], c[n:2 * n] = -f, f
                    yield c

    return count, plans, costs()


def _lp_bruteforce(a, structure, bmat, s, kernel_dim):
    n = a.shape[1]
    lift = structures.custom_rep_matrix(structure, bmat)
    lp = _kernel_ball_lp(a, structure, lift)
    count, plans, costs = _signed_costs(structure, s, n, lp.c.size, lift)
    if count > _LP_BUDGET:
        more = "more than " if costs is None else ""
        return NullspaceVerdict(
            status="Unknown", s=s,
            details={"reason": f"{more}{count} signed supports exceed the "
                     "LP budget"})
    details = {"lp_count": count, "maximal_sets": len(plans),
               "kernel_dim": kernel_dim}
    if count == 0:
        return NullspaceVerdict(
            status="CertifiedGood", s=s, gamma_value=0.0,
            details=dict(details, note="only the zero projector has weight <= s"))
    best, best_z, upper, stats = _maximize(lp, costs,
                                           lambda x: x[:n] - x[n:2 * n])
    return _classify(structure, bmat, s, best, best_z, upper,
                     dict(details, **stats))


# ---------------------------------------------------------------------------
# sampled ratio ascent (group with l2 blocks, low rank)


def _group_ratio_and_grad(structure, bmat, z, s):
    w = bmat @ z
    vals = norms.group_block_norms(structure, w)
    num, mask, _ = norms.select_blocks(vals, structure.weights, s)
    den = float(vals.sum())
    if den < 1e-14:
        return 0.0, np.zeros(z.size)
    # supergradients of per-block norms, pushed back through B
    grad_num = np.zeros(bmat.shape[0])
    grad_den = np.zeros(bmat.shape[0])
    pos = 0
    for l, (v, t) in enumerate(zip(structure.blocks, structure.block_norms)):
        seg = slice(pos, pos + len(v))
        wl = w[seg]
        nl = np.linalg.norm(wl) if t == "l2" else None
        if t == "l1":
            gl = np.sign(wl)
        elif t == "linf":
            gl = np.zeros(len(v))
            if np.abs(wl).max() > 0:
                j = int(np.argmax(np.abs(wl)))
                gl[j] = np.sign(wl[j])
        else:
            gl = wl / nl if nl > 1e-14 else np.zeros(len(v))
        grad_den[seg] = gl
        if mask[l]:
            grad_num[seg] = gl
        pos += len(v)
    ratio = num / den
    grad_w = (grad_num * den - num * grad_den) / den ** 2
    return ratio, bmat.T @ grad_w


def _lowrank_ratio_and_grad(structure, z, s):
    p, q = structure.p, structure.q
    k = min(int(math.floor(s + 1e-12)), p, q)
    mat = z.reshape(p, q)
    u, sv, vt = norms.svd_descending(mat)
    den = float(sv.sum())
    if den < 1e-14 or k == 0:
        return 0.0, np.zeros(z.size)
    num = float(sv[:k].sum())
    g_num = u[:, :k] @ vt[:k]
    g_den = u[:, : sv.size] @ vt
    grad = (g_num * den - num * g_den) / den ** 2
    return num / den, grad.ravel()


def _ascent_search(null, f, seed, starts=30, iters=120, samples=400):
    """Maximize the ratio f(z) -> (ratio, gradient) over unit z in the span
    of the kernel basis ``null`` (at least one column)."""
    d = null.shape[1]
    rng = np.random.default_rng(seed)
    best, best_z = 0.0, None
    for _ in range(samples):
        z = null @ rng.standard_normal(d)
        nz = np.linalg.norm(z)
        if nz < 1e-14:
            continue
        r, _grad = f(z / nz)
        if r > best:
            best, best_z = r, z / nz
    proj_kernel = null @ null.T
    for _ in range(starts):
        z = null @ rng.standard_normal(d)
        z /= np.linalg.norm(z)
        step = 0.5
        r, g = f(z)
        for _ in range(iters):
            g_k = proj_kernel @ g
            gn = np.linalg.norm(g_k)
            if gn < 1e-14:
                break
            accepted = False
            for _ in range(25):
                z_new = z + step * g_k / gn
                z_new /= np.linalg.norm(z_new)
                r_new, g_new = f(z_new)
                if r_new > r + 1e-14:
                    z, r, g = z_new, r_new, g_new
                    step = min(step * 1.5, 1.0)
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
        if r > best:
            best, best_z = r, z
    return best_z, best


def gamma_s_bruteforce(a, structure, s, b=None, seed=0):
    """Nullspace verdict at level s; exact where the problem is polyhedral.

    See the module docstring for the search strategy per structure and the
    uniform verdict semantics.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    bmat = structures.rep_matrix(structure, b)
    if structure.kind == "plain" and structure.n > 20:
        return NullspaceVerdict(
            status="Unknown", s=s,
            details={"reason": f"n = {structure.n} exceeds the n <= 20 budget"})
    if structure.kind == "group" and len(structure.blocks) > 12:
        return NullspaceVerdict(
            status="Unknown", s=s,
            details={"reason": "more than 12 blocks exceeds the budget"})
    null = _kernel_basis(a)
    if null.shape[1] == 0:
        return NullspaceVerdict(status="CertifiedGood", s=s, gamma_value=0.0,
                                details={"kernel_dim": 0})
    if norms.has_lp_form(structure):
        return _lp_bruteforce(a, structure, bmat, s, null.shape[1])
    if structure.kind == "group":
        z, best = _ascent_search(
            null, lambda zz: _group_ratio_and_grad(structure, bmat, zz, s),
            seed)
        return _classify(structure, bmat, s, best, z, None,
                         {"method": "sampled ascent (l2 blocks)"})
    # lowrank
    if abs(s - round(s)) > 1e-9:
        raise ValueError("low-rank sparsity level must be an integer")
    z, best = _ascent_search(
        null, lambda zz: _lowrank_ratio_and_grad(structure, zz, s), seed)
    return _classify(structure, bmat, s, best, z, None,
                     {"method": "Monte-Carlo + projected ascent"})
