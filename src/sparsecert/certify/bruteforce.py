"""Brute-force nullspace verdicts.

For entrywise sparsity the quantity of interest is the exact maximum of
||z||_{s,1} over {z in Ker(A), ||z||_1 <= 1}, obtained by maximizing every
signed-support linear functional with one LP each (the max of finitely many
linear maximizations is the max of the convex objective over the polytope).
Group structures with l1/linf block norms get the analogous enumeration over
inclusion-maximal block sets, per-coordinate signs on l1 blocks, and
(representative, sign) choices on linf blocks.  The LPs of one enumeration
share their feasible set and differ only in the cost, so they go through
``solve_lp_costs``: one phase one per verdict, and each LP starts at the
optimal basis of the one before.  l2 blocks and low rank leave the
polyhedral world: there the search is Monte-Carlo plus projected ratio
ascent on a kernel basis, which can certify badness (a witness is a witness)
but never goodness, so those paths return a bracket instead of a value.

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
# plain: per-(support, sign) LPs


def _plain_bruteforce(a, structure, s):
    n = structure.n
    if n > 20:
        return NullspaceVerdict(status="Unknown", s=s,
                                details={"reason": f"n = {n} exceeds the n <= 20 budget"})
    k = min(int(math.floor(s + 1e-12)), n)
    null = _kernel_basis(a)
    if null.shape[1] == 0:
        return NullspaceVerdict(status="CertifiedGood", s=s, gamma_value=0.0,
                                details={"kernel_dim": 0})
    if k == 0:
        return NullspaceVerdict(status="CertifiedGood", s=s, gamma_value=0.0,
                                details={"note": "only the zero projector has weight <= s"})
    count = math.comb(n, k) * 2 ** (k - 1)
    if count > _LP_BUDGET:
        return NullspaceVerdict(
            status="Unknown", s=s,
            details={"reason": f"{count} signed supports exceed the LP budget"})
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m = a.shape[0]
    # shared constraint matrix: A(xp - xm) = 0, sum(xp + xm) <= 1
    g = np.zeros((m + 1, 2 * n))
    g[:m, :n] = a
    g[:m, n:] = -a
    g[m, :] = 1.0
    h = np.zeros(m + 1)
    h[m] = 1.0
    lp = LinearProgram(c=np.zeros(2 * n), G=g, h=h, senses=("eq",) * m + ("le",))

    def costs():
        for support in itertools.combinations(range(n), k):
            for signs in itertools.product((1.0, -1.0), repeat=k - 1):
                sigma = (1.0,) + signs  # z -> -z symmetry: pin the first sign
                c = np.zeros(2 * n)
                for i, sg in zip(support, sigma):
                    c[i] = -sg
                    c[n + i] = sg
                yield c

    best, best_z, upper, stats = _maximize(lp, costs(), lambda x: x[:n] - x[n:])
    details = {"lp_count": count, "kernel_dim": null.shape[1], **stats}
    return _classify(structure, np.eye(n), s, best, best_z, upper, details)


# ---------------------------------------------------------------------------
# group: enumeration over maximal block sets, signs, and representatives


def _group_lp(a, structure):
    """Shared LP data of the group enumeration: (G, h, senses, lb).

    Variables [z | t], with t the epigraph variables of the structure norm
    (``norms.structure_norm_epigraph``).  Rows: A z = 0, the epigraph rows,
    and the normalization cost @ t <= 1, so the feasible z span the unit
    structure-norm ball of Ker(A).
    """
    m, n = a.shape
    cost, g_u, g_t = norms.structure_norm_epigraph(structure, n)
    r = g_u.shape[0]
    g = np.zeros((m + r + 1, n + cost.size))
    g[:m, :n] = a
    g[m:m + r, :n] = g_u
    g[m:m + r, n:] = g_t
    g[-1, n:] = cost
    h = np.zeros(m + r + 1)
    h[-1] = 1.0
    senses = ("eq",) * m + ("le",) * (r + 1)
    lb = np.concatenate([np.full(n, -np.inf), np.zeros(cost.size)])
    return g, h, senses, lb


def _group_lp_bruteforce(a, structure, bmat, s):
    n = structure.n
    a = np.atleast_2d(np.asarray(a, dtype=float))
    blocks, tags = structure.blocks, structure.block_norms
    g, h, senses, lb = _group_lp(a, structure)
    nv = lb.size

    # per maximal block set: multiplicities of the l1-block coordinates, the
    # coordinates that get a sign, and the linf blocks that pick a
    # (representative, sign); the LP count is known before any LP runs
    proj_list = structures.enumerate_projectors(structure, s)
    plans = []
    lp_count = 0
    for proj in proj_list:
        mult = np.zeros(n)
        linf_members = []
        for l in sorted(proj.block_set):
            if tags[l] == "l1":
                mult[list(blocks[l])] += 1.0
            else:
                linf_members.append(blocks[l])
        u1 = [int(i) for i in np.nonzero(mult > 0)[0]]
        combos = 2 ** max(len(u1) - (0 if linf_members else 1), 0)
        for v in linf_members:
            combos *= 2 * len(v)
        lp_count += combos
        plans.append((mult, u1, linf_members))
    if lp_count > _LP_BUDGET:
        return NullspaceVerdict(
            status="Unknown", s=s,
            details={"reason": f"{lp_count} signed supports exceed the LP budget"})

    def costs():
        for mult, u1, linf_members in plans:
            rep_space = [[(i, sg) for i in v for sg in (1.0, -1.0)]
                         for v in linf_members]
            for sigma in itertools.product((1.0, -1.0), repeat=len(u1)):
                if not linf_members and u1 and sigma[0] < 0:
                    continue  # z -> -z symmetry
                for picks in itertools.product(*rep_space):
                    c = np.zeros(nv)
                    for i, sg in zip(u1, sigma):
                        c[i] -= mult[i] * sg
                    for i, sg in picks:
                        c[i] -= sg
                    yield c

    lp = LinearProgram(c=np.zeros(nv), G=g, h=h, senses=senses, lb=lb)
    best, best_z, upper, stats = _maximize(lp, costs(), lambda x: x[:n].copy())
    details = {"lp_count": lp_count, "maximal_sets": len(proj_list), **stats}
    return _classify(structure, bmat, s, best, best_z, upper, details)


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
    if structure.kind == "plain":
        return _plain_bruteforce(a, structure, s)
    if structure.kind == "group" and len(structure.blocks) > 12:
        return NullspaceVerdict(
            status="Unknown", s=s,
            details={"reason": "more than 12 blocks exceeds the budget"})
    null = _kernel_basis(a)
    if null.shape[1] == 0:
        return NullspaceVerdict(status="CertifiedGood", s=s, gamma_value=0.0,
                                details={"kernel_dim": 0})
    if structure.kind == "group":
        if all(t in ("l1", "linf") for t in structure.block_norms):
            return _group_lp_bruteforce(a, structure, bmat, s)
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
