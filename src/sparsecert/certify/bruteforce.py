"""Brute-force nullspace verdicts.

Where the structure norm is polyhedral (``norms.has_lp_form``: plain, and
group structures with l1/linf blocks) the quantity of interest is the exact
maximum of the retained mass over {z in Ker(A), ||Bz|| <= 1}, obtained by
maximizing signed-support linear functionals with one LP each (the max of
finitely many linear maximizations is the max of the convex objective over
the polytope).  One enumeration serves both kinds: a plain structure is the
group of singleton l1 blocks, so its maximal projectors are the supports of
size min(floor(s), n).  Per block set, each coordinate of an l1 block gets a
sign and each linf block a (representative, sign).  The LPs are written in
the one encoding of ``norms.structure_norm_epigraph``, variables
[u+ | u- | t] >= 0 with z = u+ - u-; for a representation map other than
the canonical one the signs run over the coordinates of B z.  The LPs of one
enumeration share their feasible set and differ only in the cost, so one
``LPSequence`` per verdict solves them: one phase one, each LP starting at
the optimal basis of the one before, and its tallies give the LP counts of
``details``.

Most of those LPs cannot matter, and certified bounds prove it without
solving them.  The value of a block set (its largest retained mass) adds up
over blocks, so it is subadditive: val(S) <= val(S - l) + val({l}).  Every
single block is solved first; each larger set is then bounded by the min
over its blocks l of UB(S - l) + UB({l}), UB being a solved set's largest
value + delta (+inf when one of its LPs did not end optimal) and any other
set's bound.  The inclusion-maximal sets are visited in descending order of
bound, and their LPs run only while that bound exceeds the best value
found; when a set's bound comes from an unsolved subset, that cheaper
subset is solved first (``_pruned_search``).  Every visited set lies inside
a maximal one, so the best value stays the exact maximum, and the certified
upper bound is the largest value + delta over the LPs solved.

l2 blocks and low rank leave the polyhedral world: there the search is
Monte-Carlo plus projected ratio ascent on a kernel basis, which can certify
badness (a witness is a witness) but never goodness, so those paths return
a bracket instead of a value.

Verdict semantics are uniform: gamma_value is the maximal retained fraction
  max_z  (worst-P retained mass of Bz) / ||Bz||,
CertifiedGood needs an exhaustive method whose LPs all ended optimal and a
certified upper bound max_k (value_k + delta_k) < 1/2 - 1e-9; ties at 1/2
are CertifiedBad (two sparse signals share a measurement, non-uniqueness).
An enumeration with an LP that did not end optimal reports at most a bracket,
or CertifiedBad by witness.  ``details`` carries ``signed_supports`` (the
LPs of the maximal sets, which ``_LP_BUDGET`` caps before any LP runs),
``lp_count`` (the LPs solved), ``lps_pruned`` (the maximal sets' LPs
skipped, so the maximal sets' LPs solved are ``signed_supports -
lps_pruned`` and the rest of ``lp_count`` went to smaller sets), the total
pivots (``lp_iterations``), the largest per-LP gap (``lp_delta``),
``lps_not_optimal`` and, when every LP ended optimal, the certified upper
bound ``gamma_upper``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np

from .. import norms, structures
from ..engine import LinearProgram, LPSequence, Status
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


# ---------------------------------------------------------------------------
# polyhedral: pruned enumeration over block sets, signs and representatives


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


def _maximal_sets(chi, s):
    """The inclusion-maximal block sets of weight <= s (block weights
    ``chi``), as sorted tuples in lexicographic order, depth first, so the
    first ones come without enumerating the rest."""
    cap = s + 1e-12
    kk = len(chi)

    def grow(chosen, weight):
        extended = False
        for l in range(chosen[-1] + 1 if chosen else 0, kk):
            if weight + chi[l] <= cap:
                extended = True
                yield from grow(chosen + (l,), weight + chi[l])
        if not extended and chosen and all(
                weight + chi[l] > cap for l in range(kk) if l not in chosen):
            yield chosen

    return grow((), 0.0)


def _lattice(maximal):
    """Every nonempty subset of the sets ``maximal``, by size: level k - 1
    holds the k-block sets, in lexicographic order."""
    by_size = {}
    for chosen in maximal:
        by_size.setdefault(len(chosen), set()).add(chosen)
    top = max(by_size)
    for k in range(top, 1, -1):
        below = by_size.setdefault(k - 1, set())
        for chosen in by_size.get(k, ()):
            below.update(chosen[:i] + chosen[i + 1:] for i in range(k))
    return [sorted(by_size.get(k, ())) for k in range(1, top + 1)]


class _Plan(NamedTuple):
    """The signed supports of one block set."""
    mult: dict      # l1 coordinate -> number of chosen l1 blocks holding it
    l1: list        # those coordinates, sorted
    linf: list      # the chosen linf blocks' members
    count: int      # LPs: l1 signs x linf (member, sign)s, halved by symmetry


class _SignedSupports:
    """The signed-support costs of one enumeration, per block set.

    The blocks are the structure's (a plain support is a set of singleton
    l1 blocks) in the coordinates of z for the canonical B; for another B
    (``lift``) they are those of B z, whose blocks do not overlap, and each
    functional f of B z is the cost f @ B of z.  A block set maximizes one
    functional per sign vector on the coordinates of its l1 blocks, each
    counted once per l1 block holding it, times one (member, sign) per linf
    block.  z -> -z maps the feasible set onto itself and f onto -f, so the
    first sign (of the first l1 coordinate, else of the first linf pick) is
    pinned to +.  Costs are mirrored on u-.
    """

    def __init__(self, structure, n, nv, lift=None):
        offs, self.tags, self.weights = norms.rep_blocks(structure)
        if lift is None:
            self.blocks = structure.blocks
            self.nf = n
        else:
            self.blocks = [tuple(range(lo, hi))
                           for lo, hi in zip(offs[:-1], offs[1:])]
            self.nf = lift.shape[0]
        self.n, self.nv, self.lift = n, nv, lift

    def plan(self, chosen):
        """The ``_Plan`` of block set ``chosen``."""
        mult = {}
        linf_members = []
        for l in chosen:
            if self.tags[l] == "l1":
                for i in self.blocks[l]:
                    mult[i] = mult.get(i, 0.0) + 1.0
            else:
                linf_members.append(self.blocks[l])
        u1 = sorted(mult)
        count = 2 ** len(u1)
        for v in linf_members:
            count *= 2 * len(v)
        return _Plan(mult, u1, linf_members, count // 2)

    def costs(self, plan):
        """The cost vectors of one block set's ``plan``, lazily."""
        n = self.n
        choices = [[(i, plan.mult[i]), (i, -plan.mult[i])] for i in plan.l1]
        choices += [[(i, sg) for i in v for sg in (1.0, -1.0)]
                    for v in plan.linf]
        choices[0] = [p for p in choices[0] if p[1] > 0]  # z -> -z symmetry
        for picks in itertools.product(*choices):
            f = np.zeros(self.nf)
            for i, w in picks:
                f[i] += w
            if self.lift is not None:
                f = f @ self.lift
            c = np.zeros(self.nv)
            c[:n], c[n:2 * n] = -f, f
            yield c


def _pruned_search(lp, maximal, supports, witness):
    """Maximize the retained mass over the feasible set of ``lp``: the max
    over the block sets ``maximal`` (set -> LP count) of their
    signed-support LPs (``supports``), all solved by one ``LPSequence``.

    The value of a block set is subadditive, val(S) <= val(S - l) +
    val({l}), so a set of two or more blocks is bounded by the min over its
    blocks l of UB(S - l) + UB({l}).  UB is the max of value + delta over a
    solved set's LPs (+inf if one did not end optimal), and for any other
    set its bound, set level by level from the singletons up, all of which
    are solved first.  The maximal sets are then visited in descending
    order of bound, each bound brought up to date when its set comes first,
    until none exceeds the best value found.  The first one's LPs run
    unless the subset S - l of its bound is unsolved: that cheaper subset
    runs first, and the set goes back in line.  Every set is a subset of a
    maximal one, so its value is a lower bound on theirs, and the best is
    the exact maximum.

    Returns (best value, witness(x) at the best, upper, stats): ``upper`` is
    max over the LPs solved of value + delta, a certified upper bound on the
    maximum (a skipped set's bound is at most the best value), or None when
    some LP did not end optimal.
    """
    levels = _lattice(maximal)
    ub, solved = {}, set()
    best, best_z, upper = 0.0, None, 0.0
    seq = LPSequence(lp)

    def solve(chosen):
        nonlocal best, best_z, upper
        ub[chosen] = 0.0    # z = 0 is feasible: no value is below 0
        solved.add(chosen)
        for cost in supports.costs(supports.plan(chosen)):
            x, rep = seq.solve(cost)
            if rep.status is not Status.OPTIMAL:
                ub[chosen] = math.inf
                continue
            val = -rep.objective
            ub[chosen] = max(ub[chosen], val + rep.delta)
            upper = max(upper, val + rep.delta)
            if val > best:
                best, best_z = val, witness(x)

    def bound(chosen):
        """(the bound of ``chosen``, the subset S - l that attains it)"""
        return min((ub[chosen[:i] + chosen[i + 1:]] + ub[chosen[i:i + 1]],
                    chosen[:i] + chosen[i + 1:]) for i in range(len(chosen)))

    for chosen in levels[0]:
        solve(chosen)
    for level in levels[1:]:
        for chosen in level:
            ub[chosen] = bound(chosen)[0]
    queue = [(-ub[m], m) for m in maximal if len(m) > 1]
    heapq.heapify(queue)
    while queue and -queue[0][0] > best:
        key, chosen = heapq.heappop(queue)
        value, sub = bound(chosen)
        if value < -key:            # tightened since it was queued
            heapq.heappush(queue, (-value, chosen))
        elif len(sub) > 1 and sub not in solved:
            solve(sub)
            heapq.heappush(queue, (-value, chosen))
        else:
            solve(chosen)
    pruned = sum(c for m, c in maximal.items() if m not in solved)
    stats = {"lp_count": seq.lps, "lps_pruned": pruned,
             "lp_iterations": seq.iterations, "lp_delta": seq.delta,
             "lps_not_optimal": seq.not_optimal}
    return best, best_z, None if seq.not_optimal else upper, stats


def _lp_bruteforce(a, structure, bmat, s, kernel_dim):
    n = a.shape[1]
    lift = structures.custom_rep_matrix(structure, bmat)
    lp = _kernel_ball_lp(a, structure, lift)
    supports = _SignedSupports(structure, n, lp.c.size, lift)
    maximal = {}
    for chosen in _maximal_sets(supports.weights, s):
        maximal[chosen] = supports.plan(chosen).count
        if len(maximal) > _LP_BUDGET:   # each set has at least one LP
            break
    count = sum(maximal.values())
    if count > _LP_BUDGET:
        more = "more than " if len(maximal) > _LP_BUDGET else ""
        return NullspaceVerdict(
            status="Unknown", s=s,
            details={"reason": f"{more}{count} signed supports exceed the "
                     "LP budget"})
    details = {"signed_supports": count, "maximal_sets": len(maximal),
               "kernel_dim": kernel_dim}
    if count == 0:
        return NullspaceVerdict(
            status="CertifiedGood", s=s, gamma_value=0.0,
            details=dict(details, lp_count=0, lps_pruned=0,
                         note="only the zero projector has weight <= s"))
    best, best_z, upper, stats = _pruned_search(
        lp, maximal, supports, lambda x: x[:n] - x[n:2 * n])
    if upper is not None:
        stats["gamma_upper"] = upper
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
    # no sign convention needed: it leaves U[:, :k] @ Vt[:k] bitwise unchanged
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
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
    if structure.kind == "group" and len(structure.blocks) > 12 \
            and not norms.has_lp_form(structure):
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
