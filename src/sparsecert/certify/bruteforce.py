"""Brute-force nullspace verdicts.

Where the structure norm is polyhedral (``norms.has_lp_form``: plain, and
group structures with l1/linf blocks) the quantity of interest is the exact
maximum of the retained mass over the kernel ball {z in Ker(A), ||Bz|| <= 1}.
The retained mass is convex, so its maximum over the polytope is attained
at a vertex, and two routes find it: the vertices themselves, where every
block is l1 with unit weight and the kernel is small, and otherwise one LP
per signed support.

The vertex route (``_vertex_search``).  With N a kernel basis (k columns)
and every block l1, ||B N u|| = ||G u||_1 for G = B N, so the ball is
{u : ||G u||_1 <= 1}: the polar of the zonotope G^T [-1, 1]^E.  Its
vertices are the zonotope's facet normals v / ||G v||_1, one per
hyperplane spanned by k - 1 independent rows of G (for k = 1 the kernel
vector itself).  Zero rows of G span nothing and parallel rows span the
same hyperplanes, so they are dropped and merged first, leaving E' row
directions and C(E', k - 1) candidates, whose unit normals come from a
Householder QR vectorized over batches of ``_VERTEX_CHUNK`` stacks.  Every
candidate is a feasible point, scored by its top floor(s) block masses of
|G u| over ||G u||_1, so the best score is the maximum.  Its rounding is
bounded: the computed normal lies within ||G_S u|| / sigma_{k-1}(G_S) of
the exact one of its k - 1 rows G_S, which moves the score by at most
2 sum_i ||g_i|| that / ||G u||_1, and merging moves it by at most
4 sum_i ||g_i - g~_i|| / sigma_k(G).  ``gamma_upper`` is the largest score
plus its allowance (no score exceeds 1).  The route cost grows with the
kernel dimension, not with s.  It is taken when the candidates number at
most ``_VERTEX_CAP`` and ``_VERTICES_PER_SUPPORT`` per signed support
(measured against the LP search beside that constant); an input whose
rounding allowance exceeds ``_VERTEX_ALLOWANCE`` (near-singular sets of
k - 1 rows, or a rank-deficient B N) goes to the LP search, and linf or
weighted blocks always do.

The LP search.  One enumeration, ``structures.maximal_block_sets``, serves
both kinds: a plain structure is the group of singleton l1 blocks, so its
maximal projectors are the supports of size min(floor(s), n).  Per block
set, each coordinate of an l1 block gets a sign and each linf block a
(representative, sign).  The LPs are written in
the one encoding of ``norms.structure_norm_epigraph``, variables
[u+ | u- | t] >= 0 with z = u+ - u-: the l1 mass is priced on u+ + u-, and
each linf block member has the one row u+_i + u-_i <= t of its block; for a
representation map other than the canonical one the rows bound every
coordinate of B z, and the signs run over those coordinates.  The LPs of one
enumeration share their feasible set and differ only in the cost, so one
``LPSequence`` per verdict solves them: one cold start, each LP starting at
an earlier optimal basis, and its tallies give the LP counts of
``details``.  The search hands the sequence its LPs in rounds, each one
lockstep batch (``solve_many``), every LP of a round from the basis the
round's first LP ended on: a stack of one set's two to four LPs costs a
little more than solving them one by one, one of about 32 far less.

Most of those LPs cannot matter, and certified bounds prove it without
solving them.  The value of a block set (its largest retained mass) adds up
over blocks, so it is subadditive: val(S) <= val(S - l) + val({l}).  Every
single block is solved first; each larger set is then bounded by the min
over its blocks l of UB(S - l) + UB({l}), UB being a solved set's largest
value + delta (+inf when one of its LPs did not end optimal) and any other
set's bound.  The inclusion-maximal sets are visited in descending order of
bound, and their LPs run only while that bound exceeds the best value
found by more than a tie tolerance of 1e-12 (1 + best); when a set's bound
comes from an unsolved subset, that cheaper subset is solved first, the one
that keeps the heaviest blocks when several tie (``_pruned_search``).
Bounds within the tolerance of each other are ties, broken in set order,
so roundoff in the bounds does not move the visit order.  A round takes
the sets next in that order against the best value found before it, so it
may solve sets a value found within it would prune: they only raise the
best value.  Every visited set lies inside a maximal one, so the best
value is the maximum to within the tolerance, and the certified upper
bound is the largest of value + delta over the LPs solved and of the
skipped sets' bounds.  The LP search refuses an input with more than
``_LP_BUDGET`` signed supports before any LP runs.

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
or CertifiedBad by witness.  Both polyhedral routes report in ``details``
the ``method`` ("kernel-ball vertices" or "LP search"), ``kernel_dim``,
``signed_supports`` (the LPs of the maximal sets, which ``_LP_BUDGET``
caps), ``maximal_sets``, ``lp_count`` (the LPs solved, speculative ones
too; 0 on the vertex route), ``vertex_candidates`` (C(E', k - 1), None
where linf or weighted blocks rule the vertices out) and, when the search
was exhaustive, the certified upper bound ``gamma_upper``.  The LP search
adds ``vertex_route`` (why the vertices did not serve), ``lps_pruned`` (the maximal sets' LPs skipped, so
the maximal sets' LPs solved are ``signed_supports - lps_pruned`` and the
rest of ``lp_count`` went to smaller sets), the total pivots
(``lp_iterations``), the largest per-LP gap (``lp_delta``) and
``lps_not_optimal``.
"""

from __future__ import annotations

import collections
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
# LPs per round of ``_pruned_search``: the seed-1 ``nullspace`` verdicts run
# about 1.7x as fast as with one set's LPs per round, on a tenth more LPs
_ROUND_LPS = 32
_GOOD_MARGIN = 1e-9
# the vertex route scores at most this many candidate normals, about 0.5 s
# at 1.3 to 2.6 us each, so an input past it and ``_LP_BUDGET`` is refused
# at once
_VERTEX_CAP = 200_000
# and at most this many per signed support.  On 2 cores a candidate costs
# 1.3 to 2.6 us (kernel dimension 5 to 8, batches of ``_VERTEX_CHUNK``).
# The pruned LP search costs 20 to 70 us per signed support at s = 2 (plain
# n = 12 to 16, l1 pairs) but 9 to 14 us at s = 3 (plain n = 18, 20), where
# it prunes more: the routes break even at 3.8 to 21 candidates per
# support.  4 takes the vertex route only where it is not slower on any of
# those inputs.
_VERTICES_PER_SUPPORT = 4
_VERTEX_CHUNK = 4096        # candidates per vectorized batch
_VERTEX_ALLOWANCE = 1e-10   # largest rounding allowance the route accepts
_ZERO_ROW = 1e-14           # rows of B N below this fraction of the largest
_PARALLEL = 1e-13           # unit rows this close (up to sign) are merged
_EPS = np.finfo(float).eps


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


def _lattice(maximal):
    """Every nonempty subset of the sets ``maximal``, by size: level k - 1
    holds the k-block sets, in lexicographic order.  Also returns, for
    every set of two or more blocks, its subsets S - l in the order of l."""
    by_size, subsets = {}, {}
    for chosen in maximal:
        by_size.setdefault(len(chosen), set()).add(chosen)
    top = max(by_size)
    for k in range(top, 1, -1):
        below = by_size.setdefault(k - 1, set())
        for chosen in by_size.get(k, ()):
            subs = subsets[chosen] = [chosen[:i] + chosen[i + 1:]
                                      for i in range(k)]
            below.update(subs)
    return [sorted(by_size.get(k, ())) for k in range(1, top + 1)], subsets


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
        self.tags, self.weights = structure.block_norms, structure.weights
        if lift is None:
            self.blocks, self.nf = structure.blocks, n
        else:
            self.nf = lift.shape[0]
            self.blocks = np.split(np.arange(self.nf), structure.offsets[1:-1])
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

    def maximal(self, s):
        """The maximal block sets at level s, each with its LP count, in
        the order of ``structures.maximal_block_sets``; the walk stops once
        it holds more than ``_LP_BUDGET`` sets (each has at least one LP)."""
        out = {}
        for chosen in structures.maximal_block_sets(self.weights, s):
            out[chosen] = self.plan(chosen).count
            if len(out) > _LP_BUDGET:
                break
        return out

    def tally(self, s):
        """(maximal sets, signed supports) at level s without the walk,
        where every block is l1 with unit weight and no coordinate lies in
        two blocks; else None.  The maximal sets are then the t-subsets of
        the K blocks, t = min(floor(s), K), and a set of d coordinates has
        2^d / 2 signed supports: the sum runs over how many blocks of each
        size a set takes."""
        sizes = [len(v) for v in self.blocks]
        if set(self.tags) != {"l1"} or not norms.unit_weights(self.weights) \
                or len({i for v in self.blocks for i in v}) != sum(sizes):
            return None
        t = int(min(s + 1e-12, len(sizes)))
        if t == 0:
            return 0, 0
        ways = [1] + [0] * t    # j -> sum over j-subsets of 2^(their size)
        for size, many in collections.Counter(sizes).items():
            new = [0] * (t + 1)
            for j, w in enumerate(ways):
                for i in range(min(many, t - j) + 1 if w else 0):
                    new[j + i] += w * math.comb(many, i) << (size * i)
            ways = new
        return math.comb(len(sizes), t), ways[t] // 2

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
    set its bound, set level by level from the singletons up.  Each set's
    subsets S - l come from ``_lattice`` and its singletons' UBs are read
    once, after round zero, so a bound costs one sum per block.

    The LPs run in rounds of one lockstep batch (``solve_many``) each.
    Round zero is every singleton.  Each later round takes the maximal sets
    in descending order of bound, each bound brought up to date when its
    set comes first, while that bound exceeds the best value found before
    the round by more than the tie tolerance 1e-12 (1 + best), until it
    holds ``_ROUND_LPS`` LPs.  Bounds within the tolerance of the largest
    are ties, and the first of them in set order comes first.  A set's LPs
    join the round unless the subset S - l of its bound is unsolved: that
    cheaper subset joins it (once), and the set goes back in line after the
    round.  Of the subsets whose sums tie the bound, the one without the
    lightest block l (least UB({l})) runs: one z rarely carries the mass of
    several heavy blocks at once, so their joint bound tends to fall
    furthest (on the plain n=12, s=3 verdicts this solves about a fifth
    fewer LPs than set order).  A value found within a round prunes no set
    of it: such speculative LPs only raise the best value, ``lp_count``
    counts them and ``lps_pruned`` does not.  Every set is a subset of a
    maximal one, so its value is a lower bound on theirs, and the best is
    the maximum to within the tolerance.

    Returns (best value, witness(x) at the best, upper, stats): ``upper`` is
    the max over the LPs solved of value + delta and over the skipped sets
    of their bounds, a certified upper bound on the maximum, or None when
    some LP did not end optimal.
    """
    levels, subsets = _lattice(maximal)
    ub, solved = {}, set()
    best, best_z, upper = 0.0, None, 0.0
    seq = LPSequence(lp)

    def record(chosen, results):
        """Take the (x, report) of each of ``chosen``'s LPs into the bounds
        and the best value."""
        nonlocal best, best_z, upper
        ub[chosen] = 0.0    # z = 0 is feasible: no value is below 0
        solved.add(chosen)
        for x, rep in results:
            if rep.status is not Status.OPTIMAL:
                ub[chosen] = math.inf
                continue
            val = -rep.objective
            ub[chosen] = max(ub[chosen], val + rep.delta)
            upper = max(upper, val + rep.delta)
            if val > best:
                best, best_z = val, witness(x)

    def solve(batch):
        """Solve the LPs of a round, ``batch`` (set -> its costs), as one
        lockstep batch and record them set by set."""
        results = iter(seq.solve_many([c for cs in batch.values() for c in cs]))
        for chosen, cs in batch.items():
            record(chosen, itertools.islice(results, len(cs)))

    def tie():
        """The tie tolerance: bounds this close are equal to roundoff.  The
        LPs' gaps are already in the bounds, and a loose one must not make
        every bound near it a tie."""
        return 1e-12 * (1.0 + best)

    def bound(chosen):
        """(the bound of ``chosen``, the subset S - l to solve for it): of
        the l whose sums tie the bound, the lightest, UB({l}) least, so the
        subset keeps the heaviest blocks; the first in set order of those
        tied in UB({l}) too"""
        subs, single = parts[chosen]
        sums = [ub[sub] + w for sub, w in zip(subs, single)]
        value = min(sums)
        tied = [i for i, v in enumerate(sums) if v <= value + tie()]
        light = min(single[i] for i in tied)
        return value, subs[next(i for i in tied
                                if single[i] <= light + tie())]

    solve({c: list(supports.costs(supports.plan(c))) for c in levels[0]})
    # each set's subsets S - l and singleton UBs, fixed from here on
    parts = {}
    for level in levels[1:]:
        for chosen in level:
            parts[chosen] = (subsets[chosen], [ub[(l,)] for l in chosen])
            ub[chosen] = bound(chosen)[0]
    queue = [(-ub[m], m) for m in maximal if len(m) > 1]
    heapq.heapify(queue)
    while True:
        batch, held, size = {}, [], 0
        while size < _ROUND_LPS and queue and -queue[0][0] > best + tie():
            # the first in set order of the keys tied with the largest; keys
            # that are equal (+inf ones too) already leave the heap in set order
            ties = [heapq.heappop(queue)]
            while queue and ties[0][0] > -math.inf \
                    and -queue[0][0] >= -ties[0][0] - tie():
                ties.append(heapq.heappop(queue))
            key, chosen = min(ties, key=lambda entry: entry[1])
            for entry in ties:
                if entry[1] != chosen:
                    heapq.heappush(queue, entry)
            value, sub = bound(chosen)
            if value < -key:            # tightened since it was queued
                heapq.heappush(queue, (-value, chosen))
                continue
            if len(sub) > 1 and sub not in solved:
                held.append((-value, chosen))   # back in line after the round
                chosen = sub
            if chosen not in batch:
                batch[chosen] = list(supports.costs(supports.plan(chosen)))
                size += len(batch[chosen])
        if not batch:
            break
        solve(batch)
        for entry in held:
            heapq.heappush(queue, entry)
    if queue:       # a skipped set's bound is within the tie tolerance
        upper = max(upper, -queue[0][0])
    pruned = sum(c for m, c in maximal.items() if m not in solved)
    stats = {"lp_count": seq.lps, "lps_pruned": pruned,
             "lp_iterations": seq.iterations, "lp_delta": seq.delta,
             "lps_not_optimal": seq.not_optimal}
    return best, best_z, None if seq.not_optimal else upper, stats


def _polyhedral(a, structure, bmat, custom, s, null, vertices=True):
    """The exact verdict of a polyhedral structure: the vertex route where
    ``_vertex_search`` takes it (never when ``vertices`` is False), else the
    LP search, refused past ``_LP_BUDGET`` signed supports."""
    n = a.shape[1]
    lp = _kernel_ball_lp(a, structure, custom)
    supports = _SignedSupports(structure, n, lp.c.size, custom)
    maximal, tally = None, supports.tally(s)
    if tally is None:
        maximal = supports.maximal(s)
        tally = len(maximal), sum(maximal.values())
    sets, count = tally
    details = {"signed_supports": count, "maximal_sets": sets,
               "kernel_dim": null.shape[1]}
    if count == 0:
        return NullspaceVerdict(
            status="CertifiedGood", s=s, gamma_value=0.0,
            details=dict(details, lp_count=0, lps_pruned=0,
                         note="only the zero projector has weight <= s"))
    found, route = _vertex_search(structure, bmat, null, s, count) \
        if vertices else (None, {"vertex_route": "not tried",
                                 "vertex_candidates": None})
    if found is not None:
        found.details = dict(details, **found.details)
        return found
    details.update(route, method="LP search")
    if count > _LP_BUDGET:
        more = "more than " if maximal and len(maximal) > _LP_BUDGET else ""
        return NullspaceVerdict(
            status="Unknown", s=s,
            details=dict(details, reason=f"{more}{count} signed supports "
                         "exceed the LP budget"))
    if maximal is None:
        maximal = supports.maximal(s)
    best, best_z, upper, stats = _pruned_search(
        lp, maximal, supports, lambda x: x[:n] - x[n:2 * n])
    if upper is not None:
        stats["gamma_upper"] = upper
    return _classify(structure, bmat, s, best, best_z, upper,
                     dict(details, **stats))


# ---------------------------------------------------------------------------
# l1 with unit weights: the vertices of the kernel ball


def _generators(bmat, null):
    """(G, dirs, merge_error): G = B N, the unit directions ``dirs`` of its
    rows with zero rows dropped and parallel ones merged, and the sum over
    the rows of G of their distance to the G~ those directions generate
    (a dropped row's norm, a merged row's distance to its multiple of the
    kept direction), plus the rounding of forming them."""
    g = bmat @ null
    size = np.linalg.norm(g, axis=1)
    live = np.flatnonzero(size > _ZERO_ROW * size.max())
    unit = g[live] / size[live, None]

    def dist(i, j):     # between unit rows, up to sign
        return np.minimum(np.linalg.norm(unit[i] - unit[j], axis=-1),
                          np.linalg.norm(unit[i] + unit[j], axis=-1))

    # each row's representative: the first row parallel to it (the cosines
    # find the few pairs to measure), followed down the chain; a row is
    # kept when it represents itself
    ii, jj = np.nonzero(np.tril(np.abs(unit @ unit.T) > 1.0 - 1e-10, -1))
    close = dist(ii, jj) <= _PARALLEL
    rep = np.arange(live.size)
    np.minimum.at(rep, ii[close], jj[close])
    while np.any(rep[rep] != rep):
        rep = rep[rep]
    kept = np.flatnonzero(rep == np.arange(live.size))
    error = size.sum() - size[live].sum() \
        + size[live] @ dist(np.arange(live.size), rep)
    error += (g.shape[1] + 2) * _EPS * size.sum()
    return g, unit[kept], float(error)


def _candidate_normals(rows):
    """Unit normals of k - 1 rows each, stacked k x (k - 1) x c (row j of
    stack i is ``rows[:, j, i]``), by Householder QR of each stack
    vectorized over the stacks: (normals k x c, residual bounds on
    ||rows @ normal||, lower bounds on sigma_{k-1} of the rows, 0 where
    none holds)."""
    k, p, c = rows.shape
    r = rows.copy()
    reflectors = []
    for j in range(p):
        x = r[j:, j]
        norm = np.sqrt((x * x).sum(axis=0))
        alpha = np.where(x[0] >= 0, -norm, norm)
        v = x.copy()
        v[0] -= alpha
        vv = (v * v).sum(axis=0)
        beta = np.divide(2.0, vv, out=np.zeros(c), where=vv > 0)
        rest = r[j:, j + 1:]
        rest -= v[:, None] * (beta * (v[:, None] * rest).sum(axis=0))
        r[j, j] = alpha
        reflectors.append((v, beta))
    normal = np.zeros((k, c))
    normal[-1] = 1.0
    for j in reversed(range(p)):
        v, beta = reflectors[j]
        normal[j:] -= v * (beta * (v * normal[j:]).sum(axis=0))
    # sigma_min(R) >= 1 / ||R^-1||_F, R^-1 by back substitution, less the
    # backward errors of the QR and of the substitution
    inv = np.zeros((p, p, c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in reversed(range(p)):
            inv[i, i] = 1.0 / r[i, i]
            inv[i, i + 1:] = -(r[i, i + 1:p, None] * inv[i + 1:, i + 1:]).sum(
                axis=0) * inv[i, i]
        sigma = 1.0 / np.sqrt((inv * inv).sum(axis=(0, 1))) - 4.0 * k * k * _EPS
    sigma = np.where(sigma > 0, sigma, 0.0)     # NaN too; inf when k = 1
    residual = np.sqrt((((rows * normal[:, None]).sum(axis=0)) ** 2).sum(axis=0)) \
        + (k + 1) * k * _EPS
    return normal, residual, sigma


def _vertex_search(structure, bmat, null, s, signed_supports):
    """(the exact verdict from the vertices of the kernel ball, None), or
    (None, {``vertex_route``: why the LP search serves this input instead,
    ``vertex_candidates``}).  The module docstring gives the polarity
    argument, the selection rule and the rounding allowance."""
    count = None

    def refuse(reason):
        return None, {"vertex_route": reason, "vertex_candidates": count}

    if structure.shared_norm != "l1" or not norms.unit_weights(structure.weights):
        return refuse("linf or weighted blocks")
    k = null.shape[1]
    g, dirs, merge_error = _generators(bmat, null)
    count = math.comb(dirs.shape[0], k - 1)
    if count > min(_VERTEX_CAP, _VERTICES_PER_SUPPORT * signed_supports):
        return refuse(f"{count} vertex candidates exceed the cap of min("
                      f"{_VERTEX_CAP}, {_VERTICES_PER_SUPPORT} per signed support)")
    details = {"method": "kernel-ball vertices", "lp_count": 0,
               "vertex_candidates": count}
    sigma_g = np.linalg.svd(g, compute_uv=False)[-1] \
        - (k + 2) * _EPS * np.linalg.norm(g)
    if dirs.shape[0] < k or sigma_g <= 0:
        return refuse("B N has rank below the kernel dimension")
    # val(u) = kept / total is within 2 ||G~ u - G u||_1 / ||G u||_1 of
    # its value for G~, and ||G u||_1 >= sigma_k(G) ||u||
    allowance = 4.0 * merge_error / float(sigma_g)
    offsets, blocks = structure.offsets[:-1], len(structure.blocks)
    top = int(min(s + 1e-12, blocks))
    row_sum = float(np.linalg.norm(g, axis=1).sum())
    best, best_u, upper = -1.0, None, 0.0
    combos = itertools.combinations(range(dirs.shape[0]), k - 1)
    for start in range(0, count, _VERTEX_CHUNK):
        size = min(_VERTEX_CHUNK, count - start)
        idx = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combos, size)), dtype=np.intp,
            count=size * (k - 1)).reshape(size, k - 1)
        normal, residual, sigma = _candidate_normals(dirs.T[:, idx.T])
        mass = np.add.reduceat(np.abs(g @ normal), offsets, axis=0)
        total = mass.sum(axis=0)
        kept = total if top == blocks else \
            np.partition(mass, blocks - top, axis=0)[blocks - top:].sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = kept / total
            # the exact normal is within residual / sigma of the computed
            # one, which moves val by at most 2 row_sum that / total; then
            # the rounding of G u and of the sums
            slack = 2.0 * row_sum * (residual / sigma + (k + 1) * _EPS) / total \
                + 4.0 * g.shape[0] * _EPS
        # no retained fraction exceeds 1; NaN (a zero total) stays NaN
        bound = float(np.max(np.minimum(value + slack, 1.0)))
        if not bound <= 1.0:
            return refuse("a candidate normal has no mass")
        upper = max(upper, bound)
        i = int(np.argmax(value))
        if value[i] > best:
            best, best_u = float(value[i]), normal[:, i] / total[i]
    upper += allowance
    if not upper - best <= _VERTEX_ALLOWANCE:
        return refuse(f"rounding allowance {upper - best:.3g} exceeds "
                      f"{_VERTEX_ALLOWANCE:g}")
    details["gamma_upper"] = upper
    return _classify(structure, bmat, s, best, null @ best_u, upper,
                     details), None


# ---------------------------------------------------------------------------
# sampled ratio ascent (group with l2 blocks, low rank)


def _group_ratio_and_grad(structure, bmat, z, s):
    w = bmat @ z
    vals = norms.group_block_norms(structure, w)
    num, mask, _ = norms.select_blocks(vals, structure.weights, s)
    den = float(vals.sum())
    if den < 1e-14:
        return 0.0, np.zeros(z.size)
    # block norm supergradients (linf: the sign of the first largest entry)
    block_of = structure.block_of
    grad_den = np.sign(w)
    for tag, _blocks, coords, _starts in structure.tag_blocks:
        if tag == "l2":
            wl, nl = w[coords], vals[block_of[coords]]
            grad_den[coords] = np.divide(wl, nl, out=np.zeros_like(wl),
                                         where=nl > 1e-14)
        elif tag == "linf":
            top = coords[np.abs(w[coords]) == vals[block_of[coords]]]
            top = top[np.r_[True, np.diff(block_of[top]) != 0]]
            grad_den[coords] = 0.0
            grad_den[top] = np.sign(w[top])
    grad_num = np.where(mask[block_of], grad_den, 0.0)
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
    if not 0 <= s < math.inf:   # NaN fails too
        raise ValueError("s must be a finite number >= 0")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != structure.ambient_dim_x:
        raise ValueError(f"A must have {structure.ambient_dim_x} columns "
                         "for this structure")
    bmat, custom = structures.representation(structure, b)
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
        return _polyhedral(a, structure, bmat, custom, s, null)
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
