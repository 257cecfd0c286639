"""Norms, dual norms, seminorms, proximal maps and induced operator norms.

Everything in here is a pure function of its arguments.  The module knows
three families of vector/matrix norms:

* plain vector norms tagged ``"l1" | "l2" | "linf"`` and the matrix pair
  ``"nuclear" | "spectral"``,
* the structure norm of a sparsity structure (sum of block norms for the
  plain and group models, nuclear for low rank), its dual and, where it is
  polyhedral (``has_lp_form``), its one LP encoding over variables
  [u+ | u- | t], all >= 0 with u = u+ - u-: the l1 mass is a cost on
  u+ + u- and only linf blocks add a t and rows,
* the sparsity-weighted objects used by the certification machinery:
  the level s (``level``) and its integer size (``level_size``),
  ``sum_top`` (sum of the s largest magnitudes), the weighted block
  selection ``select_blocks`` (a heaviest block set of weight <= s and a
  certified upper bound on its mass, equal to it wherever the selection is
  exact) and ``pi_s``, twice that bound, ``sigma_sum`` (partial sum of
  singular values) and ``ps_seminorm``.

Structure-aware functions take the structure duck-typed, touching only
``kind`` (low rank or a block layout), ``blocks``, ``weights``,
``block_norms``, ``shared_norm`` (the tag all blocks share, or None), the
block layout ``offsets``, ``block_of`` and ``tag_blocks`` (see
:mod:`.structures`),
``ambient_dim_e``, ``p`` and ``q``, so there is no import cycle with
:mod:`.structures`.  Plain means the n singleton l1 blocks, unit weights.
"""

from __future__ import annotations

import math

import numpy as np

VECTOR_TAGS = ("l1", "l2", "linf")
_DUAL = {"l1": "linf", "linf": "l1", "l2": "l2",
         "nuclear": "spectral", "spectral": "nuclear"}


class UnsupportedNormError(ValueError):
    """Requested norm/variant combination is outside the implemented scope."""


def dual_tag(tag):
    """Conjugate norm tag: l1<->linf, l2<->l2, nuclear<->spectral."""
    try:
        return _DUAL[tag]
    except KeyError:
        raise UnsupportedNormError(f"unknown norm tag {tag!r}") from None


def vector_norm(v, tag):
    """Norm of a 1-d array under a vector tag."""
    v = np.asarray(v, dtype=float).ravel()
    if tag == "l1":
        return float(np.sum(np.abs(v)))
    if tag == "l2":
        return float(np.linalg.norm(v))
    if tag == "linf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise UnsupportedNormError(f"not a vector norm tag: {tag!r}")


def svd_descending(m):
    """SVD with singular values descending and a fixed sign convention.

    Returns (U, s, Vt).  LAPACK already sorts the singular values; on top of
    that the first entry of each left singular vector whose magnitude exceeds
    1e-12 is made nonnegative (flipping the matching row of Vt), so repeated
    calls on equal inputs give bitwise-equal factors.
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return u, s, vt


def singular_values(m):
    """Singular values of a matrix, descending."""
    return np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)


def level(structure, s):
    """The level s of a certificate, verdict or check on ``structure``:
    plain and group, a finite number >= 0, returned as is; low rank, an
    integer >= 1 to within 1e-9, returned as that int.  ValueError else."""
    if structure.kind != "lowrank":
        if not 0 <= s < math.inf:   # NaN fails too
            raise ValueError("s must be a finite number >= 0")
        return s
    if not (math.isfinite(s) and round(s) >= 1 and abs(s - round(s)) <= 1e-9):
        raise ValueError("the rank level must be a positive integer")
    return round(s)


def level_size(s, cap):
    """floor(s) to within 1e-12, at most ``cap``: the unit-weight blocks (or
    the rank) kept at level s.  s = inf is allowed; NaN or s < 0 is not."""
    if not s >= 0:   # NaN fails too
        raise ValueError(f"s must be a number >= 0, got {s!r}")
    return int(min(s + 1e-12, cap))


def sum_top(x, s):
    """Sum of the ``level_size(s)`` largest magnitudes of x, s >= 1: the
    unit-weight ``select_blocks``."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    a = np.asarray(x, dtype=float).ravel()
    return select_blocks(a, np.ones(a.size), s)[0]


def sigma_sum(z, k):
    """Sum of the ``level_size(k)`` largest singular values, k >= 1."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    sv = singular_values(np.atleast_2d(np.asarray(z, dtype=float)))
    return float(sv[:level_size(k, sv.size)].sum())


# ---------------------------------------------------------------------------
# the weighted block selection behind pi_s (a 0/1 knapsack)

# real (non-integer) weights up to which the selection runs branch and bound;
# past it the greedy set and its fractional bound stand in for the optimum
_EXACT_BLOCKS = 25


def unit_weights(chi):
    """Whether every block weight is 1 (to 1e-12), where the heaviest
    selection is the ``level_size(s)`` largest blocks."""
    return bool(np.all(np.abs(np.asarray(chi, dtype=float) - 1.0) < 1e-12))


def _weights_are_integer(chi):
    return bool(np.all(np.abs(chi - np.round(chi)) <= 1e-9 * np.maximum(1.0, chi)))


def _knapsack_argmax(values, weights, s):
    """Exact 0/1 knapsack for positive integer weights and nonnegative
    values by dynamic programming at level s: (best value, boolean mask)."""
    w = np.round(weights).astype(int)
    cap = level_size(s, w.sum())
    k = len(values)
    chosen = np.zeros(k, dtype=bool)
    # dp[c] = best value at capacity c; keep takes for reconstruction
    dp = np.zeros(cap + 1)
    take = np.zeros((k, cap + 1), dtype=bool)
    for i in range(k):
        if w[i] <= cap:
            cand = dp[: cap - w[i] + 1] + values[i]
            upd = cand > dp[w[i]:] + 1e-15
            take[i, w[i]:] = upd
            dp[w[i]:] = np.where(upd, cand, dp[w[i]:])
    c = cap
    for i in range(k - 1, -1, -1):
        if take[i, c]:
            chosen[i] = True
            c -= w[i]
    return float(dp[cap]), chosen


def _ratio_pass(a, chi, order, room):
    """One pass over the blocks ``order``, by descending |u|/chi, in ``room``:
    (mass, taken, bound).  ``taken`` is the greedy set, each block that still
    fits, and ``mass`` its mass.  ``bound`` is Dantzig's fractional bound
    (Oper. Res. 5, 1957) on the mass of every set that fits: the blocks
    taken before the first one that fits alone but no longer fits, plus that
    block's fraction of the room left."""
    taken, mass, bound, left = [], 0.0, None, room
    for i in order:
        if chi[i] <= left:
            taken.append(i)
            mass += a[i]
            left -= chi[i]
        elif bound is None and chi[i] <= room:
            bound = mass + a[i] * left / chi[i]
    return mass, taken, mass if bound is None else bound


def _branch_and_bound(a, chi, order, room):
    """Exact 0/1 knapsack by depth-first branch and bound over ``order``:
    each node's ratio pass is both a feasible completion and its bound."""
    best, best_set = 0.0, []
    stack = [(0, room, 0.0, [])]
    while stack:
        i, left, acc, taken = stack.pop()
        mass, greedy, bound = _ratio_pass(a, chi, order[i:], left)
        if acc + mass > best:
            best, best_set = acc + mass, taken + greedy
        if acc + bound <= best + 1e-15:   # a leaf's bound is 0
            continue
        # branch on block order[i]: skip it, then take it (explored first)
        j = order[i]
        stack.append((i + 1, left, acc, taken))
        if chi[j] <= left:
            stack.append((i + 1, left - chi[j], acc + a[j], taken + [j]))
    return best, best_set


def select_blocks(u, chi, s):
    """Heaviest block set of total weight <= s: (value, mask, upper).

    ``mask`` is a block set of weight <= s (to 1e-12) and ``value`` its mass,
    the sum of its |u_l|; ``upper`` is a certified upper bound on the mass
    of every such set.  The selection is exact, ``upper == value``, for unit
    weights (the ``level_size(s)`` largest |u_l|, lower index first among
    ties: a stable sort), integer weights (a dynamic program) and up to
    ``_EXACT_BLOCKS`` real weights (branch and bound).  Past that limit the
    one pass by |u_l|/chi_l ratio gives the greedy set and Dantzig's
    fractional bound as ``upper``.  s = inf keeps every block; a NaN or
    negative s is a ValueError.
    """
    a = np.abs(np.asarray(u, dtype=float)).ravel()
    chi = np.asarray(chi, dtype=float).ravel()
    if np.any(chi <= 0):
        raise ValueError("weights must be positive")
    if a.shape != chi.shape:
        raise ValueError("u and chi must have matching length")
    top = level_size(s, a.size)
    room = s + 1e-12
    mask = np.zeros(a.size, dtype=bool)
    if unit_weights(chi):
        keep = np.argsort(-a, kind="stable")[:top]
        mask[keep] = True
        value = float(a[keep].sum())
        return value, mask, value
    if _weights_are_integer(chi):
        value, mask = _knapsack_argmax(a, chi, s)
        return value, mask, value
    order = np.argsort(-a / chi, kind="stable")
    if a.size <= _EXACT_BLOCKS:
        value, taken = _branch_and_bound(a, chi, order, room)
        upper = value
    else:
        value, taken, upper = _ratio_pass(a, chi, order, room)
    mask[taken] = True
    return float(value), mask, float(upper)


def pi_s(u, chi, s):
    """Weighted block-selection norm 2*max{sum eta_l*|u_l| : sum chi*eta <= s},
    eta in {0, 1}: twice the certified upper bound of ``select_blocks``,
    exact except past its block limit for real weights, where it is twice
    the fractional bound and never below the norm."""
    return 2.0 * select_blocks(u, chi, s)[2]


# ---------------------------------------------------------------------------
# structure norms


def _e_vector(structure, w):
    w = np.asarray(w, dtype=float).ravel()
    if w.size != structure.ambient_dim_e:
        raise ValueError(f"expected an E-vector of length "
                         f"{structure.ambient_dim_e}, got {w.size}")
    return w


# every block's norm under one tag, in one pass over w split at the starts
_BLOCK_NORM = {
    "l1": lambda w, starts: np.add.reduceat(np.abs(w), starts),
    "l2": lambda w, starts: np.sqrt(np.add.reduceat(w * w, starts)),
    "linf": lambda w, starts: np.maximum.reduceat(np.abs(w), starts),
}


def _block_norms(structure, w, dual=False):
    """Block norms of w, or their dual norms: |w| for singletons, else one
    pass per tag, a gather of that tag's blocks when the tags are mixed."""
    w = _e_vector(structure, w)
    starts = structure.offsets[:-1]
    if starts.size == w.size:
        return np.abs(w)
    if structure.shared_norm is not None:
        tag = structure.shared_norm
        return _BLOCK_NORM[_DUAL[tag] if dual else tag](w, starts)
    out = np.empty(starts.size)
    for tag, blocks, coords, sub_starts in structure.tag_blocks:
        kernel = _BLOCK_NORM[_DUAL[tag] if dual else tag]
        out[blocks] = kernel(w[coords], sub_starts)
    return out


def group_block_norms(structure, w):
    """Vector of per-block norms [||w^1||_(1), ..., ||w^K||_(K)]; |w| when
    every block is a singleton."""
    return _block_norms(structure, w)


def _as_matrix(structure, w):
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w.reshape(structure.p, structure.q)
    if w.shape != (structure.p, structure.q):
        raise ValueError(f"expected shape {(structure.p, structure.q)}, got {w.shape}")
    return w


def structure_norm(structure, w, dual=False):
    """The representation-space norm of the structure, or its conjugate.

    plain/group: sum of block norms / max of dual block norms; low-rank:
    nuclear / spectral.
    """
    if structure.kind == "lowrank":
        sv = singular_values(_as_matrix(structure, w))
        return float(sv[0]) if dual else float(sv.sum())
    if dual:
        return float(_block_norms(structure, w, dual=True).max())
    return float(group_block_norms(structure, w).sum())


def ps_seminorm(structure, z, s):
    """Seminorm mediating the strengthened nullspace condition.

    plain/group: pi_s of the block-norm vector (plain: 2*||z||_{s,1});
    low-rank: sum of the s largest plus the 2s largest singular values.
    """
    if structure.kind == "lowrank":
        k = level(structure, s)
        sv = singular_values(_as_matrix(structure, z))
        return float(sv[:k].sum() + sv[:2 * k].sum())
    return pi_s(group_block_norms(structure, z), structure.weights, s)


def has_lp_form(structure):
    """Whether the structure norm is polyhedral, so that
    ``structure_norm_epigraph`` writes it as an LP: plain structures and
    group structures whose blocks are all l1 or linf."""
    return structure.kind != "lowrank" and all(
        t in ("l1", "linf") for t in structure.block_norms)


def structure_norm_epigraph(structure, n, b=None):
    """The LP encoding of the structure norm of B u, u in R^n: (cost, g).

    Variables [u+ | u- | t], all >= 0, with u = u+ - u-; min cost @ v over
    the rows g @ v <= 0 is the norm of B u.  For the canonical B (``b`` is
    None) the l1 mass is the cost mult @ (u+ + u-), mult_i the number of l1
    blocks holding coordinate i (all ones for plain, whose coordinates are
    singleton l1 blocks).  Each linf block has one t (cost 1), in block
    order, and one row u+_i + u-_i - t <= 0 per member, in block order;
    plain structures and l1 coordinates get no rows.  That one row is
    exact: every feasible point has |u+_i - u-_i| <= u+_i + u-_i <= t, and
    the positive and negative parts of u attain it, so the projection of
    the feasible set onto u is that of the pair +-(u+_i - u-_i) <= t.  Any
    other matrix ``b`` gets one t per l1 coordinate of B u, then one per
    linf block, and the rows +-(b_j @ (u+ - u-)) <= t of each coordinate j
    of B u, + then -.  Raises UnsupportedNormError where ``has_lp_form`` is
    False.
    """
    if not has_lp_form(structure):
        raise UnsupportedNormError(
            "l2 blocks and the nuclear norm have no exact LP form")
    if b is not None:
        return _general_epigraph(structure, n, np.asarray(b, dtype=float))
    members = np.concatenate(structure.blocks).astype(int)
    member_tag = np.array(structure.block_norms)[structure.block_of]
    mult = np.bincount(members[member_tag == "l1"], minlength=n).astype(float)
    in_linf = member_tag == "linf"
    linf_blocks, t_col = np.unique(structure.block_of[in_linf],
                                   return_inverse=True)
    n_t = linf_blocks.size
    coord = members[in_linf]
    rows = np.arange(coord.size)
    g = np.zeros((coord.size, 2 * n + n_t))
    g[rows, coord] = 1.0
    g[rows, n + coord] = 1.0
    g[rows, 2 * n + t_col] = -1.0
    return np.concatenate([mult, mult, np.ones(n_t)]), g


def _general_epigraph(structure, n, b):
    dim_e, block_of = structure.ambient_dim_e, structure.block_of
    if b.shape != (dim_e, n):
        raise ValueError(f"B must be {dim_e} x {n} for this structure")
    is_l1 = np.array(structure.block_norms)[block_of] == "l1"
    # the t bounding each coordinate of B u: its own (l1), its block's (linf)
    owner = np.where(is_l1, np.arange(dim_e), dim_e + block_of)
    ts, t_col = np.unique(owner, return_inverse=True)
    n_t = ts.size
    g = np.zeros((2 * dim_e, 2 * n + n_t))
    g[0::2, :n], g[0::2, n:2 * n] = b, -b
    g[1::2, :n], g[1::2, n:2 * n] = -b, b
    g[np.arange(g.shape[0]), np.repeat(2 * n + t_col, 2)] = -1.0
    return np.concatenate([np.zeros(2 * n), np.ones(n_t)]), g


# ---------------------------------------------------------------------------
# induced operator norms


def induced_norm(q, from_tag, to_tag):
    """Operator norm of q between tagged vector norms; (value, exact).

    Exact cases: from l1 (max over columns of the target norm), to linf
    (max over rows of the dual source norm), and l2->l2 (largest singular
    value).  The three remaining pairs (linf->l1, linf->l2, l2->l1) are
    NP-hard or non-polyhedral; the smallest of the standard over-estimates
    is returned with exact=False.  Over-estimates keep every certificate
    built from them valid.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if from_tag not in VECTOR_TAGS or to_tag not in VECTOR_TAGS:
        raise UnsupportedNormError("induced_norm handles l1/l2/linf pairs")
    m, n = q.shape
    if m == 1 and n == 1:
        return abs(float(q[0, 0])), True
    if from_tag == "l1":
        return max(vector_norm(q[:, j], to_tag) for j in range(n)), True
    if to_tag == "linf":
        d = dual_tag(from_tag)
        return max(vector_norm(q[i, :], d) for i in range(m)), True
    if (from_tag, to_tag) == ("l2", "l2"):
        return float(singular_values(q)[0]), True

    sig1 = float(singular_values(q)[0])
    entry_sum = float(np.sum(np.abs(q)))
    cands = [entry_sum, math.sqrt(m * n) * sig1]
    if to_tag == "l1":
        # sum over rows of the dual source norm, plus chains through exact pairs
        cands.append(float(sum(vector_norm(q[i, :], dual_tag(from_tag))
                               for i in range(m))))
        cands.append(m * induced_norm(q, from_tag, "linf")[0])
        cands.append(n * induced_norm(q, "l1", "l1")[0]
                     if from_tag == "linf" else math.sqrt(n) * induced_norm(q, "l1", "l1")[0])
        if from_tag == "l2":
            cands.append(math.sqrt(m) * sig1)
    else:  # linf -> l2
        cands.append(math.sqrt(float(np.sum(np.square(
            np.sum(np.abs(q), axis=1))))))
        cands.append(math.sqrt(n) * sig1)
        cands.append(math.sqrt(m) * induced_norm(q, "linf", "linf")[0])
    return min(cands), False


def omega(structure, w):
    """Block-wise induced-norm matrix of an E x E matrix for a group structure.

    Returns (K x K nonnegative array, boolean exactness mask).  Inexact
    entries are upper bounds, which only weakens (never invalidates) any
    certificate computed from them.
    """
    if structure.kind != "group":
        raise ValueError("omega is defined for group structures")
    n_e, starts = structure.ambient_dim_e, structure.offsets
    w = np.asarray(w, dtype=float)
    if w.shape != (n_e, n_e):
        raise ValueError(f"expected a {n_e}x{n_e} matrix, got {w.shape}")
    k = starts.size - 1
    out = np.zeros((k, k))
    exact = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            block = w[starts[i]:starts[i + 1], starts[j]:starts[j + 1]]
            out[i, j], exact[i, j] = induced_norm(
                block, structure.block_norms[j], structure.block_norms[i])
    return out, exact


# ---------------------------------------------------------------------------
# proximal maps and ball projections


def soft_threshold(v, tau):
    """Entrywise shrinkage sign(v)*max(|v|-tau, 0)."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_l1_ball(v, radius):
    """Euclidean projection onto {x : ||x||_1 <= radius} (sorted threshold)."""
    v = np.asarray(v, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return np.zeros_like(v)
    return _l1_ball(v, radius)


def _l1_ball(v, radius):
    """``project_l1_ball`` of a float array v for a radius > 0, unchecked."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = u.cumsum()
    # rank 1 passes the threshold test in exact arithmetic, but fails it in
    # floating point when the radius is below half an ulp of max |v|
    passing = np.nonzero(u * np.arange(1, a.size + 1) > css - radius)[0]
    rho = passing[-1] if passing.size else 0
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def ball_projector(phi, radius):
    """Euclidean projection onto {x : phi(x) <= radius}, radius >= 0, as a
    function of a float vector, picked once: no dispatch and no input
    checks per call (``project_ball`` is the checked entry point)."""
    if phi == "linf":
        return lambda v: np.clip(v, -radius, radius)
    if phi == "l2":
        def project(v):
            nrm = math.sqrt(v @ v)  # = np.linalg.norm(v) on a vector, bitwise
            return v.copy() if nrm <= radius else v * (radius / nrm)
        return project
    if phi == "l1":
        if radius == 0:
            return np.zeros_like
        return lambda v: _l1_ball(v, radius)
    raise UnsupportedNormError(f"project_ball does not handle {phi!r}")


def project_ball(v, phi, radius):
    """Euclidean projection of a vector onto {x : phi(x) <= radius}."""
    v = np.asarray(v, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return ball_projector(phi, radius)(v)


def _prox_l2(v, tau):
    nrm = math.sqrt(v @ v)  # = np.linalg.norm(v) on a vector, bitwise
    if nrm <= tau:
        return np.zeros_like(v)
    return v * (1.0 - tau / nrm)


def _prox_linf(v, tau):
    # Moreau: prox of the linf norm is residual of the l1-ball projection
    return v - _l1_ball(v, tau)


_VECTOR_PROX = {"l1": soft_threshold, "l2": _prox_l2, "linf": _prox_linf}


def vector_prox(tag):
    """The prox of tau*||.||_tag as a function ``prox(v, tau)`` of a float
    vector and tau > 0, picked once and unchecked (``prox_vector_norm`` is
    the checked entry point)."""
    try:
        return _VECTOR_PROX[tag]
    except KeyError:
        raise UnsupportedNormError(f"prox not implemented for {tag!r}") from None


def prox_vector_norm(v, tag, tau):
    """prox of tau*||.||_tag at v for the three vector norms."""
    v = np.asarray(v, dtype=float)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return v.copy()
    return vector_prox(tag)(v, tau)


def _prox_l2_groups(block_of, w, tau):
    """Block shrinkage for an all-l2 block layout in one vectorized pass."""
    nrm = np.sqrt(np.bincount(block_of, weights=w * w))
    scale = np.zeros(nrm.size)
    keep = nrm > tau
    scale[keep] = 1.0 - tau / nrm[keep]
    return w * scale[block_of]


def _prox_linf_groups(structure, w, tau):
    """Block prox for an all-linf block layout in one vectorized pass: by
    Moreau's identity, w minus each block's projection onto the l1 ball of
    radius tau, every block's threshold found in one sorted pass (the
    per-block rule of ``project_l1_ball``)."""
    if tau == 0:
        return w.copy()
    start, block_of = structure.offsets[:-1], structure.block_of
    a = np.abs(w)
    u = a[np.lexsort((-a, block_of))]          # descending inside each block
    css = np.cumsum(u)
    css -= (css - u)[start][block_of]          # cumulative sums per block
    rank = np.arange(1, a.size + 1) - start[block_of]
    # last rank of each block passing the threshold test, at least rank 1,
    # which fails it in floating point only when tau is below half an ulp
    rho = np.maximum(np.maximum.reduceat(
        np.where(u * rank > css - tau, rank, 0), start), 1)
    theta = (css[start + rho - 1] - tau) / rho
    theta[np.bincount(block_of, weights=a) <= tau] = 0.0  # inside the ball
    return w - np.sign(w) * np.maximum(a - theta[block_of], 0.0)


def structure_prox(structure):
    """The prox of the structure norm as a function ``prox(w, tau)`` of a
    flat E-vector w and a weight tau >= 0, picked once for the structure.

    The returned function neither dispatches nor checks its input, so a
    solver that calls it every iteration pays for neither;
    ``prox_structure_norm`` is the checked entry point.
    """
    if structure.kind == "lowrank":
        shape = (structure.p, structure.q)

        def prox(w, tau):
            # no sign convention needed: flipping a column of U together
            # with the matching row of Vt leaves (U * s) @ Vt bitwise unchanged
            u, sv, vt = np.linalg.svd(w.reshape(shape), full_matrices=False)
            return ((u * np.maximum(sv - tau, 0.0)) @ vt).reshape(-1)
        return prox
    if structure.shared_norm == "l1":
        return soft_threshold
    if structure.shared_norm == "l2":
        return lambda w, tau: _prox_l2_groups(structure.block_of, w, tau)
    if structure.shared_norm == "linf":
        return lambda w, tau: _prox_linf_groups(structure, w, tau)
    cuts, tags = structure.offsets[1:-1], structure.block_norms
    return lambda w, tau: np.concatenate([
        prox_vector_norm(b, t, tau) for b, t in zip(np.split(w, cuts), tags)])


def prox_structure_norm(structure, w, tau):
    """argmin_u tau*||u|| + (1/2)*||u - w||_2^2 for the structure norm.

    Per-block shrinkage adapted to each block tag (plain/group): an
    entrywise soft threshold when every block is l1, one vectorized pass
    when every block is l2 or every block is linf; singular value soft
    threshold (low-rank).  The result has the same shape as the input.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if structure.kind == "lowrank":
        w = np.asarray(w, dtype=float)
        out = structure_prox(structure)(_as_matrix(structure, w).reshape(-1), tau)
        return out if w.ndim == 1 else out.reshape(structure.p, structure.q)
    return structure_prox(structure)(_e_vector(structure, w), tau)
