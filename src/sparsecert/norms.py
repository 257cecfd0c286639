"""Norms, dual norms, seminorms, proximal maps and induced operator norms.

Everything in here is a pure function of its arguments.  The module knows
three families of vector/matrix norms:

* plain vector norms tagged ``"l1" | "l2" | "linf"`` and the matrix pair
  ``"nuclear" | "spectral"``,
* the structure norm of a sparsity structure (sum of block norms for the
  group model, l1 / nuclear for the plain / low-rank models), its dual and,
  where it is polyhedral, its LP epigraph,
* the sparsity-weighted objects used by the certification machinery:
  ``sum_top`` (sum of the s largest magnitudes), ``pi_s`` (weighted
  block-selection norm, exact and relaxed variants) with its maximizing
  block set ``select_blocks``, ``sigma_sum`` (partial sum of singular
  values) and ``ps_seminorm``.

Structure-aware functions take the structure object duck-typed: only the
fields ``kind``, ``n``, ``blocks``, ``weights``, ``block_norms``, ``p``,
``q`` are touched, so there is no import cycle with :mod:`.structures`.
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


def sum_top(x, s):
    """Sum of the s largest magnitudes of x; the full l1 norm when s >= dim."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    a = np.abs(np.asarray(x, dtype=float)).ravel()
    s = int(s)
    if s >= a.size:
        return float(a.sum())
    # argpartition avoids the full sort; ties do not matter for the sum
    idx = np.argpartition(a, a.size - s)[a.size - s:]
    return float(a[idx].sum())


def sigma_sum(z, k):
    """Sum of the k largest singular values; nuclear norm when k >= min(p,q)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    sv = singular_values(np.atleast_2d(np.asarray(z, dtype=float)))
    return float(sv[: int(k)].sum())


# ---------------------------------------------------------------------------
# weighted selection (knapsack) machinery behind pi_s


def _weights_are_integer(chi):
    return bool(np.all(np.abs(chi - np.round(chi)) <= 1e-9 * np.maximum(1.0, chi)))


def knapsack_argmax(values, weights, capacity):
    """Exact 0/1 knapsack for integer weights.

    Maximizes sum(values[i] for chosen i) subject to
    sum(weights[i]) <= capacity.  Returns (best_value, boolean mask).
    Weights must be positive integers, values nonnegative reals.
    """
    values = np.asarray(values, dtype=float)
    w = np.round(np.asarray(weights, dtype=float)).astype(int)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    cap = int(capacity)
    k = len(values)
    chosen = np.zeros(k, dtype=bool)
    if cap <= 0 or k == 0:
        return 0.0, chosen
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


def _knapsack_branch_bound(values, weights, capacity):
    """Exact 0/1 knapsack for real weights via depth-first branch and bound."""
    order = np.argsort(-values / weights)
    v = values[order]
    w = weights[order]
    k = len(v)
    best = 0.0
    best_set: list[int] = []

    def frac_bound(i, cap):
        # fractional-knapsack upper bound for the tail starting at item i
        total = 0.0
        for j in range(i, k):
            if w[j] <= cap:
                cap -= w[j]
                total += v[j]
            else:
                total += v[j] * (cap / w[j])
                break
        return total

    stack = [(0, capacity, 0.0, [])]
    while stack:
        i, cap, acc, taken = stack.pop()
        if acc > best:
            best = acc
            best_set = taken
        if i >= k or frac_bound(i, cap) + acc <= best + 1e-15:
            continue
        # branch: skip item i, then take it (explored first, LIFO)
        stack.append((i + 1, cap, acc, taken))
        if w[i] <= cap:
            stack.append((i + 1, cap - w[i], acc + v[i], taken + [i]))
    mask = np.zeros(k, dtype=bool)
    mask[[order[j] for j in best_set]] = True
    return best, mask


def pi_s_argmax(u, chi, s):
    """Maximizer behind the exact pi_s: (value_without_factor_2, mask)."""
    a = np.abs(np.asarray(u, dtype=float)).ravel()
    chi = np.asarray(chi, dtype=float).ravel()
    if np.any(chi <= 0):
        raise ValueError("weights must be positive")
    if a.shape != chi.shape:
        raise ValueError("u and chi must have matching length")
    if s < 0:
        raise ValueError("s must be nonnegative")
    feasible = chi <= s + 1e-12
    if not np.any(feasible):
        return 0.0, np.zeros(a.size, dtype=bool)
    if _weights_are_integer(chi):
        cap = int(math.floor(s + 1e-12))
        return knapsack_argmax(a, chi, cap)
    if a.size > 25:
        raise UnsupportedNormError(
            "exact pi_s with non-integer weights is limited to 25 blocks; "
            "use variant='hat'")
    return _knapsack_branch_bound(a, chi, float(s))


def select_blocks(u, chi, s):
    """Heaviest block set of total weight <= s: (value, mask, exact).

    The exact maximizer of ``pi_s_argmax`` where it is available; beyond its
    25-block limit for non-integer weights, the greedy set by |u_l|/chi_l
    ratio, which is feasible (so its value understates the maximum) and is
    flagged exact=False.
    """
    try:
        value, mask = pi_s_argmax(u, chi, s)
        return value, mask, True
    except UnsupportedNormError:
        pass
    a = np.abs(np.asarray(u, dtype=float)).ravel()
    chi = np.asarray(chi, dtype=float).ravel()
    mask = np.zeros(a.size, dtype=bool)
    budget = float(s)
    for i in sorted(range(a.size), key=lambda j: -(a[j] / chi[j])):
        if chi[i] <= budget + 1e-12:
            mask[i] = True
            budget -= chi[i]
    return float(a[mask].sum()), mask, False


def pi_s(u, chi, s, variant="exact"):
    """Weighted block-selection norm 2*max{sum eta_l*|u_l| : sum chi*eta <= s}.

    variant="exact" solves the 0/1 selection exactly (dynamic program for
    integer weights, branch and bound for up to 25 non-integer weights);
    variant="hat" is the continuous relaxation 0 <= eta_l <= min(1,
    floor(s/chi_l)) solved greedily by the |u_l|/chi_l ratio.  The relaxed
    value is never below the exact one.
    """
    if variant == "exact":
        val, _ = pi_s_argmax(u, chi, s)
        return 2.0 * val
    if variant != "hat":
        raise ValueError("variant must be 'exact' or 'hat'")
    a = np.abs(np.asarray(u, dtype=float)).ravel()
    chi = np.asarray(chi, dtype=float).ravel()
    if np.any(chi <= 0):
        raise ValueError("weights must be positive")
    if s < 0:
        raise ValueError("s must be nonnegative")
    eligible = chi <= s + 1e-12  # blocks with floor(s/chi) >= 1
    total = 0.0
    budget = float(s)
    for i in sorted(np.nonzero(eligible)[0], key=lambda j: -(a[j] / chi[j])):
        if budget <= 0:
            break
        eta = min(1.0, budget / chi[i])
        total += eta * a[i]
        budget -= eta * chi[i]
    return 2.0 * total


# ---------------------------------------------------------------------------
# structure norms


def _group_block_views(structure, w):
    w = np.asarray(w, dtype=float).ravel()
    out = []
    pos = 0
    for v in structure.blocks:
        out.append(w[pos: pos + len(v)])
        pos += len(v)
    if pos != w.size:
        raise ValueError(f"expected an E-vector of length {pos}, got {w.size}")
    return out


def group_block_norms(structure, w):
    """Vector of per-block norms [||w^1||_(1), ..., ||w^K||_(K)]."""
    views = _group_block_views(structure, w)
    return np.array([vector_norm(b, t)
                     for b, t in zip(views, structure.block_norms)])


def _as_matrix(structure, w):
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w.reshape(structure.p, structure.q)
    if w.shape != (structure.p, structure.q):
        raise ValueError(f"expected shape {(structure.p, structure.q)}, got {w.shape}")
    return w


def structure_norm(structure, w, dual=False):
    """The representation-space norm of the structure, or its conjugate.

    plain: l1 / linf; group: sum of block norms / max of dual block norms;
    low-rank: nuclear / spectral.
    """
    kind = structure.kind
    if kind == "plain":
        return vector_norm(w, "linf" if dual else "l1")
    if kind == "group":
        views = _group_block_views(structure, w)
        if dual:
            return max((vector_norm(b, dual_tag(t))
                        for b, t in zip(views, structure.block_norms)),
                       default=0.0)
        return float(sum(vector_norm(b, t)
                         for b, t in zip(views, structure.block_norms)))
    if kind == "lowrank":
        sv = singular_values(_as_matrix(structure, w))
        return float(sv[0]) if dual else float(sv.sum())
    raise ValueError(f"unknown structure kind {kind!r}")


def ps_seminorm(structure, z, s):
    """Seminorm mediating the strengthened nullspace condition.

    plain: 2*||z||_{s,1}; group: pi_s of the block-norm vector; low-rank:
    sum of the s largest plus the 2s largest singular values.
    """
    kind = structure.kind
    if kind == "plain":
        eff = min(int(math.floor(s + 1e-12)), structure.n)
        if eff < 1:
            return 0.0
        return 2.0 * sum_top(z, eff)
    if kind == "group":
        return pi_s(group_block_norms(structure, z), structure.weights, s)
    if kind == "lowrank":
        si = int(round(s))
        if abs(s - si) > 1e-9 or si < 1:
            raise ValueError("low-rank seminorm needs a positive integer s")
        sv = singular_values(_as_matrix(structure, z))
        return float(sv[:si].sum() + sv[: 2 * si].sum())
    raise ValueError(f"unknown structure kind {kind!r}")


def structure_norm_epigraph(structure, n):
    """LP epigraph of the structure norm of u in R^n: (cost, g_u, g_t).

    The rows g_u @ u + g_t @ t <= 0 say |u_i| <= t_k, first + then - for
    each bounded pair (i, k); with t >= 0, min cost @ t over them is the
    norm of B u for the canonical B.  Plain: one t per coordinate.  Group:
    one t per coordinate of an l1 block (cost: the number of l1 blocks
    holding it), in coordinate order, then one t per linf block (cost 1)
    bounding its members in block order.  Raises UnsupportedNormError for
    norms with no exact LP form (any l2 block, low rank).
    """
    if structure.kind == "plain":
        coord = aux = np.arange(n)
        cost = np.ones(n)
    elif structure.kind == "group":
        tags = np.array(structure.block_norms)
        if np.any(tags == "l2"):
            raise UnsupportedNormError("l2 blocks have no exact LP form")
        sizes = [len(v) for v in structure.blocks]
        members = np.concatenate(structure.blocks).astype(int)
        member_tag = np.repeat(tags, sizes)
        l1_mult = np.bincount(members[member_tag == "l1"],
                              minlength=n).astype(float)
        l1_coords = np.nonzero(l1_mult)[0]
        is_linf = tags == "linf"
        in_linf = member_tag == "linf"
        linf_aux = l1_coords.size + np.cumsum(is_linf) - 1
        coord = np.concatenate([l1_coords, members[in_linf]])
        aux = np.concatenate([np.arange(l1_coords.size),
                              np.repeat(linf_aux, sizes)[in_linf]])
        cost = np.concatenate([l1_mult[l1_coords],
                               np.ones(int(is_linf.sum()))])
    else:
        raise UnsupportedNormError("nuclear norm has no exact LP form")
    rows = np.arange(2 * coord.size)
    g_u = np.zeros((rows.size, n))
    g_u[rows, np.repeat(coord, 2)] = np.tile([1.0, -1.0], coord.size)
    g_t = np.zeros((rows.size, cost.size))
    g_t[rows, np.repeat(aux, 2)] = -1.0
    return cost, g_u, g_t


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
    sizes = [len(v) for v in structure.blocks]
    n_e = sum(sizes)
    w = np.asarray(w, dtype=float)
    if w.shape != (n_e, n_e):
        raise ValueError(f"expected a {n_e}x{n_e} matrix, got {w.shape}")
    k = len(sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)])
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
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, a.size + 1) > css - radius)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_ball(v, phi, radius):
    """Euclidean projection of a vector onto {x : phi(x) <= radius}."""
    v = np.asarray(v, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if phi == "linf":
        return np.clip(v, -radius, radius)
    if phi == "l2":
        nrm = math.sqrt(v @ v)  # = np.linalg.norm(v) on a vector, bitwise
        return v.copy() if nrm <= radius else v * (radius / nrm)
    if phi == "l1":
        return project_l1_ball(v, radius)
    raise UnsupportedNormError(f"project_ball does not handle {phi!r}")


def prox_vector_norm(v, tag, tau):
    """prox of tau*||.||_tag at v for the three vector norms."""
    v = np.asarray(v, dtype=float)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return v.copy()
    if tag == "l1":
        return soft_threshold(v, tau)
    if tag == "l2":
        nrm = math.sqrt(v @ v)  # = np.linalg.norm(v) on a vector, bitwise
        if nrm <= tau:
            return np.zeros_like(v)
        return v * (1.0 - tau / nrm)
    if tag == "linf":
        # Moreau: prox of the linf norm is residual of the l1-ball projection
        return v - project_l1_ball(v, tau)
    raise UnsupportedNormError(f"prox not implemented for {tag!r}")


def _prox_l2_groups(structure, w, tau):
    """Block shrinkage for an all-l2 group structure in one vectorized pass."""
    w = np.asarray(w, dtype=float).ravel()
    sizes = [len(v) for v in structure.blocks]
    block_id = np.repeat(np.arange(len(sizes)), sizes)
    if block_id.size != w.size:
        raise ValueError(f"expected an E-vector of length {block_id.size}, "
                         f"got {w.size}")
    nrm = np.sqrt(np.bincount(block_id, weights=w * w, minlength=len(sizes)))
    scale = np.zeros(len(sizes))
    keep = nrm > tau
    scale[keep] = 1.0 - tau / nrm[keep]
    return w * scale[block_id]


def prox_structure_norm(structure, w, tau):
    """argmin_u tau*||u|| + (1/2)*||u - w||_2^2 for the structure norm.

    Entrywise soft threshold (plain), per-block shrinkage adapted to each
    block tag (group), singular value soft threshold (low-rank).  The result
    has the same shape as the input.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    kind = structure.kind
    if kind == "plain":
        return soft_threshold(w, tau)
    if kind == "group":
        if all(t == "l2" for t in structure.block_norms):
            return _prox_l2_groups(structure, w, tau)
        views = _group_block_views(structure, w)
        return np.concatenate([
            prox_vector_norm(b, t, tau)
            for b, t in zip(views, structure.block_norms)])
    if kind == "lowrank":
        w = np.asarray(w, dtype=float)
        flat = w.ndim == 1
        # no sign convention needed: flipping a column of U together with the
        # matching row of Vt leaves (U * s) @ Vt bitwise unchanged
        u, sv, vt = np.linalg.svd(_as_matrix(structure, w), full_matrices=False)
        out = (u * np.maximum(sv - tau, 0.0)) @ vt
        return out.reshape(-1) if flat else out
    raise ValueError(f"unknown structure kind {kind!r}")
