"""Verifiable low-rank certificates via matrix rearrangements.

The contraction quantity for rank sparsity couples two matrices h and z
through Tr((Wz)h^T), which is linear in the pq x pq matrix Theta[W] paired
against kron(h^T, z).  Maximizing over the relevant (h, z) sets is relaxed
in two stages:

* opt_bar: support function of a singular-value box, in closed form from
  one SVD of Theta[W];
* opt_star: a tighter set sandwiched between the exact one and the box.
  Its support function is bounded by Fenchel splitting Theta into three
  parts whose individual support functions are computable (top-k
  singular sums and a scaled spectral norm of fixed entry rearrangements
  of the parts), minimized by subgradient descent.  Every iterate gives a
  valid upper bound, and the zero split reproduces opt_bar, so descent can
  only help.

The rearrangements Mprime (pq x pq -> p^2 x q^2) and Mdprime (pq x pq ->
pq x qp) are entry bijections pinned down by their action on structured
Kronecker products; see ``rearrange``.

``certify_lowrank`` runs the chain once, on the W of one measurement dual
map: the pseudoinverse H = (A^+)^T, for which W = Id - H^T A is the
orthogonal projector onto the kernel of A.  ``theta``, ``opt_bar`` and
``opt_star`` take W as its pq x pq matrix acting on row-major vec(z).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .. import norms, structures
from .conditions import Certificate, _kernel_basis
from .synthesis import psi_s

_STACK_BYTES = 1 << 22  # bytes of matrices per stacked SVD (exact linf beta)


def theta(w, p, q):
    """Rearrangement Theta[W] satisfying <Theta[W], kron(h^T, z)>_F = Tr((Wz)h^T).

    ``w`` is the pq x pq matrix of W acting on row-major vec(z).  Entry
    content: with W's action tensor written as a (p,q,p,q) array, Theta
    permutes it so the bilinear pairing above holds for all h, z.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (p * q, p * q):
        raise ValueError("operator matrix must be pq x pq")
    return np.einsum("abcd->bcad", w.reshape(p, q, p, q)).reshape(p * q, p * q).copy()


def rearrange(u, which, p, q):
    """Entry rearrangements behind the tractable relaxation.

    which="Mprime": the p^2 x q^2 map with Mprime(kron(h^T, w)) = kron(h, w).
    which="Mdprime": the pq x qp map with Mdprime(kron(h^T, w)) = f(h) g(w)^T,
    where f stacks the rows of h and g stacks the columns of w.  Both are
    bijections on entries, hence orthogonal as linear maps.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (p * q, p * q):
        raise ValueError("input must be pq x pq")
    u4 = u.reshape(q, p, p, q)
    if which == "Mprime":
        return np.einsum("abcd->cbad", u4).reshape(p * p, q * q).copy()
    if which == "Mdprime":
        return np.einsum("abcd->cadb", u4).reshape(p * q, q * p).copy()
    raise ValueError("which must be 'Mprime' or 'Mdprime'")


def _mprime_inverse(v, p, q):
    return np.einsum("cbad->abcd", v.reshape(p, p, q, q)).reshape(p * q, p * q).copy()


def _mdprime_inverse(v, p, q):
    return np.einsum("cadb->abcd", v.reshape(p, q, q, p)).reshape(p * q, p * q).copy()


def opt_bar(w, s, p, q):
    """Closed-form box upper bound: sum of the s and 2s top singular values
    of Theta[W]."""
    _check_level(s)
    tm = theta(w, p, q)
    sv = norms.singular_values(tm)
    k1 = min(int(s), sv.size)
    k2 = min(2 * int(s), sv.size)
    return float(sv[:k1].sum() + sv[:k2].sum())


def _check_level(s):
    if not 1 <= s < math.inf or abs(s - round(s)) > 1e-9:   # NaN fails too
        raise ValueError("the rank level must be a positive integer")


def _top_k_subgradient(mat, k):
    """(value, subgradient) of the sum of the k largest singular values."""
    # no sign convention needed: it leaves U[:, :k] @ Vt[:k] bitwise unchanged
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    k = min(k, sv.size)
    return float(sv[:k].sum()), u[:, :k] @ vt[:k]


def _descend_level(tm, k, p, q, iters):
    """Minimize the split bound for one level k; returns its best value."""
    t2 = np.zeros_like(tm)
    t3 = np.zeros_like(tm)

    def evaluate(a2, a3):
        v1, g1 = _top_k_subgradient(tm - a2 - a3, k)
        v2, g2 = _top_k_subgradient(rearrange(a2, "Mprime", p, q), k)
        v3, g3 = _top_k_subgradient(rearrange(a3, "Mdprime", p, q), 1)
        val = v1 + v2 + math.sqrt(k) * v3
        sub2 = -g1 + _mprime_inverse(g2, p, q)
        sub3 = -g1 + math.sqrt(k) * _mdprime_inverse(g3, p, q)
        return val, sub2, sub3

    best = math.inf
    scale = max(np.linalg.norm(tm), 1e-12) / 8.0
    for t in range(1, iters + 1):
        val, sub2, sub3 = evaluate(t2, t3)
        best = min(best, val)
        eta = scale / math.sqrt(t)
        t2 = t2 - eta * sub2
        t3 = t3 - eta * sub3
    val, _, _ = evaluate(t2, t3)
    return min(best, val)


def opt_star(w, s, p, q, iters=2000):
    """Subgradient-minimized split upper bound; never exceeds opt_bar + fp.

    For each level k in {s, 2s} the split value is dual-feasible at every
    iterate, so the best iterate is a certified upper bound; the zero split
    reproduces opt_bar's terms.  iters=0 disables descent (then the value
    is exactly opt_bar up to SVD roundoff).
    """
    _check_level(s)
    tm = theta(w, p, q)
    return sum(_descend_level(tm, min(k, p * q), p, q, iters)
               for k in (int(s), 2 * int(s)))


def _beta_bounds(h, s, p, q, phi, rng):
    """(beta, exact, details) for the noise-amplification constant."""
    st = structures.build_lowrank(p, q)
    if phi == "l1":
        return psi_s(h, st, s, "l1"), True, {}
    m = h.shape[0]
    if phi == "linf":
        if m <= 16:
            # every sign vector with its first sign pinned to +, row i
            # carrying the bits of i (beta is even in v)
            bits = np.arange(2 ** (m - 1))[:, None] >> np.arange(m - 1) & 1
            signs = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
            return _signed_sums_max(signs, h, s, p, q), True, \
                {"evaluated_sign_vectors": len(signs)}
        # row-sum relaxation: |v| <= 1 entrywise
        bound = float(sum(norms.ps_seminorm(st, row, s) for row in h))
        lower = _beta_sample_lower(h, st, s, "linf", rng)
        return bound, False, {"sampling_lower_bound": lower}
    if phi == "l2":
        sing = norms.singular_values(h)
        top = float(sing[0]) if sing.size else 0.0
        k1 = min(int(s), p, q)
        k2 = min(2 * int(s), p, q)
        bound = (math.sqrt(k1) + math.sqrt(k2)) * top
        lower = _beta_sample_lower(h, st, s, "l2", rng)
        return bound, False, {"sampling_lower_bound": lower}
    raise norms.UnsupportedNormError(f"unsupported noise metric {phi!r}")


def _signed_sums_max(signs, h, s, p, q):
    """The largest low-rank seminorm (top-s plus top-2s singular values) of
    H^T v over the rows v of ``signs``: one stacked SVD per chunk of about
    ``_STACK_BYTES`` of p x q matrices."""
    k1, k2 = min(int(s), p, q), min(2 * int(s), p, q)
    step = max(1, _STACK_BYTES // (8 * p * q))
    best = 0.0
    for start in range(0, signs.shape[0], step):
        mats = (signs[start:start + step] @ h).reshape(-1, p, q)
        sv = np.linalg.svd(mats, compute_uv=False)
        best = max(best, float((sv[:, :k1].sum(axis=1)
                                + sv[:, :k2].sum(axis=1)).max()))
    return best


def _beta_sample_lower(h, st, s, phi, rng, draws=200):
    best = 0.0
    m = h.shape[0]
    for _ in range(draws):
        v = rng.standard_normal(m)
        if phi == "linf":
            v = np.sign(v)
        else:
            v /= max(np.linalg.norm(v), 1e-300)
        best = max(best, norms.ps_seminorm(st, h.T @ v, s))
    return best


def certify_lowrank(a, s, phi="l1", p=None, q=None, iters=2000, seed=0):
    """Certificate from the pseudoinverse dual map H = (A^+)^T.

    W = Id - H^T A; gamma is opt_star(W) (opt_bar when iters=0, reported as
    method LowRankUBar; iters must be an integer >= 0).  beta is exact for
    the l1 noise metric and for linf with at most 16 measurement rows; for
    l2 (or wide linf) a flagged upper bound with a sampled lower bound is
    used instead of refusing.
    ``details`` holds ``gamma_bar`` (opt_bar at W) and the beta information:
    ``evaluated_sign_vectors`` for exact linf, ``sampling_lower_bound`` for
    a flagged upper bound.  ``identity_residual`` is ||Id - N N^T - H^T A||
    with N a kernel basis of A from its own SVD (the rank cut of
    ``np.linalg.pinv``), so it measures H, not W, which is built from H.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if p is None or q is None:
        raise ValueError("the matrix shape (p, q) is required")
    _check_level(s)
    if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) \
            or iters < 0:
        raise ValueError(f"iters {iters!r} is not an integer >= 0")
    if a.shape[1] != p * q:
        raise ValueError("A must have pq columns (row-major vectorization)")
    rng = np.random.default_rng(seed)
    ident = np.eye(p * q)
    h = np.linalg.pinv(a).T
    hta = h.T @ a
    w = ident - hta
    gamma_bar = opt_bar(w, s, p, q)
    gamma = opt_star(w, s, p, q, iters=iters) if iters > 0 else gamma_bar
    method = "LowRankUStar" if iters > 0 else "LowRankUBar"
    beta, beta_exact, beta_info = _beta_bounds(h, s, p, q, phi, rng)
    details = {"gamma_bar": gamma_bar, **beta_info}
    null = _kernel_basis(a)
    residual = float(np.linalg.norm(ident - null @ null.T - hta))
    return Certificate(gamma=float(max(0.0, gamma)), beta=float(beta),
                       s=float(s), phi=phi, method=method, h_matrix=h,
                       w_matrix=w, identity_residual=residual,
                       exact_gamma=False, exact_beta=beta_exact,
                       details=details)


def badnews_check(a, h, s, p, q):
    """Evaluate the universal lower bound on the box relaxation.

    Returns (lhs, floor, holds): lhs = opt_bar(Id - H^T A, s), floor =
    min(2s*sqrt(d/(pq)), sqrt(d)) with d the kernel dimension of A, and
    holds = (lhs >= floor - 1e-6).  The floor explains why box-relaxation
    certificates exist only for small rank levels.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    h = np.atleast_2d(np.asarray(h, dtype=float))
    _check_level(s)
    w = np.eye(p * q) - h.T @ a
    lhs = opt_bar(w, s, p, q)
    d = p * q - int(np.linalg.matrix_rank(a))
    floor = min(2.0 * s * math.sqrt(d / (p * q)), math.sqrt(d))
    return lhs, floor, bool(lhs >= floor - 1e-6)
