"""Brute-force nullspace verdicts.

For entrywise sparsity the quantity of interest is the exact maximum of
||z||_{s,1} over {z in Ker(A), ||z||_1 <= 1}, obtained by maximizing every
signed-support linear functional with one LP each (the max of finitely many
linear maximizations is the max of the convex objective over the polytope).
Group structures with l1/linf block norms get the analogous enumeration over
inclusion-maximal block sets, per-coordinate signs on l1 blocks, and
(representative, sign) choices on linf blocks.  l2 blocks and low rank leave
the polyhedral world: there the search is Monte-Carlo plus projected ratio
ascent on a kernel basis, which can certify badness (a witness is a witness)
but never goodness, so those paths return a bracket instead of a value.

Verdict semantics are uniform: gamma_value is the maximal retained fraction
  max_z  (worst-P retained mass of Bz) / ||Bz||,
CertifiedGood needs an exhaustive method and gamma < 1/2 - 1e-9, ties at 1/2
are CertifiedBad (two sparse signals share a measurement, non-uniqueness).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .. import norms, structures
from ..engine import LinearProgram, Status, solve_lp
from .conditions import NullspaceVerdict, worst_condition_projector, _kernel_basis

_LP_BUDGET = 20000
_GOOD_MARGIN = 1e-9


def _b_matrix(structure, b):
    if b is None:
        return structures._build_rep_map(structure).matrix
    return b.matrix if hasattr(b, "matrix") else np.atleast_2d(np.asarray(b, dtype=float))


def _classify(structure, bmat, s, gamma, z, exhaustive, details):
    """Map a found maximum (and maximizer z) to a verdict."""
    if z is None or gamma <= 1e-15:
        if exhaustive:
            return NullspaceVerdict(status="CertifiedGood", s=s,
                                    gamma_value=0.0 if exhaustive else None,
                                    details=details)
        return NullspaceVerdict(status="Unknown", s=s, bracket=(0.0, 1.0),
                                details=details)
    w = bmat @ z
    proj, lhs = worst_condition_projector(structure, w, s)
    retained = 0.5 * lhs
    total = norms.structure_norm(structure, w)
    if exhaustive and gamma < 0.5 - _GOOD_MARGIN:
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
        details = dict(details, note="maximum within 1e-9 of 1/2; too close to certify")
        return NullspaceVerdict(status="Unknown", s=s, gamma_value=gamma,
                                witness=z, details=details)
    return NullspaceVerdict(status="Unknown", s=s, bracket=(gamma, 1.0),
                            witness=z, details=details)


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
    senses = ("eq",) * m + ("le",)
    best, best_z = 0.0, None
    for support in itertools.combinations(range(n), k):
        for signs in itertools.product((1.0, -1.0), repeat=k - 1):
            sigma = (1.0,) + signs  # z -> -z symmetry: pin the first sign
            c = np.zeros(2 * n)
            for i, sg in zip(support, sigma):
                c[i] = -sg
                c[n + i] = sg
            x, rep = solve_lp(LinearProgram(c=c, G=g, h=h, senses=senses))
            if rep.status != Status.OPTIMAL:
                continue
            val = -rep.objective
            if val > best:
                best = val
                best_z = x[:n] - x[n:]
    details = {"lp_count": count, "kernel_dim": null.shape[1]}
    return _classify(structure, np.eye(n), s, best, best_z, True, details)


# ---------------------------------------------------------------------------
# group: enumeration over maximal block sets, signs, and representatives


def _group_lp_bruteforce(a, structure, bmat, s):
    n = structure.n
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m = a.shape[0]
    blocks, tags = structure.blocks, structure.block_norms
    l1_cover = sorted({i for v, t in zip(blocks, tags) if t == "l1" for i in v})
    l1_pos = {i: r for r, i in enumerate(l1_cover)}
    linf_blocks = [l for l, t in enumerate(tags) if t == "linf"]
    linf_pos = {l: r for r, l in enumerate(linf_blocks)}
    n_u, n_t = len(l1_cover), len(linf_blocks)
    nv = n + n_u + n_t

    rows, rhs, senses = [], [], []
    for j in range(m):
        row = np.zeros(nv)
        row[:n] = a[j]
        rows.append(row)
        rhs.append(0.0)
        senses.append("eq")
    for i in l1_cover:
        for sg in (1.0, -1.0):
            row = np.zeros(nv)
            row[i] = sg
            row[n + l1_pos[i]] = -1.0
            rows.append(row)
            rhs.append(0.0)
            senses.append("le")
    for l in linf_blocks:
        for i in blocks[l]:
            for sg in (1.0, -1.0):
                row = np.zeros(nv)
                row[i] = sg
                row[n + n_u + linf_pos[l]] = -1.0
                rows.append(row)
                rhs.append(0.0)
                senses.append("le")
    denom = np.zeros(nv)
    for v, t in zip(blocks, tags):
        if t == "l1":
            for i in v:
                denom[n + l1_pos[i]] += 1.0
    for l in linf_blocks:
        denom[n + n_u + linf_pos[l]] = 1.0
    rows.append(denom)
    rhs.append(1.0)
    senses.append("le")
    g = np.array(rows)
    h = np.array(rhs)
    senses = tuple(senses)
    lb = np.concatenate([np.full(n, -np.inf), np.zeros(n_u + n_t)])

    proj_list = structures.enumerate_projectors(structure, s)
    best, best_z = 0.0, None
    lp_count = 0
    for proj in proj_list:
        isel = sorted(proj.block_set)
        mult = np.zeros(n)
        linf_members = []
        for l in isel:
            if tags[l] == "l1":
                for i in blocks[l]:
                    mult[i] += 1.0
            else:
                linf_members.append(blocks[l])
        u1 = [i for i in range(n) if mult[i] > 0]
        combos = 2 ** max(len(u1) - (0 if linf_members else 1), 0)
        for v in linf_members:
            combos *= 2 * len(v)
        if lp_count + combos > _LP_BUDGET:
            return NullspaceVerdict(
                status="Unknown", s=s,
                details={"reason": "signed-support enumeration exceeds the LP budget"})
        sign_space = itertools.product((1.0, -1.0), repeat=len(u1))
        rep_space = [[(i, sg) for i in v for sg in (1.0, -1.0)]
                     for v in linf_members]
        for sigma in sign_space:
            if not linf_members and u1 and sigma[0] < 0:
                continue  # z -> -z symmetry
            for picks in itertools.product(*rep_space):
                c = np.zeros(nv)
                for i, sg in zip(u1, sigma):
                    c[i] -= mult[i] * sg
                for i, sg in picks:
                    c[i] -= sg
                lp_count += 1
                x, rep = solve_lp(LinearProgram(c=c, G=g, h=h, senses=senses, lb=lb))
                if rep.status != Status.OPTIMAL:
                    continue
                val = -rep.objective
                if val > best:
                    best = val
                    best_z = x[:n].copy()
    details = {"lp_count": lp_count, "maximal_sets": len(proj_list)}
    return _classify(structure, bmat, s, best, best_z, True, details)


# ---------------------------------------------------------------------------
# sampled ratio ascent (group with l2 blocks, low rank)


def _group_ratio_and_grad(structure, bmat, z, s):
    w = bmat @ z
    vals = norms.group_block_norms(structure, w)
    chi = np.asarray(structure.weights)
    try:
        num, mask = norms.pi_s_argmax(vals, chi, s)
    except norms.UnsupportedNormError:
        mask = np.zeros(vals.size, dtype=bool)
        budget = float(s)
        for i in sorted(range(vals.size), key=lambda j: -vals[j] / chi[j]):
            if chi[i] <= budget + 1e-12:
                mask[i] = True
                budget -= chi[i]
        num = float(vals[mask].sum())
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


def _ascent_search(a, structure, bmat, s, ratio_grad, seed, starts=30,
                   iters=120, samples=400):
    null = _kernel_basis(a)
    d = null.shape[1]
    if d == 0:
        return None, 0.0
    rng = np.random.default_rng(seed)

    if bmat is None:
        def f(z):
            return ratio_grad(structure, z, s)
    else:
        def f(z):
            return ratio_grad(structure, bmat, z, s)

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
    bmat = _b_matrix(structure, b)
    if structure.kind == "plain":
        return _plain_bruteforce(a, structure, s)
    if structure.kind == "group":
        if len(structure.blocks) > 12:
            return NullspaceVerdict(
                status="Unknown", s=s,
                details={"reason": "more than 12 blocks exceeds the budget"})
        null_dim = _kernel_basis(a).shape[1]
        if null_dim == 0:
            return NullspaceVerdict(status="CertifiedGood", s=s, gamma_value=0.0,
                                    details={"kernel_dim": 0})
        if all(t in ("l1", "linf") for t in structure.block_norms):
            return _group_lp_bruteforce(a, structure, bmat, s)
        z, best = _ascent_search(a, structure, bmat, s, _group_ratio_and_grad,
                                 seed)
        return _classify(structure, bmat, s, best, z, False,
                         {"method": "sampled ascent (l2 blocks)"})
    # lowrank
    null_dim = _kernel_basis(a).shape[1]
    if null_dim == 0:
        return NullspaceVerdict(status="CertifiedGood", s=s, gamma_value=0.0,
                                details={"kernel_dim": 0})
    if abs(s - round(s)) > 1e-9:
        raise ValueError("low-rank sparsity level must be an integer")
    z, best = _ascent_search(a, structure, None, s,
                             lambda st, zz, ss: _lowrank_ratio_and_grad(st, zz, ss),
                             seed)
    return _classify(structure, bmat, s, best, z, False,
                     {"method": "Monte-Carlo + projected ascent"})
