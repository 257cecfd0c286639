"""Independent brute-force reference implementations.

Everything here trades speed for obviousness: exhaustive subset enumeration
and dense vertex enumeration, no shortcuts shared with the library code.
"""

import itertools
import math

import numpy as np


def top_sum_oracle(x, s):
    """Largest sum of |x_i| over index sets of size exactly min(s, n)."""
    a = np.abs(np.asarray(x, dtype=float)).ravel()
    k = min(int(s), a.size)
    best = 0.0
    for idx in itertools.combinations(range(a.size), k):
        best = max(best, float(a[list(idx)].sum()))
    return best


def pi_s_oracle(u, chi, s):
    """2 * best weighted 0/1 selection, by scanning all 2^K subsets."""
    a = np.abs(np.asarray(u, dtype=float)).ravel()
    chi = np.asarray(chi, dtype=float).ravel()
    k = a.size
    best = 0.0
    for mask in itertools.product((0, 1), repeat=k):
        m = np.array(mask, dtype=bool)
        if chi[m].sum() <= s + 1e-12:
            best = max(best, float(a[m].sum()))
    return 2.0 * best


def block_norms_oracle(structure, w):
    w = np.asarray(w, dtype=float).ravel()
    out = []
    pos = 0
    for v, tag in zip(structure.blocks, structure.block_norms):
        b = w[pos: pos + len(v)]
        pos += len(v)
        if tag == "l1":
            out.append(float(np.abs(b).sum()))
        elif tag == "l2":
            out.append(float(np.linalg.norm(b)))
        else:
            out.append(float(np.abs(b).max()))
    return np.array(out)


def ps_oracle(structure, z, s):
    """Exhaustive evaluation of the mediating seminorm."""
    if structure.kind == "plain":
        k = min(int(math.floor(s + 1e-12)), structure.n)
        if k < 1:
            return 0.0
        return 2.0 * top_sum_oracle(z, k)
    if structure.kind == "group":
        return pi_s_oracle(block_norms_oracle(structure, z),
                           structure.weights, s)
    sv = np.linalg.svd(np.asarray(z, float).reshape(structure.p, structure.q),
                       compute_uv=False)
    si = int(round(s))
    return float(sv[:si].sum() + sv[: 2 * si].sum())


def best_plain_approx_oracle(w, s):
    """Smallest l1 residual over supports of size <= s."""
    w = np.asarray(w, dtype=float).ravel()
    k = min(int(s), w.size)
    best = np.inf
    for idx in itertools.combinations(range(w.size), k):
        res = np.abs(w).sum() - np.abs(w[list(idx)]).sum()
        best = min(best, float(res))
    return best


def best_group_approx_oracle(structure, w, s):
    """Smallest residual sum of block norms over weight-feasible block sets."""
    vals = block_norms_oracle(structure, w)
    chi = np.asarray(structure.weights, dtype=float)
    best = np.inf
    for mask in itertools.product((0, 1), repeat=len(vals)):
        m = np.array(mask, dtype=bool)
        if chi[m].sum() <= s + 1e-12:
            best = min(best, float(vals[~m].sum()))
    return best


def vertex_enumeration_lp(lp):
    """Optimal value of a bounded LP by checking every basic point.

    Stacks G with the finite bound rows, solves each n x n subsystem and keeps
    the feasible solutions.  Exponential, so callers keep n and the row count
    small.  Returns (best_value, best_point); (inf, None) when no vertex is
    feasible.
    """
    n = lp.c.size
    rows = [np.asarray(lp.G[i], float) for i in range(lp.G.shape[0])]
    rhs = [float(lp.h[i]) for i in range(lp.G.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lb[j]):
            rows.append(e.copy())
            rhs.append(float(lp.lb[j]))
        if np.isfinite(lp.ub[j]):
            rows.append(e.copy())
            rhs.append(float(lp.ub[j]))
    rows = np.array(rows)
    rhs = np.array(rhs)
    best, best_x = np.inf, None
    for sub in itertools.combinations(range(rows.shape[0]), n):
        sq = rows[list(sub)]
        if abs(np.linalg.det(sq)) < 1e-10:
            continue
        x = np.linalg.solve(sq, rhs[list(sub)])
        if not _lp_feasible(lp, x):
            continue
        val = float(lp.c @ x)
        if val < best - 1e-12:
            best, best_x = val, x
    return best, best_x


def _lp_feasible(lp, x, tol=1e-7):
    if np.any(x < lp.lb - tol) or np.any(x > lp.ub + tol):
        return False
    gx = lp.G @ x
    for i, s in enumerate(lp.senses):
        scale = 1.0 + abs(lp.h[i])
        if s == "le" and gx[i] > lp.h[i] + tol * scale:
            return False
        if s == "ge" and gx[i] < lp.h[i] - tol * scale:
            return False
        if s == "eq" and abs(gx[i] - lp.h[i]) > tol * scale:
            return False
    return True


def matrix_with_kernel(v):
    """(n-1) x n matrix whose kernel is exactly span(v).

    With a one-dimensional kernel the plain sparsity ratio has the closed
    form top_sum(v, s) / ||v||_1, which makes these instances exact oracles
    for the brute-force certifier.
    """
    v = np.asarray(v, dtype=float).ravel()
    q, _ = np.linalg.qr(np.column_stack([v / np.linalg.norm(v),
                                         np.eye(v.size)]))
    return q[:, 1:].T


def gamma_kernel1_oracle(v, s):
    v = np.asarray(v, dtype=float).ravel()
    return top_sum_oracle(v, s) / float(np.abs(v).sum())


def joint_synthesis_lp_oracle(a, bmat, sizes, tags, chi, s):
    """The joint synthesis LP assembled row by row: (G, h, number of H vars).

    Variables: H (m x E, row-major), per non-scalar block pair (k, l) the
    bounds E >= |W_rc| of its entries, lam (K), mu (K x K), g.  Row order:
    for each pair (k, l) the W-entry rows (+ then -) followed by the
    surrogate sums of its kind, then one selection row per column block.
    """
    m, big_m = a.shape[0], bmat.shape[0]
    b_pinv = np.linalg.pinv(bmat)
    c_full, d_full = bmat @ b_pinv, a @ b_pinv
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    ranges = [list(range(offs[k], offs[k + 1])) for k in range(len(sizes))]
    kk = len(sizes)
    nh = m * big_m
    e_base, nvars = {}, nh
    for k in range(kk):
        for l in range(kk):
            if sizes[k] > 1 or sizes[l] > 1:
                e_base[(k, l)] = nvars
                nvars += sizes[k] * sizes[l]
    lam, mu = nvars, nvars + kk
    g = mu + kk * kk
    rows, rhs = [], []

    def add(terms, value):
        row = np.zeros(g + 1)
        for idx, coeff in terms:
            row[idx] += coeff
        rows.append(row)
        rhs.append(value)

    def w_entry(r, c, sg):   # sg * W_rc = sg * C_rc - sg * sum_i H_ir D_ic
        return [(i * big_m + r, -sg * d_full[i, c]) for i in range(m)], \
            -sg * c_full[r, c]

    for k in range(kk):
        for l in range(kk):
            rk, rl = ranges[k], ranges[l]
            sink = [(lam + l, -chi[k]), (mu + k * kk + l, -1.0)]
            if (k, l) not in e_base:
                for sg in (1.0, -1.0):
                    terms, value = w_entry(rk[0], rl[0], sg)
                    add(terms + sink, value)
                continue
            ent = {(ri, ci): e_base[(k, l)] + ri * len(rl) + ci
                   for ri in range(len(rk)) for ci in range(len(rl))}
            for (ri, ci), var in ent.items():
                for sg in (1.0, -1.0):
                    terms, value = w_entry(rk[ri], rl[ci], sg)
                    add(terms + [(var, -1.0)], value)
            if tags[l] == "l1" and tags[k] == "linf":      # max entry
                groups = [[key] for key in ent]
            elif tags[l] == "l1":                           # column sums
                groups = [[(ri, ci) for ri in range(len(rk))]
                          for ci in range(len(rl))]
            elif tags[k] == "linf":                         # row sums
                groups = [[(ri, ci) for ci in range(len(rl))]
                          for ri in range(len(rk))]
            else:                                           # total sum
                groups = [list(ent)]
            for grp in groups:
                add([(ent[key], 1.0) for key in grp] + sink, 0.0)
    for l in range(kk):
        add([(lam + l, 2.0 * s)] + [(mu + k * kk + l, 2.0) for k in range(kk)]
            + [(g, -1.0)], 0.0)
    return np.array(rows), np.array(rhs), nh


def _epigraph_rows_oracle(structure, n):
    """The structure-norm epigraph row by row: (aux cost, [(u, aux, rhs)])."""
    if structure.kind == "plain":
        rows = []
        for i in range(n):
            for sgn in (1.0, -1.0):
                uc = np.zeros(n)
                uc[i] = sgn
                ac = np.zeros(n)
                ac[i] = -1.0
                rows.append((uc, ac, 0.0))
        return np.ones(n), rows
    l1_mult = np.zeros(n)
    for v, t in zip(structure.blocks, structure.block_norms):
        if t == "l1":
            for i in v:
                l1_mult[i] += 1.0
    l1_coords = [i for i in range(n) if l1_mult[i] > 0]
    linf_blocks = [l for l, t in enumerate(structure.block_norms)
                   if t == "linf"]
    n_aux = len(l1_coords) + len(linf_blocks)
    cost = np.concatenate([l1_mult[l1_coords], np.ones(len(linf_blocks))])
    rows = []
    for k, i in enumerate(l1_coords):
        for sgn in (1.0, -1.0):
            uc = np.zeros(n)
            uc[i] = sgn
            ac = np.zeros(n_aux)
            ac[k] = -1.0
            rows.append((uc, ac, 0.0))
    for k, l in enumerate(linf_blocks):
        for i in structure.blocks[l]:
            for sgn in (1.0, -1.0):
                uc = np.zeros(n)
                uc[i] = sgn
                ac = np.zeros(n_aux)
                ac[len(l1_coords) + k] = -1.0
                rows.append((uc, ac, 0.0))
    return cost, rows


def recovery_lp_oracle(problem, structure, mode, lam=0.0):
    """The recovery LP assembled row by row: (c, G, h, senses, lb).

    Variables [u | obj aux | fit aux]; rows: the norm epigraph, then the
    data fit (equalities for regular recovery with epsilon = 0, else the
    signed residual pairs per measurement and, for regular l1, the budget
    row).  Plain and l1/linf group structures, phi l1/linf or epsilon = 0.
    """
    a, y = problem.a, problem.y
    m, n = a.shape
    obj_cost, obj_rows = _epigraph_rows_oracle(structure, n)
    n_obj = obj_cost.size
    fit_cost = np.zeros(0)
    fit_rows = []       # (u_coeffs, fit_aux_coeffs, rhs, sense)
    if mode == "regular" and problem.epsilon == 0.0:
        for j in range(m):
            fit_rows.append((a[j], np.zeros(0), y[j], "eq"))
    elif problem.phi == "l1":
        fit_cost = np.full(m, lam) if mode == "penalized" else np.zeros(m)
        for j in range(m):
            for sgn in (1.0, -1.0):
                fc = np.zeros(m)
                fc[j] = -1.0
                fit_rows.append((sgn * a[j], fc, sgn * y[j], "le"))
        if mode == "regular":
            fit_rows.append((np.zeros(n), np.ones(m), problem.epsilon, "le"))
    else:   # linf
        if mode == "penalized":
            fit_cost = np.array([lam])
            for j in range(m):
                for sgn in (1.0, -1.0):
                    fit_rows.append((sgn * a[j], -np.ones(1), sgn * y[j], "le"))
        else:
            for j in range(m):
                for sgn in (1.0, -1.0):
                    fit_rows.append((sgn * a[j], np.zeros(0),
                                     sgn * y[j] + problem.epsilon, "le"))
    nv = n + n_obj + fit_cost.size
    g_rows, h_vals, senses = [], [], []
    for uc, ac, rhs in obj_rows:
        row = np.zeros(nv)
        row[:n] = uc
        row[n: n + n_obj] = ac
        g_rows.append(row)
        h_vals.append(rhs)
        senses.append("le")
    for uc, fc, rhs, sense in fit_rows:
        row = np.zeros(nv)
        row[:n] = uc
        row[n + n_obj:] = fc
        g_rows.append(row)
        h_vals.append(rhs)
        senses.append(sense)
    c = np.concatenate([np.zeros(n), obj_cost, fit_cost])
    lb = np.concatenate([np.full(n, -np.inf), np.zeros(n_obj + fit_cost.size)])
    return c, np.array(g_rows), np.array(h_vals), tuple(senses), lb


def group_bruteforce_lp_oracle(a, structure):
    """The shared LP of the group brute force, row by row: (G, h, senses, lb).

    Variables [z | per-coordinate l1 aux | per-block linf aux]; rows: A z = 0,
    the epigraph pairs of the l1 coordinates then of the linf block members,
    and the normalization row.
    """
    n = structure.n
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
    lb = np.concatenate([np.full(n, -np.inf), np.zeros(n_u + n_t)])
    return np.array(rows), np.array(rhs), tuple(senses), lb


def plain_bruteforce_lp_oracle(a, s):
    """The plain brute force LP written by hand: (G, h, senses, costs).

    Variables [x+ | x-] >= 0; rows A(x+ - x-) = 0 and sum(x+ + x-) <= 1, so
    the feasible x+ - x- span the unit l1 ball of Ker(A).  One cost per
    support of size min(floor(s), n), in ``itertools.combinations`` order,
    and per sign vector on it with the first sign pinned to +1; the cost is
    -sign on x+_i and +sign on x-_i.  With k = 0 there is no cost: the
    zero projector has nothing to maximize.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, n = a.shape
    g = np.zeros((m + 1, 2 * n))
    g[:m, :n] = a
    g[:m, n:] = -a
    g[m, :] = 1.0
    h = np.zeros(m + 1)
    h[m] = 1.0
    k = min(int(math.floor(s + 1e-12)), n)
    costs = []
    for support in itertools.combinations(range(n), k) if k else ():
        for signs in itertools.product((1.0, -1.0), repeat=k - 1):
            c = np.zeros(2 * n)
            for i, sg in zip(support, (1.0,) + signs):
                c[i] = -sg
                c[n + i] = sg
            costs.append(c)
    return g, h, ("eq",) * m + ("le",), costs


def group_gamma_lp_oracle(a, structure, s):
    """Largest retained block mass over the unit structure-norm ball of
    Ker(A), by cold LPs on ``group_bruteforce_lp_oracle``'s LP.

    Every block set of weight <= s (maximal or not), every sign vector on
    each of its l1 blocks and every (member, sign) of each of its linf
    blocks gets one maximization; no symmetry is used.  Returns
    (gamma, statuses of the LPs).
    """
    from sparsecert.engine import LinearProgram, solve_lp

    g, h, senses, lb = group_bruteforce_lp_oracle(a, structure)
    chi = np.asarray(structure.weights, dtype=float)
    kk = len(structure.blocks)
    best, statuses = 0.0, []
    for mask in itertools.product((0, 1), repeat=kk):
        chosen = [l for l in range(kk) if mask[l]]
        if not chosen or chi[chosen].sum() > s + 1e-12:
            continue
        spaces = []
        for l in chosen:
            v = structure.blocks[l]
            if structure.block_norms[l] == "l1":
                spaces.append([list(zip(v, sg)) for sg in
                               itertools.product((1.0, -1.0), repeat=len(v))])
            else:
                spaces.append([[(i, sg)] for i in v for sg in (1.0, -1.0)])
        for pick in itertools.product(*spaces):
            c = np.zeros(g.shape[1])
            for terms in pick:
                for i, sg in terms:
                    c[i] -= sg
            _, rep = solve_lp(LinearProgram(c=c, G=g, h=h, senses=senses,
                                            lb=lb))
            statuses.append(rep.status)
            best = max(best, -rep.objective)
    return best, statuses


def standard_form_oracle(lp, tol=1e-9):
    """Equality standard form of ``lp`` built column by column: (A, b, c,
    x_original), or None when some lower bound exceeds its upper bound.

    Finite lower bounds shift, an upper bound alone mirrors, a free variable
    splits into (+, -) columns and a doubly bounded one adds a row
    z <= hi - lo; then one slack column per inequality row, and rows with a
    negative right-hand side are negated.  ``x_original(z)`` maps the
    structural columns back.
    """
    n = lp.c.size
    cols, off, upper_rows = [], np.zeros(n), []
    for j in range(n):
        lo, hi = lp.lb[j], lp.ub[j]
        if lo > hi + tol:
            return None
        if np.isfinite(lo):
            off[j] = lo
            cols.append((j, 1.0))
            if np.isfinite(hi):
                upper_rows.append((len(cols) - 1, max(hi - lo, 0.0)))
        elif np.isfinite(hi):
            off[j] = hi
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
    nz, m0 = len(cols), lp.G.shape[0]
    g = np.zeros((m0 + len(upper_rows), nz))
    for k, (j, sgn) in enumerate(cols):
        g[:m0, k] = sgn * lp.G[:, j]
    h = np.concatenate([lp.h - lp.G @ off, [r for _, r in upper_rows]])
    senses = list(lp.senses)
    for k, (zc, _) in enumerate(upper_rows):
        g[m0 + k, zc] = 1.0
        senses.append("le")
    m = g.shape[0]
    slack_rows = [i for i, s in enumerate(senses) if s != "eq"]
    a = np.hstack([g, np.zeros((m, len(slack_rows)))])
    for k, i in enumerate(slack_rows):
        a[i, nz + k] = 1.0 if senses[i] == "le" else -1.0
    b = h.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    c = np.concatenate([np.array([sgn * lp.c[j] for j, sgn in cols]),
                        np.zeros(len(slack_rows))])

    def x_original(z):
        x = off.copy()
        for k, (j, sgn) in enumerate(cols):
            x[j] += sgn * z[k]
        return x

    return a, b, c, x_original


def slack_basis_oracle(std):
    """Phase one's initial basis, column by column: each slack column j in
    order whose only entry equal to 1.0 is in a row with no basic column yet
    becomes that row's basic column; -1 marks rows left for an artificial."""
    m, ncols = std.A.shape
    basis = np.full(m, -1, dtype=int)
    for j in range(std.nz, ncols):
        rows = np.nonzero(std.A[:, j] == 1.0)[0]
        if rows.size == 1 and basis[rows[0]] == -1:
            basis[rows[0]] = j
    return basis


def stage_one_primal_oracle(lay, maxiter=200000):
    """Synthesis stage one solved the cold, primal way: block k's LP on its
    own, one ``solve_lp`` each; [(H[:, block k], g_k, status)]."""
    from sparsecert.certify import synthesis
    from sparsecert.engine import solve_lp
    m = lay.d_full.shape[0]
    out = []
    for k in range(lay.sizes.size):
        lp, nh, _ = synthesis._synthesis_lp(lay, [k], 1.0, simple=True)
        x, rep = solve_lp(lp, maxiter=maxiter)
        out.append((x[:nh].reshape(m, lay.sizes[k]), float(rep.objective),
                    rep.status))
    return out


def stage_two_primal_oracle(lay, stages, gamma, maxiter=200000):
    """Synthesis stage two solved the cold, primal way: block k's beta LP
    (``_beta_lp`` at g = ``gamma``) on its own, one ``solve_lp`` each, from
    the ``_StageOne`` of every block; [(H[:, block k], optimum, status)]."""
    from sparsecert.certify import synthesis
    from sparsecert.engine import solve_lp
    out = []
    for k, stage in enumerate(stages):
        x, rep = solve_lp(synthesis._beta_lp(lay, k, stage.lp, stage.rhs,
                                             gamma), maxiter=maxiter)
        h = stage.h_cols
        out.append((x[:h.size].reshape(h.shape), float(rep.objective),
                    rep.status))
    return out


def unpruned_bruteforce_oracle(a, structure, s, b=None, pin_first=True):
    """The polyhedral brute-force verdict with no pruning: every signed
    support of every maximal projector (``structures.iter_projectors``), one
    ``LPSequence`` on the library's kernel-ball LP.

    Per projector, each coordinate of an l1 block gets a sign (counted once
    per l1 block holding it) and each linf block a (member, sign); the first
    sign (of the first l1 coordinate, else of the first linf pick) is pinned
    to + (z -> -z symmetry) unless ``pin_first`` is False.  For a
    non-canonical B the signs run over the coordinates of B z and each
    functional f becomes f @ B.  Returns the verdict ``_classify`` makes of
    the best value and max(value + delta) (None if an LP did not end
    optimal), with ``lp_count``, ``lp_iterations`` and ``gamma_upper`` in
    its details.
    """
    from sparsecert import norms, structures
    from sparsecert.certify import bruteforce
    from sparsecert.engine import LPSequence, Status

    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[1]
    bmat = structures.rep_matrix(structure, b)
    lift = structures.custom_rep_matrix(structure, bmat)
    lp = bruteforce._kernel_ball_lp(a, structure, lift)
    if lift is None:
        if structure.kind == "plain":   # the singleton l1 blocks (i,)
            blocks, tags = tuple((i,) for i in range(n)), ("l1",) * n
        else:
            blocks, tags = structure.blocks, structure.block_norms
        nf = n
    else:
        offs, tags, _ = norms.rep_blocks(structure)
        blocks = [tuple(range(lo, hi)) for lo, hi in zip(offs[:-1], offs[1:])]
        nf = lift.shape[0]
    costs = []
    for proj in structures.iter_projectors(structure, s):
        chosen = proj.support if structure.kind == "plain" else proj.block_set
        mult, linf_members = {}, []
        for l in sorted(chosen):
            if tags[l] == "l1":
                for i in blocks[l]:
                    mult[i] = mult.get(i, 0.0) + 1.0
            else:
                linf_members.append(blocks[l])
        u1 = sorted(mult)
        if not u1 and not linf_members:
            continue
        rep_space = [[(i, sg) for i in v for sg in (1.0, -1.0)]
                     for v in linf_members]
        for signs in itertools.product((1.0, -1.0), repeat=len(u1)):
            for picks in itertools.product(*rep_space):
                first = signs[0] if u1 else picks[0][1]
                if pin_first and first < 0:
                    continue
                f = np.zeros(nf)
                for i, sg in zip(u1, signs):
                    f[i] += mult[i] * sg
                for i, sg in picks:
                    f[i] += sg
                if lift is not None:
                    f = f @ lift
                c = np.zeros(lp.c.size)
                c[:n], c[n:2 * n] = -f, f
                costs.append(c)
    best, best_z, upper, iterations, optimal = 0.0, None, 0.0, 0, True
    seq = LPSequence(lp)
    for cost in costs:
        x, rep = seq.solve(cost)
        iterations += rep.iterations
        if rep.status is not Status.OPTIMAL:
            optimal = False
            continue
        val = -rep.objective
        upper = max(upper, val + rep.delta)
        if val > best:
            best, best_z = val, x[:n] - x[n:2 * n]
    upper = upper if optimal else None
    details = {"lp_count": len(costs), "lp_iterations": iterations,
               "gamma_upper": upper}
    return bruteforce._classify(structure, bmat, s, best, best_z, upper,
                                details)
