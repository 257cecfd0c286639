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


def maximal_block_sets_oracle(weights, s):
    """The nonempty inclusion-maximal block sets of positive weights
    ``weights`` with weight <= s (to 1e-12), sorted tuples in lexicographic
    order, by scanning the subsets size by size until none of a size fits:
    a set's weight is summed in block order, and it is maximal when adding
    any outside block passes the cap."""
    weights = [float(c) for c in weights]
    cap = s + 1e-12
    found = []
    for k in range(1, len(weights) + 1):
        fits = False
        for chosen in itertools.combinations(range(len(weights)), k):
            total = sum(weights[l] for l in chosen)
            fits = fits or total <= cap
            if total <= cap and all(total + c > cap for l, c in
                                    enumerate(weights) if l not in chosen):
                found.append(chosen)
        if not fits:
            break
    return sorted(found)


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


def group_ratio_and_grad_oracle(structure, bmat, z, s):
    """The brute force's retained-mass ratio at z and its supergradient,
    one block at a time: sign(w) on l1 blocks, w / norm on l2 blocks (0 on
    a zero block), and on linf blocks the sign of the block's first entry
    of largest magnitude."""
    from sparsecert import norms

    w = bmat @ z
    vals = block_norms_oracle(structure, w)
    num, mask, _ = norms.select_blocks(vals, structure.weights, s)
    den = float(vals.sum())
    if den < 1e-14:
        return 0.0, np.zeros(z.size)
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


def exact_linf_beta_oracle(h, structure, s):
    """Exact linf beta of a low-rank H: the largest seminorm of H^T v over
    the sign vectors v with v[0] = +1, built one bit at a time."""
    from sparsecert import norms
    m = h.shape[0]
    best = 0.0
    for bits in range(2 ** (m - 1)):
        v = np.ones(m)
        for i in range(m - 1):
            if bits >> i & 1:
                v[i + 1] = -1.0
        best = max(best, norms.ps_seminorm(structure, h.T @ v, s))
    return best


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

    Stacks G with the rows x_j = 0 of the bounds x >= 0, solves each n x n
    subsystem and keeps the feasible solutions.  Exponential, so callers
    keep n and the row count small.  Returns (best_value, best_point);
    (inf, None) when no vertex is feasible.
    """
    n = lp.c.size
    rows = [np.asarray(lp.G[i], float) for i in range(lp.G.shape[0])]
    rhs = [float(lp.h[i]) for i in range(lp.G.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e)
        rhs.append(0.0)
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
    if np.any(x < -tol):
        return False
    gx = lp.G @ x
    for i, s in enumerate(lp.senses):
        scale = 1.0 + abs(lp.h[i])
        if s == "le" and gx[i] > lp.h[i] + tol * scale:
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


def two_row_epigraph_oracle(structure, n):
    """The structure-norm epigraph over [u+ | u- | t] with the pair
    +-(u+_i - u-_i) <= t per linf block member, + then -: (cost, g).

    Canonical B only.  The package writes one row u+_i + u-_i <= t per
    member instead; both have the same projection onto u = u+ - u-.
    """
    members = np.concatenate(structure.blocks).astype(int)
    member_tag = np.array(structure.block_norms)[structure.block_of]
    mult = np.bincount(members[member_tag == "l1"], minlength=n).astype(float)
    linf_blocks = [l for l, t in enumerate(structure.block_norms)
                   if t == "linf"]
    rows = []
    for k, l in enumerate(linf_blocks):
        for i in structure.blocks[l]:
            for sgn in (1.0, -1.0):
                row = np.zeros(2 * n + len(linf_blocks))
                row[i], row[n + i], row[2 * n + k] = sgn, -sgn, -1.0
                rows.append(row)
    g = np.array(rows).reshape(-1, 2 * n + len(linf_blocks))
    return np.concatenate([mult, mult, np.ones(len(linf_blocks))]), g


def recovery_lp_oracle(problem, structure, mode, lam=0.0):
    """The recovery LP assembled row by row: (c, G, h, senses) over x >= 0.

    Variables [u | obj aux | fit aux], u free and written as (+, -) column
    pairs (``split_free``); rows: the norm epigraph, then the
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
    split, _ = split_free(np.arange(nv) < n)
    return split(c), split(np.array(g_rows)), np.array(h_vals), tuple(senses)


def group_bruteforce_lp_oracle(a, structure):
    """The shared LP of the group brute force, row by row: (G, h, senses,
    split) over x >= 0.

    Variables [z | per-coordinate l1 aux | per-block linf aux], z free and
    written as (+, -) column pairs; ``split`` maps a cost over these
    variables to G's columns (``split_free``).  Rows: A z = 0,
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
    split, _ = split_free(np.arange(nv) < n)
    return split(np.array(rows)), np.array(rhs), tuple(senses), split


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

    g, h, senses, split = group_bruteforce_lp_oracle(a, structure)
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
            c = np.zeros(g.shape[1] - structure.n)
            for terms in pick:
                for i, sg in terms:
                    c[i] -= sg
            _, rep = solve_lp(LinearProgram(c=split(c), G=g, h=h,
                                            senses=senses))
            statuses.append(rep.status)
            best = max(best, -rep.objective)
    return best, statuses


def standard_form_oracle(lp):
    """Equality standard form of ``lp`` built column by column: (A, b, c).

    The columns of G, then one slack column per 'le' row; rows with a
    negative right-hand side are negated.
    """
    m, nz = lp.G.shape
    slack_rows = [i for i, s in enumerate(lp.senses) if s == "le"]
    a = np.zeros((m, nz + len(slack_rows)))
    for j in range(nz):
        a[:, j] = lp.G[:, j]
    for k, i in enumerate(slack_rows):
        a[i, nz + k] = 1.0
    b = lp.h.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    c = np.concatenate([lp.c, np.zeros(len(slack_rows))])
    return a, b, c


def split_free(free):
    """The columns over x >= 0 of an LP whose variables ``free`` (a mask)
    are free: (split, join).  ``split(v)`` maps a cost, or each row of a
    matrix, to columns where each free variable is the pair (x+, x-) side
    by side, x+ with the variable's column and x- with its negative (the
    column order that pinned pivot counts, such as those of
    ``test_recovery_lp_pivots_pinned``, depend on).  ``join(z)`` maps a
    point back, x = x+ - x-."""
    free = np.asarray(free, dtype=bool)
    width = 1 + free
    var = np.repeat(np.arange(free.size), width)
    sign = np.ones(var.size)
    sign[np.cumsum(width)[free] - 1] = -1.0

    def split(v):
        return v[..., var] * sign

    def join(z):
        return np.bincount(var, weights=sign * z, minlength=free.size)

    return split, join


def solve_free_split(lp, nh, maxiter=20000):
    """``solve_lp`` of ``lp`` with its first ``nh`` variables free, split by
    ``split_free``: (x, SolveReport), x joined back (None if not solved)."""
    from sparsecert.engine import LinearProgram, solve_lp
    split, join = split_free(np.arange(lp.c.size) < nh)
    z, rep = solve_lp(LinearProgram(split(lp.c), split(lp.G), lp.h,
                                    lp.senses), maxiter=maxiter)
    return (None if z is None else join(z)), rep


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


def crash_basis_oracle(std, c_std):
    """The crash basis, row by row: row i takes, among the columns whose
    first nonzero is in row i and at least 1e-7 in magnitude, the first by
    (nonzero cost, nonzero count, entry <= 0, index); None when a row has
    no such column."""
    m, ncols = std.A.shape
    basis = []
    for i in range(m):
        best = None
        for j in range(ncols):
            col = std.A[:, j]
            nonzero = np.nonzero(col)[0]
            if nonzero.size == 0 or nonzero[0] != i or abs(col[i]) < 1e-7:
                continue
            key = (c_std[j] != 0.0, nonzero.size, col[i] <= 0.0, j)
            best = key if best is None else min(best, key)
        if best is None:
            return None
        basis.append(best[-1])
    return np.array(basis, dtype=int)


def stage_one_primal_oracle(lay, maxiter=200000):
    """Synthesis stage one solved the cold, primal way: block k's LP on its
    own, H split (``split_free``), one ``solve_lp`` each; [(H[:, block k],
    g_k, status)]."""
    from sparsecert.certify import synthesis
    m = lay.d_full.shape[0]
    out = []
    for k in range(lay.sizes.size):
        lp, nh, _ = synthesis._synthesis_lp(lay, [k], 1.0, simple=True)
        x, rep = solve_free_split(lp, nh, maxiter)
        out.append((x[:nh].reshape(m, lay.sizes[k]), float(rep.objective),
                    rep.status))
    return out


def stage_two_primal_oracle(lay, stages, gamma, maxiter=200000):
    """Synthesis stage two solved the cold, primal way: block k's beta LP
    (``_beta_lp`` at g = ``gamma``) on its own, one ``solve_lp`` each, from
    the ``_StageOne`` of every block, H split (``split_free``); [(H[:, block
    k], optimum, status)]."""
    from sparsecert.certify import synthesis
    out = []
    for k, stage in enumerate(stages):
        h = stage.h_cols
        x, rep = solve_free_split(
            synthesis._beta_lp(lay, k, stage.lp, stage.rhs, gamma), h.size,
            maxiter)
        out.append((x[:h.size].reshape(h.shape), float(rep.objective),
                    rep.status))
    return out


def unpruned_bruteforce_oracle(a, structure, s, b=None, pin_first=True):
    """The polyhedral brute-force verdict with no pruning: every signed
    support of every maximal block set (``maximal_block_sets_oracle``), one
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
    from sparsecert import structures
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
        offs, tags = structure.offsets, structure.block_norms
        blocks = [tuple(range(lo, hi)) for lo, hi in zip(offs[:-1], offs[1:])]
        nf = lift.shape[0]
    costs = []
    for chosen in maximal_block_sets_oracle(structure.weights, s):
        mult, linf_members = {}, []
        for l in chosen:
            if tags[l] == "l1":
                for i in blocks[l]:
                    mult[i] = mult.get(i, 0.0) + 1.0
            else:
                linf_members.append(blocks[l])
        u1 = sorted(mult)
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


def reference_tableau_run(tab, allowed, budget, path, seen):
    """The dense simplex's pivot loop in its first form: Dantzig pricing by a
    stable argsort of every eligible column, a ratio test on fancy-indexed
    rows and a rank-one update by ``np.outer``.  The anti-cycling rules are
    the library's (``_PIVOT_SCAN`` candidates refuse pivot elements below
    ``_PIVOT_MIN``; ``_DEGENERATE_STREAK`` zero steps turn on the
    lexicographic ratio test).

    Runs on ``tab``, a ``simplex._Tableau`` whose T, basis, iterations,
    lex_ref and _streak it changes as the library's loop would, over the
    columns where the boolean mask ``allowed`` is set; appends each pivot
    (row, column) to ``path`` and the name of each rare branch it takes
    ('near tie': unequal ratios within ``_TOL``; 'scan', 'fallback', 'lex',
    'unbounded') to the set ``seen``.  Returns
    what ``_Tableau.run`` returns.
    """
    from sparsecert.engine.simplex import (_DEGENERATE_STREAK, _PIVOT_MIN,
                                           _PIVOT_SCAN, _TOL)
    t, m, n = tab.T, tab.m, tab.n

    def leaving_row(colv):
        rows = np.nonzero(colv > _TOL)[0]
        if rows.size == 0:
            return None
        ratios = t[rows, n] / colv[rows]
        ties = rows[ratios <= ratios.min() + _TOL]
        if np.ptp(ratios[ratios <= ratios.min() + _TOL]) > 0.0:
            seen.add("near tie")
        if tab.lex_ref is None or ties.size == 1:
            return int(ties[np.argmax(colv[ties])])
        seen.add("lex")
        big = ties[colv[ties] >= _PIVOT_MIN]
        ties = big if big.size else ties
        keys = t[np.ix_(ties, tab.lex_ref)] / colv[ties, None]
        return int(ties[np.lexsort(keys.T[::-1])[0]])

    def pivot(r, j):
        t[r] /= t[r, j]
        col = t[:, j].copy()
        col[r] = 0.0
        t[...] -= np.outer(col, t[r])
        t[:, j] = 0.0
        t[r, j] = 1.0
        tab.basis[r] = j
        path.append((r, j))

    if tab.lex_ref is not None:
        tab.lex_ref = tab.basis.copy()
    done = 0
    while done < budget:
        red = t[-1, :n]
        eligible = np.nonzero(allowed & (red < -_TOL))[0]
        if eligible.size == 0:
            return "optimal", None
        order = eligible[np.argsort(red[eligible], kind="stable")]
        r = j = fall_r = fall_j = None
        fall_mag = -1.0
        for jc in order[:_PIVOT_SCAN]:
            rc = leaving_row(t[:m, jc])
            if rc is None:
                seen.add("unbounded")
                return "unbounded", int(jc)
            mag = t[rc, jc]
            if mag >= _PIVOT_MIN:
                r, j = rc, int(jc)
                break
            seen.add("scan")
            if mag > fall_mag:
                fall_r, fall_j, fall_mag = rc, int(jc), mag
        if r is None:
            seen.add("fallback")
            r, j = fall_r, fall_j
        if t[r, n] / t[r, j] > _TOL:
            tab._streak = 0
            tab.lex_ref = None
        else:
            tab._streak += 1
        pivot(r, j)
        tab.iterations += 1
        done += 1
        if tab.lex_ref is None and tab._streak >= _DEGENERATE_STREAK:
            tab.lex_ref = tab.basis.copy()
    return "maxiter", None


def plain_admm_oracle(sp):
    """The splitting scheme without Anderson acceleration: (u, SolveReport).

    The same ADMM map as ``engine.splitting.solve_split`` (u-step on the
    Cholesky gain, structure prox, ball projection or phi prox, scaled dual
    update), the same penalty start, residual balancing with its one-reversal
    rule, and the same residual stop; every iterate is the plain step and
    the u-iterate is returned.
    """
    from sparsecert import norms
    from sparsecert.engine import SolveReport, Status
    from sparsecert.engine.splitting import (_RESCALE_EVERY, _RHO_BOUNDS,
                                             _objective, _penalty_start,
                                             _u_step_gain)
    m, n = sp.a.shape
    e_dim = sp.b.shape[0]
    stack = np.vstack([sp.b, sp.a])
    gain, warnings = _u_step_gain(stack)
    rho, dual_scale = _penalty_start(stack, bool(warnings))
    u = np.zeros(n)
    v = stack @ u
    mu = np.zeros(e_dim + m)
    status = Status.MAXITER
    it = 0
    r_primal = r_dual = np.inf
    balancing, reversed_once, last_move = True, False, 0
    for it in range(1, sp.maxiter + 1):
        u = gain @ (v - mu)
        stack_u = stack @ u
        mu_full = stack_u + mu
        w = norms.prox_structure_norm(sp.structure, mu_full[:e_dim], 1.0 / rho)
        r_in = mu_full[e_dim:]
        if sp.mode == "constraint":
            r = sp.y + norms.project_ball(r_in - sp.y, sp.phi, sp.epsilon)
        else:
            r = sp.y + norms.prox_vector_norm(r_in - sp.y, sp.phi, sp.lam / rho)
        v_new = np.concatenate([w, r])
        mu = mu_full - v_new
        r_primal = float(np.linalg.norm(stack_u - v_new))
        r_dual = rho * float(np.linalg.norm(stack.T @ (v_new - v)))
        v = v_new
        if max(r_primal, r_dual) <= sp.tol:
            status = Status.OPTIMAL
            break
        if balancing and it % _RESCALE_EVERY == 0:
            r_dual_v = r_dual / dual_scale
            move = 0
            if r_primal > 10.0 * r_dual_v and rho < _RHO_BOUNDS[1]:
                move = 1
            elif r_dual_v > 10.0 * r_primal and rho > _RHO_BOUNDS[0]:
                move = -1
            if move and move == -last_move:
                balancing = not reversed_once
                reversed_once = True
            if move and balancing:
                factor = 2.0 if move > 0 else 0.5
                rho = min(max(rho * factor, _RHO_BOUNDS[0]), _RHO_BOUNDS[1])
                mu /= factor
                last_move = move
    residuals = {"primal": r_primal, "dual": r_dual}
    if sp.mode == "constraint":
        residuals["phi_gap"] = max(0.0, norms.vector_norm(
            sp.a @ u - sp.y, sp.phi) - sp.epsilon)
    return u, SolveReport(status=status, objective=_objective(sp, u),
                          iterations=it, residuals=residuals,
                          warnings=warnings)


def phase_two_oracle(std, tab, cost, maxiter):
    """The dense simplex's phase two in its earlier form: the cost row priced
    from a padded copy of the standard-form costs, and every residual, gap
    and tolerance read through ``np.max`` / ``ndarray.min`` with emptiness
    guards, max |b| computed twice.  Same pivot loop and re-verification
    helpers as the library (``_Tableau.run``, ``_inverse``, ``_solves``,
    ``_multipliers``, looked up at call time so test patches apply).
    Returns what ``simplex._phase_two`` returns: no point (x None) for an
    unbounded LP, whose report carries the ray."""
    from sparsecert.engine import simplex as S
    ncols = std.A.shape[1]
    c_std = std.costs(cost)
    warnings = list(std.warnings)
    cost2 = np.zeros(tab.n)
    cost2[:ncols] = c_std
    tab.set_costs(cost2)
    outcome, unb_col = tab.run(ncols, maxiter - tab.iterations)

    bmat = std.A[:, tab.basis]
    binv = S._inverse(bmat)
    zb = None if binv is None else binv @ std.b
    ok = zb is not None and S._solves(bmat, zb, std)
    warm = (binv, zb) if ok else (None, None)
    if outcome == "optimal" and ok:
        z_full = np.zeros(tab.n)
        z_full[tab.basis] = np.maximum(zb, 0.0)
    else:
        z_full = tab.solution()
    z = z_full[:ncols]
    x = z[: std.nz]
    obj = float(c_std @ z)

    if outcome == "unbounded":
        ray = np.zeros(ncols)
        ray[unb_col] = 1.0
        for i, jb in enumerate(tab.basis):
            if jb < ncols:
                ray[jb] = -tab.T[i, unb_col]
        cert = {"kind": "ray", "ray": ray[: std.nz], "ray_standard": ray,
                "descent": float(c_std @ ray)}
        return None, S.SolveReport(status=S.Status.UNBOUNDED,
                                iterations=tab.iterations, certificate=cert,
                                warnings=warnings,
                                used_bland=tab.lex_ref is not None,
                                standard={"A": std.A, "b": std.b,
                                          "c": c_std}), warm

    y = S._multipliers(bmat, binv, c_std[tab.basis])
    reduced = c_std - std.A.T @ y
    primal_resid = float(np.max(np.abs(std.A @ z - std.b))) if std.b.size else 0.0
    primal_resid = max(primal_resid, float(max(0.0, -z.min())) if z.size else 0.0)
    dual_infeas = float(max(0.0, -reduced.min())) if reduced.size else 0.0
    comp = float(np.max(np.abs(z * reduced))) if z.size else 0.0
    dual_obj = float(y @ std.b) if std.b.size else 0.0
    delta = max(0.0, obj - dual_obj) + dual_infeas * (1.0 + float(np.abs(z).sum()))

    status = S.Status.OPTIMAL if outcome == "optimal" else S.Status.MAXITER
    feas_tol = 1e-6 * (1.0 + (float(np.abs(std.b).max()) if std.b.size else 0.0))
    if status is S.Status.OPTIMAL and primal_resid > feas_tol:
        status = S.Status.MAXITER
        warnings.append("pivoting lost primal feasibility; not converged")
    report = S.SolveReport(
        status=status, objective=obj, iterations=tab.iterations,
        residuals={"primal": primal_resid, "dual": dual_infeas,
                   "comp_slack": comp},
        dual=std.dual_original(y), delta=float(delta),
        used_bland=tab.lex_ref is not None, warnings=warnings,
        standard={"A": std.A, "b": std.b, "c": c_std, "x": z, "y": y})
    return x, report, warm


def warm_tableau_oracle(std, basis):
    """Rows of the warm tableau at ``basis``, from the untouched standard
    form as two fresh products: binv @ A with the basis columns set to the
    identity, beside the point binv @ b clipped at 0 (binv = inverse of
    A[:, basis]).  One product binv @ [A | b] would round differently: BLAS
    takes the point column through a matrix product, not a vector one."""
    binv = np.linalg.inv(std.A[:, basis])
    t = binv @ std.A
    t[:, basis] = np.eye(basis.size)
    return np.column_stack([t, np.maximum(binv @ std.b, 0.0)])


def phase_one_solve(lp, maxiter=20000):
    """``solve_lp`` as it was before the crash basis: every LP starts at
    phase one from the slack basis, with artificial columns where it has
    none, then the library's phase two.  Returns (x, SolveReport)."""
    from sparsecert.engine import simplex as S
    std = S._Standard(lp)
    tab, stop = S._phase_one(std, maxiter)
    if stop is not None:
        return None, stop
    x, report, _ = S._phase_two(std, tab, lp.c, maxiter)
    return x, report
