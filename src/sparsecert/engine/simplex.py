"""Dense two-phase simplex solver with optimality and infeasibility certificates.

Every problem arrives in one form,

    min c.x  subject to  G x (<=|=) h,  x >= 0,

gets a slack column per inequality row and its rows with a negative
right-hand side negated (equality standard form A z = b, z >= 0, b >= 0),
and is solved by a tableau simplex.  x is the first columns of z.  A solve
with no warm basis first tries a lower-triangular crash basis (Bixby, 1992):
per row a column whose first nonzero is in that row, slack and zero-cost
columns first.  Phase two starts there when its point is feasible; when it
is not but its reduced costs are, a dual simplex (Lemke, 1954) makes it
feasible first.  Phase one, from the slack basis with artificial columns,
runs when the crash misses a row or is singular, and when the dual simplex
gives up: a row that proves the feasible set empty (phase one then gives
the Farkas vector), a streak of zero steps or the pivot cap.  Pivoting
is Dantzig's rule, the argmin of the reduced costs over the allowed prefix of
columns; a sorted scan for another one runs only after a tiny pivot element.
A streak of degenerate steps turns on the lexicographic ratio test (Dantzig,
Orden & Wolfe, 1955), which cannot cycle, until a step leaves the vertex.
Every run is deterministic.  Optimal bases are re-verified against the
untouched data; a point that lost feasibility to roundoff is reported as not
converged, never as solved.

Each final basis is inverted once (``_inverse``), from the untouched
standard form.  That inverse gives the re-verified point binv @ b, the duals
c_B @ binv and, in a cost sequence, the next warm tableau binv @ [A | b];
phase one's Farkas vector comes from its own basis the same way.  A singular
basis falls back to least-squares duals, the tableau's own point and a fresh
cold start.

On the small LPs of long sequences a solve's cost is the number of numpy
calls, not flops, so each LP's path is kept short (``_pivot``,
``_ratio_test``, ``_warm_tableau``) without changing a pivot, an output bit
or a check.

``LPSequence`` minimizes cost vectors over one feasible set, each solve
after the first from the basis the one before ended on.  ``solve_many``
pivots a batch of costs in lockstep on one stacked tableau (``_lockstep``)
and certifies their final bases with one stacked inverse: on small LPs a
numpy call over the stack costs about what it costs for one LP.  A lone
solve is certified as a stack of one, so ``_certify`` is the one
certification path.  ``solve_lp`` is the one-cost sequence.

Reports carry whatever makes the outcome checkable: optimal solves include the
dual vector, complementary-slackness residuals, and a duality-gap-based
near-optimality estimate; infeasible problems a Farkas vector; unbounded
problems an improving ray.  The standard-form data used to verify them is
attached under ``report.standard``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

_TOL = 1e-9
_DEGENERATE_STREAK = 12  # zero steps in a row: lex rule on, dual start off
_PIVOT_MIN = 1e-7   # smallest pivot element worth dividing a row by
_PIVOT_SCAN = 24    # entering candidates to try before accepting a tiny pivot
# tableau cells a lockstep stack updates per numpy call (512 KB): the
# product temporary of a whole large stack outgrows the cache (plain n = 100
# stage one: 0.27 s unblocked, 0.23 s in blocks of 2^16 cells, 0.24-0.25 s
# at 2^15 or 2^17, and 0.25 s solved one by one)
_UPDATE_CELLS = 1 << 16
_max, _min = np.maximum.reduce, np.minimum.reduce  # no per-call wrapper cost
_ALL = slice(None)


class Status(Enum):
    OPTIMAL = "optimal"
    MAXITER = "maxiter"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min c.x s.t. G x (senses) h, x >= 0.

    ``senses`` holds 'le' or 'eq' per row, 'le' for every row by default.
    A variable with other bounds is written by its caller in this form: a
    free one as a (+, -) pair of columns, a bounded one with a row.
    """
    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    senses: tuple = ()

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        self.G = np.asarray(self.G, dtype=float).reshape(-1, n) if np.size(self.G) \
            else np.zeros((0, n))
        self.h = np.asarray(self.h, dtype=float).ravel()
        m = self.G.shape[0]
        if self.h.size != m:
            raise ValueError("h length must match G row count")
        if not self.senses:
            self.senses = ("le",) * m
        self.senses = tuple(self.senses)
        if len(self.senses) != m or any(s not in ("le", "eq") for s in self.senses):
            raise ValueError("senses must be 'le'/'eq', one per row")
        _check_finite(self)


def _check_finite(lp):
    """Raise ValueError, naming the field, when c, G or h holds an entry
    that is not finite.  ``_Standard`` checks again: the fields of a
    ``LinearProgram`` can be written after it was made."""
    for name, arr in (("c", lp.c), ("G", lp.G), ("h", lp.h)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")


@dataclass
class SolveReport:
    status: Status
    objective: float = np.nan
    iterations: int = 0
    residuals: dict = field(default_factory=dict)
    dual: np.ndarray | None = None       # multipliers for the original rows
    certificate: dict | None = None      # farkas (infeasible) / ray (unbounded)
    delta: float = np.nan                # certified near-optimality margin
    used_bland: bool = False             # lexicographic rule in force at the end
    start: str | None = None             # LP cold start: phase_one/crash/dual
    warnings: list = field(default_factory=list)
    standard: dict | None = None         # equality-form data for verification
    anderson: dict | None = None         # split solves: accepted/rejected/resets


class _Standard:
    """Equality standard form A z = b, z >= 0, b >= 0 of an LP: its G with
    one slack column per 'le' row, the rows with a negative right-hand side
    negated.  The LP's x is z[:nz]."""

    def __init__(self, lp):
        _check_finite(lp)
        self.warnings = []  # phase one's notes on this form, shown by every solve
        m, nz = lp.G.shape
        slack_rows = np.nonzero(np.array(lp.senses, dtype=object) == "le")[0]
        a = np.zeros((m, nz + slack_rows.size))
        a[:, :nz] = lp.G
        a[slack_rows, nz + np.arange(slack_rows.size)] = 1.0
        self.row_sign = np.ones(m)
        b = lp.h.copy()
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0
        self.row_sign[neg] = -1.0
        self.A = a
        self.b = b
        self.b_max = float(_max(np.abs(b), initial=0.0))
        self.nz = nz
        self.kept_rows = np.arange(m)  # narrowed if redundant rows get dropped

    def costs(self, c):
        """The equality-form cost of the cost ``c``, or of each row of a
        stack of costs: zero on the slack columns."""
        c_std = np.zeros(c.shape[:-1] + (self.A.shape[1],))
        c_std[..., : self.nz] = c
        return c_std

    def drop_row(self, local_i):
        self.A = np.delete(self.A, local_i, axis=0)
        self.b = np.delete(self.b, local_i)
        self.b_max = float(_max(np.abs(self.b), initial=0.0))
        self.kept_rows = np.delete(self.kept_rows, local_i)

    def dual_original(self, y):
        """Map equality-form duals back to the LP's rows (dropped rows -> 0)."""
        full = np.zeros(self.row_sign.size)
        full[self.kept_rows] = y
        full *= self.row_sign
        return full


# a @ v and v @ a of one vector or of each row of a stack of vectors (with
# each matrix of a stack), u @ v of each row of a stack: stacked matmul
# gives each row the bits of its one-vector product, and numpy before 2.2
# has no ``np.matvec``, ``np.vecmat`` (nor, before 2.0, ``np.vecdot``)
def _mv(a, v):
    return a @ v if v.ndim == 1 else (a @ v[..., None])[..., 0]


def _vm(v, a):
    return v @ a if v.ndim == 1 else (v[..., None, :] @ a)[..., 0, :]


def _dot(u, v):
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _ratio_test(rhs, colv, ratio):
    """The least-ratio test of the entering column ``colv`` against the
    basic values ``rhs`` of one tableau, or of each column of (m, k) stacks
    of them: ``ratio``, shaped like ``colv``, gets rhs / colv where colv >
    ``_TOL`` and inf elsewhere.  Returns the least ratio, which is infinite
    when the column proves the LP unbounded (also with no rows), the rows
    within ``_TOL`` of it, and of those the row of the largest pivot
    element, the numerically stable choice (None with no rows)."""
    ratio.fill(np.inf)
    np.divide(rhs, colv, out=ratio, where=colv > _TOL)
    least = _min(ratio, axis=0, initial=np.inf)
    tie = ratio <= least + _TOL
    return least, tie, \
        np.where(tie, colv, -np.inf).argmax(axis=0) if len(ratio) else None


def _pivot(t, basis, r, j, piv, at=()):
    """Pivot the tableau ``t`` on row ``r``, column ``j``, whose entry is
    ``piv``, and put ``j`` in ``basis`` at ``r``; returns whether the step
    moves the point (a ratio above ``_TOL``).  With ``at`` = (arange(k),),
    ``t`` is a (k, m+1, n+1) stack of tableaus, ``basis`` (k, m), ``r`` and
    ``j`` hold one index per tableau and ``piv`` is (k, 1)."""
    at_r = at + (r,)
    t[at_r] /= piv
    row = t[at_r]
    # x / x is exactly 1 and x - x * 1 exactly 0, so the update itself
    # leaves column j the unit column of row r
    col = t[at + (_ALL, j)].copy()
    col[at_r] = 0.0
    t -= col[..., None] * row[..., None, :]
    basis[at_r] = j
    return row.T[-1] > _TOL


class _Tableau:
    def __init__(self, T, basis):
        """``T`` holds [A | b] above a cost row that ``set_costs`` writes."""
        self.T = T
        self.m, self.n = T.shape[0] - 1, T.shape[1] - 1
        self.basis = np.asarray(basis, dtype=int)
        self.iterations = 0
        self.lex_ref = None  # reference basis of the lexicographic rule
        self._streak = 0

    def set_costs(self, c):
        self.T[-1, :] = 0.0
        self.T[-1, : c.size] = c
        self.T[-1] -= self.T[-1, self.basis] @ self.T[: self.m]

    def pivot(self, r, j):
        """``_pivot`` on entry (r, j); True when the step moves the point."""
        return _pivot(self.T, self.basis, r, j, self.T[r, j])

    def _leaving_row(self, colv):
        """Min-ratio row for an entering column (``_ratio_test``), or None
        if it proves unboundedness.  The ratios go to ``run``'s buffer."""
        least, tie, row = _ratio_test(self._rhs, colv, self._ratio)
        if least == np.inf:
            return None
        if self.lex_ref is None:
            return int(row)
        # a finite least ratio ties only rows with a positive entry
        ties = np.nonzero(tie)[0]
        if ties.size == 1:
            return int(ties[0])
        big = ties[colv[ties] >= _PIVOT_MIN]
        ties = big if big.size else ties
        # lexicographic minimum of T[row, ref] / colv; the reference columns
        # started as the identity, so in exact arithmetic no basis repeats
        keys = self.T[np.ix_(ties, self.lex_ref)] / colv[ties, None]
        return int(ties[np.lexsort(keys.T[::-1])[0]])

    def run(self, ncols, budget):
        """Minimize over the first ``ncols`` columns; returns 'optimal',
        'unbounded' (with column), or 'maxiter'.  The entering column is the
        argmin of the reduced costs over that prefix (lowest index on a tie);
        the sorted scan of the other candidates runs only after its pivot
        element fell below ``_PIVOT_MIN``."""
        # a reference restarts here: phase one's exit pivots may have voided it
        if self.lex_ref is not None:
            self.lex_ref = self.basis.copy()
        t, m = self.T, self.m
        red, cols = t[-1, :ncols], t[:m]
        self._rhs, self._ratio = t[:m, self.n], np.empty(m)
        done = 0
        while done < budget:
            j = int(red.argmin()) if ncols else 0
            if not (ncols and red[j] < -_TOL):
                return "optimal", None
            r = self._leaving_row(cols[:, j])
            if r is None:
                return "unbounded", j
            if t[r, j] < _PIVOT_MIN:
                # a pivot element this small would amplify roundoff: scan the
                # next candidates most-negative-first, and settle for the
                # largest refusal only when the scan finds nothing better
                eligible = np.nonzero(red < -_TOL)[0]
                order = eligible[np.argsort(red[eligible], kind="stable")]
                fall_mag = t[r, j]
                for jc in order[1:_PIVOT_SCAN]:
                    rc = self._leaving_row(cols[:, jc])
                    if rc is None:
                        return "unbounded", int(jc)
                    mag = t[rc, jc]
                    if mag >= _PIVOT_MIN:
                        r, j = rc, int(jc)
                        break
                    if mag > fall_mag:
                        r, j, fall_mag = rc, int(jc), mag
            if self.pivot(r, j):
                self._streak = 0
                self.lex_ref = None  # degenerate vertex escaped
            else:
                self._streak += 1
            self.iterations += 1
            done += 1
            if self.lex_ref is None and self._streak >= _DEGENERATE_STREAK:
                self.lex_ref = self.basis.copy()
        return "maxiter", None

    def solution(self):
        z = np.zeros(self.n)
        z[self.basis] = self.T[: self.m, self.n]
        return z


def _inverse(bmat):
    """``np.linalg.inv`` of the square basis matrix ``bmat``, or None when it
    is singular."""
    try:
        return np.linalg.inv(bmat)
    except np.linalg.LinAlgError:
        return None


def _multipliers(bmat, binv, cb):
    """y with y @ bmat = cb: cb @ binv (row by row over a stack of bases),
    or least squares when the one basis is singular (``binv`` None)."""
    if binv is None:
        return np.linalg.lstsq(bmat.T, cb, rcond=None)[0]
    return _vm(cb, binv)


def _slack_basis(std):
    """Initial basis: per row, the first slack column that survived the sign
    flips as +1 and has no other entry 1.0; -1 where a row has none."""
    unit = std.A[:, std.nz:] == 1.0
    cols = np.nonzero(unit.sum(axis=0) == 1)[0]
    rows, first = np.unique(np.nonzero(unit[:, cols].T)[1], return_index=True)
    basis = np.full(std.A.shape[0], -1, dtype=int)
    basis[rows] = std.nz + cols[first]
    return basis


def _crash_basis(std, c_std):
    """Lower-triangular crash basis of ``std`` (Bixby, 1992), one column per
    row in row order, or None when some row gets none: row i takes a column
    whose first nonzero is in row i and at least ``_PIVOT_MIN`` in
    magnitude.  Columns of zero cost under ``c_std`` (the slacks among them)
    come first, then the sparsest, then a positive entry, then the lowest
    index."""
    a = std.A
    m, n = a.shape
    if m == 0:
        return np.zeros(0, dtype=int)
    nz = a != 0.0
    row = nz.argmax(axis=0)   # an empty column reads row 0, entry 0
    lead = a[row, np.arange(n)]
    cand = np.nonzero(np.abs(lead) >= _PIVOT_MIN)[0]
    if cand.size < m:
        return None
    order = cand[np.lexsort((lead[cand] <= 0.0, nz.sum(axis=0)[cand],
                             c_std[cand] != 0.0, row[cand]))]
    rows = row[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return order[first] if np.count_nonzero(first) == m else None


def _dual_simplex(tab, c_std, maxiter):
    """Dual simplex (Lemke, 1954) on ``tab`` under the costs ``c_std``:
    True once the basic point is feasible, with the entries above -``_TOL``
    clipped to 0, for phase two to go on from there.  The leaving row holds
    the most negative basic value; the entering column has the least ratio
    reduced cost / |entry| over the row's entries below -``_TOL``, ties to
    the largest |entry|.  False, for phase one to take over, when a reduced
    cost is below -``_TOL``, a leaving row has no negative entry (the
    feasible set is empty, and phase one gives the Farkas vector), after
    ``_DEGENERATE_STREAK`` zero steps in a row, or with ``maxiter`` pivots
    spent (they count in ``tab.iterations``)."""
    tab.set_costs(c_std)
    t, m, n = tab.T, tab.m, tab.n
    red, rhs = t[-1, :n], t[:m, n]
    if _min(red, initial=0.0) < -_TOL:
        return False
    ratio = np.empty(n)
    streak = 0
    while True:
        r = int(rhs.argmin())
        if rhs[r] >= -_TOL:
            np.maximum(rhs, 0.0, out=rhs)
            return True
        if tab.iterations >= maxiter or streak >= _DEGENERATE_STREAK:
            return False
        row = t[r, :n]
        neg = row < -_TOL
        # red / row is minus the ratio, so the least ratio is its maximum
        ratio.fill(-np.inf)
        np.divide(red, row, out=ratio, where=neg)
        step = _max(ratio, initial=-np.inf)
        if step == -np.inf:
            return False
        j = int(np.where(ratio >= step - _TOL, row, np.inf).argmin())
        streak = streak + 1 if step >= -_TOL else 0
        tab.pivot(r, j)
        tab.iterations += 1


def _phase_one(std, maxiter, spent=0):
    """Phase one on ``std``: returns (tableau, None) with a basis of
    structural columns, ready for phase two, or (None, report) when the
    feasible set is empty or phase one hit the iteration cap.  ``spent``
    pivots of a dual start that gave up count toward that cap and in the
    report.  Redundant equality rows are dropped from ``std``, whose
    ``warnings`` says so."""
    m, ncols = std.A.shape
    basis = _slack_basis(std)
    need_art = np.nonzero(basis == -1)[0]
    n_art = need_art.size
    a_work = np.hstack([std.A, np.zeros((m, n_art))])
    a_work[need_art, ncols + np.arange(n_art)] = 1.0
    basis[need_art] = ncols + np.arange(n_art)

    t = np.zeros((m + 1, ncols + n_art + 1))
    t[:m, :-1] = a_work
    t[:m, -1] = std.b
    tab = _Tableau(t, basis)
    tab.iterations = spent

    if n_art:
        cost1 = np.zeros(ncols + n_art)
        cost1[ncols:] = 1.0
        tab.set_costs(cost1)
        outcome, _ = tab.run(ncols + n_art, maxiter - spent)
        phase1_obj = -tab.T[-1, -1]
        if outcome == "maxiter":
            return None, SolveReport(status=Status.MAXITER,
                                     iterations=tab.iterations,
                                     residuals={"phase1_objective": phase1_obj})
        if phase1_obj > 1e-7:
            # Farkas vector from the phase-one duals on the working matrix
            bmat = a_work[:, tab.basis]
            y = _multipliers(bmat, _inverse(bmat), cost1[tab.basis])
            cert = {"kind": "farkas", "y": y, "value": float(y @ std.b),
                    "max_yA": float(np.max(y @ std.A)) if std.A.size else 0.0}
            return None, SolveReport(
                status=Status.INFEASIBLE, iterations=tab.iterations,
                certificate=cert,
                standard={"A": std.A, "b": std.b},   # ``solve`` adds c
                residuals={"phase1_objective": phase1_obj})
        # drive leftover artificial variables out of the basis
        drop = []
        for i in range(tab.m):
            if tab.basis[i] >= ncols:
                row = tab.T[i, :ncols]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > _TOL:
                    tab.pivot(i, j)
                else:
                    drop.append(i)
        if drop:
            tab.T = np.delete(tab.T, drop, axis=0)
            tab.basis = np.delete(tab.basis, drop)
            tab.m -= len(drop)
            for i in sorted(drop, reverse=True):
                std.drop_row(i)
            std.warnings.append(f"dropped {len(drop)} redundant row(s)")
    return tab, None


def _fits(bmat, zb, b):
    """Whether zb solves bmat zb = b to tolerance, one verdict per basis of
    a stack."""
    resid = _max(np.abs(_mv(bmat, zb) - b), axis=-1, initial=0.0)
    return resid <= 1e-7 * (1.0 + float(_max(np.abs(b), initial=0.0)))


def _solves(bmat, zb, b):
    """Whether zb is a nonnegative solution of bmat zb = b to tolerance, one
    verdict per basis of a stack."""
    return (_min(zb, axis=-1, initial=0.0) >= -1e-9) & _fits(bmat, zb, b)


def _warm_tableau(std, basis, binv, zb):
    """Tableau of ``std`` at ``basis`` re-formed from the untouched data as
    binv @ [A | b] (``zb`` = binv @ b, clipped at 0), so no pivot roundoff
    carries over from earlier solves; None when ``binv`` is None.  The cost
    row is left for ``set_costs``."""
    if binv is None:
        return None
    m, n = std.A.shape
    t = np.empty((m + 1, n + 1))
    np.matmul(binv, std.A, out=t[:m, :n])
    t[:m, basis] = np.eye(m)
    np.maximum(zb, 0.0, out=t[:m, n])
    return _Tableau(t, basis)


def _cold_start(std, cost, maxiter):
    """First basis of a solve that has no warm one: (tableau, stop report,
    start).  The crash basis starts phase two when its point binv @ b is
    feasible ('crash'), or else the dual simplex under ``cost`` ('dual').
    Phase one runs ('phase_one') when the crash basis is missing or
    singular, or when the dual simplex gives up."""
    spent = 0
    c_std = std.costs(cost)
    basis = _crash_basis(std, c_std)
    if basis is not None:
        bmat = std.A[:, basis]
        binv = _inverse(bmat)
        zb = None if binv is None else binv @ std.b
        if zb is not None and _fits(bmat, zb, std.b):
            tab = _warm_tableau(std, basis, binv, zb)
            if _min(zb, initial=0.0) >= -_TOL:
                return tab, None, "crash"
            tab.T[:-1, -1] = zb   # unclipped: the dual rows are the negatives
            if _dual_simplex(tab, c_std, maxiter):
                return tab, None, "dual"
            spent = tab.iterations
    tab, stop = _phase_one(std, maxiter, spent)
    return tab, stop, "phase_one"


def _phase_two(std, tab, cost, maxiter):
    """Minimize ``cost`` from the feasible basis of ``tab`` and certify the
    outcome (``_certify``); returns (x, SolveReport, warm)."""
    c_std = std.costs(cost)
    tab.set_costs(c_std)
    run = tab.run(std.A.shape[1], maxiter - tab.iterations)
    return _certify(std, [tab], [run], c_std[None])[0]


def _certify(std, tabs, runs, c_std):
    """Certify the final tableaus ``tabs`` of k >= 1 LPs over ``std``
    against the untouched standard form; ``runs`` holds what their runs
    returned, (outcome, unbounded column), and ``c_std`` their costs, one
    row each (``_Standard.costs``).  One stacked inverse of the final
    bases, then ``_solves``, ``_multipliers`` and ``_gaps`` over the stack
    and ``_report`` per LP.  Returns [(x, SolveReport, warm)] in order: x
    is None for an unbounded LP (its report has the ray), ``warm`` the
    basis inverse and its point binv @ b when they pass ``_solves`` (the
    next warm start), else (None, None).  When the stacked inverse fails,
    several LPs are certified one by one, and a lone singular basis gets
    least-squares duals and the tableau's own point."""
    k = len(tabs)
    basis = np.array([tab.basis for tab in tabs])
    # re-solve on the untouched matrix to shed pivot error; accept only if the
    # basis system is solved (a near-singular inverse is garbage, no error)
    bmat = std.A[:, basis].transpose(1, 0, 2)
    binv = _inverse(bmat)
    if binv is None and k > 1:
        return [out for i in range(k) for out in
                _certify(std, tabs[i:i + 1], runs[i:i + 1], c_std[i:i + 1])]
    rows = np.arange(k)[:, None]
    cb = c_std[rows, basis]
    z = np.zeros(c_std.shape)
    if binv is None:
        zb, ok = None, [False]
        y = _multipliers(bmat[0], None, cb[0])[None]
    else:
        zb = binv @ std.b
        ok = _solves(bmat, zb, std.b).tolist()
        z[rows, basis] = np.maximum(zb, 0.0)
        y = _multipliers(bmat, binv, cb)
    for i, (tab, (outcome, _)) in enumerate(zip(tabs, runs)):
        if outcome != "optimal" or not ok[i]:
            z[i] = tab.solution()[: z.shape[1]]   # the tableau's own point
    obj = _dot(c_std, z)
    gaps = _gaps(std, z, y, c_std, obj)
    x = z[:, : std.nz]
    return [(None if run[0] == "unbounded" else x[i],
             _report(std, tab, *run, c_std[i], z[i], obj[i], y[i],
                     [g[i] for g in gaps]),
             (binv[i], zb[i]) if ok[i] else (None, None))
            for i, (tab, run) in enumerate(zip(tabs, runs))]


def _gaps(std, z, y, c_std, obj):
    """The reductions behind a report's residuals and ``delta``, one each
    per row of a stack: max |A z - b|, max(0, -min z), the dual
    infeasibility max(0, -min reduced cost), the complementary slackness
    max |z * reduced cost|, the duality gap obj - y.b and the l1 mass of
    ``z``, for the point ``z`` with duals ``y`` under the cost ``c_std``
    (objective ``obj``)."""
    reduced = c_std - _mv(std.A.T, y)
    dual_obj = _dot(y, std.b)
    # 0.0 - min(v, 0) is max(0, -v) with no -0.0
    return (_max(np.abs(_mv(std.A, z) - std.b), axis=-1, initial=0.0),
            0.0 - _min(z, axis=-1, initial=0.0),
            0.0 - _min(reduced, axis=-1, initial=0.0),
            _max(np.abs(z * reduced), axis=-1, initial=0.0),
            obj - dual_obj, np.add.reduce(np.abs(z), axis=-1))


def _report(std, tab, outcome, unb_col, c_std, z, obj, y, gaps):
    """The SolveReport of one LP's final tableau ``tab``: a ray when
    ``outcome`` is 'unbounded', else the point ``z`` with objective ``obj``,
    duals ``y`` and residuals and ``delta`` from ``gaps`` (``_gaps``).  An
    optimum whose primal residual exceeds the feasibility tolerance is
    reported MAXITER."""
    warnings = list(std.warnings)
    if outcome == "unbounded":
        ncols = std.A.shape[1]
        ray = np.zeros(ncols)
        ray[unb_col] = 1.0
        for i, jb in enumerate(tab.basis):
            if jb < ncols:
                ray[jb] = -tab.T[i, unb_col]
        cert = {"kind": "ray", "ray": ray[: std.nz], "ray_standard": ray,
                "descent": float(c_std @ ray)}
        return SolveReport(status=Status.UNBOUNDED, iterations=tab.iterations,
                           certificate=cert, warnings=warnings,
                           used_bland=tab.lex_ref is not None,
                           standard={"A": std.A, "b": std.b, "c": c_std})
    resid, negative, dual, comp, gap, mass = map(float, gaps)
    primal = max(resid, negative)
    # certified near-optimality: duality gap plus a cushion for any tiny dual
    # infeasibility (scaled by the point's l1 mass; fp-level in practice)
    delta = max(0.0, gap) + dual * (1.0 + mass)
    status = Status.OPTIMAL if outcome == "optimal" else Status.MAXITER
    if status is Status.OPTIMAL and primal > 1e-6 * (1.0 + std.b_max):
        # a basic point claimed optimal but not feasible is never solved
        status = Status.MAXITER
        warnings.append("pivoting lost primal feasibility; not converged")
    return SolveReport(
        status=status, objective=float(obj), iterations=tab.iterations,
        residuals={"primal": primal, "dual": dual, "comp_slack": comp},
        dual=std.dual_original(y), delta=delta,
        used_bland=tab.lex_ref is not None, warnings=warnings,
        standard={"A": std.A, "b": std.b, "c": c_std, "x": z, "y": y})


def _lockstep(tab, c_std, maxiter):
    """Phase two of each row of ``c_std`` from the feasible basis of the
    warm tableau ``tab`` (left untouched), on one (k, m+1, n+1) stack of
    tableaus; returns the final tableaus and the (outcome, unbounded column)
    of the runs, in row order.

    Every LP makes the pivots ``_Tableau.run`` would make from ``tab``,
    through the same ``_ratio_test`` and ``_pivot`` over the stack: the
    entering column is the argmin of its reduced costs, the leaving row has
    the least ratio, ties to the largest pivot element.  The update runs by
    blocks of LPs of at most ``_UPDATE_CELLS`` cells.  LPs that end optimal
    are compacted out of the stack.  An LP leaves the stack and finishes in
    ``_Tableau.run`` when it needs what the stack does not do: a pivot
    element below ``_PIVOT_MIN`` (the scan), ``_DEGENERATE_STREAK`` zero
    steps (the lexicographic rule), a column that proves it unbounded or
    the pivot cap; so does the last LP still in the stack."""
    k, m, n = c_std.shape[0], tab.m, tab.n
    t = np.empty((k, m + 1, n + 1))
    t[:, :m] = tab.T[:m]
    t[:, m, :n] = c_std
    t[:, m, n] = 0.0
    t[:, m] -= _vm(c_std[:, tab.basis], tab.T[:m])   # ``set_costs``
    basis = np.repeat(tab.basis[None], k, axis=0)
    ids, streak = np.arange(k), np.zeros(k, dtype=int)
    tabs, runs = [None] * k, [None] * k
    block = max(1, _UPDATE_CELLS // tab.T.size)   # LPs per update call
    steps = 0

    def finish(i, outcome):
        """Take stack row i out, as its own copy: ended optimal, or handed
        to ``run``."""
        final = _Tableau(t[i].copy(), basis[i].copy())
        final.iterations, final._streak = steps, int(streak[i])
        if final._streak >= _DEGENERATE_STREAK:
            final.lex_ref = final.basis  # ``run`` restarts it at the basis
        tabs[ids[i]] = final
        runs[ids[i]] = (outcome, None) if outcome else \
            final.run(n, maxiter - steps)

    def compact(keep):
        nonlocal t, basis, ids, streak
        t, basis, ids, streak = t[keep], basis[keep], ids[keep], streak[keep]

    while ids.size > 1 and steps < maxiter:
        live = np.arange(ids.size)
        red = t[:, m, :n]
        j = red.argmin(axis=1)
        colv = t[live, :m, j]
        # rows down the first axis, as in one tableau; r is any row of an
        # LP that proves unbounded
        least, _, r = _ratio_test(t[:, :m, n].T, colv.T,
                                  np.empty((m, live.size)))
        piv = colv[live, r]
        optimal = ~(red[live, j] < -_TOL)
        done = optimal | (least == np.inf) | (piv < _PIVOT_MIN)
        if done.any():
            for i in np.nonzero(done)[0]:
                finish(i, "optimal" if optimal[i] else None)
            keep = ~done
            compact(keep)
            j, r, piv, live = j[keep], r[keep], piv[keep], live[:ids.size]
            if ids.size < 2:
                break
        moved = np.empty(ids.size, dtype=bool)
        for lo in range(0, ids.size, block):
            b = slice(lo, lo + block)
            moved[b] = _pivot(t[b], basis[b], r[b], j[b], piv[b, None],
                              (live[: moved[b].size],))
        steps += 1
        streak = np.where(moved, 0, streak + 1)
        lex = streak >= _DEGENERATE_STREAK
        if lex.any():
            for i in np.nonzero(lex)[0]:
                finish(i, None)
            compact(~lex)
    for i in range(ids.size):
        finish(i, None)
    return tabs, runs


def solve_lp(lp, maxiter=20000):
    """Solve the LP; returns (x, SolveReport).  x is None unless a basic
    feasible point was reached and the LP is not unbounded (optimal or
    iteration-capped)."""
    return LPSequence(lp, maxiter).solve(lp.c)


class LPSequence:
    """Cost vectors minimized over the feasible set of ``lp`` (``lp.c`` is
    ignored), one at a time (``solve``) or as a batch (``solve_many``),
    each capped at ``maxiter`` pivots.

    The first solve makes a cold start (``_cold_start``: the crash basis,
    the dual simplex from it, or phase one) under its own cost.  Each later
    solve starts at the basis the previous one ended on, with the tableau
    re-formed from the untouched standard-form data through the inverse
    that certified the previous solve, so roundoff does not build up over
    many solves; a singular basis, or one whose point fails ``_solves``,
    falls back to a fresh cold start.  Every report carries what
    ``solve_lp``'s does: re-verified point, duals, ``delta``, Farkas vector
    or ray; its ``iterations`` counts the pivots of that solve, dual and
    phase-one pivots included in the solve that ran them, and its
    ``start`` names the cold start that solve made ('phase_one', 'crash'
    or 'dual'; None for a warm solve).  The first solve is the one
    ``solve_lp`` makes.  In a batch, every LP after the first starts at
    the basis the first ended on, not at the one before it; its report
    is the one ``solve`` gives from that basis, bit for bit.

    The sequence tallies its solves: ``lps``, ``iterations`` (the sum of
    the reports'), ``starts`` (the cold starts by kind), ``not_optimal``
    and ``delta``, the largest gap among the optimal solves (0 before any).
    """

    def __init__(self, lp, maxiter=20000):
        self.maxiter = maxiter
        self._n = lp.c.size
        self._std = _Standard(lp)
        self._tab = self._stop = None
        self._warm = None   # (basis, inverse, point) the last solve ended on
        self.lps = self.iterations = self.not_optimal = 0
        self.delta = 0.0
        self.starts = dict.fromkeys(("phase_one", "crash", "dual"), 0)

    def solve(self, cost):
        """Minimize ``cost`` over the feasible set; returns (x, SolveReport)."""
        cost = np.asarray(cost, dtype=float).ravel()
        if cost.size != self._n or not np.isfinite(cost).all():
            raise ValueError(f"each cost must be {self._n} finite numbers")
        std, start = self._std, None
        if self._warm is not None:
            self._tab = _warm_tableau(std, *self._warm)
            self._warm = None
        if self._tab is None and self._stop is None:
            self._tab, self._stop, start = _cold_start(std, cost, self.maxiter)
            self.starts[start] += 1
        if self._stop is not None:
            stop = self._stop
            x, report = None, replace(
                stop, iterations=stop.iterations if start else 0, start=start,
                standard=stop.standard and dict(stop.standard,
                                                c=std.costs(cost)))
        else:
            x, report, warm = _phase_two(std, self._tab, cost, self.maxiter)
            report.start = start
            self._warm = (self._tab.basis, *warm)
        self._count(report)
        return x, report

    def solve_many(self, costs):
        """Minimize each row of ``costs`` (k x n) over the feasible set;
        returns [(x, SolveReport)] in row order, each report what ``solve``
        reports.

        The first cost goes through ``solve``.  The others start at the
        basis it ended on and pivot in lockstep on one stacked tableau
        (``_lockstep``), and their final bases are certified together
        (``_certify``).  With no warm basis to share (an empty feasible
        set, or a final basis that failed ``_solves``) or with no rows,
        each cost goes through ``solve``.  The next solve starts at the
        basis the last cost ended on."""
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 2 or costs.shape[1] != self._n \
                or not np.isfinite(costs).all():
            raise ValueError(f"costs must be rows of {self._n} finite numbers")
        out = [self.solve(cost) for cost in costs[:1]]
        std = self._std
        if costs.shape[0] < 2 or self._warm is None or self._warm[1] is None \
                or not std.A.shape[0]:
            return out + [self.solve(cost) for cost in costs[1:]]
        c_std = std.costs(costs[1:])
        tabs, runs = _lockstep(_warm_tableau(std, *self._warm), c_std,
                               self.maxiter)
        for x, report, warm in _certify(std, tabs, runs, c_std):
            self._count(report)
            out.append((x, report))
        self._warm = (tabs[-1].basis, *warm)
        return out

    def _count(self, report):
        self.lps += 1
        self.iterations += report.iterations
        if report.status is Status.OPTIMAL:
            self.delta = max(self.delta, float(report.delta))
        else:
            self.not_optimal += 1
