"""Dense two-phase simplex solver with optimality and infeasibility certificates.

Problems arrive in the general form

    min c.x  subject to  G x (<=|=|>=) h,  lb <= x <= ub,

get converted to equality standard form (shift finite lower bounds, mirror
upper-bounded free variables, split doubly-free variables, slack columns,
nonnegative right-hand side), and are solved by a tableau simplex.  Pivoting
is Dantzig's rule with a stability scan that refuses numerically tiny pivot
elements while an alternative column exists.  A streak of degenerate steps
turns on the lexicographic ratio test (Dantzig, Orden & Wolfe, 1955), which
cannot cycle, until a step leaves the vertex.  Every run is deterministic.
Optimal bases are re-verified against the untouched data; a point that lost
feasibility to roundoff is reported as not converged, never as solved.

Each final basis is inverted once (``_inverse``), from the untouched
standard form.  That inverse gives the re-verified point binv @ b, the duals
c_B @ binv and, in a cost sequence, the next warm tableau binv @ [A | b];
phase one's Farkas vector comes from its own basis the same way.  A singular
basis falls back to least-squares duals, the tableau's own point and a fresh
phase one.

``LPSequence`` minimizes cost vectors one at a time over one feasible set:
phase one runs at the first solve, and each later solve starts phase two at
the basis the previous one ended on, re-formed only when that next cost
arrives.  The sequence tallies its solves (LPs, pivots, LPs not optimal and
the largest gap of the optimal ones), so callers read one count.
``solve_lp`` is the one-cost sequence.

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
_DEGENERATE_STREAK = 12  # zero-step pivots in a row that start the lex rule
_PIVOT_MIN = 1e-7   # smallest pivot element worth dividing a row by
_PIVOT_SCAN = 24    # entering candidates to try before accepting a tiny pivot


class Status(Enum):
    OPTIMAL = "optimal"
    MAXITER = "maxiter"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min c.x s.t. G x (senses) h, lb <= x <= ub.

    ``senses`` holds one of 'le', 'eq', 'ge' per row.  Bounds default to
    x >= 0; entries may be +-inf.
    """
    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    senses: tuple = ()
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

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
        if len(self.senses) != m or any(s not in ("le", "eq", "ge") for s in self.senses):
            raise ValueError("senses must be 'le'/'eq'/'ge', one per row")
        self.lb = np.zeros(n) if self.lb is None else \
            np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if self.ub is None else \
            np.asarray(self.ub, dtype=float).ravel()
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bounds must match variable count")
        for name, arr in (("c", self.c), ("G", self.G), ("h", self.h)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise ValueError("bounds must not be NaN")


@dataclass
class SolveReport:
    status: Status
    objective: float = np.nan
    iterations: int = 0
    residuals: dict = field(default_factory=dict)
    dual: np.ndarray | None = None       # multipliers for the original rows
    certificate: dict | None = None      # farkas / ray / bounds evidence
    delta: float = np.nan                # certified near-optimality margin
    used_bland: bool = False             # lexicographic rule in force at the end
    warnings: list = field(default_factory=list)
    standard: dict | None = None         # equality-form data for verification


class _Standard:
    """Equality-form problem plus the bookkeeping to map back."""

    def __init__(self, lp):
        self.warnings = []  # phase one's notes on this form, shown by every solve
        lo, hi = lp.lb, lp.ub
        bad = np.nonzero(lo > hi + _TOL)[0]
        self.bad_bound = int(bad[0]) if bad.size else None
        if bad.size:
            return
        # variable transform x = off + S z, z >= 0: a finite lower bound
        # shifts, an upper bound alone mirrors, a free variable splits in two
        # columns (+, -); a doubly bounded one gets a row z <= hi - lo
        fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
        free = ~fin_lo & ~fin_hi
        width = 1 + free.astype(int)
        first = np.cumsum(width) - width       # first z column of each variable
        self.var = np.repeat(np.arange(lp.c.size), width)
        self.sign = np.ones(self.var.size)
        self.sign[first[~fin_lo & fin_hi]] = -1.0
        self.sign[first[free] + 1] = -1.0
        self.off = np.where(fin_lo, lo, np.where(fin_hi, hi, 0.0))
        boxed = fin_lo & fin_hi
        span = hi[boxed] - lo[boxed]
        span = np.where(span < 0.0, 0.0, span)
        nz, m0, nb = self.var.size, lp.G.shape[0], span.size

        g = np.zeros((m0 + nb, nz))
        g[:m0] = lp.G[:, self.var] * self.sign
        g[m0 + np.arange(nb), first[boxed]] = 1.0
        h = np.concatenate([lp.h - lp.G @ self.off, span])
        senses = np.array(lp.senses + ("le",) * nb, dtype=object)
        self.n_orig_rows = m0

        m = g.shape[0]
        slack_rows = np.nonzero(senses != "eq")[0]
        a = np.hstack([g, np.zeros((m, slack_rows.size))])
        a[slack_rows, nz + np.arange(slack_rows.size)] = \
            np.where(senses[slack_rows] == "le", 1.0, -1.0)
        self.row_sign = np.ones(m)
        b = h.copy()
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0
        self.row_sign[neg] = -1.0
        self.A = a
        self.b = b
        self.nz = nz
        self.c = self.costs(lp.c)[0]
        self.kept_rows = np.arange(m)  # narrowed if redundant rows get dropped

    def costs(self, c):
        """Equality-form cost vector and constant offset of the cost ``c``."""
        c_std = np.zeros(self.A.shape[1])
        c_std[: self.nz] = self.sign * c[self.var]
        return c_std, float(c @ self.off)

    def x_original(self, z):
        x = self.off.copy()
        np.add.at(x, self.var, self.sign * z)
        return x

    def drop_row(self, local_i):
        self.A = np.delete(self.A, local_i, axis=0)
        self.b = np.delete(self.b, local_i)
        self.kept_rows = np.delete(self.kept_rows, local_i)

    def dual_original(self, y):
        """Map equality-form duals back to the original rows (dropped rows -> 0)."""
        full = np.zeros(self.row_sign.size)
        full[self.kept_rows] = y
        full *= self.row_sign
        return full[: self.n_orig_rows]


class _Tableau:
    def __init__(self, a, b, basis):
        m, n = a.shape
        self.T = np.zeros((m + 1, n + 1))
        self.T[:m, :n] = a
        self.T[:m, n] = b
        self.basis = np.asarray(basis, dtype=int)
        self.n = n
        self.m = m
        self.iterations = 0
        self.lex_ref = None  # reference basis of the lexicographic rule
        self._streak = 0

    def set_costs(self, c):
        self.T[-1, :] = 0.0
        self.T[-1, : c.size] = c
        self.T[-1] -= self.T[-1, self.basis] @ self.T[: self.m]

    def pivot(self, r, j):
        self.T[r] /= self.T[r, j]
        col = self.T[:, j].copy()
        col[r] = 0.0
        self.T -= np.outer(col, self.T[r])
        self.T[:, j] = 0.0
        self.T[r, j] = 1.0
        self.basis[r] = j

    def _leaving_row(self, colv):
        """Min-ratio row for an entering column, or None if it proves
        unboundedness."""
        rows = np.nonzero(colv > _TOL)[0]
        if rows.size == 0:
            return None
        ratios = self.T[rows, self.n] / colv[rows]
        ties = rows[ratios <= ratios.min() + _TOL]
        if self.lex_ref is None or ties.size == 1:
            # largest pivot element: the numerically stable choice
            return int(ties[np.argmax(colv[ties])])
        big = ties[colv[ties] >= _PIVOT_MIN]
        ties = big if big.size else ties
        # lexicographic minimum of T[row, ref] / colv; the reference columns
        # started as the identity, so in exact arithmetic no basis repeats
        keys = self.T[np.ix_(ties, self.lex_ref)] / colv[ties, None]
        return int(ties[np.lexsort(keys.T[::-1])[0]])

    def run(self, allowed, budget):
        """Minimize; returns 'optimal', 'unbounded' (with column), or 'maxiter'."""
        # a reference restarts here: phase one's exit pivots may have voided it
        if self.lex_ref is not None:
            self.lex_ref = self.basis.copy()
        done = 0
        while done < budget:
            red = self.T[-1, : self.n]
            eligible = np.nonzero(allowed & (red < -_TOL))[0]
            if eligible.size == 0:
                return "optimal", None
            order = eligible[np.argsort(red[eligible], kind="stable")]
            # Scan candidates most-negative-first, refusing pivot elements so
            # small that dividing by them would amplify roundoff into the
            # tableau.  Settle for the largest-magnitude refusal only when
            # the scan finds nothing better.
            r = j = None
            fall_r = fall_j = None
            fall_mag = -1.0
            for jc in order[:_PIVOT_SCAN]:
                rc = self._leaving_row(self.T[: self.m, jc])
                if rc is None:
                    return "unbounded", int(jc)
                mag = self.T[rc, jc]
                if mag >= _PIVOT_MIN:
                    r, j = rc, int(jc)
                    break
                if mag > fall_mag:
                    fall_r, fall_j, fall_mag = rc, int(jc), mag
            if r is None:
                r, j = fall_r, fall_j
            if self.T[r, self.n] / self.T[r, j] > _TOL:
                self._streak = 0
                self.lex_ref = None  # degenerate vertex escaped
            else:
                self._streak += 1
            self.pivot(r, j)
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
    """y with y @ bmat = cb: cb @ binv, or least squares when the basis is
    singular (``binv`` None)."""
    if binv is None:
        return np.linalg.lstsq(bmat.T, cb, rcond=None)[0]
    return cb @ binv


def _slack_basis(std):
    """Initial basis: per row, the first slack column that survived the sign
    flips as +1 and has no other entry 1.0; -1 where a row has none."""
    unit = std.A[:, std.nz:] == 1.0
    cols = np.nonzero(unit.sum(axis=0) == 1)[0]
    rows, first = np.unique(np.nonzero(unit[:, cols].T)[1], return_index=True)
    basis = np.full(std.A.shape[0], -1, dtype=int)
    basis[rows] = std.nz + cols[first]
    return basis


def _phase_one(std, maxiter):
    """Phase one on ``std``: returns (tableau, None) with a basis of
    structural columns, ready for phase two, or (None, report) when the
    feasible set is empty or phase one hit the iteration cap.  Redundant
    equality rows are dropped from ``std``, whose ``warnings`` says so."""
    if std.bad_bound is not None:
        return None, SolveReport(
            status=Status.INFEASIBLE,
            certificate={"kind": "bounds", "index": std.bad_bound})

    m, ncols = std.A.shape
    basis = _slack_basis(std)
    need_art = np.nonzero(basis == -1)[0]
    n_art = need_art.size
    a_work = np.hstack([std.A, np.zeros((m, n_art))])
    a_work[need_art, ncols + np.arange(n_art)] = 1.0
    basis[need_art] = ncols + np.arange(n_art)

    tab = _Tableau(a_work, std.b, basis)

    if n_art:
        cost1 = np.zeros(ncols + n_art)
        cost1[ncols:] = 1.0
        tab.set_costs(cost1)
        outcome, _ = tab.run(np.ones(ncols + n_art, dtype=bool), maxiter)
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
                standard={"A": std.A, "b": std.b, "c": std.c},
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


def _solves(bmat, zb, b):
    """Whether zb is a nonnegative solution of bmat zb = b to tolerance."""
    resid = float(np.max(np.abs(bmat @ zb - b), initial=0.0))
    return zb.min(initial=0.0) >= -1e-9 and \
        resid <= 1e-7 * (1.0 + float(np.abs(b).max(initial=0.0)))


def _warm_tableau(std, basis, binv):
    """Tableau of ``std`` at ``basis`` re-formed from the untouched data as
    binv @ [A | b], so no pivot roundoff carries over from earlier solves;
    None when ``binv`` is None."""
    if binv is None:
        return None
    t = binv @ std.A
    t[:, basis] = np.eye(basis.size)
    return _Tableau(t, np.maximum(binv @ std.b, 0.0), basis)


def _phase_two(std, tab, cost, maxiter):
    """Minimize ``cost`` from the feasible basis of ``tab`` and certify the
    outcome against the untouched standard form; returns (x, SolveReport,
    binv), ``binv`` the inverse of the final basis matrix when its point
    passes ``_solves`` (the next warm start), else None."""
    ncols = std.A.shape[1]
    c_std, const = std.costs(cost)
    warnings = list(std.warnings)
    allowed = np.zeros(tab.n, dtype=bool)
    allowed[:ncols] = True
    cost2 = np.zeros(tab.n)
    cost2[:ncols] = c_std
    tab.set_costs(cost2)
    outcome, unb_col = tab.run(allowed, maxiter - tab.iterations)

    # re-solve on the untouched matrix to shed pivot error; accept only if the
    # basis system is solved (a near-singular inverse is garbage, no error)
    bmat = std.A[:, tab.basis]
    binv = _inverse(bmat)
    zb = None if binv is None else binv @ std.b
    warm = binv if zb is not None and _solves(bmat, zb, std.b) else None
    z_full = tab.solution()
    if outcome == "optimal" and warm is not None:
        z_full = np.zeros_like(z_full)
        z_full[tab.basis] = np.maximum(zb, 0.0)
    z = z_full[:ncols]
    x = std.x_original(z[: std.nz])
    obj = float(c_std @ z + const)

    if outcome == "unbounded":
        ray = np.zeros(ncols)
        ray[unb_col] = 1.0
        for i, jb in enumerate(tab.basis):
            if jb < ncols:
                ray[jb] = -tab.T[i, unb_col]
        ray_x = std.x_original(ray[: std.nz]) - std.off
        cert = {"kind": "ray", "ray": ray_x, "ray_standard": ray,
                "descent": float(c_std @ ray)}
        return x, SolveReport(status=Status.UNBOUNDED, iterations=tab.iterations,
                              certificate=cert, warnings=warnings,
                              used_bland=tab.lex_ref is not None,
                              standard={"A": std.A, "b": std.b, "c": c_std}), warm

    y = _multipliers(bmat, binv, c_std[tab.basis])
    reduced = c_std - std.A.T @ y
    primal_resid = float(np.max(np.abs(std.A @ z - std.b))) if std.b.size else 0.0
    primal_resid = max(primal_resid, float(max(0.0, -z.min())) if z.size else 0.0)
    dual_infeas = float(max(0.0, -reduced.min())) if reduced.size else 0.0
    comp = float(np.max(np.abs(z * reduced))) if z.size else 0.0
    dual_obj = float(y @ std.b) + const if std.b.size else const
    # certified near-optimality: duality gap plus a cushion for any tiny dual
    # infeasibility (scaled by the iterate's l1 mass; fp-level in practice)
    delta = max(0.0, obj - dual_obj) + dual_infeas * (1.0 + float(np.abs(z).sum()))

    status = Status.OPTIMAL if outcome == "optimal" else Status.MAXITER
    feas_tol = 1e-6 * (1.0 + (float(np.abs(std.b).max()) if std.b.size else 0.0))
    if status is Status.OPTIMAL and primal_resid > feas_tol:
        # a basic point claimed optimal but not feasible is never solved
        status = Status.MAXITER
        warnings.append("pivoting lost primal feasibility; not converged")
    report = SolveReport(
        status=status, objective=obj, iterations=tab.iterations,
        residuals={"primal": primal_resid, "dual": dual_infeas,
                   "comp_slack": comp},
        dual=std.dual_original(y), delta=float(delta),
        used_bland=tab.lex_ref is not None, warnings=warnings,
        standard={"A": std.A, "b": std.b, "c": c_std, "x": z, "y": y})
    return x, report, warm


def solve_lp(lp, maxiter=20000):
    """Solve the LP; returns (x, SolveReport).  x is None unless a basic
    feasible point was reached (optimal or iteration-capped)."""
    return LPSequence(lp, maxiter).solve(lp.c)


class LPSequence:
    """Cost vectors minimized one at a time over the feasible set of ``lp``
    (``lp.c`` is ignored), each ``solve`` capped at ``maxiter`` pivots.

    Phase one runs at the first solve.  Each later solve starts at the basis
    the previous one ended on, with the tableau re-formed from the untouched
    standard-form data through the inverse that certified the previous
    solve, so roundoff does not build up over many solves; a singular basis,
    or one whose point fails ``_solves``, falls back to a fresh phase one.
    Every report carries what ``solve_lp``'s does: re-verified point, duals,
    ``delta``, Farkas vector or ray; its ``iterations`` counts the pivots of
    that solve, phase one included in the solve that ran it.  The first
    solve is the one ``solve_lp`` makes.

    The sequence tallies its solves: ``lps``, ``iterations`` (the sum of
    the reports'), ``not_optimal`` and ``delta``, the largest gap among the
    optimal solves (0 before any).
    """

    def __init__(self, lp, maxiter=20000):
        self.maxiter = maxiter
        self._n = lp.c.size
        self._std = _Standard(lp)
        self._tab = self._stop = None
        self._warm = None   # (basis, inverse) the last solve ended on
        self.lps = self.iterations = self.not_optimal = 0
        self.delta = 0.0

    def solve(self, cost):
        """Minimize ``cost`` over the feasible set; returns (x, SolveReport)."""
        cost = np.asarray(cost, dtype=float).ravel()
        if cost.size != self._n or not np.all(np.isfinite(cost)):
            raise ValueError(f"each cost must be {self._n} finite numbers")
        std, first = self._std, False
        if self._warm is not None:
            self._tab = _warm_tableau(std, *self._warm)
            self._warm = None
        if self._tab is None and self._stop is None:
            self._tab, self._stop = _phase_one(std, self.maxiter)
            first = True
        if self._stop is not None:
            stop = self._stop
            x, report = None, replace(
                stop, iterations=stop.iterations if first else 0,
                standard=stop.standard and dict(stop.standard,
                                                c=std.costs(cost)[0]))
        else:
            x, report, binv = _phase_two(std, self._tab, cost, self.maxiter)
            self._warm = self._tab.basis, binv
        self.lps += 1
        self.iterations += report.iterations
        if report.status is Status.OPTIMAL:
            self.delta = max(self.delta, float(report.delta))
        else:
            self.not_optimal += 1
        return x, report
