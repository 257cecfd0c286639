"""Dense simplex backend: correctness against vertex enumeration plus the
status/certificate contract."""

import copy
import struct

import numpy as np
import pytest

from sparsecert import structures
from sparsecert.engine import LinearProgram, LPSequence, Status, solve_lp
from sparsecert.engine.simplex import _crash_basis, _slack_basis, _Standard
from sparsecert.recovery import RecoveryProblem, _build_recovery_lp

from oracles import (crash_basis_oracle, phase_one_solve, phase_two_oracle,
                     recovery_lp_oracle, reference_tableau_run,
                     slack_basis_oracle, split_free,
                     standard_form_oracle, vertex_enumeration_lp,
                     warm_tableau_oracle)


def _le_and_eq(g, h, senses):
    """(G, h, senses) with each 'ge' row written as the negated 'le' row."""
    ge = np.array([s == "ge" for s in senses], dtype=bool)
    flip = np.where(ge, -1.0, 1.0)
    return g * flip[:, None], h * flip, ["le" if s == "ge" else s
                                         for s in senses]


def random_feasible_lp(rng, n=None, m=None):
    """Bounded LP over x >= 0 with a known interior point: rows x <= 3 after
    the random 'le', 'ge' (negated 'le') and 'eq' rows keep it bounded."""
    n = int(rng.integers(2, 5)) if n is None else n
    m = int(rng.integers(1, 9)) if m is None else m
    g = rng.standard_normal((m, n))
    x0 = rng.uniform(0.2, 1.5, size=n)
    senses = [("le", "ge", "eq")[rng.integers(0, 3)] for _ in range(m)]
    h = g @ x0
    for i, s in enumerate(senses):
        if s == "le":
            h[i] += rng.uniform(0.1, 1.0)
        elif s == "ge":
            h[i] -= rng.uniform(0.1, 1.0)
    c = rng.standard_normal(n)
    g, h, senses = _le_and_eq(g, h, senses)
    return LinearProgram(c=c, G=np.vstack([g, np.eye(n)]),
                         h=np.concatenate([h, np.full(n, 3.0)]),
                         senses=senses + ["le"] * n)


def test_matches_vertex_enumeration(rng):
    for _ in range(60):
        lp = random_feasible_lp(rng)
        x, rep = solve_lp(lp)
        assert rep.status is Status.OPTIMAL
        oracle, _ = vertex_enumeration_lp(lp)
        assert rep.objective == pytest.approx(oracle, abs=1e-8)
        assert np.all(x >= -1e-9) and np.all(x <= 3.0 + 1e-9)


def test_simple_known_solution():
    # max x+y over the unit box, written as a min
    lp = LinearProgram(c=[-1.0, -1.0], G=np.eye(2), h=[1.0, 1.0])
    x, rep = solve_lp(lp)
    assert rep.status is Status.OPTIMAL
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)
    assert rep.objective == pytest.approx(-2.0)


def test_equality_rows():
    lp = LinearProgram(c=[1.0, 2.0, 0.0], G=[[1, 1, 1]], h=[1.0],
                       senses=("eq",))
    x, rep = solve_lp(lp)
    assert rep.status is Status.OPTIMAL
    assert rep.objective == pytest.approx(0.0)       # all mass on x3
    assert x.sum() == pytest.approx(1.0)


def test_infeasible_reports_farkas_certificate():
    # x <= -1 with x >= 0 is empty
    lp = LinearProgram(c=[1.0], G=[[1.0]], h=[-1.0])
    x, rep = solve_lp(lp)
    assert rep.status is Status.INFEASIBLE and x is None
    cert = rep.certificate
    assert cert is not None and cert.get("kind") == "farkas"
    # separation in the equality form: y.b > 0 while y.A <= 0, so no
    # nonnegative x can satisfy Ax = b
    y = np.asarray(cert["y"])
    std = rep.standard
    assert y @ std["b"] > 1e-9
    assert np.max(y @ std["A"]) <= 1e-9
    assert cert["value"] == pytest.approx(float(y @ std["b"]))


def test_unbounded_reports_ray():
    lp = LinearProgram(c=[-1.0, 0.0], G=[[0.0, 1.0]], h=[1.0])
    x, rep = solve_lp(lp)
    assert rep.status is Status.UNBOUNDED and x is None
    ray = np.asarray(rep.certificate["ray"])
    assert float(lp.c @ ray) < -1e-9
    assert np.all(lp.G @ ray <= 1e-9)
    assert np.all(ray >= -1e-9)        # recession direction of x >= 0


def test_unbounded_lps_of_a_batch_have_no_point():
    """x is None for every unbounded LP, solved alone or in the lockstep
    stack of a ``solve_many`` batch, and every one has its ray; the
    bounded LPs around them keep their points."""
    lp = LinearProgram(c=[0.0, 0.0], G=[[0.0, 1.0]], h=[1.0])  # x2 <= 1
    costs = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [2.0, -1.0],
             [1.0, -2.0]]
    unbounded = [False, True, False, True, False, False]
    for out in (LPSequence(lp).solve_many(costs),
                [LPSequence(lp).solve(c) for c in costs]):
        for (x, rep), cost, unb in zip(out, costs, unbounded, strict=True):
            assert (rep.status is Status.UNBOUNDED) == unb
            if unb:
                assert x is None
                assert float(np.dot(cost, rep.certificate["ray"])) < -1e-9
            else:
                assert rep.status is Status.OPTIMAL and x is not None
                assert float(np.dot(cost, x)) == pytest.approx(rep.objective)


def test_degenerate_lp_terminates(rng):
    """Many redundant rows through one vertex; anti-cycling must kick in."""
    for trial in range(15):
        rng_t = np.random.default_rng(trial)
        n = 4
        x0 = np.zeros(n)
        g = rng_t.standard_normal((12, n))
        h = g @ x0          # every row active at the origin
        c = np.abs(rng_t.standard_normal(n))   # bounded: minimized at 0
        lp = LinearProgram(c=c, G=g, h=h, senses=("le",) * 12)
        x, rep = solve_lp(lp)
        assert rep.status is Status.OPTIMAL
        assert rep.objective == pytest.approx(0.0, abs=1e-9)


def test_duals_certify_optimality(rng):
    """Reported duals reproduce the objective (strong duality spot check)."""
    for _ in range(20):
        lp = random_feasible_lp(rng)
        x, rep = solve_lp(lp)
        assert rep.status is Status.OPTIMAL
        assert rep.dual is not None
        y = rep.dual
        # dual feasibility sign convention of a 'le' row
        for i, s in enumerate(lp.senses):
            if s == "le":
                assert y[i] <= 1e-7
        assert rep.delta >= -1e-9       # certified gap is nonnegative


def test_maxiter_is_reported(rng):
    lp = random_feasible_lp(rng, n=4, m=8)
    x, rep = solve_lp(lp, maxiter=1)
    assert rep.status in (Status.MAXITER, Status.OPTIMAL)
    if rep.status is Status.MAXITER:
        assert rep.iterations >= 1


def test_report_residuals_small(rng):
    for _ in range(10):
        lp = random_feasible_lp(rng)
        x, rep = solve_lp(lp)
        assert rep.residuals["primal"] <= 1e-7


# ---------------------------------------------------------------------------
# standard form and warm-started cost sequences


def mixed_bounds_lp(rng, n, m, redundant=False):
    """Feasible LP around a point x0 whose variables are free, lower-bounded,
    upper-bounded or doubly bounded, in random order, written over z >= 0:
    x = lb + z, x = ub - z, a free x as the pair (z+, z-) (``split_free``)
    and a doubly bounded one with a row z <= ub - lb after the others; 'ge'
    rows are negated 'le' rows.  ``redundant`` repeats the first row as an
    equality.  Returns (lp, spread): ``spread`` maps a cost over x, or each
    row of a stack of them, to the LP's columns."""
    g = rng.standard_normal((m, n))
    x0 = rng.uniform(-1.0, 1.5, size=n)
    senses = [("le", "ge", "eq")[rng.integers(0, 3)] for _ in range(m)]
    h = g @ x0
    for i, s in enumerate(senses):
        h[i] += {"le": 1.0, "ge": -1.0, "eq": 0.0}[s] * rng.uniform(0.1, 1.0)
    if redundant:
        senses[0] = "eq"
        h[0] = g[0] @ x0
        g, h, senses = np.vstack([g, g[:1]]), np.append(h, h[0]), senses + ["eq"]
    kind = rng.integers(0, 4, size=n)
    lb = np.where(kind % 2 == 0, -np.inf, x0 - rng.uniform(0.0, 2.0, size=n))
    ub = np.where(kind < 2, np.inf, x0 + rng.uniform(0.0, 2.0, size=n))
    c = rng.standard_normal(n)
    off = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
    mirror = np.where(kind == 2, -1.0, 1.0)
    box = np.nonzero(kind == 3)[0]
    g, h, senses = _le_and_eq(g, h - g @ off, senses)
    split, _ = split_free(kind == 0)

    def spread(cost):
        return split(np.asarray(cost) * mirror)

    return LinearProgram(c=spread(c),
                         G=split(np.vstack([g * mirror, np.eye(n)[box]])),
                         h=np.concatenate([h, (ub - lb)[box]]),
                         senses=senses + ["le"] * box.size), spread


def _same(cost):
    """The ``spread`` of an LP whose columns are its variables."""
    return cost


def test_standard_form_matches_column_by_column_reference(rng):
    for trial in range(60):
        lp, _ = mixed_bounds_lp(rng, int(rng.integers(1, 7)),
                                int(rng.integers(1, 7)))
        if trial % 5 == 0:
            lp.h = lp.h - 10.0       # negative right-hand sides flip rows
        a_ref, b_ref, c_ref = standard_form_oracle(lp)
        std = _Standard(lp)
        assert np.array_equal(std.A, a_ref) and np.array_equal(std.b, b_ref)
        assert np.array_equal(std.costs(lp.c), c_ref) and std.nz == lp.c.size
        x, rep = solve_lp(lp)
        if not rep.warnings:         # no redundant row was dropped
            assert np.array_equal(rep.standard["A"], a_ref)
            assert np.array_equal(rep.standard["b"], b_ref)
            assert np.array_equal(rep.standard["c"], c_ref)
        if rep.status is Status.OPTIMAL:
            assert np.array_equal(x, rep.standard["x"][: lp.c.size])


def test_slack_basis_matches_column_by_column_reference(rng):
    """Phase one's initial basis, built from arrays, is the one the loop over
    slack columns picks, so the pivots that follow do not move."""
    for trial in range(60):
        lp, _ = mixed_bounds_lp(rng, int(rng.integers(1, 7)),
                                int(rng.integers(1, 7)), redundant=trial % 7 == 0)
        if trial % 5 == 0:
            lp.h = lp.h - 10.0       # negative right-hand sides flip rows
        std = _Standard(lp)
        assert np.array_equal(_slack_basis(std), slack_basis_oracle(std))

    class Loose:                     # slack block with stray 1.0 entries
        nz = 2
        A = np.array([[9.0, 1.0, 1.0, 0.0, 1.0, 0.0],
                      [1.0, 0.0, 1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 1.0, -1.0],
                      [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(_slack_basis(Loose), slack_basis_oracle(Loose))
    assert np.array_equal(_slack_basis(Loose), [-1, 3, -1, 5])


def _solve_each(lp, costs):
    """[(x, report)] of each cost in order, solved by one ``LPSequence``."""
    seq = LPSequence(lp)
    return [seq.solve(cost) for cost in costs]


def _assert_same_as_cold(lp, costs):
    """An ``LPSequence`` against one cold solve_lp per cost; returns the warm
    reports."""
    reports = []
    for cost, (x, rep) in zip(costs, _solve_each(lp, costs), strict=True):
        x_cold, cold = _cold(lp, cost)
        assert rep.status is cold.status
        if rep.status is Status.OPTIMAL:
            assert rep.objective == pytest.approx(cold.objective, abs=1e-9)
            assert float(np.dot(cost, x)) == pytest.approx(rep.objective, abs=1e-9)
            assert 0.0 <= rep.delta <= 1e-9
            assert rep.residuals["primal"] <= 1e-9
            assert np.all(x >= -1e-9)
        reports.append(rep)
    return reports


def test_cost_sequence_matches_cold_solves(rng):
    seen = set()
    for _ in range(30):
        n = int(rng.integers(2, 7))
        lp, spread = mixed_bounds_lp(rng, n, int(rng.integers(1, 8)))
        costs = [spread(rng.standard_normal(n)) for _ in range(12)]
        seen.update(r.status for r in _assert_same_as_cold(lp, costs))
    assert Status.OPTIMAL in seen and Status.UNBOUNDED in seen


def test_cost_sequence_first_solve_is_the_cold_solve(rng):
    lp, spread = mixed_bounds_lp(rng, 5, 6)
    cost = spread(rng.standard_normal(5))
    x_cold, cold = _cold(lp, cost)
    (x, rep), = _solve_each(lp, [cost])
    assert np.array_equal(x, x_cold) and rep.iterations == cold.iterations
    assert rep.objective == cold.objective


def _rejects_every_basis(bmat, zb, std):
    """``_solves`` failing every basis: one False per basis of a stack (a
    0-d array for one basis), as the real one answers."""
    return np.zeros(bmat.shape[:-2], dtype=bool)


def _cold(lp, cost):
    return solve_lp(LinearProgram(c=cost, G=lp.G, h=lp.h, senses=lp.senses))


def test_cost_sequence_restarts_phase_one_when_a_basis_fails(rng, monkeypatch):
    """A basis whose point fails ``_solves`` is not re-formed: the next cost
    makes a cold start again, which makes that solve the cold one, pivot
    for pivot."""
    from sparsecert.engine import simplex
    monkeypatch.setattr(simplex, "_solves", _rejects_every_basis)
    lp, spread = mixed_bounds_lp(rng, 5, 6)
    costs = [spread(rng.standard_normal(5)) for _ in range(6)]
    for cost, (x, rep) in zip(costs, _solve_each(lp, costs)):
        x_cold, cold = _cold(lp, cost)
        assert rep.status is cold.status and rep.iterations == cold.iterations
        assert np.array_equal(x, x_cold)


def test_singular_basis_gives_least_squares_duals_and_phase_one(rng, monkeypatch):
    """With the basis inverse forced to fail, every solve still certifies
    its optimum, through least-squares duals and the tableau's own point,
    and every next cost restarts from phase one (a crash basis needs the
    inverse too), pivot for pivot as ``oracles.phase_one_solve``."""
    from sparsecert.engine import simplex
    lp, spread = mixed_bounds_lp(rng, 5, 6)
    costs = [spread(rng.standard_normal(5)) for _ in range(6)]
    colds = [phase_one_solve(LinearProgram(c=cost, G=lp.G, h=lp.h,
                                           senses=lp.senses))
             for cost in costs]
    real_lstsq, fallbacks = np.linalg.lstsq, []

    def lstsq(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(simplex, "_inverse", lambda bmat: None)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    reports = _solve_each(lp, costs)
    for (x_cold, cold), (x, rep) in zip(colds, reports):
        assert rep.status is cold.status and rep.iterations == cold.iterations
        if rep.status is Status.OPTIMAL:
            assert np.allclose(x, x_cold, atol=1e-9)
            assert np.allclose(rep.dual, cold.dual, atol=1e-9)
            assert rep.delta == pytest.approx(cold.delta, abs=1e-9)
    solved = [r for _, r in reports if r.status is not Status.UNBOUNDED]
    assert len(fallbacks) == len(solved) > 0


def test_cost_sequence_duals_match_cold_solves(rng):
    """The duals and ``delta`` a warm solve takes from the basis inverse are
    those of the cold solve of the same cost."""
    compared = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        lp, spread = mixed_bounds_lp(rng, n, int(rng.integers(1, 8)))
        costs = [spread(rng.standard_normal(n)) for _ in range(8)]
        for cost, (_, rep) in zip(costs, _solve_each(lp, costs)):
            _, cold = _cold(lp, cost)
            assert rep.status is cold.status
            if rep.status is Status.OPTIMAL:
                assert np.allclose(rep.dual, cold.dual, rtol=0.0, atol=1e-9)
                assert rep.delta == pytest.approx(cold.delta, abs=1e-9)
                compared += 1
    assert compared > 50


def test_set_costs_matches_row_by_row_pricing(rng):
    """Pricing the cost row in one product gives the row-by-row reference
    to roundoff, with the basic reduced costs exactly zero."""
    from sparsecert.engine import simplex
    for _ in range(20):
        lp, _ = mixed_bounds_lp(rng, 5, 6)
        tab, _ = simplex._phase_one(_Standard(lp), 20000)
        c = rng.standard_normal(tab.n)
        ref = tab.T[-1].copy()
        ref[:] = 0.0
        ref[: c.size] = c
        for i, j in enumerate(tab.basis):
            ref -= ref[j] * tab.T[i]
        tab.set_costs(c)
        assert np.allclose(tab.T[-1], ref, rtol=0.0, atol=1e-12)
        assert np.all(tab.T[-1, tab.basis] == 0.0)


def test_lost_feasibility_optimum_is_maxiter(rng, monkeypatch):
    """A Dantzig solve whose optimal point fails the feasibility check is
    reported MAXITER with a warning, never as solved, and the report counts
    its pivots."""
    from sparsecert.engine import simplex
    lp, _ = mixed_bounds_lp(rng, 5, 6)
    dantzig = solve_lp(lp)[1]
    assert dantzig.status is Status.OPTIMAL and dantzig.iterations > 0
    real = simplex._Tableau.solution
    monkeypatch.setattr(simplex._Tableau, "solution",
                        lambda tab: real(tab) - 1.0)
    monkeypatch.setattr(simplex, "_solves", _rejects_every_basis)
    _, rep = solve_lp(lp)
    assert rep.status is Status.MAXITER
    assert "pivoting lost primal feasibility; not converged" in rep.warnings
    assert rep.iterations == dantzig.iterations


def test_cost_sequence_drops_a_redundant_row(rng):
    for _ in range(10):
        lp, spread = mixed_bounds_lp(rng, 4, 4, redundant=True)
        costs = [spread(rng.standard_normal(4)) for _ in range(8)]
        reports = _assert_same_as_cold(lp, costs)
        rows = lp.G.shape[0] - 1
        for rep in reports:
            # every report built on the reduced form says it was reduced
            assert "dropped 1 redundant row(s)" in rep.warnings
            assert rep.standard["A"].shape[0] == rows


def test_cost_sequence_on_an_empty_set_reports_farkas_every_time():
    # x1 + x2 <= -1 with x >= 0 is empty
    lp = LinearProgram(c=[0.0, 0.0], G=[[1.0, 1.0]], h=[-1.0])
    costs = [[1.0, 0.0], [-1.0, 2.0], [0.0, 0.0]]
    out = _solve_each(lp, costs)
    assert len(out) == 3
    for cost, (x, rep) in zip(costs, out):
        assert x is None and rep.status is Status.INFEASIBLE
        y, std = rep.certificate["y"], rep.standard
        assert y @ std["b"] > 1e-9 and np.max(y @ std["A"]) <= 1e-9
        assert np.array_equal(std["c"][:2], cost)
    # phase one ran once; its pivots are counted on the first report
    assert out[0][1].iterations == solve_lp(lp)[1].iterations
    assert [rep.iterations for _, rep in out[1:]] == [0, 0]


def test_cost_sequence_unbounded_then_bounded():
    # x2 <= 1, x >= 0: x1 is unbounded above
    lp = LinearProgram(c=[0.0, 0.0], G=[[0.0, 1.0]], h=[1.0])
    costs = [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0], [-1.0, -1.0], [2.0, -3.0]]
    reports = _assert_same_as_cold(lp, costs)
    assert [r.status for r in reports] == [
        Status.UNBOUNDED, Status.OPTIMAL, Status.OPTIMAL, Status.UNBOUNDED,
        Status.OPTIMAL]
    assert reports[0].certificate["descent"] < 0
    assert reports[2].objective == pytest.approx(0.0)
    assert reports[4].objective == pytest.approx(-3.0)
    # no rows at all: x >= 0 only
    free_lp = LinearProgram(c=[0.0, 0.0], G=np.zeros((0, 2)), h=[])
    reports = _assert_same_as_cold(free_lp, [[1.0, 2.0], [-1.0, 0.0], [0.0, 1.0]])
    assert [r.status for r in reports] == [
        Status.OPTIMAL, Status.UNBOUNDED, Status.OPTIMAL]


def test_cost_sequence_rejects_a_bad_cost():
    lp = LinearProgram(c=[0.0, 0.0], G=[[1.0, 1.0]], h=[1.0])
    seq = LPSequence(lp)
    with pytest.raises(ValueError):
        seq.solve([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        seq.solve([1.0, np.nan])
    assert seq.lps == 0


def test_sequence_tallies_are_the_sums_of_its_reports(rng):
    """A sequence's ``lps``, ``iterations``, ``not_optimal``, ``delta`` and
    ``starts`` are the count, the pivot sum, the non-optimal count, the
    largest optimal gap and the cold starts by kind of the reports it
    returned: on mixed-bound LPs (optimal and
    unbounded solves), on an empty feasible set, and on a box LP capped at
    one pivot per solve."""
    empty = LinearProgram(c=[0.0, 0.0], G=[[1.0, 1.0]], h=[-1.0])
    box = LinearProgram(c=np.zeros(4), G=rng.uniform(0.5, 1.0, (3, 4)),
                        h=np.ones(3))
    cases = [(*mixed_bounds_lp(rng, 4, int(rng.integers(1, 6))), 20000)
             for _ in range(8)] + [(empty, _same, 20000), (box, _same, 1)]
    seen = set()
    for lp, spread, maxiter in cases:
        seq = LPSequence(lp, maxiter)
        n = 2 if lp is empty else 4
        reports = [seq.solve(spread(rng.standard_normal(n)))[1]
                   for _ in range(8)]
        gaps = [r.delta for r in reports if r.status is Status.OPTIMAL]
        starts = [r.start for r in reports if r.start is not None]
        assert seq.lps == len(reports)
        assert seq.starts == {k: starts.count(k) for k in seq.starts}
        assert sum(seq.starts.values()) == len(starts) >= 1
        assert seq.iterations == sum(r.iterations for r in reports)
        assert seq.not_optimal == len(reports) - len(gaps)
        assert seq.delta == max(gaps, default=0.0)
        seen.update(r.status for r in reports)
    assert seen == set(Status)


def test_warm_tableau_is_built_only_for_a_next_cost(rng, monkeypatch):
    """``solve_lp`` builds no warm tableau, and a sequence of three costs
    builds two, each when its next cost arrives."""
    from sparsecert.engine import simplex
    real, built = simplex._warm_tableau, []

    def counted(*args):
        built.append(args[1].copy())
        return real(*args)

    monkeypatch.setattr(simplex, "_warm_tableau", counted)
    lp, spread = mixed_bounds_lp(rng, 5, 6)
    assert solve_lp(lp)[1].status is Status.OPTIMAL and built == []
    seq = LPSequence(lp)
    for k in range(3):
        seq.solve(spread(rng.standard_normal(5)))
        assert len(built) == k


def test_recovery_lp_pivots_pinned():
    """A seeded l1-fit recovery LP keeps its pivot counts and objective.
    Built by ``recovery._build_recovery_lp``, its residual basis is dual
    feasible, and the dual start takes 18 pivots where phase one and
    phase two took 64.  In the t-epigraph form of ``recovery_lp_oracle``
    every u column costs 0, so the dual steps are zero steps: the dual
    start gives up after ``_DEGENERATE_STREAK`` of them, and phase one
    then takes the 93 pivots it always took."""
    from sparsecert.engine.simplex import _DEGENERATE_STREAK
    from sparsecert.recovery import _build_recovery_lp
    r = np.random.default_rng(11)
    n, m = 30, 15
    st, rep = structures.build_plain(n)
    a = r.standard_normal((m, n))
    x = np.zeros(n)
    x[[3, 17, 22]] = [1.0, -2.0, 0.5]
    prob = RecoveryProblem(a=a, b=rep, y=a @ x + 0.01 * r.standard_normal(m),
                           phi="l1", epsilon=0.05)
    oracle_form = LinearProgram(*recovery_lp_oracle(prob, st, "regular"))
    lp, _ = _build_recovery_lp(prob, st, rep.matrix, "regular")
    cases = [(oracle_form, phase_one_solve, None, 93),
             (oracle_form, solve_lp, "phase_one", 93 + _DEGENERATE_STREAK),
             (lp, phase_one_solve, None, 64), (lp, solve_lp, "dual", 18)]
    for form, solve, start, pivots in cases:
        _, report = solve(form)
        assert report.status is Status.OPTIMAL and not report.used_bland
        assert (report.start, report.iterations) == (start, pivots)
        assert report.objective == pytest.approx(3.4958134631947595,
                                                  rel=1e-12)


def test_certificate_lp_counts_pinned():
    """The LP and pivot counts of a seeded brute-force verdict (plain n=12,
    m=7, s=3) and of a seeded synthesis (plain n=16, m=10, s=1), pinned:
    a change to pivot choice moves them, and the outputs alone may not.
    Stage one and every round of the brute force run as lockstep batches,
    every LP from the basis the batch's first LP ended on."""
    from sparsecert.certify.bruteforce import gamma_s_bruteforce
    from sparsecert.certify.synthesis import synth_certificate_group
    st, _ = structures.build_plain(12)
    a = np.random.default_rng(3).standard_normal((7, 12))
    d = gamma_s_bruteforce(a, st, 3).details
    assert (d["lp_count"], d["lp_iterations"]) == (132, 898)
    st, rep = structures.build_plain(16)
    a = np.random.default_rng(0).standard_normal((10, 16))
    d = synth_certificate_group(a, rep.matrix, st, 1, phi="l1").details
    assert (d["stage_one_iterations"], d["stage_two_iterations"],
            d["beta_lps"]) == (135, 236, 13)


def test_pivot_loop_matches_reference_loop(rng, monkeypatch):
    """Every ``_Tableau.run`` makes the (row, column) pivots of the reference
    loop (``oracles.reference_tableau_run``) and ends with a bitwise-equal
    tableau, basis, pivot count and lexicographic state.  The LPs cover
    phase one with artificial columns, warm phase two, a degenerate LP that
    turns the lexicographic rule on, a first candidate whose pivot element
    is below ``_PIVOT_MIN`` (the scan, and its fallback), an unbounded
    column and min ratios that differ by less than ``_TOL``."""
    from sparsecert.engine import simplex
    real_run, seen, runs = simplex._Tableau.run, set(), []

    def checked(tab, ncols, budget):
        ref, ref_path, path = copy.deepcopy(tab), [], []
        expect = reference_tableau_run(ref, np.arange(tab.n) < ncols, budget,
                                       ref_path, seen)
        tab.pivot = lambda r, j: (path.append((r, j)),
                                  simplex._Tableau.pivot(tab, r, j))[1]
        try:
            out = real_run(tab, ncols, budget)
        finally:
            del tab.pivot
        assert out == expect and path == ref_path
        assert tab.T.tobytes() == ref.T.tobytes()
        assert np.array_equal(tab.basis, ref.basis)
        assert tab.iterations == ref.iterations and tab._streak == ref._streak
        assert (tab.lex_ref is None) == (ref.lex_ref is None)
        if tab.lex_ref is not None:
            assert np.array_equal(tab.lex_ref, ref.lex_ref)
        runs.append((ncols < tab.n, len(path)))
        return out

    monkeypatch.setattr(simplex._Tableau, "run", checked)
    for _ in range(6):   # phase one with artificials, then warm phase two
        lp, spread = mixed_bounds_lp(rng, 5, 6)
        seq = LPSequence(lp)
        for _ in range(4):
            seq.solve(spread(rng.standard_normal(5)))
    r = np.random.default_rng(1)   # 40 rows through the origin, x <= 1
    g = r.standard_normal((40, 10))
    degenerate = LinearProgram(c=r.standard_normal(10),
                               G=np.vstack([g, np.eye(10)]),
                               h=np.concatenate([np.zeros(40), np.ones(10)]))
    assert solve_lp(degenerate)[1].status is Status.OPTIMAL
    assert "lex" in seen
    tiny = LinearProgram(c=[-1.0, -0.5], G=[[1e-8, 1.0]], h=[1.0])
    assert solve_lp(tiny)[1].objective == pytest.approx(-1e8)
    unbounded = LinearProgram(c=[-1.0, 0.0], G=[[1.0, -1.0]], h=[1.0])
    assert solve_lp(unbounded)[1].status is Status.UNBOUNDED
    # ratios 1 and 1 + 1e-10 tie; the larger pivot element (row 2) leaves
    near = LinearProgram(c=[-1.0, -1.0], G=[[1.0, 1.0], [2.0, 0.5]],
                         h=[1.0, 2.0 + 2e-10])
    assert solve_lp(near)[1].status is Status.OPTIMAL
    assert seen == {"near tie", "lex", "scan", "fallback", "unbounded"}
    # phase two after artificial columns left the basis, and pivots ran
    assert any(prefix for prefix, _ in runs)
    assert sum(k for _, k in runs) > 50


def _same_bits(a, b):
    """Equality bit for bit: arrays by dtype, shape and bytes, floats by
    their IEEE-754 bits (so -0.0 and NaN count), containers item by item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and \
            a.dtype == b.dtype and a.shape == b.shape and \
            a.tobytes() == b.tobytes()
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and \
            struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and \
            all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and \
            all(_same_bits(u, v) for u, v in zip(a, b))
    return a == b


def test_phase_two_matches_reference_epilogue(rng, monkeypatch):
    """Every ``_phase_two`` returns, bit for bit, what the earlier epilogue
    (``oracles.phase_two_oracle``) returns on a copy of its tableau: the
    point, every report field (status, objective, ``delta``, duals,
    residuals, warnings, ray) and the warm inverse with its point.  The
    solves cover warm sequences with optimal and unbounded costs, one that
    dropped a redundant row, MAXITER at a one-pivot cap, the downgrade of
    an optimum that lost feasibility and the least-squares duals of a
    singular basis."""
    from sparsecert.engine import simplex
    real, seen = simplex._phase_two, []

    def checked(std, tab, cost, maxiter):
        ref = phase_two_oracle(std, copy.deepcopy(tab), cost, maxiter)
        out = real(std, tab, cost, maxiter)
        assert _same_bits(out[0], ref[0]) and _same_bits(out[2], ref[2])
        assert _same_bits(vars(out[1]), vars(ref[1]))
        seen.append((out[1].status, tuple(out[1].warnings), out[2][0] is None))
        return out

    monkeypatch.setattr(simplex, "_phase_two", checked)
    box = LinearProgram(c=np.zeros(4), G=rng.uniform(0.5, 1.0, (3, 4)),
                        h=np.ones(3))
    cases = [(*mixed_bounds_lp(rng, 5, int(rng.integers(2, 8))), 5, 20000)
             for _ in range(8)]
    cases += [(*mixed_bounds_lp(rng, 4, 4, redundant=True), 4, 20000),
              (box, _same, 4, 1)]
    for lp, spread, n, maxiter in cases:
        seq = LPSequence(lp, maxiter)
        for _ in range(6):
            seq.solve(spread(rng.standard_normal(n)))
    with monkeypatch.context() as mp:
        # an optimum that lost feasibility: a nonbasic structural variable
        # at -1e-3, whose column is below 1 in every row, so the negative
        # entry and not the row residual sets the primal residual
        solution = simplex._Tableau.solution

        def lowered(tab):
            z = solution(tab)
            z[min(set(range(3)) - set(tab.basis))] = -1e-3
            return z

        mp.setattr(simplex._Tableau, "solution", lowered)
        mp.setattr(simplex, "_solves", _rejects_every_basis)
        small = LinearProgram(c=-np.ones(3), G=rng.uniform(0.1, 0.9, (2, 3)),
                              h=np.ones(2))
        assert solve_lp(small)[1].residuals["primal"] == 1e-3
    lp, spread = mixed_bounds_lp(rng, 5, 6)
    with monkeypatch.context() as mp:   # singular basis: least-squares duals
        mp.setattr(simplex, "_inverse", lambda bmat: None)
        seq = LPSequence(lp)
        for _ in range(3):
            seq.solve(spread(rng.standard_normal(5)))
    statuses = {status for status, _, _ in seen}
    assert statuses == {Status.OPTIMAL, Status.UNBOUNDED, Status.MAXITER}
    assert any("dropped 1 redundant row(s)" in w for _, w, _ in seen)
    assert any("pivoting lost primal feasibility; not converged" in w
               for _, w, _ in seen)
    assert sum(no_warm for _, _, no_warm in seen) >= 4


def test_warm_tableau_matches_reference_formula(rng, monkeypatch):
    """At every warm start the tableau written in place holds, bit for bit,
    the rows of ``oracles.warm_tableau_oracle`` (binv @ A with unit basis
    columns beside the clipped point binv @ b, from the untouched standard
    form), under a cost row that phase two prices.  One sequence dropped a
    redundant row in phase one."""
    from sparsecert.engine import simplex
    real, built = simplex._warm_tableau, []

    def checked(std, basis, binv, zb):
        tab = real(std, basis, binv, zb)
        m, n = std.A.shape
        assert tab.T.shape == (m + 1, n + 1) and (tab.m, tab.n) == (m, n)
        assert tab.T[:m].tobytes() == warm_tableau_oracle(std, basis).tobytes()
        assert tab.basis is basis and tab.iterations == 0
        built.append(any("dropped" in w for w in std.warnings))
        return tab

    monkeypatch.setattr(simplex, "_warm_tableau", checked)
    lps = [(*mixed_bounds_lp(rng, 5, int(rng.integers(2, 8))), 5)
           for _ in range(8)]
    lps.append((*mixed_bounds_lp(rng, 4, 4, redundant=True), 4))
    for lp, spread, n in lps:
        seq = LPSequence(lp)
        for _ in range(6):
            seq.solve(spread(rng.standard_normal(n)))
    assert len(built) > 30 and any(built)


def test_pivot_leaves_an_exact_unit_column(rng):
    """``_Tableau.pivot`` does not write column j, yet leaves it exactly the
    unit column of row r (x / x is 1 and x - x * 1 is +0.0, also for
    x = -0.0), and the whole tableau equals, bit for bit, a pivot that
    writes the column: random tableaus with pivot elements of either sign
    from 1e-300 to 1e300."""
    from sparsecert.engine import simplex
    for _ in range(300):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 20))
        t = rng.standard_normal((m + 1, n + 1))
        r, j = int(rng.integers(0, m)), int(rng.integers(0, n))
        t[rng.random(m + 1) < 0.2, j] = -0.0
        t[rng.random(m + 1) < 0.2, j] = 0.0
        t[r, j] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)
        tab = simplex._Tableau(t.copy(), np.arange(m))
        tab.pivot(r, j)
        ref = t.copy()
        ref[r] /= ref[r, j]
        col = ref[:, j].copy()
        col[r] = 0.0
        ref -= np.outer(col, ref[r])
        ref[:, j] = 0.0
        ref[r, j] = 1.0
        unit = np.zeros(m + 1)
        unit[r] = 1.0
        assert tab.T[:, j].tobytes() == unit.tobytes()
        assert tab.T.tobytes() == ref.tobytes() and tab.basis[r] == j


def test_crash_basis_matches_row_by_row_reference(rng):
    """The vectorized crash basis is the one the loop over rows and columns
    picks: on mixed-bound LPs with sparse rows and flipped signs (rows with
    no candidate column give None), on seeded recovery LPs, whose slack and
    residual columns compete, and with no rows at all."""
    picked = 0
    for trial in range(60):
        lp, _ = mixed_bounds_lp(rng, int(rng.integers(1, 7)),
                                int(rng.integers(1, 7)))
        lp.G[rng.random(lp.G.shape) < 0.4] = 0.0
        if trial % 3 == 0:
            lp.h = lp.h - 5.0
        std = _Standard(lp)
        c_std = std.costs(np.where(rng.random(lp.c.size) < 0.5, 0.0, lp.c))
        ref = crash_basis_oracle(std, c_std)
        got = _crash_basis(std, c_std)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(got, ref)
            picked += 1
    for lp in _recovery_lps(seeds=(0,)):
        std = _Standard(lp)
        c_std = std.costs(lp.c)
        ref = crash_basis_oracle(std, c_std)
        assert ref is not None and np.array_equal(_crash_basis(std, c_std), ref)
        picked += 1
    assert picked > 20
    empty = _Standard(LinearProgram(c=[1.0, -1.0], G=np.zeros((0, 2)), h=[]))
    assert _crash_basis(empty, np.ones(2)).size == 0


def _recovery_lps(seeds=(0, 1, 2)):
    """Seeded l1- and linf-fit recovery LPs of ``recovery._build_recovery_lp``:
    regular with eps = 0.05 and penalized with lam = 1.5, on plain n=24 and
    on 8 triples with l1 and with linf blocks, m = 12."""
    structs = [structures.build_plain(24)[0]] + [
        structures.build_group([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)],
                               [1.0] * 8, tag)[0] for tag in ("l1", "linf")]
    lps = []
    for seed in seeds:
        r = np.random.default_rng([seed, 20])
        a = r.standard_normal((12, 24))
        x = np.zeros(24)
        x[r.choice(24, 3, replace=False)] = r.standard_normal(3)
        for st in structs:
            for phi in ("l1", "linf"):
                xi = r.standard_normal(12)
                xi *= 0.02 / np.abs(xi).max()
                prob = RecoveryProblem(a=a, b=None, y=a @ x + xi, phi=phi,
                                       epsilon=0.05)
                for mode in ("regular", "penalized"):
                    lps.append(_build_recovery_lp(prob, st, None, mode, 1.5)[0])
    return lps


def test_crash_and_dual_starts_match_phase_one_on_recovery_lps():
    """On seeded l1/linf recovery LPs (regular with eps > 0 and penalized,
    plain and l1/linf blocks) the crash or dual start ends with phase
    one's status and objective to 1e-9 relative; every start occurs."""
    starts = set()
    for lp in _recovery_lps():
        x, rep = solve_lp(lp)
        x_ref, ref = phase_one_solve(lp)
        assert ref.status is Status.OPTIMAL and rep.status is ref.status
        assert rep.objective == pytest.approx(ref.objective, rel=1e-9)
        assert 0.0 <= rep.delta <= 1e-9 * (1.0 + abs(rep.objective))
        assert rep.residuals["primal"] <= 1e-9
        starts.add(rep.start)
    assert starts == {"crash", "dual", "phase_one"}


def _infeasible_l1_fit(seed):
    """Regular l1 recovery LP whose eps is half the least l1 fit of an
    overdetermined A u = y (m = 16, n = 8)."""
    r = np.random.default_rng(seed)
    st, rep = structures.build_plain(8)
    a, y = r.standard_normal((16, 8)), r.standard_normal(16)
    prob = RecoveryProblem(a=a, b=rep, y=y, phi="l1", epsilon=1e6)
    lp, _ = _build_recovery_lp(prob, st, rep.matrix, "regular")
    fit_cost = np.zeros(lp.c.size)
    fit_cost[-32:] = 1.0
    least = solve_lp(LinearProgram(c=fit_cost, G=lp.G, h=lp.h,
                                   senses=lp.senses))[1].objective
    lp.h[-1] = 0.5 * least
    return lp


def test_eps_below_the_least_fit_ends_infeasible_with_farkas():
    """The dual start meets a row with no negative entry and hands over to
    phase one, whose Farkas vector proves the LP empty; the report counts
    the dual pivots too."""
    for seed in range(3):
        lp = _infeasible_l1_fit(seed)
        x, rep = solve_lp(lp)
        _, ref = phase_one_solve(lp)
        assert x is None and rep.status is Status.INFEASIBLE
        assert rep.start == "phase_one" and rep.iterations > ref.iterations
        cert, std = rep.certificate, rep.standard
        assert cert["kind"] == "farkas"
        assert cert["y"] @ std["b"] > 1e-9
        assert np.max(cert["y"] @ std["A"]) <= 1e-9


def test_maxiter_caps_dual_and_primal_pivots_together():
    """``solve_lp(lp, maxiter=k)`` makes at most k pivots across the dual
    loop, phase one and phase two, and ends as the uncapped solve once k
    exceeds its count (the last loop needs a pass that makes no pivot): on
    a dual start, on one that gives up after zero steps and on one that
    meets an empty feasible set."""
    r = np.random.default_rng(11)
    st, rep = structures.build_plain(30)
    a = r.standard_normal((15, 30))
    prob = RecoveryProblem(a=a, b=rep, y=a @ np.eye(30)[3] + 0.01 *
                           r.standard_normal(15), phi="l1", epsilon=0.05)
    oracle_form = LinearProgram(*recovery_lp_oracle(prob, st, "regular"))
    lps = [_build_recovery_lp(prob, st, rep.matrix, "regular")[0],
           oracle_form, _infeasible_l1_fit(0)]
    for lp in lps:
        _, full = solve_lp(lp)
        for k in range(full.iterations + 2):
            _, capped = solve_lp(lp, maxiter=k)
            assert capped.iterations <= k
            if k <= full.iterations:
                assert capped.status is Status.MAXITER
            else:
                assert capped.status is full.status
                assert capped.iterations == full.iterations


def test_equality_fit_keeps_the_phase_one_path():
    """With eps = 0 the data rows A u = y have no crash column, so the
    recovery LP starts at phase one and keeps its pivots and point."""
    for seed in range(3):
        r = np.random.default_rng(seed)
        for st in (structures.build_plain(24)[0],
                   structures.build_group([[3 * i, 3 * i + 1, 3 * i + 2]
                                           for i in range(8)], [1.0] * 8,
                                          "linf")[0]):
            a = r.standard_normal((12, 24))
            prob = RecoveryProblem(a=a, b=None, y=a @ np.eye(24)[5],
                                   phi="l1", epsilon=0.0)
            lp = _build_recovery_lp(prob, st, None, "regular")[0]
            x, rep = solve_lp(lp)
            x_ref, ref = phase_one_solve(lp)
            assert rep.start == "phase_one" and rep.iterations == ref.iterations
            assert np.array_equal(x, x_ref) and rep.objective == ref.objective


# ---------------------------------------------------------------------------
# lockstep batches


def _from_first_basis(lp, costs, maxiter=20000):
    """Each cost solved by ``solve`` from the basis the first cost ended on:
    a fresh sequence solves the first cost, then that cost."""
    out = []
    for i, cost in enumerate(costs):
        seq = LPSequence(lp, maxiter)
        if i:
            seq.solve(costs[0])
        out.append(seq.solve(cost))
    return out


def _assert_batch_is_solve(lp, costs, maxiter=20000):
    """``solve_many`` against ``solve`` from the same warm basis: the same
    status and pivots, the same objective, point, duals and report bit for
    bit, and every optimal point a nonnegative solution of the untouched
    standard form (what ``_solves`` accepts); returns the reports."""
    seq = LPSequence(lp, maxiter)
    got = seq.solve_many(costs)
    reports = []
    for (x, rep), (x_ref, ref) in zip(got, _from_first_basis(lp, costs, maxiter),
                                      strict=True):
        assert (rep.status, rep.iterations) == (ref.status, ref.iterations)
        assert _same_bits(x, x_ref) and _same_bits(vars(rep), vars(ref))
        if rep.status is Status.OPTIMAL:
            assert rep.objective == pytest.approx(ref.objective, rel=1e-9,
                                                  abs=1e-9)
            std, z = rep.standard, rep.standard["x"]
            scale = 1.0 + np.max(np.abs(std["b"]), initial=0.0)
            assert z.min(initial=0.0) >= -1e-9
            assert np.max(np.abs(std["A"] @ z - std["b"]),
                          initial=0.0) <= 1e-7 * scale
        reports.append(rep)
    assert seq.lps == len(costs)
    assert seq.iterations == sum(r.iterations for r in reports)
    return reports


def _degenerate_lp(seed):
    """30 rows through the origin in 15 variables in [0, 1] (rows x <= 1
    after them): a vertex where long streaks of zero steps turn the
    lexicographic rule on."""
    r = np.random.default_rng(seed)
    return LinearProgram(c=np.zeros(15),
                         G=np.vstack([r.standard_normal((30, 15)), np.eye(15)]),
                         h=np.concatenate([np.zeros(30), np.ones(15)]))


def test_solve_many_is_solve_from_the_first_basis(rng):
    """Seeded LPs with mixed bounds, a redundant row, degenerate vertices and
    costs unbounded over the set, k = 1 to 20 costs and pivot caps of 2, 3
    and 20,000: every LP of a batch reports what ``solve`` reports from the
    basis the batch's first LP ended on."""
    seen = set()
    for trial in range(60):
        n = int(rng.integers(2, 8))
        if trial % 6 == 5:
            lp, spread, n = _degenerate_lp(trial), _same, 15
        else:
            lp, spread = mixed_bounds_lp(rng, n, int(rng.integers(1, 8)),
                                         redundant=trial % 6 == 4)
        k = 1 + trial % 20
        maxiter = (2, 3, 20000, 20000)[trial % 4]
        reports = _assert_batch_is_solve(
            lp, spread(rng.standard_normal((k, n))), maxiter)
        seen.update(r.status for r in reports)
    assert seen == {Status.OPTIMAL, Status.UNBOUNDED, Status.MAXITER}


def test_solve_many_of_one_cost_is_solve(rng):
    """A batch of one is ``solve``: the same x, duals, pivots and start."""
    for _ in range(10):
        lp, spread = mixed_bounds_lp(rng, 5, 6)
        cost = spread(rng.standard_normal(5))
        (x, rep), = LPSequence(lp).solve_many([cost])
        x_ref, ref = LPSequence(lp).solve(cost)
        assert _same_bits(x, x_ref) and _same_bits(vars(rep), vars(ref))
        assert rep.start == ref.start is not None


def test_solve_many_hands_lps_out_of_the_stack(rng, monkeypatch):
    """LPs leave the stack mid-batch, before its last LP, and finish in
    ``_Tableau.run``: after a pivot element below ``_PIVOT_MIN`` (x1 enters
    on the row 1e-8 x1 + x2 <= 1) and after ``_DEGENERATE_STREAK`` zero
    steps (the lexicographic rule on); they, and the LPs around them,
    report what ``solve`` reports."""
    from sparsecert.engine import simplex
    real_run, real_lockstep, batches = simplex._Tableau.run, \
        simplex._lockstep, []

    def run(tab, ncols, budget):
        if batches and batches[-1][0]:    # a hand-over from the stack
            red = tab.T[-1, :ncols]
            j = int(red.argmin())
            colv, rhs = tab.T[:-1, j], tab.T[:-1, -1]
            pos = colv > simplex._TOL
            ratio = np.where(pos, rhs / np.where(pos, colv, 1.0), np.inf)
            tiny = bool(red[j] < -simplex._TOL and np.isfinite(ratio.min())
                        and colv[ratio.argmin()] < simplex._PIVOT_MIN)
            batches[-1][1].append((tiny, tab.lex_ref is not None))
        return real_run(tab, ncols, budget)

    def lockstep(tab, c_std, maxiter):
        batches.append([True, []])
        try:
            return real_lockstep(tab, c_std, maxiter)
        finally:
            batches[-1][0] = False

    monkeypatch.setattr(simplex._Tableau, "run", run)
    monkeypatch.setattr(simplex, "_lockstep", lockstep)
    tiny = LinearProgram(c=[0.0, 0.0], G=[[1e-8, 1.0]], h=[1.0])
    costs = [[0.0, 1.0], [-1.0, -0.5], [-1.0, 1.0], [0.0, -1.0], [1.0, 1.0]]
    reports = _assert_batch_is_solve(tiny, np.array(costs))
    assert reports[1].objective == pytest.approx(-1e8)
    assert any(t for t, _ in batches[-1][1][:-1])
    for seed in range(6):
        # the first cost ends at the origin, where all 30 rows meet
        costs = np.vstack([np.ones(15), rng.standard_normal((24, 15))])
        _assert_batch_is_solve(_degenerate_lp(seed), costs)
    assert any(lex for _, handed in batches for _, lex in handed[:-1])


def test_solve_many_in_update_blocks_and_with_a_singular_stack(
        rng, monkeypatch):
    """A stack updated in blocks of LPs, one LP or three to a block (the
    last one short), and a stack whose inverse fails, so each LP is
    certified as a stack of one: first with every LP's own inverse found,
    then with the bases some LPs end on singular as well, which gives those
    LPs least-squares duals, the tableau's own point and no warm inverse.
    Every LP reports what ``solve`` reports."""
    from sparsecert.engine import simplex
    lps = [mixed_bounds_lp(rng, 5, 6) for _ in range(6)]
    real_pivot, blocks = simplex._pivot, []

    def pivot(t, basis, r, j, piv, at=()):
        if at:
            blocks.append(at[0].size)
        return real_pivot(t, basis, r, j, piv, at)

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_pivot", pivot)
        for lp, spread in lps:
            m, n = LPSequence(lp)._std.A.shape
            for per in (1, 3):
                mp.setattr(simplex, "_UPDATE_CELLS", per * (m + 1) * (n + 1))
                blocks.clear()
                _assert_batch_is_solve(lp, spread(rng.standard_normal((9, 5))))
                assert blocks and max(blocks) == per
    real_inverse, real_certify = simplex._inverse, simplex._certify
    singular, failed, batched, least_squares = [], [], [], []

    def inverse(bmat):
        # a batch's stack fails, and so does a lone basis in ``singular``
        if bmat.ndim == 3 and (len(bmat) > 1 or any(
                np.array_equal(bmat[0], s) for s in singular)):
            failed.append(len(bmat))
            return None
        return real_inverse(bmat)

    def certify(std, tabs, runs, c_std):
        out = real_certify(std, tabs, runs, c_std)
        for tab, c, (_, rep, warm) in zip(tabs, c_std, out):
            bmat = std.A[:, tab.basis]
            if any(np.array_equal(bmat, s) for s in singular):
                assert warm == (None, None)
                if rep.status is not Status.UNBOUNDED:
                    y = np.linalg.lstsq(bmat.T, c[tab.basis], rcond=None)[0]
                    assert _same_bits(rep.standard["y"], y)
                    assert _same_bits(rep.standard["x"],
                                      tab.solution()[: std.A.shape[1]])
                    least_squares.append(rep.status)
            if len(tabs) > 1:   # what the batch hands its sequence
                batched.append(warm[0] is not None)
        return out

    monkeypatch.setattr(simplex, "_inverse", inverse)
    monkeypatch.setattr(simplex, "_certify", certify)
    for lp, spread in lps:
        costs = spread(rng.standard_normal((9, 5)))
        singular.clear()
        seq = LPSequence(lp)
        seq.solve(costs[0])
        std = seq._std
        if seq._warm[1] is None:
            continue    # no basis to start a stack from
        tabs, _ = simplex._lockstep(simplex._warm_tableau(std, *seq._warm),
                                    std.costs(costs[1:]), 20000)
        # a basis a batch LP ends on, not the first LP's
        ends = [std.A[:, tab.basis] for tab in tabs
                if not np.array_equal(tab.basis, seq._warm[0])]
        for also_singular in (False, True):
            singular[:] = ends[-1:] if also_singular else []
            failed.clear()
            batched.clear()
            _assert_batch_is_solve(lp, costs)
            assert max(failed) == 8 and len(batched) == 8 and any(batched)
            assert all(batched) == (not singular)
    assert Status.OPTIMAL in least_squares


def test_lockstep_tableaus_own_their_data(rng):
    """Each final tableau of ``_lockstep`` owns its table and basis, so a
    finished LP holds one tableau, never a view that keeps a whole
    (compacted-away) stack alive."""
    from sparsecert.engine import simplex
    checked = 0
    while checked < 5:
        lp, spread = mixed_bounds_lp(rng, 5, 6)
        seq = LPSequence(lp)
        seq.solve(spread(rng.standard_normal(5)))
        if seq._warm is None or seq._warm[1] is None:
            continue    # no basis to start a stack from
        std = seq._std
        c_std = std.costs(spread(rng.standard_normal((8, 5))))
        tabs, _ = simplex._lockstep(simplex._warm_tableau(std, *seq._warm),
                                    c_std, 20000)
        assert all(tab.T.base is None and tab.basis.base is None
                   for tab in tabs)
        checked += 1


def test_solves_run_without_the_numpy_2_vector_products(rng, monkeypatch):
    """The package asks for numpy >= 1.24, which has no ``np.matvec``,
    ``np.vecmat`` or ``np.vecdot``: with them gone, ``solve``, ``solve_lp``
    and ``solve_many`` still run and report what they report with them."""
    def solved(lp, c):
        return [(x, vars(rep)) for x, rep in
                [solve_lp(lp)] + LPSequence(lp).solve_many(c)]

    lps, spreads = zip(*[mixed_bounds_lp(rng, 5, 6) for _ in range(4)])
    costs = [spread(rng.standard_normal((7, 5))) for spread in spreads]
    want = [solved(lp, c) for lp, c in zip(lps, costs)]
    for name in ("matvec", "vecmat", "vecdot"):
        monkeypatch.delattr(np, name, raising=False)
    for lp, c, ref in zip(lps, costs, want):
        assert _same_bits(solved(lp, c), ref)


def test_solve_many_reverifies_every_lp(rng, monkeypatch):
    """Every LP of a batch is certified from the untouched standard form: a
    basic value knocked off by 1e-3 in the stacked tableau is replaced by
    binv @ b when the basis passes ``_solves``, and an optimum whose basis
    fails it is reported MAXITER, never OPTIMAL."""
    from sparsecert.engine import simplex
    real_lockstep, real_solves = simplex._lockstep, simplex._solves

    def knocked(tab, c_std, maxiter):
        tabs, runs = real_lockstep(tab, c_std, maxiter)
        for final in tabs:
            final.T[0, -1] += 1e-3
        return tabs, runs

    lps, spreads = zip(*[mixed_bounds_lp(rng, 5, 6) for _ in range(6)])
    costs = [spread(rng.standard_normal((8, 5))) for spread in spreads]
    clean = [LPSequence(lp).solve_many(c) for lp, c in zip(lps, costs)]
    monkeypatch.setattr(simplex, "_lockstep", knocked)
    for lp, c, want in zip(lps, costs, clean):
        for (x, rep), (x_ref, ref) in zip(LPSequence(lp).solve_many(c), want):
            assert _same_bits(x, x_ref) and _same_bits(vars(rep), vars(ref))
    # the bases of the batch's stack fail ``_solves``; the first LP's, a
    # stack of one, passes
    monkeypatch.setattr(simplex, "_solves", lambda bmat, zb, std: real_solves(
        bmat, zb, std) if len(bmat) == 1 else np.zeros(len(bmat), bool))
    downgraded = 0
    for lp, c, want in zip(lps, costs, clean):
        for (_, rep), (_, ref) in zip(LPSequence(lp).solve_many(c)[1:],
                                      want[1:]):
            if ref.status is Status.OPTIMAL:
                assert rep.status is Status.MAXITER
                assert "pivoting lost primal feasibility; not converged" \
                    in rep.warnings
                downgraded += 1
    assert downgraded > 20


def test_solve_many_on_an_empty_set_and_its_tallies(rng):
    """On an empty feasible set every cost reports the Farkas vector, with
    phase one's pivots on the first; the tallies are the sums of the
    reports; a bad cost is refused before any solve, and no costs solve
    nothing."""
    empty = LinearProgram(c=[0.0, 0.0], G=[[1.0, 1.0]], h=[-1.0])
    seq = LPSequence(empty)
    out = seq.solve_many(rng.standard_normal((4, 2)))
    assert [rep.status for _, rep in out] == [Status.INFEASIBLE] * 4
    assert all(x is None for x, _ in out)
    assert out[0][1].iterations == solve_lp(empty)[1].iterations
    assert [rep.iterations for _, rep in out[1:]] == [0, 0, 0]
    assert (seq.lps, seq.not_optimal, seq.starts["phase_one"]) == (4, 4, 1)
    lp, spread = mixed_bounds_lp(rng, 4, 5)
    n = lp.c.size
    seq = LPSequence(lp)
    reports = [rep for _, rep in
               seq.solve_many(spread(rng.standard_normal((9, 4))))]
    gaps = [r.delta for r in reports if r.status is Status.OPTIMAL]
    starts = [r.start for r in reports if r.start is not None]
    assert seq.starts == {k: starts.count(k) for k in seq.starts}
    assert seq.iterations == sum(r.iterations for r in reports)
    assert seq.not_optimal == len(reports) - len(gaps)
    assert seq.delta == max(gaps, default=0.0)
    seq = LPSequence(lp)
    for bad in ([[1.0] * (n + 1)], [[1.0, np.nan] + [0.0] * (n - 2)],
                [1.0] * n):
        with pytest.raises(ValueError):
            seq.solve_many(bad)
    assert seq.solve_many(np.zeros((0, n))) == [] and seq.lps == 0


def test_non_finite_data_written_after_construction_is_refused():
    """A right-hand side, cost or matrix entry set to NaN or inf after the
    ``LinearProgram`` was made is refused by name when it is solved, before
    it reaches the ratio test."""
    for field, index, value in (("h", 0, np.nan), ("c", 1, np.inf),
                                ("G", (1, 0), np.nan)):
        lp = LinearProgram(c=[1, 1], G=[[-1, -1], [1, -1]], h=[-1, 2],
                           senses=("le", "eq"))
        getattr(lp, field)[index] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            solve_lp(lp)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LPSequence(lp)


def test_one_lp_form():
    """Every LP is min c.x over x >= 0 with 'le' and 'eq' rows: bounds and
    'ge' rows are refused, and the standard form holds no variable
    transform, only the LP's columns and one slack per 'le' row."""
    with pytest.raises(TypeError):
        LinearProgram(c=[1.0], G=[[1.0]], h=[1.0], lb=[-1.0])
    with pytest.raises(ValueError, match="senses"):
        LinearProgram(c=[1.0], G=[[1.0]], h=[1.0], senses=("ge",))
    std = _Standard(LinearProgram(c=[1.0, 2.0], G=[[1.0, 1.0], [1.0, -1.0]],
                                  h=[1.0, -2.0], senses=("le", "eq")))
    assert np.array_equal(std.A, [[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0]])
    assert np.array_equal(std.b, [1.0, 2.0]) and std.nz == 2
    assert not {"var", "sign", "off", "free", "bad_bound"} & set(vars(std))
