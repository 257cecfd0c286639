"""Dense simplex backend: correctness against vertex enumeration plus the
status/certificate contract."""

import numpy as np
import pytest

from sparsecert import structures
from sparsecert.engine import LinearProgram, LPSequence, Status, solve_lp
from sparsecert.engine.simplex import _slack_basis, _Standard
from sparsecert.recovery import RecoveryProblem

from oracles import (recovery_lp_oracle, slack_basis_oracle,
                     standard_form_oracle, vertex_enumeration_lp)


def random_feasible_lp(rng, n=None, m=None):
    """Bounded LP with a known interior point (boxes keep it bounded)."""
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
    ub = np.full(n, 3.0)
    return LinearProgram(c=c, G=g, h=h, senses=senses, ub=ub)


def test_matches_vertex_enumeration(rng):
    for _ in range(60):
        lp = random_feasible_lp(rng)
        x, rep = solve_lp(lp)
        assert rep.status is Status.OPTIMAL
        oracle, _ = vertex_enumeration_lp(lp)
        assert rep.objective == pytest.approx(oracle, abs=1e-8)
        assert np.all(x >= lp.lb - 1e-9) and np.all(x <= lp.ub + 1e-9)


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


def test_free_variables_via_bounds():
    # minimize x subject to x >= -4 with free upper end
    lp = LinearProgram(c=[1.0], G=np.zeros((0, 1)), h=[],
                       lb=[-4.0], ub=[np.inf])
    x, rep = solve_lp(lp)
    assert rep.status is Status.OPTIMAL
    assert x[0] == pytest.approx(-4.0)


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
    assert rep.status is Status.UNBOUNDED
    ray = np.asarray(rep.certificate["ray"])
    assert float(lp.c @ ray) < -1e-9
    assert np.all(lp.G @ ray <= 1e-9)
    assert np.all(ray >= -1e-9)        # recession direction of x >= 0


def test_crossed_bounds_are_infeasible():
    lp = LinearProgram(c=[1.0], G=np.zeros((0, 1)), h=[],
                       lb=[2.0], ub=[1.0])
    x, rep = solve_lp(lp)
    assert rep.status is Status.INFEASIBLE


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
        # dual feasibility sign conventions per row sense
        for i, s in enumerate(lp.senses):
            if s == "le":
                assert y[i] <= 1e-7
            elif s == "ge":
                assert y[i] >= -1e-7
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
    upper-bounded or doubly bounded, in random order; ``redundant`` repeats
    the first row as an equality."""
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
    return LinearProgram(c=rng.standard_normal(n), G=g, h=h, senses=senses,
                         lb=lb, ub=ub)


def test_standard_form_matches_column_by_column_reference(rng):
    for trial in range(60):
        lp = mixed_bounds_lp(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        if trial % 5 == 0:
            lp.h = lp.h - 10.0       # negative right-hand sides flip rows
        a_ref, b_ref, c_ref, x_original = standard_form_oracle(lp)
        std = _Standard(lp)
        assert np.array_equal(std.A, a_ref) and np.array_equal(std.b, b_ref)
        assert np.array_equal(std.c, c_ref)
        z = rng.uniform(0.0, 2.0, size=c_ref.size)
        assert np.array_equal(std.x_original(z[: std.nz]), x_original(z))
        x, rep = solve_lp(lp)
        if not rep.warnings:         # no redundant row was dropped
            assert np.array_equal(rep.standard["A"], a_ref)
            assert np.array_equal(rep.standard["b"], b_ref)
            assert np.array_equal(rep.standard["c"], c_ref)
        if rep.status is Status.OPTIMAL:
            assert np.array_equal(x, x_original(rep.standard["x"]))
    crossed = LinearProgram(c=[1.0, 1.0], G=np.zeros((0, 2)), h=[],
                            lb=[0.0, 2.0], ub=[1.0, 1.0])
    assert standard_form_oracle(crossed) is None
    _, rep = solve_lp(crossed)
    assert rep.certificate == {"kind": "bounds", "index": 1}


def test_slack_basis_matches_column_by_column_reference(rng):
    """Phase one's initial basis, built from arrays, is the one the loop over
    slack columns picks, so the pivots that follow do not move."""
    for trial in range(60):
        lp = mixed_bounds_lp(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)),
                             redundant=trial % 7 == 0)
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
        x_cold, cold = solve_lp(LinearProgram(c=cost, G=lp.G, h=lp.h,
                                              senses=lp.senses, lb=lp.lb, ub=lp.ub))
        assert rep.status is cold.status
        if rep.status is Status.OPTIMAL:
            assert rep.objective == pytest.approx(cold.objective, abs=1e-9)
            assert float(np.dot(cost, x)) == pytest.approx(rep.objective, abs=1e-9)
            assert 0.0 <= rep.delta <= 1e-9
            assert rep.residuals["primal"] <= 1e-9
            assert np.all(x >= lp.lb - 1e-9) and np.all(x <= lp.ub + 1e-9)
        reports.append(rep)
    return reports


def test_cost_sequence_matches_cold_solves(rng):
    seen = set()
    for _ in range(30):
        n = int(rng.integers(2, 7))
        lp = mixed_bounds_lp(rng, n, int(rng.integers(1, 8)))
        costs = [rng.standard_normal(n) for _ in range(12)]
        seen.update(r.status for r in _assert_same_as_cold(lp, costs))
    assert Status.OPTIMAL in seen and Status.UNBOUNDED in seen


def test_cost_sequence_first_solve_is_the_cold_solve(rng):
    lp = mixed_bounds_lp(rng, 5, 6)
    cost = rng.standard_normal(5)
    x_cold, cold = solve_lp(LinearProgram(c=cost, G=lp.G, h=lp.h,
                                          senses=lp.senses, lb=lp.lb, ub=lp.ub))
    (x, rep), = _solve_each(lp, [cost])
    assert np.array_equal(x, x_cold) and rep.iterations == cold.iterations
    assert rep.objective == cold.objective


def _cold(lp, cost):
    return solve_lp(LinearProgram(c=cost, G=lp.G, h=lp.h, senses=lp.senses,
                                  lb=lp.lb, ub=lp.ub))


def test_cost_sequence_restarts_phase_one_when_a_basis_fails(rng, monkeypatch):
    """A basis whose point fails ``_solves`` is not re-formed: the next cost
    goes through phase one again, which makes that solve the cold one,
    pivot for pivot."""
    from sparsecert.engine import simplex
    monkeypatch.setattr(simplex, "_solves", lambda bmat, zb, b: False)
    lp = mixed_bounds_lp(rng, 5, 6)
    costs = [rng.standard_normal(5) for _ in range(6)]
    for cost, (x, rep) in zip(costs, _solve_each(lp, costs)):
        x_cold, cold = _cold(lp, cost)
        assert rep.status is cold.status and rep.iterations == cold.iterations
        assert np.array_equal(x, x_cold)


def test_singular_basis_gives_least_squares_duals_and_phase_one(rng, monkeypatch):
    """With the basis inverse forced to fail, every solve still certifies
    its optimum, through least-squares duals and the tableau's own point,
    and every next cost restarts from phase one."""
    from sparsecert.engine import simplex
    lp = mixed_bounds_lp(rng, 5, 6)
    costs = [rng.standard_normal(5) for _ in range(6)]
    colds = [_cold(lp, cost) for cost in costs]
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
        lp = mixed_bounds_lp(rng, n, int(rng.integers(1, 8)))
        costs = [rng.standard_normal(n) for _ in range(8)]
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
        lp = mixed_bounds_lp(rng, 5, 6)
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
    lp = mixed_bounds_lp(rng, 5, 6)
    dantzig = solve_lp(lp)[1]
    assert dantzig.status is Status.OPTIMAL and dantzig.iterations > 0
    real = simplex._Tableau.solution
    monkeypatch.setattr(simplex._Tableau, "solution",
                        lambda tab: real(tab) - 1.0)
    monkeypatch.setattr(simplex, "_solves", lambda bmat, zb, b: False)
    _, rep = solve_lp(lp)
    assert rep.status is Status.MAXITER
    assert "pivoting lost primal feasibility; not converged" in rep.warnings
    assert rep.iterations == dantzig.iterations


def test_cost_sequence_drops_a_redundant_row(rng):
    for _ in range(10):
        lp = mixed_bounds_lp(rng, 4, 4, redundant=True)
        costs = [rng.standard_normal(4) for _ in range(8)]
        reports = _assert_same_as_cold(lp, costs)
        rows = lp.G.shape[0] - 1 + int(np.sum(np.isfinite(lp.lb) & np.isfinite(lp.ub)))
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
    """A sequence's ``lps``, ``iterations``, ``not_optimal`` and ``delta``
    are the count, the pivot sum, the non-optimal count and the largest
    optimal gap of the reports it returned: on mixed-bound LPs (optimal and
    unbounded solves), on an empty feasible set, and on a box LP capped at
    one pivot per solve."""
    empty = LinearProgram(c=[0.0, 0.0], G=[[1.0, 1.0]], h=[-1.0])
    box = LinearProgram(c=np.zeros(4), G=rng.uniform(0.5, 1.0, (3, 4)),
                        h=np.ones(3))
    cases = [(mixed_bounds_lp(rng, 4, int(rng.integers(1, 6))), 20000)
             for _ in range(8)] + [(empty, 20000), (box, 1)]
    seen = set()
    for lp, maxiter in cases:
        seq = LPSequence(lp, maxiter)
        reports = [seq.solve(rng.standard_normal(lp.c.size))[1]
                   for _ in range(8)]
        gaps = [r.delta for r in reports if r.status is Status.OPTIMAL]
        assert seq.lps == len(reports)
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
    lp = mixed_bounds_lp(rng, 5, 6)
    assert solve_lp(lp)[1].status is Status.OPTIMAL and built == []
    seq = LPSequence(lp)
    for k in range(3):
        seq.solve(rng.standard_normal(5))
        assert len(built) == k


def test_recovery_lp_pivots_pinned():
    """Splitting solve_lp into its two phases keeps its pivot sequence: a
    seeded recovery LP in the t-epigraph form of ``recovery_lp_oracle``
    takes the 93 pivots and reaches the objective it did before the
    split."""
    r = np.random.default_rng(11)
    n, m = 30, 15
    st, rep = structures.build_plain(n)
    a = r.standard_normal((m, n))
    x = np.zeros(n)
    x[[3, 17, 22]] = [1.0, -2.0, 0.5]
    prob = RecoveryProblem(a=a, b=rep, y=a @ x + 0.01 * r.standard_normal(m),
                           phi="l1", epsilon=0.05)
    c, g, h, senses, lb = recovery_lp_oracle(prob, st, "regular")
    _, report = solve_lp(LinearProgram(c=c, G=g, h=h, senses=senses, lb=lb))
    assert report.status is Status.OPTIMAL and not report.used_bland
    assert report.iterations == 93
    assert report.objective == pytest.approx(3.4958134631947595, rel=1e-12)
