"""Release gate: eight end-to-end criteria, one test each.

Each test prints a single ``criterion N (<label>): PASS/FAIL - detail`` line
(run pytest with -s to see them) and then asserts.  Trial counts, tolerances
and runtime budgets are contractual; do not shrink them for a slow machine.

Combinatorial oracle comparisons ("exact") are asserted at 1e-12: both sides
pick the same index sets, but double-precision addition is order-sensitive,
so the sums can differ in the last ulp.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sparsecert import norms, structures
from sparsecert.certify import (badnews_check, certify_lowrank,
                                check_condition_Cs, gamma_s_bruteforce,
                                opt_bar, opt_star, rearrange,
                                synth_certificate_group, theta)
from sparsecert.engine import LinearProgram, Status, solve_lp
from sparsecert.recovery import (ErrorBudget, RecoveryProblem, error_bound,
                                 recover_penalized, recover_regular)
from sparsecert.structures import verify_axioms

from oracles import (best_group_approx_oracle, best_plain_approx_oracle,
                     pi_s_oracle, ps_oracle, top_sum_oracle,
                     vertex_enumeration_lp)

acceptance = pytest.mark.acceptance


def _verdict(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _three_structures():
    stp = structures.build_plain(10)
    stg = structures.build_group([(0, 1, 2), (2, 3), (4, 5, 6), (6, 7),
                                  (8, 9)], block_norm="l2")
    stl = structures.build_lowrank(4, 3)
    return stp, stg, stl


# ---------------------------------------------------------------------------
# 1. projector axioms


@acceptance
def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    worst = math.inf
    for st in _three_structures():
        rep = verify_axioms(st, trials=10_000, seed=101)
        assert rep.ok
        worst = min(worst, min(rep.worst_margin.values()))
    dt = time.perf_counter() - t0
    _verdict(1, "axiom suite", worst >= -1e-9 and dt < 10.0,
             f"3x10^4 randomized checks, min margin {worst:.1e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. the decomposition inequality behind every recovery proof


@acceptance
def test_criterion_2_decomposition_inequality():
    worst = math.inf
    for st in _three_structures():
        rng = np.random.default_rng(202)
        dim = st.ambient_dim_e
        for _ in range(10_000):
            proj = structures.random_projector(st, rng)
            w = structures.project(st, proj, rng.standard_normal(dim))
            z = rng.standard_normal(dim)
            lhs = norms.structure_norm(st, w + z)
            rhs = (norms.structure_norm(st, w)
                   + norms.structure_norm(
                       st, structures.project(st, proj, z, "complement"))
                   - norms.structure_norm(st, structures.project(st, proj, z)))
            worst = min(worst, lhs - rhs)
    _verdict(2, "decomposition inequality", worst >= -1e-9,
             f"3x10^4 (w, z, P) triples, min margin {worst:.1e}")


# ---------------------------------------------------------------------------
# 3. noiseless exactness under a brute-force certificate, plus a failure case


@acceptance
def test_criterion_3_noiseless_exactness():
    t0 = time.perf_counter()
    st = structures.build_plain(12)
    a = np.random.default_rng(6).standard_normal((8, 12))

    worst_err = 0.0
    patterns = 0
    for s in (1, 2):
        verdict = gamma_s_bruteforce(a, st, s)
        assert verdict.certified_good and verdict.gamma_value < 0.5
        for support in itertools.combinations(range(12), s):
            for signs in itertools.product((1.0, -1.0), repeat=s):
                x0 = np.zeros(12)
                x0[list(support)] = signs
                prob = RecoveryProblem(a=a, b=None, y=a @ x0, phi="l1",
                                       epsilon=0.0)
                res = recover_regular(prob, st)
                worst_err = max(worst_err,
                                float(np.max(np.abs(res.x_hat - x0))))
                patterns += 1
    assert patterns == 24 + 264

    # single all-ones row: gamma_1 = 1/2, and the kernel witness yields two
    # unit 1-sparse signals with identical measurements.  The solver maps the
    # shared y to one point, so it must miss at least one of them.
    ones = np.ones((1, 12))
    bad = gamma_s_bruteforce(ones, st, 1)
    assert bad.status == "CertifiedBad" and bad.gamma_value >= 0.5
    z = bad.witness
    assert z is not None and abs(float(z.sum())) <= 1e-9 * np.abs(z).sum()
    i = int(np.argmax(z))
    j = int(np.argmin(z))
    assert z[i] > 0.0 > z[j]
    sig_a = np.zeros(12)
    sig_a[i] = 1.0
    sig_b = np.zeros(12)
    sig_b[j] = 1.0
    y = ones @ sig_a
    assert np.allclose(ones @ sig_b, y)
    res = recover_regular(RecoveryProblem(a=ones, b=None, y=y, phi="l1",
                                          epsilon=0.0), st)
    miss = max(float(np.max(np.abs(res.x_hat - sig_a))),
               float(np.max(np.abs(res.x_hat - sig_b))))
    dt = time.perf_counter() - t0
    _verdict(3, "noiseless exactness",
             worst_err <= 1e-6 and miss > 1e-6 and dt < 120.0,
             f"{patterns} signed patterns, max |x_hat - x0| = {worst_err:.1e}; "
             f"ones-row counterexample missed by {miss:.2f}; {dt:.1f}s")


# ---------------------------------------------------------------------------
# 4. closed-form error bounds hold on noisy trials


@acceptance
def test_criterion_4_error_bounds():
    st = structures.build_plain(12)
    a = np.random.default_rng(6).standard_normal((8, 12))
    cert = synth_certificate_group(a, None, st, 1, phi="l1")
    assert cert.valid and cert.gamma < 1.0

    rng = np.random.default_rng(404)
    min_slack_reg = math.inf
    min_slack_pen = math.inf
    for _ in range(200):
        eps = 0.5 * rng.uniform(1e-3, 1.0)
        x0 = np.zeros(12)
        x0[rng.integers(12)] = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        eta = rng.standard_normal(8)
        eta *= rng.uniform(0.0, 1.0) * eps / np.abs(eta).sum()
        prob = RecoveryProblem(a=a, b=None, y=a @ x0 + eta, phi="l1",
                               epsilon=eps)

        res = recover_regular(prob, st)
        err = float(np.abs(res.x_hat - x0).sum())
        bound = error_bound(cert.gamma, cert.beta,
                            ErrorBudget(epsilon=eps), "regular")
        min_slack_reg = min(min_slack_reg, bound - err)

        pen = recover_penalized(prob, st, lam=cert.beta)
        errp = float(np.abs(pen.x_hat - x0).sum())
        boundp = error_bound(cert.gamma, cert.beta,
                             ErrorBudget(lam=cert.beta,
                                         phi_xi=float(np.abs(eta).sum())),
                             "penalized")
        min_slack_pen = min(min_slack_pen, boundp - errp)

    ok = min_slack_reg >= -1e-6 and min_slack_pen >= -1e-6
    _verdict(4, "error bound validity", ok,
             f"200 noisy trials, gamma={cert.gamma:.4f}; min slack "
             f"regular {min_slack_reg:.1e}, penalized {min_slack_pen:.1e}")


# ---------------------------------------------------------------------------
# 5. library primitives vs. exhaustive oracles


def _random_box_lp(rng, n, m):
    # 'ge' rows written as negated 'le' rows; rows x <= 3 close the box
    g = rng.standard_normal((m, n))
    x0 = rng.uniform(0.2, 1.5, size=n)
    senses = [("le", "ge", "eq")[rng.integers(0, 3)] for _ in range(m)]
    h = g @ x0
    for k, sense in enumerate(senses):
        if sense == "le":
            h[k] += rng.uniform(0.1, 1.0)
        elif sense == "ge":
            h[k] -= rng.uniform(0.1, 1.0)
            g[k], h[k], senses[k] = -g[k], -h[k], "le"
    return LinearProgram(c=rng.standard_normal(n), G=np.vstack([g, np.eye(n)]),
                         h=np.concatenate([h, np.full(n, 3.0)]),
                         senses=senses + ["le"] * n)


def _random_coercive_lp(rng, n, m):
    # no upper box; positive costs over x >= 0 keep the minimum attained
    g = rng.standard_normal((m, n))
    x0 = rng.uniform(0.2, 1.5, size=n)
    h = g @ x0 + rng.uniform(0.1, 1.0, size=m)
    return LinearProgram(c=rng.uniform(0.2, 1.5, size=n), G=g, h=h,
                         senses=["le"] * m)


@acceptance
def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(505)

    worst_comb = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 13))
        w = rng.standard_normal(n) * rng.choice((0.1, 1.0, 10.0))
        k = int(rng.integers(1, n + 1))
        worst_comb = max(worst_comb,
                         abs(norms.sum_top(w, k) - top_sum_oracle(w, k)))

    for _ in range(150):
        nb = int(rng.integers(1, 7))
        chi = rng.integers(1, 3, size=nb).astype(float)
        u = rng.standard_normal(nb)
        s = float(rng.integers(1, int(chi.sum()) + 1))
        worst_comb = max(worst_comb, abs(norms.pi_s(u, chi, s)
                                         - pi_s_oracle(u, chi, s)))

    stp = structures.build_plain(12)
    stg = structures.build_group([(0, 1), (2, 3, 4), (5,), (6, 7)],
                                 weights=[1.0, 2.0, 1.0, 1.0],
                                 block_norm="l2")
    stl = structures.build_lowrank(4, 3)
    worst_svd = 0.0
    for _ in range(100):
        wp = rng.standard_normal(12)
        wg = rng.standard_normal(8)
        wl = rng.standard_normal(12)
        sp = int(rng.integers(1, 13))
        sg = int(rng.integers(1, 6))
        sl = int(rng.integers(1, 4))
        worst_comb = max(
            worst_comb,
            abs(norms.ps_seminorm(stp, wp, sp) - ps_oracle(stp, wp, sp)),
            abs(norms.ps_seminorm(stg, wg, sg) - ps_oracle(stg, wg, sg)),
            abs(structures.best_sparse_approx(stp, wp, sp).delta_x
                - best_plain_approx_oracle(wp, sp)),
            abs(structures.best_sparse_approx(stg, wg, sg).delta_x
                - best_group_approx_oracle(stg, wg, sg)))
        worst_svd = max(
            worst_svd,
            abs(norms.ps_seminorm(stl, wl, sl) - ps_oracle(stl, wl, sl)))
        tail = np.linalg.svd(wl.reshape(4, 3), compute_uv=False)[sl:].sum()
        worst_svd = max(worst_svd, abs(
            structures.best_sparse_approx(stl, wl, sl).delta_x - tail))

    worst_lp = 0.0
    sizes = [2] * 60 + [3] * 55 + [4] * 45 + [5] * 20 + [6] * 15
    for n in sizes:
        lp = _random_box_lp(rng, n, int(rng.integers(1, 9)))
        x, repo = solve_lp(lp)
        assert repo.status is Status.OPTIMAL
        oracle, _ = vertex_enumeration_lp(lp)
        worst_lp = max(worst_lp, abs(repo.objective - oracle))
    for n, count in ((8, 3), (12, 2)):
        for _ in range(count):
            lp = _random_coercive_lp(rng, n, 8)
            x, repo = solve_lp(lp)
            assert repo.status is Status.OPTIMAL
            oracle, _ = vertex_enumeration_lp(lp)
            worst_lp = max(worst_lp, abs(repo.objective - oracle))

    ok = worst_comb <= 1e-12 and worst_svd <= 1e-9 and worst_lp <= 1e-8
    _verdict(5, "oracle equivalence", ok,
             f"combinatorial dev {worst_comb:.1e}, svd dev {worst_svd:.1e}, "
             f"200 LPs dev {worst_lp:.1e}")


# ---------------------------------------------------------------------------
# 6. singleton groups with unit weights collapse to the plain structure


@acceptance
def test_criterion_6_group_reduction():
    n = 8
    stp = structures.build_plain(n)
    stg = structures.build_group([(i,) for i in range(n)],
                                 weights=[1.0] * n, block_norm="l1")
    assert np.array_equal(stg.b, np.eye(n))

    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(3):
        a = rng.standard_normal((5, n))
        for s in (1, 2):
            vp = gamma_s_bruteforce(a, stp, s)
            vg = gamma_s_bruteforce(a, stg, s, b=None)
            worst = max(worst, abs(vp.gamma_value - vg.gamma_value))
            cp = synth_certificate_group(a, None, stp, s, phi="l1")
            cg = synth_certificate_group(a, None, stg, s, phi="l1")
            worst = max(worst, abs(cp.gamma - cg.gamma),
                        abs(cp.beta - cg.beta))

        x0 = np.zeros(n)
        x0[[1, 5]] = [1.5, -0.7]
        y = a @ x0
        for phi, eps in (("linf", 0.05), ("l1", 0.0)):
            pp = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=eps)
            pg = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=eps)
            rp = recover_regular(pp, stp)
            rg = recover_regular(pg, stg)
            worst = max(worst, float(np.max(np.abs(rp.x_hat - rg.x_hat))))
            qp = recover_penalized(pp, stp, lam=2.0)
            qg = recover_penalized(pg, stg, lam=2.0)
            worst = max(worst, float(np.max(np.abs(qp.x_hat - qg.x_hat))))

    _verdict(6, "singleton-group reduction", worst <= 1e-8,
             f"gamma/certificate/recovery max deviation {worst:.1e}")


# ---------------------------------------------------------------------------
# 7. the low-rank certification chain


@acceptance
def test_criterion_7_lowrank_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    shapes = ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4))

    worst_theta = 0.0
    for t in range(100):
        p, q = shapes[t % len(shapes)]
        w = rng.standard_normal((p * q, p * q))
        h = rng.standard_normal((p, q))
        z = rng.standard_normal((p, q))
        wz = (w @ z.ravel()).reshape(p, q)
        lhs = float(np.sum(theta(w, p, q) * np.kron(h.T, z)))
        worst_theta = max(worst_theta, abs(lhs - float(np.trace(wz @ h.T))))

    worst_rearr = 0.0
    for t in range(100):
        p, q = shapes[t % len(shapes)]
        h = rng.standard_normal((p, q))
        w = rng.standard_normal((p, q))
        u = np.kron(h.T, w)
        mp = rearrange(u, "Mprime", p, q)
        md = rearrange(u, "Mdprime", p, q)
        worst_rearr = max(
            worst_rearr,
            float(np.max(np.abs(mp - np.kron(h, w)))),
            float(np.max(np.abs(md - np.outer(h.ravel(), w.T.ravel())))))

    worst_id = 0.0
    for p in range(1, 5):
        for q in range(1, p + 1):
            for s in range(1, q + 1):
                if 2 * s > p * q:
                    continue
                worst_id = max(worst_id,
                               abs(opt_bar(np.eye(p * q), s, p, q) - 3.0 * s))

    bracket_ok = True
    for t in range(50):
        p, q = ((2, 2), (3, 2), (3, 3))[t % 3]
        w = rng.standard_normal((p * q, p * q))
        bar = opt_bar(w, 1, p, q)
        star = opt_star(w, 1, p, q, iters=300)
        sampled = 0.0
        for _ in range(200):
            z = np.outer(rng.standard_normal(p), rng.standard_normal(q))
            z /= np.linalg.svd(z, compute_uv=False).sum()
            sv = np.linalg.svd((w @ z.ravel()).reshape(p, q),
                               compute_uv=False)
            sampled = max(sampled, float(sv[0] + sv[:2].sum()))
        bracket_ok = bracket_ok and sampled - 1e-6 <= star <= bar + 1e-6

    floor_ok = True
    for t in range(50):
        p, q = shapes[t % len(shapes)]
        m = int(rng.integers(1, p * q + 1))
        a = rng.standard_normal((m, p * q))
        h = rng.standard_normal((m, p * q))
        _, _, holds = badnews_check(a, h, 1, p, q)
        floor_ok = floor_ok and holds

    dt = time.perf_counter() - t0
    ok = (worst_theta <= 1e-10 and worst_rearr <= 1e-12
          and worst_id <= 1e-9 and bracket_ok and floor_ok and dt < 300.0)
    _verdict(7, "low-rank chain", ok,
             f"bilinearity dev {worst_theta:.1e}, rearrangement dev "
             f"{worst_rearr:.1e}, identity-value dev {worst_id:.1e}, "
             f"50 brackets ok={bracket_ok}, 50 floors ok={floor_ok}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 8. every valid certificate survives the randomized checker and delivers
#    exact noiseless recovery


@acceptance
def test_criterion_8_certificate_soundness():
    results = []

    # plain, synthesized
    stp = structures.build_plain(12)
    ap = np.random.default_rng(6).standard_normal((8, 12))
    cp = synth_certificate_group(ap, None, stp, 1, phi="l1")
    results.append(("plain", ap, stp, cp))

    # group, synthesized
    stg = structures.build_group([(0, 1), (2, 3), (4, 5)],
                                 block_norm="l1")
    ag = np.random.default_rng(20).standard_normal((5, 6))
    cg = synth_certificate_group(ag, None, stg, 1, phi="l1")
    results.append(("group", ag, stg, cg))

    # low-rank, pseudoinverse candidate
    r = np.random.default_rng(2)
    al = np.eye(9) + 0.1 * r.standard_normal((9, 9))
    stl = structures.build_lowrank(3, 3)
    cl = certify_lowrank(al, s=1, phi="l1", p=3, q=3, iters=400)
    results.append(("lowrank", al, stl, cl))

    details = []
    ok = True
    rng = np.random.default_rng(808)
    for name, a, st, cert in results:
        assert cert.valid and cert.gamma < 1.0
        chk = check_condition_Cs(a, None, st, 1, cert.gamma, cert.beta,
                                 cert.phi, trials=10_000, seed=909)
        ok = ok and chk.ok and chk.violation is None

        worst_err = 0.0
        for _ in range(50):
            if st.kind == "plain":
                x0 = np.zeros(st.n)
                x0[rng.integers(st.n)] = (rng.uniform(0.5, 2.0)
                                          * rng.choice((-1.0, 1.0)))
            elif st.kind == "group":
                x0 = np.zeros(st.ambient_dim_x)
                blk = st.blocks[rng.integers(len(st.blocks))]
                x0[list(blk)] = rng.uniform(-2.0, 2.0, size=len(blk))
            else:
                x0 = rng.uniform(0.5, 2.0) * np.outer(
                    rng.standard_normal(3), rng.standard_normal(3)).ravel()
            phi = "l1" if st.kind != "lowrank" else "l2"
            prob = RecoveryProblem(a=a, b=None, y=a @ x0, phi=phi, epsilon=0.0)
            res = recover_regular(prob, st, tol=1e-10)
            worst_err = max(worst_err, float(np.max(np.abs(res.x_hat - x0))))
        ok = ok and worst_err <= 1e-6
        details.append(f"{name}: gamma={cert.gamma:.3f}, checker margin "
                       f"{chk.worst_margin:.1e}, recovery err {worst_err:.1e}")

    _verdict(8, "certificate soundness", ok, "; ".join(details))
