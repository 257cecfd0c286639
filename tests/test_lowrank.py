"""Low-rank certification chain: rearrangements, the two upper bounds,
the pseudoinverse certificate, and the universal floor."""

import math

import numpy as np
import pytest

from sparsecert import structures
from sparsecert.certify import badnews_check, certify_lowrank, lowrank, \
    opt_bar, opt_star
from sparsecert.certify.lowrank import rearrange, theta

from oracles import exact_linf_beta_oracle


def random_operator(rng, p, q):
    return rng.standard_normal((p * q, p * q))


def kron_pair(h, z):
    """kron(h^T, z), the bilinear probe the rearrangements act on."""
    return np.kron(h.T, z)


def test_theta_bilinearity(rng):
    """<Theta[W], kron(h^T, z)> = Tr((W z) h^T) on random triples."""
    for p, q in ((2, 2), (3, 2), (4, 3)):
        for _ in range(35):
            w = random_operator(rng, p, q)
            h = rng.standard_normal((p, q))
            z = rng.standard_normal((p, q))
            wz = (w @ z.ravel()).reshape(p, q)
            lhs = float(np.sum(theta(w, p, q) * kron_pair(h, z)))
            rhs = float(np.trace(wz @ h.T))
            assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


def test_theta_of_left_multiplication(rng):
    """W z = m z has matrix kron(m, I_q) on row-major vec(z), and then
    Theta[W][b*p + c, a*q + d] = m[a, c] * (b == d); anything but a
    pq x pq matrix is refused."""
    p, q = 3, 2
    m = rng.standard_normal((p, p))
    want = np.zeros((p * q, p * q))
    for a in range(p):
        for b in range(q):
            for c in range(p):
                want[b * p + c, a * q + b] = m[a, c]
    assert np.array_equal(theta(np.kron(m, np.eye(q)), p, q), want)
    for bad in (np.eye(p * q - 1), np.kron(m, np.eye(q))[:, :-1]):
        with pytest.raises(ValueError):
            theta(bad, p, q)
    with pytest.raises(TypeError):
        theta(lambda z: m @ z, p, q)


def test_theta_of_identity_is_a_permutation():
    for p, q in ((2, 2), (3, 4)):
        t = theta(np.eye(p * q), p, q)
        assert set(np.unique(t)) <= {0.0, 1.0}
        assert np.allclose(t @ t.T, np.eye(p * q), atol=1e-14)


def test_rearrangements_hit_their_defining_identities(rng):
    for p, q in ((2, 2), (3, 2), (4, 3)):
        for _ in range(35):
            h = rng.standard_normal((p, q))
            w = rng.standard_normal((p, q))
            u = kron_pair(h, w)
            mp = rearrange(u, "Mprime", p, q)
            assert np.allclose(mp, np.kron(h, w), atol=1e-12)
            md = rearrange(u, "Mdprime", p, q)
            fh = h.ravel()                  # rows stacked
            gw = w.T.ravel()                # columns stacked
            assert np.allclose(md, np.outer(fh, gw), atol=1e-12)


def test_rearrangements_are_entry_bijections(rng):
    p, q = 3, 2
    u = rng.standard_normal((p * q, p * q))
    for which in ("Mprime", "Mdprime"):
        v = rearrange(u, which, p, q)
        assert sorted(v.ravel()) == pytest.approx(sorted(u.ravel()))
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(u))
    with pytest.raises(ValueError):
        rearrange(u, "Mtriple", p, q)
    with pytest.raises(ValueError):
        rearrange(np.eye(3), "Mprime", p, q)


def test_mdprime_nuclear_bound_on_extreme_points(rng):
    """Rank-k extreme h gives ||M''(kron(h^T, w))||_nuclear = sqrt(k)."""
    p, q = 4, 3
    for k in (1, 2, 3):
        for _ in range(25):
            gu = np.linalg.qr(rng.standard_normal((p, k)))[0]
            gv = np.linalg.qr(rng.standard_normal((q, k)))[0]
            h = gu @ gv.T                       # k unit singular values
            a = rng.standard_normal(p)
            b = rng.standard_normal(q)
            w = np.outer(a, b)
            w /= np.linalg.norm(w)              # rank one, unit nuclear norm
            md = rearrange(kron_pair(h, w), "Mdprime", p, q)
            nuc = np.linalg.svd(md, compute_uv=False).sum()
            assert nuc <= math.sqrt(k) + 1e-9
            assert nuc == pytest.approx(math.sqrt(k), abs=1e-8)


def test_svd_sign_convention_is_not_needed(rng):
    """The low-rank subgradients read only the singular values and
    U[:, :k] @ Vt[:k], which the sign convention of ``svd_descending``
    leaves bitwise unchanged."""
    from sparsecert import norms
    from sparsecert.certify import bruteforce
    for shape in ((3, 3), (4, 3), (3, 4), (9, 9)):
        mat = rng.standard_normal(shape)
        u, sv, vt = norms.svd_descending(mat)
        for k in (1, 2, 3, 9):
            kk = min(k, sv.size)
            val, grad = lowrank._top_k_subgradient(mat, k)
            assert val == float(sv[:kk].sum())
            assert np.array_equal(grad, u[:, :kk] @ vt[:kk])
        st = structures.build_lowrank(*shape)
        ratio, grad = bruteforce._lowrank_ratio_and_grad(st, mat.ravel(), 2)
        num, den = float(sv[:2].sum()), float(sv.sum())
        want = ((u[:, :2] @ vt[:2]) * den - num * (u @ vt)) / den ** 2
        assert ratio == num / den
        assert np.array_equal(grad, want.ravel())


def test_opt_bar_identity_value():
    for p, q in ((2, 2), (3, 3), (4, 4), (4, 3)):
        for s in (1, 2):
            if 2 * s > p * q:
                continue
            assert opt_bar(np.eye(p * q), s, p, q) == pytest.approx(3.0 * s,
                                                                    abs=1e-9)


def test_opt_star_bracket(rng):
    """sampled primal - tol <= opt_star <= opt_bar + tol."""
    p = q = 3
    for trial in range(6):
        r = np.random.default_rng(trial)
        w = random_operator(r, p, q)
        bar = opt_bar(w, 1, p, q)
        star = opt_star(w, 1, p, q, iters=400)
        assert star <= bar + 1e-6
        sampled = 0.0
        for _ in range(200):
            z = np.outer(r.standard_normal(p), r.standard_normal(q))
            z /= np.linalg.svd(z, compute_uv=False).sum()
            wz = (w @ z.ravel()).reshape(p, q)
            sv = np.linalg.svd(wz, compute_uv=False)
            sampled = max(sampled, float(sv[0] + sv[:2].sum()))
        assert star >= sampled - 1e-6


def test_opt_star_zero_iters_equals_opt_bar(rng):
    p, q = 3, 2
    w = random_operator(np.random.default_rng(1), p, q)
    assert opt_star(w, 1, p, q, iters=0) == pytest.approx(
        opt_bar(w, 1, p, q), abs=1e-9)


def test_opt_star_is_deterministic():
    w = random_operator(np.random.default_rng(5), 3, 3)
    a = opt_star(w, 1, 3, 3, iters=300)
    b = opt_star(w, 1, 3, 3, iters=300)
    assert a == b


def test_opt_star_evaluates_each_iterate_once(monkeypatch):
    """Each level k evaluates its iters + 1 iterates once each, the zero
    split included, at 3 SVDs per evaluation; the seeded values are pinned
    (they are those of evaluating the zero split twice)."""
    calls = []
    real = lowrank._top_k_subgradient

    def counting(mat, k):
        calls.append(k)
        return real(mat, k)

    monkeypatch.setattr(lowrank, "_top_k_subgradient", counting)
    w = np.random.default_rng(5).standard_normal((9, 9))
    assert opt_star(w, 1, 3, 3, iters=40) == 10.929601513333047
    assert len(calls) == 2 * 3 * (40 + 1)          # levels k = 1 and 2
    calls.clear()
    w = np.random.default_rng(8).standard_normal((8, 8))
    assert opt_star(w, 1, 4, 2, iters=0) == 14.960559535289192
    assert len(calls) == 2 * 3


def test_opt_level_validation():
    with pytest.raises(ValueError):
        opt_bar(np.eye(4), 0, 2, 2)
    with pytest.raises(ValueError):
        opt_bar(np.eye(4), 1.5, 2, 2)


def test_certify_identity_sensing_is_perfect():
    p = q = 3
    cert = certify_lowrank(np.eye(9), s=1, phi="l1", p=p, q=q, iters=200)
    assert cert.gamma == pytest.approx(0.0, abs=1e-8)
    assert cert.valid
    assert cert.beta == pytest.approx(2.0, abs=1e-9)
    assert cert.exact_beta
    assert cert.identity_residual <= 1e-10


@pytest.mark.parametrize("iters", [-5, -1, 2.5, 3.0, True, None])
def test_certify_refuses_iters_that_are_not_an_integer_at_least_zero(iters):
    """A negative or non-integer iters is refused, in the CLI's wording,
    rather than read as the box bound."""
    with pytest.raises(ValueError, match="is not an integer >= 0"):
        certify_lowrank(np.eye(4), 1, phi="l1", p=2, q=2, iters=iters)


def test_certify_zero_candidate_gives_identity_residual_zero():
    p = q = 2
    a = np.zeros((1, 4))
    cert = certify_lowrank(a, s=1, phi="l1", p=p, q=q, iters=0)
    # the pseudoinverse of a zero A is zero: W = Id, so gamma is the box
    # value 3 and beta vanishes
    assert np.array_equal(cert.h_matrix, np.zeros((1, 4)))
    assert cert.gamma == pytest.approx(3.0, abs=1e-9)
    assert cert.beta == 0.0
    assert cert.identity_residual == 0.0
    assert not cert.valid
    assert cert.method == "LowRankUBar"


def test_certify_star_never_worse_than_bar(rng):
    p, q = 3, 3
    a = np.random.default_rng(4).standard_normal((7, 9))
    c_bar = certify_lowrank(a, s=1, phi="l1", p=p, q=q, iters=0)
    c_star = certify_lowrank(a, s=1, phi="l1", p=p, q=q, iters=400)
    assert c_star.gamma <= c_bar.gamma + 1e-9
    assert c_star.method == "LowRankUStar"
    assert c_star.gamma <= c_star.details["gamma_bar"] + 1e-9
    assert c_bar.details["gamma_bar"] == c_bar.gamma


def test_certify_runs_the_chain_once(monkeypatch):
    """One dual map: at s=1 opt_star's two levels evaluate iters + 1
    iterates each at 3 SVDs per evaluation, and nothing else descends."""
    calls = []
    real = lowrank._top_k_subgradient

    def counting(mat, k):
        calls.append(k)
        return real(mat, k)

    monkeypatch.setattr(lowrank, "_top_k_subgradient", counting)
    a = np.random.default_rng(4).standard_normal((7, 9))
    for iters in (0, 1, 25):
        calls.clear()
        cert = certify_lowrank(a, s=1, phi="l1", p=3, q=3, iters=iters)
        assert len(calls) == (2 * 3 * (iters + 1) if iters else 0)
        assert np.array_equal(cert.h_matrix, np.linalg.pinv(a).T)


def test_certify_beta_flags_by_phi(rng):
    p, q = 3, 3
    a = np.random.default_rng(4).standard_normal((7, 9))
    c1 = certify_lowrank(a, s=1, phi="l1", p=p, q=q, iters=0)
    assert c1.exact_beta
    ci = certify_lowrank(a, s=1, phi="linf", p=p, q=q, iters=0)
    assert ci.exact_beta          # 7 rows <= 16: exact sign enumeration
    assert ci.details["evaluated_sign_vectors"] == 2 ** 6
    c2 = certify_lowrank(a, s=1, phi="l2", p=p, q=q, iters=0)
    assert not c2.exact_beta
    assert c2.details["sampling_lower_bound"] <= c2.beta + 1e-9


def test_certify_validation():
    with pytest.raises(ValueError):
        certify_lowrank(np.eye(4), s=1, phi="l1")            # p, q missing
    with pytest.raises(ValueError):
        certify_lowrank(np.eye(4), s=1, phi="l1", p=3, q=3)  # 4 != 9
    with pytest.raises(ValueError):
        certify_lowrank(np.eye(4), s=0, phi="l1", p=2, q=2)  # rank level


def test_exact_linf_beta_matches_the_per_bit_loop():
    """The stacked SVD over the pinned sign vectors gives the per-bit
    loop's value on seeded draws, to the roundoff of another summation
    order."""
    for trial in range(12):
        r = np.random.default_rng([17, trial])
        p, q = int(r.integers(2, 4)), int(r.integers(2, 4))
        m = int(r.integers(1, 13))
        h = r.standard_normal((m, p * q))
        s = int(r.integers(1, min(p, q) + 1))
        st = structures.build_lowrank(p, q)
        beta, exact, info = lowrank._beta_bounds(h, s, p, q, "linf", r)
        assert exact
        assert info == {"evaluated_sign_vectors": 2 ** (m - 1)}
        assert beta == pytest.approx(exact_linf_beta_oracle(h, st, s),
                                     rel=1e-12)


def test_exact_linf_beta_is_one_stacked_svd_per_chunk(monkeypatch):
    """m = 16 on 3x3 is one SVD call over all 2^15 sign vectors, not one
    per vector; a smaller stack budget splits it into chunks with the same
    value."""
    calls = []
    real = np.linalg.svd

    def counting(mat, *args, **kwargs):
        calls.append(np.shape(mat))
        return real(mat, *args, **kwargs)

    h = np.random.default_rng(3).standard_normal((16, 9))
    monkeypatch.setattr(np.linalg, "svd", counting)
    whole, _, _ = lowrank._beta_bounds(h, 1, 3, 3, "linf", None)
    assert calls == [(2 ** 15, 3, 3)]
    calls.clear()
    monkeypatch.setattr(lowrank, "_STACK_BYTES", 8 * 9 * 5000)
    chunked, _, _ = lowrank._beta_bounds(h, 1, 3, 3, "linf", None)
    assert chunked == pytest.approx(whole, rel=1e-12)
    assert [c[0] for c in calls] == [5000] * 6 + [2 ** 15 - 30000]


def test_identity_residual_measures_the_dual_map(monkeypatch):
    """The residual is roundoff for the pseudoinverse on square and wide
    draws, and exposes an H that is not A's dual map."""
    for shape in ((9, 9), (5, 9), (11, 16), (3, 12)):
        a = np.random.default_rng(list(shape)).standard_normal(shape)
        p = 3 if shape[1] in (9, 12) else 4
        q = shape[1] // p
        cert = certify_lowrank(a, s=1, phi="l1", p=p, q=q, iters=0)
        assert cert.identity_residual < 1e-10
        real = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda m: 1.01 * real(m))
        bad = certify_lowrank(a, s=1, phi="l1", p=p, q=q, iters=0)
        monkeypatch.setattr(np.linalg, "pinv", real)
        assert bad.identity_residual > 1e-3
        # W still comes from H, so it alone cannot tell
        assert np.linalg.norm(np.eye(p * q) - bad.w_matrix
                              - bad.h_matrix.T @ a) < 1e-12


def test_badnews_floor(rng):
    """The box bound cannot beat min(2s*sqrt(d/pq), sqrt(d))."""
    for trial in range(15):
        r = np.random.default_rng(trial)
        p, q = int(r.integers(2, 5)), int(r.integers(2, 5))
        m = int(r.integers(1, p * q))
        a = r.standard_normal((m, p * q))
        h = r.standard_normal((m, p * q))
        lhs, floor, holds = badnews_check(a, h, 1, p, q)
        assert holds
        assert lhs >= floor - 1e-6
    # injective A: d = 0 and the floor is vacuous
    lhs, floor, holds = badnews_check(np.eye(4), np.eye(4), 1, 2, 2)
    assert floor == 0.0 and holds
