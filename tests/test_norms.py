"""Norms, duals, seminorms, induced norms, prox maps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from sparsecert import norms, structures
from sparsecert.norms import (UnsupportedNormError, dual_tag, induced_norm,
                              omega, pi_s, project_ball, prox_structure_norm,
                              prox_vector_norm, ps_seminorm, sigma_sum,
                              soft_threshold, structure_norm, sum_top,
                              svd_descending, vector_norm)

from oracles import pi_s_oracle, ps_oracle, top_sum_oracle

finite_floats = st_.floats(-1e6, 1e6, allow_nan=False)


def test_vector_norms_match_numpy(rng):
    v = rng.standard_normal(11)
    assert vector_norm(v, "l1") == pytest.approx(np.linalg.norm(v, 1))
    assert vector_norm(v, "l2") == pytest.approx(np.linalg.norm(v))
    assert vector_norm(v, "linf") == pytest.approx(np.linalg.norm(v, np.inf))
    assert vector_norm([], "linf") == 0.0
    with pytest.raises(UnsupportedNormError):
        vector_norm(v, "l0")


def test_dual_tags():
    assert dual_tag("l1") == "linf" and dual_tag("linf") == "l1"
    assert dual_tag("l2") == "l2"
    assert dual_tag("nuclear") == "spectral"
    with pytest.raises(UnsupportedNormError):
        dual_tag("huber")


def test_svd_descending_is_deterministic(rng):
    m = rng.standard_normal((5, 4))
    u1, s1, v1 = svd_descending(m)
    u2, s2, v2 = svd_descending(m.copy())
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    assert np.all(np.diff(s1) <= 0)
    assert np.allclose((u1 * s1) @ v1, m, atol=1e-12)
    # sign convention: first sizable entry of each left vector nonnegative
    for j in range(u1.shape[1]):
        nz = np.nonzero(np.abs(u1[:, j]) > 1e-12)[0]
        assert u1[nz[0], j] >= 0


def test_sum_top_against_enumeration(rng):
    for _ in range(30):
        x = rng.standard_normal(rng.integers(1, 13))
        for s in (1, 2, 5, 20):
            assert sum_top(x, s) == pytest.approx(top_sum_oracle(x, s),
                                                  abs=1e-12)
    with pytest.raises(ValueError):
        sum_top(x, 0)


def test_sigma_sum(rng):
    m = rng.standard_normal((4, 6))
    sv = np.linalg.svd(m, compute_uv=False)
    assert sigma_sum(m, 2) == pytest.approx(sv[:2].sum(), abs=1e-9)
    assert sigma_sum(m, 99) == pytest.approx(sv.sum(), abs=1e-9)


def test_an_infinite_level_is_never_an_overflow(rng):
    """s = inf keeps everything where a primitive's domain allows it and is
    the level's ValueError at a rank level or a condition check, never an
    OverflowError."""
    from sparsecert.certify import check_condition_Cs
    x = rng.standard_normal(5)
    z = rng.standard_normal((3, 4))
    plain, lowrank = structures.build_plain(5), structures.build_lowrank(3, 4)
    assert sum_top(x, math.inf) == pytest.approx(np.abs(x).sum(), rel=1e-15)
    assert sigma_sum(z, math.inf) == float(
        np.linalg.svd(z, compute_uv=False).sum())
    assert ps_seminorm(plain, x, math.inf) == pytest.approx(
        2.0 * np.abs(x).sum(), rel=1e-15)
    for st in (plain, lowrank):
        proj = structures.random_projector(st, rng, max_weight=math.inf)
        assert proj.nu <= st.full_weight()
    with pytest.raises(ValueError, match="rank level must be a positive"):
        ps_seminorm(lowrank, z, math.inf)
    for st in (plain, lowrank):
        with pytest.raises(ValueError, match="s must be a finite number >= 0"
                           if st is plain else "rank level"):
            check_condition_Cs(rng.standard_normal((2, st.ambient_dim_x)),
                               None, st, math.inf, 0.5, 1.0, "l1", trials=2,
                               seed=0)


def test_level_size_is_the_unit_selection_and_the_maximal_set_size():
    """One integer size of a level: the blocks the unit-weight selection
    keeps and the size of every maximal unit-weight block set, on seeded
    levels and at k +- 1e-13; inf is the cap and NaN a ValueError."""
    rng = np.random.default_rng(11)
    for count in (1, 4, 7):
        u = rng.standard_normal(count)
        chi = [1.0] * count
        levels = [k + d for k in range(count + 2) for d in (-1e-13, 0, 1e-13)]
        levels += list(rng.uniform(0, count + 1, 10)) + [math.inf]
        for s in levels:
            if s < 0:
                continue
            size = norms.level_size(s, count)
            assert size == (count if s == math.inf else
                            min(math.floor(s + 1e-12), count)), s
            assert norms.select_blocks(u, chi, s)[1].sum() == size, s
            sets = list(structures.maximal_block_sets(chi, s))
            assert {len(c) for c in sets} == ({size} if size else set()), s
    with pytest.raises(ValueError, match="s must be a number >= 0, got nan"):
        norms.level_size(math.nan, 3)


def test_pi_s_exact_matches_enumeration(rng):
    """Integer weights (the knapsack) and unit weights (the sort)."""
    for _ in range(25):
        k = int(rng.integers(1, 9))
        u = rng.standard_normal(k)
        for chi in (rng.integers(1, 4, size=k).astype(float), np.ones(k)):
            for s in (0.0, 1.0, 2.0, 3.5, 10.0):
                assert pi_s(u, chi, s) == pytest.approx(
                    pi_s_oracle(u, chi, s), abs=1e-12)


def test_pi_s_real_weights_branch_and_bound(rng):
    for _ in range(25):
        k = int(rng.integers(1, 8))
        u = rng.standard_normal(k)
        chi = rng.uniform(0.3, 2.5, size=k)
        s = float(rng.uniform(0.5, 3.0))
        assert pi_s(u, chi, s) == pytest.approx(pi_s_oracle(u, chi, s),
                                                abs=1e-10)


def test_pi_s_hat_dominates_exact(rng, monkeypatch):
    """Past the block limit pi_s is twice the fractional bound: never below
    the exact norm, and equal to it when every block fits whole."""
    monkeypatch.setattr(norms, "_EXACT_BLOCKS", 0)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        u = rng.standard_normal(k)
        chi = rng.uniform(0.3, 2.5, size=k)
        s = float(rng.uniform(0.0, 7.0))
        value, _, upper = norms.select_blocks(u, chi, s)
        assert pi_s(u, chi, s) == 2.0 * upper
        assert 2.0 * upper >= pi_s_oracle(u, chi, s) - 1e-10
        if chi.sum() <= s:
            assert upper == value == pytest.approx(np.abs(u).sum(), abs=1e-12)


def test_pi_s_nonint_weights_blocked_above_25(monkeypatch):
    """Past 25 real weights the selection is the greedy set and pi_s twice
    its fractional bound, which covers the heaviest set: here the greedy
    set keeps 1.2 + 1.5 = 2.7, the two 1.5-blocks 3.0, and the bound is
    2.7 + 1.5 * 0.4 / 1.5 = 3.1."""
    u = np.zeros(26)
    u[:3] = (1.2, 1.5, 1.5)
    chi = np.full(26, 1.5)
    chi[0] = 1.1
    value, mask, upper = norms.select_blocks(u, chi, 3.0)
    assert np.flatnonzero(mask).tolist() == [0, 1]
    assert value == pytest.approx(2.7, abs=1e-12)
    assert upper == pytest.approx(3.1, abs=1e-11)
    assert pi_s(u, chi, 3.0) == 2.0 * upper
    monkeypatch.setattr(norms, "_EXACT_BLOCKS", 26)
    assert norms.select_blocks(u, chi, 3.0)[::2] == pytest.approx((3.0, 3.0))
    # equal weights: the greedy set is the heaviest, the bound a hair above
    value, mask, upper = norms.select_blocks(np.ones(26), np.full(26, 1.5), 3.0)
    assert mask.sum() == 2 and value == 2.0 and 2.0 <= upper <= 2.0 + 1e-11


@pytest.mark.parametrize("kind", ["unit", "integer", "real", "past_limit"])
def test_select_blocks_against_enumeration(kind, rng, monkeypatch):
    """Each draw's mask fits within s and value is its mass; the exact
    norm lies between value and upper, and equals both on the exact paths
    (the sort, the dynamic program, branch and bound).  Past the block
    limit, here patched down to 2, value is the greedy set's mass."""
    if kind == "past_limit":
        monkeypatch.setattr(norms, "_EXACT_BLOCKS", 2)
    for _ in range(60):
        k = int(rng.integers(1, 10))
        u = rng.standard_normal(k) * rng.choice((0.1, 1.0, 10.0))
        chi = {"unit": np.ones(k),
               "integer": rng.integers(1, 4, size=k).astype(float)}.get(
                   kind, rng.uniform(0.3, 2.5, size=k))
        for s in (0.0, 0.5, 1.0, float(rng.uniform(0.5, 6.0)), 20.0):
            value, mask, upper = norms.select_blocks(u, chi, s)
            best = pi_s_oracle(u, chi, s) / 2.0
            assert chi[mask].sum() <= s + 1e-12
            assert value == pytest.approx(np.abs(u[mask]).sum(), abs=1e-12)
            assert value <= best + 1e-12 and best <= upper + 1e-12
            assert pi_s(u, chi, s) == 2.0 * upper
            if kind != "past_limit" or k <= 2:
                assert upper == value == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("kind", ["unit", "integer", "real"])
def test_selection_level_nan_is_refused_and_inf_keeps_every_block(kind):
    """One check on s, for every kind of weight: NaN is a ValueError naming
    s, inf keeps every block."""
    chi = {"unit": [1.0] * 4, "integer": [1.0, 2.0, 1.0, 3.0],
           "real": [1.5, 0.7, 1.2, 2.2]}[kind]
    st = structures.build_group([(0,), (1, 2), (3,), (4, 5)], weights=chi,
                                block_norm="l1")
    w = np.array([1.0, -2.0, 0.5, 3.0, 0.0, -1.0])
    u = norms.group_block_norms(st, w)
    for call in (lambda s: norms.select_blocks(u, chi, s),
                 lambda s: pi_s(u, chi, s),
                 lambda s: ps_seminorm(st, w, s),
                 lambda s: structures.best_sparse_approx(st, w, s)):
        with pytest.raises(ValueError, match="s must be a number >= 0"):
            call(math.nan)
        with pytest.raises(ValueError, match="s must be a number >= 0"):
            call(-1.0)
    value, mask, upper = norms.select_blocks(u, chi, math.inf)
    assert mask.all() and value == upper == u.sum()
    approx = structures.best_sparse_approx(st, w, math.inf)
    assert approx.projector.block_set == frozenset(range(4))
    assert approx.delta_x == 0.0 and approx.exact and approx.kept == u.sum()
    assert pi_s(u, chi, math.inf) == 2.0 * u.sum()


def test_structure_norms(rng):
    pl = structures.build_plain(6)
    v = rng.standard_normal(6)
    assert structure_norm(pl, v) == pytest.approx(np.abs(v).sum())
    assert structure_norm(pl, v, dual=True) == pytest.approx(np.abs(v).max())

    gr = structures.build_group([(0, 1), (1, 2)],
                                block_norm=["l2", "linf"])
    w = gr.b @ rng.standard_normal(3)
    expect = np.linalg.norm(w[:2]) + np.abs(w[2:]).max()
    assert structure_norm(gr, w) == pytest.approx(expect)
    expect_dual = max(np.linalg.norm(w[:2]), np.abs(w[2:]).sum())
    assert structure_norm(gr, w, dual=True) == pytest.approx(expect_dual)

    lr = structures.build_lowrank(3, 4)
    m = rng.standard_normal((3, 4))
    sv = np.linalg.svd(m, compute_uv=False)
    assert structure_norm(lr, m.ravel()) == pytest.approx(sv.sum())
    assert structure_norm(lr, m.ravel(), dual=True) == pytest.approx(sv[0])


def test_block_norms_match_per_block_vector_norm():
    """The array passes over the block layout give every block's norm and
    dual norm as ``vector_norm`` does block by block, to rel 1e-13: mixed
    l1/l2/linf layouts with block sizes 1 to 12, overlapping coordinates,
    a zero block and tied magnitudes."""
    r = np.random.default_rng(11)
    for trial in range(60):
        k = int(r.integers(1, 10))
        sizes = r.integers(1, 13, size=k)
        n = int(sizes.max()) + 2
        blocks = [r.choice(n, size=int(c), replace=False) for c in sizes]
        blocks.append(range(n))                      # cover every coordinate
        tags = list(r.choice(norms.VECTOR_TAGS, size=len(blocks)))
        gr = structures.build_group(blocks, block_norm=tags)
        w = gr.b @ (r.standard_normal(n) * r.uniform(0.1, 5.0))
        starts = np.concatenate([[0], np.cumsum([len(v) for v in blocks])])
        if trial % 3 == 0:
            w[starts[0]:starts[1]] = 0.0             # a zero block
        if trial % 4 == 0:
            w[starts[-2]] = -w[-1]                   # a tied magnitude
        views = [w[starts[i]:starts[i + 1]] for i in range(len(blocks))]
        ref = np.array([vector_norm(v, t) for v, t in zip(views, tags)])
        ref_dual = np.array([vector_norm(v, dual_tag(t))
                             for v, t in zip(views, tags)])
        got = norms.group_block_norms(gr, w)
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
        assert structure_norm(gr, w) == pytest.approx(ref.sum(), rel=1e-13)
        assert structure_norm(gr, w, dual=True) == \
            pytest.approx(ref_dual.max(), rel=1e-13)


def test_tag_blocks_gather_matches_per_block_norms():
    """``tag_blocks`` splits a mixed layout into one gather per tag: the
    tags' blocks partition the blocks, their coordinates partition E, and
    the block norms and dual block norms taken through them equal
    ``vector_norm`` block by block to rel 1e-13."""
    r = np.random.default_rng(16)
    for trial in range(40):
        k = int(r.integers(2, 12))
        sizes = r.integers(1, 6, size=k)
        n = int(sizes.sum())
        perm = r.permutation(n)
        blocks = np.split(perm, np.cumsum(sizes)[:-1])
        tags = list(r.choice(norms.VECTOR_TAGS, size=k))
        gr = structures.build_group(blocks, block_norm=tags)
        assert sorted(tb.tag for tb in gr.tag_blocks) == sorted(set(tags))
        assert sorted(np.concatenate([tb.blocks for tb in gr.tag_blocks])) \
            == list(range(k))
        assert sorted(np.concatenate([tb.coords for tb in gr.tag_blocks])) \
            == list(range(gr.ambient_dim_e))
        w = gr.b @ r.standard_normal(n)
        views = np.split(w, gr.offsets[1:-1])
        for dual in (False, True):
            ref = [vector_norm(v, dual_tag(t) if dual else t)
                   for v, t in zip(views, tags)]
            got = norms._block_norms(gr, w, dual=dual)
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


def test_structure_prox_matches_the_checked_prox(rng):
    """The prox picked once per structure is the checked prox."""
    for st in (structures.build_plain(5),
               structures.build_group([(0, 1), (2, 3, 4)], block_norm="l2"),
               structures.build_group([(0, 1), (2, 3, 4)], block_norm="linf"),
               structures.build_group([(0, 1), (2, 3, 4)],
                                      block_norm=["l1", "l2"]),
               structures.build_lowrank(2, 3)):
        prox = norms.structure_prox(st)
        for tau in (0.0, 0.3, 2.0):
            w = rng.standard_normal(st.ambient_dim_e)
            assert np.array_equal(prox(w, tau),
                                  norms.prox_structure_norm(st, w, tau))


def test_holder_inequality_everywhere(rng):
    structs = (structures.build_plain(7),
               structures.build_group([(0, 1, 2), (3, 4), (5, 6)],
                                      block_norm=["l1", "l2", "linf"]),
               structures.build_lowrank(3, 3))
    for st in structs:
        for _ in range(100):
            f = rng.standard_normal(st.ambient_dim_e)
            w = rng.standard_normal(st.ambient_dim_e)
            assert f @ w <= structure_norm(st, f, dual=True) * \
                structure_norm(st, w) + 1e-9


def test_duality_by_sampling(rng):
    """max over unit-dual-ball candidates of <f,w> recovers ||w||.

    200 random directions establish the sampled lower bound; the analytic
    subdifferential witness (sign vector / outer product of singular bases)
    is added so the max is tight, not just close.
    """
    pl = structures.build_plain(6)
    lr = structures.build_lowrank(3, 3)
    for st in (pl, lr):
        w = rng.standard_normal(st.ambient_dim_e)
        target = structure_norm(st, w)
        if st.kind == "plain":
            witness = np.sign(w)
        else:
            u, _, vt = np.linalg.svd(w.reshape(3, 3))
            witness = (u @ vt).ravel()
        cands = [witness] + [rng.standard_normal(st.ambient_dim_e)
                             for _ in range(200)]
        best = max(float(f @ w) / structure_norm(st, f, dual=True)
                   for f in cands)
        assert best <= target + 1e-9
        assert best >= 0.95 * target


@given(st_.lists(finite_floats, min_size=1, max_size=10),
       st_.lists(finite_floats, min_size=1, max_size=10),
       st_.sampled_from(["l1", "l2", "linf"]))
@settings(max_examples=200, deadline=None)
def test_norm_axioms_hypothesis(xs, ys, tag):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    nx = vector_norm(x, tag)
    assert vector_norm(-2.5 * x, tag) == pytest.approx(2.5 * nx, rel=1e-12,
                                                       abs=1e-9)
    ny = vector_norm(y, tag)
    # roundoff grows with the norms: sums near 4e6 miss an absolute 1e-9
    assert vector_norm(x + y, tag) <= nx + ny + 1e-12 * (nx + ny) + 1e-9


def test_ps_seminorm_against_enumeration(rng):
    pl = structures.build_plain(8)
    gr = structures.build_group([(0, 1, 2), (2, 3), (4, 5, 6), (6, 7)],
                                weights=[1, 2, 1, 1])
    lr = structures.build_lowrank(3, 4)
    for _ in range(20):
        z = rng.standard_normal(8)
        for s in (0.5, 1, 2, 8):
            assert ps_seminorm(pl, z, s) == pytest.approx(
                ps_oracle(pl, z, s), abs=1e-12)
        w = rng.standard_normal(gr.ambient_dim_e)
        for s in (0, 1, 2, 5):
            assert ps_seminorm(gr, w, s) == pytest.approx(
                ps_oracle(gr, w, s), abs=1e-12)
        m = rng.standard_normal(12)
        for s in (1, 2):
            assert ps_seminorm(lr, m, s) == pytest.approx(
                ps_oracle(lr, m, s), abs=1e-9)


def test_ps_seminorm_fixed_point():
    # rows (1,2) and (3,0): top singular values are sqrt(10) and sqrt(5)
    lr = structures.build_lowrank(2, 2)
    z = np.array([[1.0, 2.0], [3.0, 0.0]])
    sv = np.linalg.svd(z, compute_uv=False)
    assert ps_seminorm(lr, z.ravel(), 1) == pytest.approx(sv[0] + sv.sum(),
                                                          abs=1e-12)


def test_induced_norm_exact_cases(rng):
    q = rng.standard_normal((4, 5))
    val, exact = induced_norm(q, "l1", "l2")
    assert exact
    assert val == pytest.approx(max(np.linalg.norm(q[:, j])
                                    for j in range(5)))
    val, exact = induced_norm(q, "l2", "linf")
    assert exact
    assert val == pytest.approx(max(np.linalg.norm(q[i]) for i in range(4)))
    val, exact = induced_norm(q, "l2", "l2")
    assert exact
    assert val == pytest.approx(np.linalg.svd(q, compute_uv=False)[0])
    # 1x1 blocks are always exact
    val, exact = induced_norm(np.array([[-3.0]]), "linf", "l1")
    assert exact and val == 3.0


def test_induced_norm_hard_cases_are_upper_bounds(rng):
    """Sampled lower bounds never exceed the returned value."""
    for from_tag, to_tag in (("linf", "l1"), ("linf", "l2"), ("l2", "l1")):
        for _ in range(10):
            q = rng.standard_normal((3, 4))
            val, exact = induced_norm(q, from_tag, to_tag)
            assert not exact
            sampled = 0.0
            for _ in range(300):
                x = rng.standard_normal(4)
                x = np.sign(x) if from_tag == "linf" else \
                    x / np.linalg.norm(x)
                sampled = max(sampled,
                              vector_norm(q @ x, to_tag))
            assert val >= sampled - 1e-9


def test_omega_blocks(rng):
    gr = structures.build_group([(0, 1), (2, 3, 4)], block_norm="l1")
    w = rng.standard_normal((5, 5))
    out, exact = omega(gr, w)
    assert out.shape == (2, 2) and exact.all()   # l1 -> l1 is exact
    # entry (i, j) bounds block (i, j) acting from block j's norm
    val, _ = induced_norm(w[:2, 2:], "l1", "l1")
    assert out[0, 1] == pytest.approx(val)
    with pytest.raises(ValueError):
        omega(structures.build_plain(3), np.eye(3))


def test_soft_threshold_and_l1_projection(rng):
    v = np.array([3.0, -1.0, 0.2])
    assert np.allclose(soft_threshold(v, 1.0), [2.0, 0.0, 0.0])
    for _ in range(100):
        x = rng.standard_normal(8) * 3
        r = float(rng.uniform(0.1, 5))
        p = norms.project_l1_ball(x, r)
        assert np.abs(p).sum() <= r + 1e-10
        # no feasible point is closer
        for _ in range(20):
            c = rng.standard_normal(8)
            c = c / np.abs(c).sum() * r * rng.uniform(0, 1)
            assert np.linalg.norm(p - x) <= np.linalg.norm(c - x) + 1e-8


def test_project_ball_feasibility_and_optimality(rng):
    for phi in ("l1", "l2", "linf"):
        for _ in range(40):
            v = rng.standard_normal(6) * 2
            r = float(rng.uniform(0.2, 3))
            out = project_ball(v, phi, r)
            assert vector_norm(out, phi) <= r + 1e-10
            for _ in range(25):
                c = rng.standard_normal(6)
                nc = vector_norm(c, phi)
                if nc > r:
                    c *= (r / nc) * rng.uniform(0, 1)
                assert np.linalg.norm(out - v) <= \
                    np.linalg.norm(c - v) + 1e-8


def test_prox_vector_norm_optimality(rng):
    for tag in ("l1", "l2", "linf"):
        for _ in range(30):
            v = rng.standard_normal(7)
            tau = float(rng.uniform(0.05, 2))
            u = prox_vector_norm(v, tag, tau)
            val = tau * vector_norm(u, tag) + 0.5 * np.sum((u - v) ** 2)
            for _ in range(100):
                c = u + rng.standard_normal(7) * rng.uniform(0.01, 1)
                cand = tau * vector_norm(c, tag) + 0.5 * np.sum((c - v) ** 2)
                assert cand >= val - 1e-8


def test_prox_structure_norm_all_kinds(rng):
    pl = structures.build_plain(5)
    v = rng.standard_normal(5)
    assert np.allclose(prox_structure_norm(pl, v, 0.3),
                       soft_threshold(v, 0.3))

    gr = structures.build_group([(0, 1), (2, 3)], block_norm="l2")
    w = rng.standard_normal(4)
    got = prox_structure_norm(gr, w, 0.4)
    for blk in (slice(0, 2), slice(2, 4)):
        nb = np.linalg.norm(w[blk])
        expect = np.zeros(2) if nb <= 0.4 else w[blk] * (1 - 0.4 / nb)
        assert np.allclose(got[blk], expect)

    lr = structures.build_lowrank(3, 3)
    m = rng.standard_normal((3, 3))
    got = prox_structure_norm(lr, m, 0.5)
    u, sv, vt = np.linalg.svd(m)
    expect = (u * np.maximum(sv - 0.5, 0.0)) @ vt
    assert np.allclose(got, expect, atol=1e-9)
    # prox optimality in the matrix setting
    val = 0.5 * np.linalg.svd(got, compute_uv=False).sum() \
        + 0.5 * np.sum((got - m) ** 2)
    for _ in range(50):
        c = got + rng.standard_normal((3, 3)) * 0.3
        cand = 0.5 * np.linalg.svd(c, compute_uv=False).sum() \
            + 0.5 * np.sum((c - m) ** 2)
        assert cand >= val - 1e-8


def test_vectorized_l2_group_prox_matches_per_block_loop(rng):
    # unequal block sizes, overlapping coordinates, one block of size 1
    gr = structures.build_group([(0, 1, 2), (2, 3), (4,), (5, 6, 7, 8), (0, 9)],
                                block_norm="l2")
    sizes = [len(v) for v in gr.blocks]
    starts = np.concatenate([[0], np.cumsum(sizes)])

    def reference(w, tau):
        return np.concatenate([prox_vector_norm(w[starts[k]:starts[k + 1]],
                                                "l2", tau)
                               for k in range(len(sizes))])

    for trial in range(20):
        w = rng.standard_normal(starts[-1]) * rng.uniform(0.1, 3.0)
        w[starts[3]:starts[4]] = 0.0                   # an all-zero block
        w[starts[1]:starts[2]] = [3.0, 4.0]            # norm 5 ...
        for tau in (0.0, 0.3, 1.0, 5.0):               # ... equal to tau = 5
            got = prox_structure_norm(gr, w, tau)
            ref = reference(w, tau)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)
            assert np.array_equal(got == 0.0, ref == 0.0)
    with pytest.raises(ValueError):
        prox_structure_norm(gr, np.ones(starts[-1] + 1), 0.5)
    with pytest.raises(ValueError):
        prox_structure_norm(gr, np.ones(starts[-1] - 1), 0.5)


def test_vectorized_linf_group_prox_matches_per_block_loop():
    """The one-pass linf block prox equals one ``prox_vector_norm`` per
    block to 1e-12 on seeded layouts: uneven block sizes (singletons
    included), an all-zero block, tied magnitudes, a block exactly on the
    l1 ball, and tau from 0 to beyond every block's l1 norm."""
    r = np.random.default_rng(7)
    for trial in range(60):
        sizes = r.integers(1, 9, size=int(r.integers(1, 12)))
        starts = np.concatenate([[0], np.cumsum(sizes)])
        gr = structures.build_group(
            [range(starts[k], starts[k + 1]) for k in range(sizes.size)],
            block_norm="linf")
        w = r.standard_normal(starts[-1]) * r.uniform(0.1, 5.0)
        w[: sizes[0]] = 0.0 if trial % 3 == 0 else w[: sizes[0]]
        w[-1] = w[0] if trial % 4 == 0 else w[-1]
        last = np.abs(w[starts[-2]:]).sum()
        w[starts[-2]:] /= last if last > 0 else 1.0    # l1 norm 1 = tau
        for tau in (0.0, 1e-3, 0.3, 1.0, 50.0):
            ref = np.concatenate([
                prox_vector_norm(w[starts[k]:starts[k + 1]], "linf", tau)
                for k in range(sizes.size)])
            got = prox_structure_norm(gr, w, tau)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=0.0, atol=1e-12)


def test_l1_ball_and_linf_prox_below_half_an_ulp(rng):
    """A radius below half an ulp of the largest magnitude fails the
    threshold test at rank 1 in floating point: the l1-ball projection and
    the linf prox (one vector, all-linf and mixed-tag blocks) clamp to rank
    1 there, with no error or warning.  On ordinary inputs the projection
    is bitwise the unclamped sorted-threshold formula."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = norms.project_l1_ball([1.0, 1.0], 1e-17)
        assert np.abs(p).sum() <= 1e-17
        v = np.array([1e10, 3.0])
        assert np.abs(prox_vector_norm(v, "linf", 1e-7) - v).sum() <= 1e-7
        w = np.array([1e10, 3.0, 1.0, -2.0])
        for tags in ("linf", ["linf", "l1"]):
            st = structures.build_group([(0, 1), (2, 3)], block_norm=tags)
            out = prox_structure_norm(st, w, 1e-7)
            assert np.all(np.isfinite(out))
            assert np.abs(out - w).sum() <= 2e-7 + 1e-12
    for _ in range(200):
        x = rng.standard_normal(int(rng.integers(1, 12))) * 3
        r = float(rng.uniform(1e-3, 0.9)) * np.abs(x).sum()
        a = np.abs(x)
        u = np.sort(a)[::-1]
        css = u.cumsum()
        rho = np.nonzero(u * np.arange(1, a.size + 1) > css - r)[0][-1]
        ref = np.sign(x) * np.maximum(a - (css[rho] - r) / (rho + 1.0), 0.0)
        assert norms.project_l1_ball(x, r).tobytes() == ref.tobytes()


def test_lowrank_prox_is_bitwise_the_svd_descending_formula():
    for p, q in ((3, 3), (4, 3), (5, 2)):
        lr = structures.build_lowrank(p, q)
        r = np.random.default_rng([p, q])
        for _ in range(10):
            m = r.standard_normal((p, q))
            tau = float(r.uniform(0.0, 1.5))
            u, sv, vt = svd_descending(m)
            ref = (u * np.maximum(sv - tau, 0.0)) @ vt
            assert np.array_equal(prox_structure_norm(lr, m, tau), ref)
            assert np.array_equal(prox_structure_norm(lr, m.ravel(), tau),
                                  ref.ravel())


def test_l2_ball_and_prox_match_numpy_norm_bitwise():
    """The l2 branches take sqrt(v @ v), which is what np.linalg.norm
    computes on a vector; the outputs are bitwise those of the norm call."""
    rng = np.random.default_rng(31)
    for size in (1, 5, 75, 300):
        for _ in range(20):
            v = rng.standard_normal(size) * rng.uniform(0.1, 10)
            nrm = float(np.linalg.norm(v))
            for level in (0.5 * nrm, 2.0 * nrm):
                ball = v.copy() if nrm <= level else v * (level / nrm)
                assert np.array_equal(project_ball(v, "l2", level), ball)
                prox = np.zeros_like(v) if nrm <= level else \
                    v * (1.0 - level / nrm)
                assert np.array_equal(prox_vector_norm(v, "l2", level), prox)


def test_structure_norm_epigraph_minimum_is_the_norm(rng):
    """Over [u+ | u- | t] >= 0 with u+ - u- pinned to u, the least cost
    under the epigraph rows is the structure norm of B u."""
    from sparsecert.engine import LinearProgram, Status, solve_lp
    cases = [structures.build_plain(5)] + [
        structures.build_group(blocks, block_norm=tags)
        for blocks, tags in (
            ([(0, 1), (2, 3, 4)], "l1"),
            ([(0, 1), (2, 3, 4)], "linf"),
            ([(0, 1, 2), (2, 3, 4), (3, 4), (0, 4)],
             ["l1", "l1", "linf", "linf"]))]
    for st in cases:
        cost, g = norms.structure_norm_epigraph(st, 5)
        pin = np.zeros((5, cost.size))
        pin[:, :5], pin[:, 5:10] = np.eye(5), -np.eye(5)
        for u in rng.standard_normal((3, 5)):
            _, rep = solve_lp(LinearProgram(
                c=cost, G=np.vstack([g, pin]),
                h=np.concatenate([np.zeros(g.shape[0]), u]),
                senses=("le",) * g.shape[0] + ("eq",) * 5))
            assert rep.status is Status.OPTIMAL
            want = structure_norm(st, st.b @ u)
            assert rep.objective == pytest.approx(want, rel=1e-9)


def test_structure_norm_epigraph_of_any_b_is_the_norm(rng):
    """The same for a representation map other than the canonical one."""
    from sparsecert.engine import LinearProgram, Status, solve_lp
    cases = [structures.build_plain(5)] + [
        structures.build_group(blocks, block_norm=tags)
        for blocks, tags in (
            ([(0, 1), (2, 3, 4)], "l1"),
            ([(0, 1), (2, 3, 4)], "linf"),
            ([(0, 1, 2), (2, 3, 4), (3, 4), (0, 4)],
             ["l1", "l1", "linf", "linf"]))]
    for st in cases:
        b = rng.standard_normal((st.ambient_dim_e, 5))
        cost, g = norms.structure_norm_epigraph(st, 5, b)
        pin = np.zeros((5, cost.size))
        pin[:, :5], pin[:, 5:10] = np.eye(5), -np.eye(5)
        for u in rng.standard_normal((3, 5)):
            _, rep = solve_lp(LinearProgram(
                c=cost, G=np.vstack([g, pin]),
                h=np.concatenate([np.zeros(g.shape[0]), u]),
                senses=("le",) * g.shape[0] + ("eq",) * 5))
            assert rep.status is Status.OPTIMAL
            assert rep.objective == pytest.approx(structure_norm(st, b @ u),
                                                  rel=1e-9)
        with pytest.raises(ValueError):
            norms.structure_norm_epigraph(st, 5, b[:, :4])


def test_lp_form_predicate():
    assert norms.has_lp_form(structures.build_plain(3))
    assert norms.has_lp_form(structures.build_group(
        [(0, 1), (2,)], block_norm=["l1", "linf"]))
    for st in (structures.build_group([(0, 1), (2,)],
                                      block_norm=["l1", "l2"]),
               structures.build_lowrank(2, 2)):
        assert not norms.has_lp_form(st)
        with pytest.raises(UnsupportedNormError):
            norms.structure_norm_epigraph(st, st.ambient_dim_x)
