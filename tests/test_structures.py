"""Structure builders, projector families, approximation, axioms."""

import itertools
import math

import numpy as np
import pytest

from sparsecert import norms, structures
from sparsecert.structures import (NotEnumerableError, StructureError,
                                   build_group, build_lowrank, build_plain,
                                   build_structure, best_sparse_approx,
                                   enumerate_projectors, project,
                                   random_projector, structure_from_dict,
                                   structure_to_dict, verify_axioms)

from oracles import (best_group_approx_oracle, best_plain_approx_oracle,
                     maximal_block_sets_oracle)

BLOCKS = [(0, 1, 2), (2, 3), (4, 5, 6), (6, 7)]


def test_plain_builder():
    st = build_plain(5)
    assert st.kind == "plain" and st.n == 5
    assert st.ambient_dim_x == st.ambient_dim_e == 5
    assert np.array_equal(st.b, np.eye(5))
    x = np.arange(5.0)
    assert np.array_equal(st.b @ x, x)
    assert st.full_weight() == 5.0
    # the block layout of the n singleton l1 blocks with unit weights
    assert st.blocks == tuple((i,) for i in range(5))
    assert st.weights == (1.0,) * 5 and st.shared_norm == "l1"


def test_shared_norm_is_derived_from_the_block_tags():
    assert build_group(BLOCKS, block_norm="linf").shared_norm == "linf"
    mixed = build_group(BLOCKS, block_norm=["l1", "l2", "l1", "l1"])
    assert mixed.shared_norm is None
    assert build_lowrank(2, 3).shared_norm is None


def test_block_layout_is_derived_at_construction():
    """``offsets`` (K + 1 block starts in E) and ``block_of`` (the block of
    each E coordinate) come with the structure, read-only; overlapping
    blocks stack in E, and low rank has no blocks."""
    pl = build_plain(4)
    assert pl.offsets.tolist() == [0, 1, 2, 3, 4]
    assert pl.block_of.tolist() == [0, 1, 2, 3]
    gr = build_group(BLOCKS, block_norm=["l1", "l2", "linf", "l2"])
    assert gr.offsets.tolist() == [0, 3, 5, 8, 10]
    assert gr.block_of.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
    assert gr.offsets[-1] == gr.ambient_dim_e == 10
    lr = build_lowrank(2, 3)
    assert lr.offsets.tolist() == [0] and lr.block_of.size == 0
    for arr in (gr.offsets, gr.block_of, lr.block_of):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_plain_is_the_singleton_l1_block_layout(rng):
    """A plain structure and the group of its n singleton l1 blocks give the
    same norms, seminorm, prox, best approximation and worst projector; the
    plain projectors keep their kind and pick the stable top-s support."""
    from sparsecert.certify.conditions import worst_condition_projector
    n = 7
    pl = build_plain(n)
    gr = build_group([(i,) for i in range(n)], block_norm="l1")
    for _ in range(10):
        w = rng.standard_normal(n)
        w[int(rng.integers(1, n))] = -w[0]      # a tie in magnitude
        for dual in (False, True):
            assert norms.structure_norm(pl, w, dual) == \
                norms.structure_norm(gr, w, dual)
        assert norms.structure_norm(pl, w) == pytest.approx(np.abs(w).sum())
        assert np.array_equal(norms.prox_structure_norm(pl, w, 0.3),
                              norms.prox_structure_norm(gr, w, 0.3))
        assert np.array_equal(norms.prox_structure_norm(pl, w, 0.3),
                              norms.soft_threshold(w, 0.3))
        for s in (0, 1, 2.5, 3, n + 1):
            k = min(int(s), n)
            keep = np.argsort(-np.abs(w), kind="stable")[:k]
            assert norms.ps_seminorm(pl, w, s) == norms.ps_seminorm(gr, w, s)
            if k:
                assert norms.ps_seminorm(pl, w, s) == pytest.approx(
                    2.0 * norms.sum_top(w, k), abs=1e-12)
            got = best_sparse_approx(pl, w, s)
            want = best_sparse_approx(gr, w, s)
            assert got.projector.kind == "plain" and got.exact
            assert got.projector.block_set == want.projector.block_set \
                == frozenset(keep.tolist())
            assert got.delta_x == want.delta_x
            proj, lhs = worst_condition_projector(pl, w, s)
            assert lhs == worst_condition_projector(gr, w, s)[1]
            assert lhs == 2.0 * float(np.abs(w)[keep].sum())
            assert proj.kind == "plain"
            assert proj.block_set == frozenset(keep.tolist())


def test_group_builder_overlap():
    st = build_group(BLOCKS, weights=[1, 2, 1, 1], block_norm="l2")
    assert st.ambient_dim_x == 8
    # overlapping coordinates are duplicated in the representation space
    assert st.ambient_dim_e == 3 + 2 + 3 + 2
    x = np.arange(8.0)
    w = st.b @ x
    assert np.array_equal(w, [0, 1, 2, 2, 3, 4, 5, 6, 6, 7])
    assert st.full_weight() == 5.0


def test_structure_owns_its_read_only_b():
    """``structure.b`` is built once and cannot be written; resolving B again
    returns that same array, and so does passing it back explicitly, with
    no custom matrix, while any other B is the custom one."""
    for st in (build_plain(4), build_group(BLOCKS), build_lowrank(2, 3)):
        assert st.b.shape == (st.ambient_dim_e, st.ambient_dim_x)
        with pytest.raises(ValueError):
            st.b[0, 0] = 2.0
        first, custom = structures.representation(st)
        assert first is st.b and custom is None
        assert structures.representation(st)[0] is first
        again, custom = structures.representation(st, st.b.copy())
        assert again is st.b and custom is None
    st = build_plain(3)
    b = np.diag([1.0, 10.0, 1.0])
    bmat, custom = structures.representation(st, b.tolist())
    assert np.array_equal(bmat, b) and custom is bmat


def test_group_builder_rejects_bad_blocks():
    with pytest.raises(StructureError):
        build_group([])
    with pytest.raises(StructureError):
        build_group([(0, 0, 1)])
    with pytest.raises(StructureError):
        build_group([(0, 1), (3,)])          # coordinate 2 uncovered
    with pytest.raises(StructureError):
        build_group([(0, 1)], weights=[0.0])
    with pytest.raises(StructureError):
        build_group([(0, 1)], block_norm="l3")


def test_group_builder_rejects_non_finite_weights():
    # NaN passes a plain "c <= 0" test, since every comparison with NaN fails
    for bad in (np.nan, np.inf):
        with pytest.raises(StructureError):
            build_group([(0,), (1,)], weights=[bad, 1.0])


def test_lowrank_builder_keeps_wide_inputs():
    """A 2 x 4 structure acts on 2 x 4 matrices: norms, projectors and the
    file format all keep the shape the caller gave."""
    st = build_lowrank(2, 4)
    assert (st.p, st.q) == (2, 4)
    assert st.full_weight() == 2.0
    assert np.array_equal(st.b, np.eye(8))
    x = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
    assert norms.structure_norm(st, x.ravel()) == pytest.approx(
        math.sqrt(30.0), abs=1e-12)
    approx = best_sparse_approx(st, x.ravel(), 3)
    assert approx.projector.nu == 2.0 and approx.delta_x == pytest.approx(
        0.0, abs=1e-12)
    d = structure_to_dict(st)
    assert (d["p"], d["q"]) == (2, 4)
    st2 = structure_from_dict(d)
    assert (st2.p, st2.q) == (2, 4)
    with pytest.raises(StructureError):
        build_lowrank(0, 3)


def test_dispatch_and_dict_round_trip():
    for st in (build_plain(4),
               build_group(BLOCKS, weights=[1, 2, 1, 1],
                           block_norm=["l1", "l2", "linf", "l2"]),
               build_lowrank(3, 3)):
        st2 = structure_from_dict(structure_to_dict(st))
        assert structure_to_dict(st2) == structure_to_dict(st)
    with pytest.raises(StructureError):
        build_structure("ring", n=3)


def test_plain_projector_family():
    st = build_plain(6)
    fam = enumerate_projectors(st, 2)
    assert len(fam) == math.comb(6, 2)
    assert all(p.nu == 2.0 for p in fam)
    assert [tuple(sorted(p.block_set)) for p in fam] == \
        list(itertools.combinations(range(6), 2))
    w = np.arange(1.0, 7.0)
    p = structures.group_projector(st, [1, 4])
    assert p.kind == "plain" and p.nu == 2.0
    direct = project(st, p, w)
    comp = project(st, p, w, "complement")
    assert np.array_equal(direct, [0, 2, 0, 0, 5, 0])
    assert np.array_equal(direct + comp, w)


def test_group_projector_family_maximality():
    st = build_group(BLOCKS, weights=[1, 2, 1, 1])
    fam = enumerate_projectors(st, 2)
    sets = sorted(tuple(sorted(p.block_set)) for p in fam)
    # weight-2 maximal subsets of chi = (1,2,1,1)
    assert sets == [(0, 2), (0, 3), (1,), (2, 3)]
    for p in fam:
        assert p.nu <= 2.0 + 1e-12


def test_enumeration_refuses_a_level_that_is_not_a_number():
    for st in (build_plain(4), build_group(BLOCKS)):
        for s in (-1.0, math.nan):
            with pytest.raises(ValueError):
                enumerate_projectors(st, s)


def test_lowrank_family_not_enumerable():
    st = build_lowrank(3, 3)
    with pytest.raises(NotEnumerableError):
        enumerate_projectors(st, 1)


def test_lowrank_projection_shapes_and_idempotence(rng):
    st = build_lowrank(4, 3)
    proj = random_projector(st, rng, max_weight=2)
    m = rng.standard_normal((4, 3))
    pm = project(st, proj, m)
    assert pm.shape == (4, 3)
    assert np.allclose(project(st, proj, pm), pm, atol=1e-12)
    # flat input comes back flat
    flat = project(st, proj, m.ravel())
    assert flat.shape == (12,)
    assert np.allclose(flat, pm.ravel())
    # complement kills the direct range
    assert np.max(np.abs(project(st, proj, pm, "complement"))) < 1e-12


def test_projection_idempotent_and_complementary(rng):
    for st in (build_plain(7),
               build_group(BLOCKS, weights=[1, 2, 1, 1]),
               build_lowrank(3, 4)):
        for _ in range(50):
            proj = random_projector(st, rng)
            w = rng.standard_normal(st.ambient_dim_e)
            pw = project(st, proj, w)
            assert np.allclose(project(st, proj, pw), pw, atol=1e-12)
            assert np.max(np.abs(np.asarray(
                project(st, proj, pw, "complement")))) < 1e-12


def test_best_sparse_approx_plain_matches_enumeration(rng):
    st = build_plain(9)
    for _ in range(40):
        w = rng.standard_normal(9)
        for s in (1, 3, 9):
            got = best_sparse_approx(st, w, s)
            assert got.exact
            assert got.delta_x == pytest.approx(
                best_plain_approx_oracle(w, s), abs=1e-12)
    assert best_sparse_approx(st, rng.standard_normal(9), 9).delta_x == 0.0


def test_best_sparse_approx_group_matches_enumeration(rng):
    st = build_group(BLOCKS, weights=[1, 2, 1, 1])
    for _ in range(40):
        w = rng.standard_normal(st.ambient_dim_e)
        for s in (1, 2, 3, 5):
            got = best_sparse_approx(st, w, s)
            assert got.exact
            assert got.delta_x == pytest.approx(
                best_group_approx_oracle(st, w, s), abs=1e-12)


def test_best_sparse_approx_group_real_weights_is_upper_bound(rng):
    st = build_group([(0, 1), (2, 3), (4,)], weights=[1.5, 0.7, 1.1])
    for _ in range(20):
        w = rng.standard_normal(5)
        got = best_sparse_approx(st, w, 2.0)
        # up to 25 blocks the branch and bound gives the true minimum
        assert got.exact
        assert got.delta_x >= best_group_approx_oracle(st, w, 2.0) - 1e-12
        assert got.delta_x == pytest.approx(
            best_group_approx_oracle(st, w, 2.0), abs=1e-12)


def test_best_sparse_approx_real_weights_beats_greedy():
    # greedy by norm/weight ratio keeps block 0 (2.3/1.1) and nothing else
    # fits; the best set is blocks 1 and 2
    st = build_group([(0,), (1,), (2,)], weights=[1.1, 1.0, 1.0])
    got = best_sparse_approx(st, np.array([2.3, 2.0, -2.0]), 2.0)
    assert got.exact
    assert got.delta_x == pytest.approx(2.3, abs=1e-12)
    assert got.projector.block_set == frozenset({1, 2})


def test_best_sparse_approx_many_real_weights_falls_back_to_greedy():
    # past 25 non-integer weights the greedy set is used and flagged; the
    # same trap as above makes it strictly worse than the best set
    weights = [1.1, 1.0, 1.0] + [1.5] * 24
    st = build_group([(i,) for i in range(27)], weights=weights)
    w = np.concatenate([[2.3, 2.0, 2.0], np.full(24, 0.1)])
    got = best_sparse_approx(st, w, 2.0)
    assert not got.exact
    assert got.delta_x == pytest.approx(w.sum() - 2.3, abs=1e-12)
    assert got.delta_x >= w.sum() - 4.0


def test_best_sparse_approx_lowrank_truncates_svd(rng):
    st = build_lowrank(4, 4)
    m = rng.standard_normal((4, 4))
    sv = np.linalg.svd(m, compute_uv=False)
    for s in (1, 2, 4):
        got = best_sparse_approx(st, m, s)
        assert got.delta_x == pytest.approx(sv[s:].sum(), abs=1e-9)
    assert best_sparse_approx(st, m, 4).delta_x == pytest.approx(0.0, abs=1e-12)
    # inf keeps the whole spectrum, as it keeps every block elsewhere
    assert best_sparse_approx(st, m, np.inf).kept == pytest.approx(sv.sum())
    with pytest.raises(ValueError, match="s must be a number >= 0"):
        best_sparse_approx(st, m, np.nan)


def test_worst_condition_projector_is_the_best_sparse_approx(rng):
    """The worst projector is ``best_sparse_approx``'s, and its left side is
    twice the mass that keeps: bitwise the selection it made by itself for
    plain and group, the truncated SVD for low rank."""
    from sparsecert.certify.conditions import worst_condition_projector
    pl = build_plain(9)
    gr = build_group(BLOCKS, weights=[1.0, 2.0, 1.0, 1.5],
                     block_norm=["l1", "l2", "linf", "l2"])
    for st in (pl, gr):
        for _ in range(20):
            w = rng.standard_normal(st.ambient_dim_e)
            for s in (0.0, 1.0, 2.5, 4.0):
                vals = norms.group_block_norms(st, w)
                value, mask, _ = norms.select_blocks(vals, st.weights, s)
                proj, lhs = worst_condition_projector(st, w, s)
                assert lhs == 2.0 * value
                assert proj.block_set == frozenset(np.nonzero(mask)[0])
                approx = best_sparse_approx(st, w, s)
                assert approx.kept == value
    lr = build_lowrank(4, 3)
    for _ in range(20):
        m = rng.standard_normal((4, 3))
        for s in (1, 2, 5):
            k = min(s, 3)
            u, sv, vt = norms.svd_descending(m)
            proj, lhs = worst_condition_projector(lr, m.ravel(), s)
            assert lhs == 2.0 * float(sv[:k].sum())
            assert np.array_equal(proj.left, u[:, :k])
            assert np.array_equal(proj.right, vt[:k, :].T)
            # the random probes never lower the left side
            _, probed = worst_condition_projector(
                lr, m.ravel(), s, rng=np.random.default_rng(0), probes=5)
            assert probed >= lhs


def test_full_weight_approx_is_lossless(rng):
    for st in (build_plain(6),
               build_group(BLOCKS, weights=[1, 2, 1, 1]),
               build_lowrank(3, 3)):
        w = rng.standard_normal(st.ambient_dim_e)
        assert best_sparse_approx(st, w, st.full_weight()).delta_x == \
            pytest.approx(0.0, abs=1e-9)


def test_axioms_hold_on_all_three_families():
    for st in (build_plain(6),
               build_group(BLOCKS, weights=[1, 2, 1, 1],
                           block_norm=["l1", "l2", "linf", "l2"]),
               build_lowrank(3, 4)):
        report = verify_axioms(st, trials=500, seed=3)
        assert report.ok, report.violations[:1]
        assert min(report.worst_margin.values()) >= -1e-9


def test_axiom_checker_catches_corrupt_complement(monkeypatch):
    real = structures.project

    def corrupt(structure, proj, w, which="direct"):
        # the "complement" is the identity
        return w if which == "complement" else real(structure, proj, w, which)

    monkeypatch.setattr(structures, "project", corrupt)
    st = build_plain(6)
    report = verify_axioms(st, trials=200, seed=1)
    assert not report.ok
    assert any(v["axiom"] == "complement_kills_range"
               for v in report.violations)


def test_random_projector_respects_weight_cap(rng):
    st = build_group(BLOCKS, weights=[1, 2, 1, 1])
    for _ in range(100):
        assert random_projector(st, rng, max_weight=2).nu <= 2 + 1e-12
    lr = build_lowrank(4, 4)
    for _ in range(50):
        assert random_projector(lr, rng, max_weight=2).nu <= 2


def test_group_enumeration_lists_every_maximal_set():
    """30 unit blocks at s=3: the C(30, 3) triples in lexicographic order,
    with no 2^K walk and no budget to refuse it."""
    st = build_group([(i,) for i in range(30)])
    fam = enumerate_projectors(st, 3)
    assert [tuple(sorted(p.block_set)) for p in fam] == \
        list(itertools.combinations(range(30), 3))
    assert len(fam) == 4060 and all(p.kind == "group" for p in fam)


def test_maximal_block_sets_match_the_reference():
    """The depth-first enumeration yields the itertools reference's sets in
    its lexicographic order, ties at the cap included, and they are the
    nonempty block sets of ``iter_projectors``."""
    rng = np.random.default_rng(8)
    draws = [([0.1] * 10, 1.0), ([0.2, 0.1, 0.3], 0.6), ([1.0] * 6, 2.0)]
    for _ in range(12):
        weights = rng.choice([0.5, 1.0, 1.5, 0.7, 2.0], size=7)
        draws += [(weights, s) for s in (0.4, 1.0, 1.7, 2.0, 3.3, 20.0)]
    for _ in range(40):
        weights = rng.choice([0.1, 0.2, 0.3, 0.6], size=int(rng.integers(1, 9)))
        draws.append((weights, float(rng.choice([0.3, 0.6, 0.9, 1.2]))))
    for weights, s in draws:
        want = maximal_block_sets_oracle(weights, s)
        assert list(structures.maximal_block_sets(weights, s)) == want
        st = build_group([(i,) for i in range(len(weights))], weights)
        fam = [tuple(sorted(p.block_set))
               for p in structures.iter_projectors(st, s)]
        assert fam == (want or [()])


def test_maximal_block_sets_are_output_sensitive():
    """Many blocks and few maximal sets: the walk is recursion-free and
    costs about K steps per set."""
    st = build_group([(i,) for i in range(1200)])
    assert [p.block_set for p in enumerate_projectors(st, 1200)] == \
        [frozenset(range(1200))]
    st = build_group([(i,) for i in range(60)])
    fam = enumerate_projectors(st, 58)
    assert [tuple(sorted(p.block_set)) for p in fam] == \
        list(itertools.combinations(range(60), 58))
    assert len(fam) == 1770
