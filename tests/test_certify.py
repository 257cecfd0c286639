"""Certification: brute-force verdicts, the condition checker, synthesis."""

import numpy as np
import pytest

from sparsecert import structures
from sparsecert.certify import (check_condition_Cs, gamma_s_bruteforce,
                                psi_s, synth_certificate_group)
from sparsecert.recovery import RecoveryProblem, recover_regular

from oracles import (gamma_kernel1_oracle, group_ratio_and_grad_oracle,
                     matrix_with_kernel, solve_free_split, split_free,
                     unpruned_bruteforce_oracle)


# ---------------------------------------------------------------------------
# brute force


def test_injective_map_is_certified_good():
    st = structures.build_plain(4)
    for s in (1, 2, 4):
        v = gamma_s_bruteforce(np.eye(4), st, s)
        assert v.status == "CertifiedGood"
        assert v.gamma_value == pytest.approx(0.0, abs=1e-9)
        assert v.certified_good


def test_all_ones_row_is_the_boundary_case():
    """One balanced row: gamma_1 = 1/2 exactly, an uncertifiable tie."""
    st = structures.build_plain(5)
    v = gamma_s_bruteforce(np.ones((1, 5)), st, 1)
    assert v.status == "CertifiedBad"
    assert v.gamma_value == pytest.approx(0.5, abs=1e-9)
    assert v.witness is not None
    # the witness realizes the ratio inside the kernel
    z = v.witness
    assert abs(z.sum()) <= 1e-8 * np.abs(z).sum()
    assert np.sort(np.abs(z))[-1] / np.abs(z).sum() == \
        pytest.approx(0.5, abs=1e-8)


def test_all_ones_row_s2_reaches_one():
    # (1, -1, 0, ...) sits in the kernel with its whole mass on 2 entries
    st = structures.build_plain(5)
    v = gamma_s_bruteforce(np.ones((1, 5)), st, 2)
    assert v.status == "CertifiedBad"
    assert v.gamma_value == pytest.approx(1.0, abs=1e-9)


def test_fixed_small_instance():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    st = structures.build_plain(3)
    v = gamma_s_bruteforce(a, st, 1)
    assert v.status == "CertifiedGood"
    # kernel is span (1, 1, -1): best single coordinate holds 1/3 of the mass
    assert v.gamma_value == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_kernel_dim_one_matches_closed_form(rng):
    for trial in range(15):
        r = np.random.default_rng(trial)
        v = r.standard_normal(7)
        a = matrix_with_kernel(v)
        st = structures.build_plain(7)
        for s in (1, 2, 3):
            got = gamma_s_bruteforce(a, st, s)
            assert got.gamma_value == pytest.approx(
                gamma_kernel1_oracle(v, s), abs=1e-7)


def test_gamma_monotone_in_s(rng):
    st = structures.build_plain(8)
    for trial in range(5):
        a = np.random.default_rng(trial).standard_normal((5, 8))
        vals = [gamma_s_bruteforce(a, st, s).gamma_value for s in (1, 2, 3)]
        assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


def test_group_bruteforce_l1_blocks_exhaustive(rng):
    """L1 blocks linearize exactly, so the group verdict is exhaustive."""
    st = structures.build_group([(0, 1), (2, 3), (4, 5)],
                                block_norm="l1")
    a = np.random.default_rng(2).standard_normal((4, 6))
    v = gamma_s_bruteforce(a, st, 1, b=None)
    assert v.status in ("CertifiedGood", "CertifiedBad")
    assert v.bracket is None        # exact, not sampled
    assert 0.0 <= v.gamma_value <= 1.0 + 1e-9


def _good_instances():
    """(a, structure, s) whose exhaustive verdict is CertifiedGood."""
    st = structures.build_plain(3)
    yield np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), st, 1
    blocks = [(0, 1), (2, 3), (4, 5)]
    for tag, seed in (("l1", 1), ("linf", 4)):
        st = structures.build_group(blocks, block_norm=tag)
        yield np.random.default_rng(seed).standard_normal((4, 6)), st, 1


def test_bruteforce_details_report_pivots_and_gaps():
    for a, st, s in _good_instances():
        v = gamma_s_bruteforce(a, st, s, b=None)
        assert v.status == "CertifiedGood"
        d = v.details
        assert d["lp_iterations"] >= d["lp_count"] > 0
        assert 0.0 <= d["lp_delta"] <= 1e-12 and d["lps_not_optimal"] == 0


def test_bruteforce_unsolved_lp_blocks_a_good_verdict(patch_reports):
    """An LP that stops at its cap leaves its value unknown: the verdict
    can no longer be exhaustive."""
    from sparsecert.engine import SolveReport, Status

    def second_stalls(i, x, rep):
        if i == 1:
            return x, SolveReport(status=Status.MAXITER, iterations=7)
        return x, rep

    patch_reports(second_stalls)
    for a, st, s in _good_instances():
        v = gamma_s_bruteforce(a, st, s, b=None)
        assert v.status == "Unknown" and v.bracket[1] == 1.0
        assert v.details["lps_not_optimal"] == 1


def test_bruteforce_good_verdict_needs_the_certified_bound(patch_reports):
    """CertifiedGood is decided on max(value + delta), not on the values."""
    def loose(i, x, rep):
        rep.delta = 0.5 if i == 0 else rep.delta
        return x, rep

    patch_reports(loose)
    for a, st, s in _good_instances():
        v = gamma_s_bruteforce(a, st, s, b=None)
        assert v.status == "Unknown" and v.gamma_value < 0.5
        assert v.details["lp_delta"] == 0.5


def _record_costs(monkeypatch):
    """The cost vectors the brute force hands to its ``LPSequence``, each
    once, in the order they are solved: every row of a ``solve_many`` batch
    and every cost of a ``solve`` made outside one."""
    from sparsecert.certify import bruteforce
    seen = []

    class Recorded(bruteforce.LPSequence):
        in_batch = False

        def solve(self, cost):
            if not self.in_batch:
                seen.append(cost)
            return super().solve(cost)

        def solve_many(self, costs):
            seen.extend(costs)
            self.in_batch = True
            try:
                return super().solve_many(costs)
            finally:
                self.in_batch = False

    monkeypatch.setattr(bruteforce, "LPSequence", Recorded)
    return seen


def _supports_solved(seen, n):
    """How many LPs ran per plain support (the nonzero costs on u+)."""
    out = {}
    for c in seen:
        key = tuple(np.nonzero(c[:n])[0])
        out[key] = out.get(key, 0) + 1
    return out


# plain n=6, m=5, s=2: CertifiedGood at gamma 0.4956, with all but one pair
# pruned: 6 singleton LPs, then 2 of the 30 pair LPs
_PRUNED_GOOD = (np.random.default_rng(5).standard_normal((5, 6)), 2)


def test_bruteforce_stalled_singleton_leaves_its_supersets_unpruned(
        monkeypatch, patch_reports):
    """A singleton LP that stops at its cap has UB +inf: every pair holding
    it has an infinite bound, so none may be pruned, and the verdict can no
    longer be exhaustive."""
    from sparsecert.engine import SolveReport, Status
    a, s = _PRUNED_GOOD
    st = structures.build_plain(6)
    assert gamma_s_bruteforce(a, st, s).status == "CertifiedGood"
    seen = _record_costs(monkeypatch)

    def first_stalls(i, x, rep):
        if i == 0:      # the LP of the singleton (0,)
            return x, SolveReport(status=Status.MAXITER, iterations=7)
        return x, rep

    patch_reports(first_stalls)
    v = gamma_s_bruteforce(a, st, s)
    assert v.status == "Unknown" and v.bracket[1] == 1.0
    assert v.details["lps_not_optimal"] == 1
    assert "gamma_upper" not in v.details
    solved = _supports_solved(seen, 6)
    assert all(solved.get((0, j)) == 2 for j in range(1, 6))


def test_bruteforce_singleton_delta_raises_the_bounds_built_on_it(
        monkeypatch, patch_reports):
    """A singleton's UB is its value + delta.  With delta = 0.5 on (0,) every
    pair holding it is bounded above gamma < 1/2, so every such pair is
    solved, where without the patch all but one pair is pruned.  The
    pruning shows when each round holds one set's LPs (``_ROUND_LPS`` = 1):
    a round of 32 LPs takes every pair whose bound exceeds the singletons'
    best value, here 11 of the 15 pairs and 4 of these 5.  The patched
    bounds hold at both round sizes."""
    from sparsecert.certify import bruteforce
    a, s = _PRUNED_GOOD
    st = structures.build_plain(6)
    seen = _record_costs(monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(bruteforce, "_ROUND_LPS", 1)
        plain = gamma_s_bruteforce(a, st, s)
    pairs = [(0, j) for j in range(1, 6)]
    assert sum(p in _supports_solved(seen, 6) for p in pairs) <= 1

    def loose_first(i, x, rep):
        rep.delta = 0.5 if i == 0 else rep.delta
        return x, rep

    patch_reports(loose_first)
    for round_lps in (1, bruteforce._ROUND_LPS):
        seen.clear()
        with monkeypatch.context() as mp:
            mp.setattr(bruteforce, "_ROUND_LPS", round_lps)
            v = gamma_s_bruteforce(a, st, s)
        solved = _supports_solved(seen, 6)
        assert all(solved.get(p) == 2 for p in pairs)
        assert v.gamma_value == pytest.approx(plain.gamma_value, abs=1e-12)
        assert v.status == "Unknown" and v.details["gamma_upper"] >= 0.5
        assert v.details["lp_count"] > plain.details["lp_count"]


def test_bruteforce_visit_order_ignores_roundoff_in_the_bounds(
        patch_reports):
    """Bounds within the tie tolerance count as equal and go in set order,
    so 1e-15 more on every LP's delta solves the same LPs (ordered by the
    bounds alone, the counts moved on five of the six draws)."""
    st = structures.build_plain(12)
    draws = [np.random.default_rng(seed).standard_normal((7, 12)) / np.sqrt(7)
             for seed in range(6)]
    before = [gamma_s_bruteforce(a, st, 3) for a in draws]

    def bumped(i, x, rep):
        rep.delta += 1e-15
        return x, rep

    patch_reports(bumped)
    after = [gamma_s_bruteforce(a, st, 3) for a in draws]
    for u, v in zip(before, after):
        assert u.details["lp_count"] == v.details["lp_count"]
        assert u.status == v.status
        assert u.gamma_value == pytest.approx(v.gamma_value, abs=1e-12)
        for w in (u, v):
            assert w.details["gamma_upper"] >= w.gamma_value


def test_bruteforce_budget_refusal_is_fast_on_many_blocks():
    """Few maximal sets over many blocks: the enumeration is output-sensitive
    and recursion-free, so the LP budget refuses at once (plain n=22 at
    s=21 walked every subset of the blocks that fit; 1,200 blocks at s=1,200
    overflowed the recursion)."""
    for n, m, s in ((22, 12, 21), (22, 12, 18), (1200, 1, 1200)):
        st = structures.build_plain(n)
        a = np.random.default_rng(n).standard_normal((m, n))
        verdict = gamma_s_bruteforce(a, st, s)
        assert verdict.status == "Unknown"
        assert "exceed the LP budget" in verdict.details["reason"]


def _oracle_cases():
    """(name, a, structure, b, s) for the pruned-against-unpruned sweep."""
    # m close to n makes the good verdicts: (10, 8, 2), (12, 11, 3)
    for n, m, s in [(6, 3, 1), (6, 4, 2), (8, 5, 2), (8, 4, 3), (10, 6, 2),
                    (10, 8, 2), (10, 6, 3), (11, 6, 2.5), (12, 7, 1),
                    (12, 7, 2), (12, 7, 3), (12, 11, 3), (13, 7, 1.5),
                    (14, 8, 2), (16, 10, 2), (16, 10, 3), (24, 14, 1)]:
        st = structures.build_plain(n)
        for seed in (0, 1):
            a = np.random.default_rng([n, m, seed]).standard_normal((m, n))
            yield f"plain-n{n}-m{m}-s{s}-{seed}", a, st, None, s
    groups = {
        "l1": ([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)], "l1", None),
        "linf": ([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)], "linf",
                 None),
        "mixed": ([(0, 1, 2), (3, 4), (5,), (6, 7), (8, 9, 10), (11,)],
                  ["l1", "linf", "l1", "l1", "linf", "l1"], None),
        "overlap": ([(0, 1, 2), (2, 3, 4), (4, 5), (1, 5), (5,), (6, 7),
                     (7, 8, 9, 10, 11)],
                    ["l1", "l1", "linf", "linf", "l1", "l1", "linf"], None),
        "weighted": ([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)],
                     ["l1", "linf", "l1", "linf", "l1", "l1"],
                     [0.5, 1.0, 1.5, 0.7, 1.2, 1.0]),
    }
    for name, (blocks, tags, weights) in groups.items():
        st = structures.build_group(blocks, weights, block_norm=tags)
        for s, m in ((1, 6), (2, 7), (2.6, 8)):
            a = np.random.default_rng([len(blocks), m]).standard_normal(
                (m, 12))
            yield f"{name}-s{s}", a, st, None, s
    # non-canonical B: plain and mixed blocks under B = I + 0.4 G
    for name, st, s in (("plain", structures.build_plain(9), 2),
                        ("mixed", structures.build_group(
                            [(0, 1, 2), (3, 4), (5, 6, 7, 8)],
                            block_norm=["l1", "linf", "l1"]), 2)):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((5, 9))
        b = np.eye(9) + 0.4 * rng.standard_normal((9, 9))
        yield f"custom-b-{name}", a, st, b, s


_ORACLE_CASES = {c[0]: c[1:] for c in _oracle_cases()}


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_pruned_bruteforce_matches_unpruned_oracle(name):
    """The pruned enumeration reaches the verdict of solving every signed
    support: same status, gamma to 1e-9, a certified upper bound at least
    gamma, and the LP count of the maximal sets the oracle solves."""
    a, st, b, s = _ORACLE_CASES[name]
    want = unpruned_bruteforce_oracle(a, st, s, b=b)
    got = gamma_s_bruteforce(a, st, s, b=b)
    assert got.status == want.status
    assert got.gamma_value == pytest.approx(want.gamma_value, abs=1e-9)
    d = got.details
    assert d["gamma_upper"] >= got.gamma_value
    assert d["signed_supports"] == want.details["lp_count"]
    assert 0 <= d["lps_pruned"] <= d["signed_supports"]
    assert d["signed_supports"] - d["lps_pruned"] <= d["lp_count"]


def _round_draws():
    """(a, structure, b, s) of 42 seeded draws for the lockstep rounds:
    plain n = 8 to 12 (m = n - 4 to n - 1) at s = 2 and 3, six l1 pairs and
    six linf pairs at s = 1 and 2, and plain n = 8 under B = I + 0.4 G.
    9 of them are CertifiedGood."""
    for seed in range(24):
        rng = np.random.default_rng([31, seed])
        n, s = 8 + seed % 5, 2 + seed % 2
        m = int(rng.integers(n - 4, n))
        yield rng.standard_normal((m, n)), structures.build_plain(n), \
            None, s
    pairs = [(2 * i, 2 * i + 1) for i in range(6)]
    for tag in ("l1", "linf"):
        st = structures.build_group(pairs, block_norm=tag)
        for seed in range(8):
            rng = np.random.default_rng([32, seed])
            m = int(rng.integers(6, 11))
            yield rng.standard_normal((m, 12)), st, None, 1 + seed % 2
    for seed in range(2):
        rng = np.random.default_rng([33, seed])
        b = np.eye(8) + 0.4 * rng.standard_normal((8, 8))
        yield rng.standard_normal((5, 8)), structures.build_plain(8), b, 2


def test_lockstep_rounds_keep_the_unpruned_verdict(monkeypatch):
    """Rounds of ``_ROUND_LPS`` LPs solve sets that an earlier set of the
    round would have pruned; the verdict is still the one of solving every
    signed support (status, gamma to 1e-9, a certified upper bound at least
    gamma), and the one of rounds that hold one set's LPs each."""
    from sparsecert.certify import bruteforce
    speculative = 0
    for a, st, b, s in _round_draws():
        want = unpruned_bruteforce_oracle(a, st, s, b=b)
        got = gamma_s_bruteforce(a, st, s, b=b)
        with monkeypatch.context() as mp:
            mp.setattr(bruteforce, "_ROUND_LPS", 1)
            one = gamma_s_bruteforce(a, st, s, b=b)
        for v in (got, one):
            assert v.status == want.status
            assert v.gamma_value == pytest.approx(want.gamma_value, abs=1e-9)
            assert v.details["gamma_upper"] >= v.gamma_value
        speculative += got.details["lp_count"] > one.details["lp_count"]
    assert speculative >= 10


@pytest.mark.parametrize("name", [n for n in _ORACLE_CASES
                                  if n.startswith(("linf", "mixed",
                                                   "custom-b-mixed"))])
def test_pinned_first_sign_keeps_gamma_with_linf_blocks(name):
    """z -> -z maps the kernel ball onto itself, so pinning the first sign
    of every block set, linf blocks included, keeps gamma and halves the
    signed supports."""
    a, st, b, s = _ORACLE_CASES[name]
    both = unpruned_bruteforce_oracle(a, st, s, b=b, pin_first=False)
    pinned = unpruned_bruteforce_oracle(a, st, s, b=b)
    got = gamma_s_bruteforce(a, st, s, b=b)
    assert pinned.gamma_value == pytest.approx(both.gamma_value, abs=1e-9)
    assert got.gamma_value == pytest.approx(both.gamma_value, abs=1e-9)
    assert 2 * got.details["signed_supports"] == both.details["lp_count"]


def test_lp_structures_have_no_size_guard():
    """Plain n > 20 and more than 12 l1/linf blocks run the LP enumeration;
    only l2 blocks keep the 12-block guard of the sampled search."""
    st = structures.build_plain(30)
    a = np.random.default_rng(4).standard_normal((20, 30))
    v = gamma_s_bruteforce(a, st, 1)
    assert v.bracket is None and v.details["signed_supports"] == 30
    blocks = [(2 * i, 2 * i + 1) for i in range(14)]
    a = np.random.default_rng(5).standard_normal((18, 28))
    for tag in ("l1", "linf"):
        st = structures.build_group(blocks, block_norm=tag)
        v = gamma_s_bruteforce(a, st, 1, b=None)
        assert v.bracket is None and v.details["maximal_sets"] == 14
    st = structures.build_group(blocks, block_norm="l2")
    v = gamma_s_bruteforce(a, st, 1, b=None)
    assert v.status == "Unknown" and "12 blocks" in v.details["reason"]


def test_group_bruteforce_checks_the_budget_before_any_lp(monkeypatch):
    """15 maximal block sets of 8 LPs each: over a budget of 100 the
    enumeration refuses before solving the first LP."""
    from sparsecert.certify import bruteforce

    class NoLP(bruteforce.LPSequence):
        def solve(self, cost):
            raise AssertionError("an LP was solved")

    monkeypatch.setattr(bruteforce, "_LP_BUDGET", 100)
    monkeypatch.setattr(bruteforce, "LPSequence", NoLP)
    st = structures.build_group([(2 * i, 2 * i + 1) for i in range(6)],
                                block_norm="l1")
    a = np.random.default_rng(0).standard_normal((8, 12))
    v = gamma_s_bruteforce(a, st, 2, b=None)
    assert v.status == "Unknown" and "120" in v.details["reason"]


def test_bruteforce_measures_a_non_canonical_b():
    """||Bz|| with B = diag(1, 10, 1): the kernel direction (1, -1, 1) keeps
    10 of its 12 units on coordinate 1, so the verdict is bad at 10/12."""
    st = structures.build_plain(3)
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    v = gamma_s_bruteforce(a, st, 1, b=np.diag([1.0, 10.0, 1.0]))
    assert v.status == "CertifiedBad"
    assert v.gamma_value == pytest.approx(10.0 / 12.0, abs=1e-12)


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
def test_a_bad_custom_b_is_the_resolvers_error_everywhere(bad):
    """A 5 x 4 B, or one with a NaN or an infinite entry, for plain n = 4
    gets the one ValueError naming B at each entry point that takes a B."""
    st = structures.build_plain(4)
    a = np.random.default_rng(3).standard_normal((3, 4))
    b = np.eye(5, 4) if bad == "shape" else np.eye(4)
    if bad != "shape":
        b[1, 2] = float(bad)
    calls = (
        lambda: synth_certificate_group(a, b, st, 1, phi="l1"),
        lambda: gamma_s_bruteforce(a, st, 1, b=b),
        lambda: check_condition_Cs(a, b, st, 1, 0.5, 1.0, "l1", trials=5,
                                   seed=0),
        lambda: recover_regular(RecoveryProblem(a=a, b=b, y=np.ones(3),
                                                phi="l1"), st))
    for call in calls:
        with pytest.raises(ValueError, match="B must be 4 x 4 and finite"):
            call()


@pytest.mark.parametrize("cols", [3, 5])
def test_an_a_of_the_wrong_width_is_refused_before_any_lp(cols, monkeypatch):
    """An A whose column count is not the structure's n is refused up
    front, in recovery's wording, by the brute force and the checker."""
    from sparsecert.engine import simplex

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(simplex.LPSequence, "__init__", no_lp)
    st = structures.build_plain(4)
    a = np.random.default_rng(3).standard_normal((2, cols))
    with pytest.raises(ValueError, match="A must have 4 columns for this "
                       "structure"):
        gamma_s_bruteforce(a, st, 1)
    with pytest.raises(ValueError, match="A must have 4 columns for this "
                       "structure"):
        check_condition_Cs(a, None, st, 1, 0.5, 1.0, "l1", trials=5, seed=0)


def test_bruteforce_invertible_b_is_a_change_of_variables():
    """For invertible B on non-overlapping blocks (canonical B = I), the
    verdict for (A, B) is the canonical one for A B^-1, since w = B z."""
    cases = [(structures.build_plain(7), 2)] + [
        (structures.build_group([(0, 1), (2, 3), (4, 5, 6)],
                                block_norm=tags), 1)
        for tags in ("l1", "linf", ["l1", "linf", "l1"])]
    for i, (st, s) in enumerate(cases):
        rng = np.random.default_rng(60 + i)
        a = rng.standard_normal((4, 7))
        b = np.eye(7) + 0.5 * rng.standard_normal((7, 7))
        got = gamma_s_bruteforce(a, st, s, b=b)
        want = gamma_s_bruteforce(a @ np.linalg.inv(b), st, s)
        assert got.status == want.status
        assert got.gamma_value == pytest.approx(want.gamma_value, abs=1e-9)


def test_group_bruteforce_l2_blocks_only_brackets(rng):
    """Sampled ascent cannot certify goodness; it returns a bracket."""
    st = structures.build_group([(0, 1), (2, 3)], block_norm="l2")
    a = np.zeros((1, 4))        # kernel is everything; truly bad
    v = gamma_s_bruteforce(a, st, 1, b=None)
    assert v.status == "CertifiedBad"
    lo, hi = v.bracket
    assert lo <= v.gamma_value + 1e-12 and hi == 1.0


def test_group_ratio_and_grad_matches_per_block_loop():
    """The sampled ascent's ratio and supergradient, one array pass per
    tag, equal the per-block loop to 1e-12 on mixed l1/l2/linf layouts,
    with zero blocks and tied linf maxima (the first one takes the sign)."""
    from sparsecert.certify.bruteforce import _group_ratio_and_grad
    r = np.random.default_rng(5)
    blocks = [(0, 1, 2), (2, 3), (4,), (5, 6, 7, 8), (0, 9), (10, 11, 12)]
    for trial in range(40):
        tags = list(r.choice(["l1", "l2", "linf"], size=len(blocks)))
        st = structures.build_group(blocks, block_norm=tags)
        z = r.standard_normal(13)
        if trial % 2:
            z[5:9] = 0.0                     # a zero block
        if trial % 3 == 0:
            z[10:13] = [-2.0, 2.0, 1.0]      # tied maxima, first negative
        for s in (1.0, 2.0):
            got = _group_ratio_and_grad(st, st.b, z, s)
            want = group_ratio_and_grad_oracle(st, st.b, z, s)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12)
            assert np.allclose(got[1], want[1], rtol=1e-12, atol=1e-12)
    zero = _group_ratio_and_grad(st, st.b, np.zeros(13), 1.0)
    assert zero[0] == 0.0 and not zero[1].any()


def test_lowrank_bruteforce_injective_is_good():
    # trivial kernel: the condition is vacuous, so Good even here
    st = structures.build_lowrank(3, 3)
    v = gamma_s_bruteforce(np.eye(9), st, 1)
    assert v.status == "CertifiedGood"
    assert v.details["kernel_dim"] == 0


def test_lowrank_bruteforce_never_claims_good_from_sampling(rng):
    st = structures.build_lowrank(3, 3)
    a = np.random.default_rng(3).standard_normal((5, 9))   # 4-dim kernel
    v = gamma_s_bruteforce(a, st, 1)
    # continuous family: sampling gives Unknown or CertifiedBad, never Good
    assert v.status in ("Unknown", "CertifiedBad")
    if v.bracket is not None:
        lo, hi = v.bracket
        assert lo <= hi


# ---------------------------------------------------------------------------
# condition checker


def test_identity_passes_condition():
    st = structures.build_plain(4)
    chk = check_condition_Cs(np.eye(4), None, st, s=1, gamma=0.5, beta=2.0,
                             phi="l1", trials=500, seed=0)
    assert chk.ok and chk.violation is None
    assert chk.trials == 500


def test_zero_map_fails_condition():
    st = structures.build_plain(4)
    chk = check_condition_Cs(np.zeros((2, 4)), None, st, s=2, gamma=0.1,
                             beta=5.0, phi="l1", trials=500, seed=0)
    assert not chk.ok
    assert chk.violation is not None
    z = chk.violation["z"]
    assert np.max(np.abs(z)) > 0


def test_checker_worst_margin_sane():
    st = structures.build_plain(4)
    chk = check_condition_Cs(np.eye(4), None, st, s=1, gamma=0.9, beta=9.0,
                             phi="l2", trials=300, seed=1)
    assert chk.ok
    assert np.isfinite(chk.worst_margin)


# ---------------------------------------------------------------------------
# synthesis


def test_synthesis_identity_gives_zero_gamma():
    st = structures.build_plain(4)
    cert = synth_certificate_group(np.eye(4), None, st, 1, phi="l1")
    assert cert.gamma == pytest.approx(0.0, abs=1e-8)
    assert cert.valid
    assert cert.method == "ColumnLP"
    assert cert.identity_residual <= 1e-10


def test_synthesis_zero_map_gamma_two():
    """With A = 0 the residual W must be the identity, whose best gamma is
    2 * s / s = 2 at unit weights."""
    st = structures.build_plain(5)
    for s in (1, 2):
        cert = synth_certificate_group(np.zeros((2, 5)), None, st, s,
                                       phi="l1")
        assert cert.gamma == pytest.approx(2.0, abs=1e-8)
        assert not cert.valid


def test_synthesis_conservative_vs_bruteforce(rng):
    """The verifiable route can lose at most a factor 2 on plain structures:
    gamma_synth >= 2*gamma_s - tol always."""
    st = structures.build_plain(8)
    for trial in range(6):
        a = np.random.default_rng(trial + 10).standard_normal((6, 8))
        bf = gamma_s_bruteforce(a, st, 1)
        cert = synth_certificate_group(a, None, st, 1, phi="l1")
        assert cert.gamma >= 2.0 * bf.gamma_value - 1e-7


def test_synthesis_certificate_passes_checker(rng):
    """Soundness: every valid synthesized certificate satisfies the
    condition it claims (C+ implies C)."""
    st = structures.build_plain(10)
    a = np.random.default_rng(7).standard_normal((8, 10))
    cert = synth_certificate_group(a, None, st, 1, phi="l1")
    assert cert.valid
    chk = check_condition_Cs(a, None, st, 1, cert.gamma, cert.beta,
                             phi="l1", trials=2000, seed=0)
    assert chk.ok, chk.violation


def test_synthesis_monotone_rechecked_at_smaller_s():
    """A certificate valid at s stays valid when rechecked at s' <= s."""
    st = structures.build_plain(10)
    a = np.random.default_rng(7).standard_normal((8, 10))
    cert = synth_certificate_group(a, None, st, 2, phi="l1")
    for s_prime in (1, 2):
        chk = check_condition_Cs(a, None, st, s_prime, cert.gamma, cert.beta,
                                 phi="l1", trials=2000, seed=0)
        assert chk.ok


def test_synthesis_group_blocks(rng):
    st = structures.build_group([(0, 1, 2), (3, 4), (5, 6, 7)],
                                block_norm="l1")
    a = np.random.default_rng(5).standard_normal((5, 8))
    cert = synth_certificate_group(a, None, st, 1, phi="l1")
    assert cert.gamma >= 0.0 and cert.beta >= 0.0
    chk = check_condition_Cs(a, None, st, 1, cert.gamma + 1e-9,
                             cert.beta + 1e-9, phi="l1", trials=1500,
                             seed=0)
    assert chk.ok, chk.violation


def test_synthesis_group_l2_blocks_still_sound(rng):
    """Inexact induced-norm entries only make gamma larger, never unsound."""
    st = structures.build_group([(0, 1), (2, 3)], block_norm="l2")
    a = np.random.default_rng(4).standard_normal((3, 4))
    cert = synth_certificate_group(a, None, st, 1, phi="l1")
    chk = check_condition_Cs(a, None, st, 1, cert.gamma + 1e-9,
                             cert.beta + 1e-9, phi="l1", trials=1500, seed=0)
    assert chk.ok, chk.violation


def test_synthesis_past_the_block_limit_flags_its_bounds(monkeypatch):
    """With the selection's block limit below the block count, pi_s is the
    fractional bound: the certificate still comes out, its gamma covers the
    recheck and its beta is flagged as an upper bound, above the exact
    selection's values for the same H."""
    from sparsecert import norms
    st = structures.build_group([(i,) for i in range(6)], block_norm="l1",
                                weights=[1.5, 0.7, 1.2, 2.2, 1.1, 0.9])
    a = np.random.default_rng(6).standard_normal((4, 6))
    exact = synth_certificate_group(a, None, st, 2.5, phi="l1")
    assert exact.exact_beta and not exact.exact_gamma
    monkeypatch.setattr(norms, "_EXACT_BLOCKS", 2)
    cert = synth_certificate_group(a, None, st, 2.5, phi="l1")
    assert cert.method == "ColumnLP"
    assert not cert.exact_beta and not cert.exact_gamma
    assert cert.gamma >= cert.details["gamma_recheck_exact_norms"]
    assert np.array_equal(cert.h_matrix, exact.h_matrix)
    assert cert.beta == psi_s(cert.h_matrix, st, 2.5) > exact.beta
    assert cert.details["gamma_recheck_exact_norms"] >= \
        exact.details["gamma_recheck_exact_norms"]


def test_synthesis_unsupported_phi_refused():
    from sparsecert.norms import UnsupportedNormError
    st = structures.build_plain(4)
    for phi in ("l2", "linf"):
        with pytest.raises(UnsupportedNormError):
            synth_certificate_group(np.eye(4), None, st, 1, phi=phi)


def test_psi_s_fixed_value():
    """Max over rows of the mediating seminorm; dual certificate rows
    (1, 2) and (3, 0) at s = 1 give 2 * 3 = 6."""
    st = structures.build_plain(2)
    h = np.array([[1.0, 2.0], [3.0, 0.0]])
    assert psi_s(h, st, 1, phi="l1") == pytest.approx(6.0)


def test_soundness_chain_small_instance():
    """gamma < 1 from synthesis implies goodness at the halved level:
    exact recovery of every signed pattern when gamma/2 < 1/2."""
    st = structures.build_plain(6)
    found = None
    for seed in range(40):
        a = np.random.default_rng(seed).standard_normal((5, 6))
        cert = synth_certificate_group(a, None, st, 1, phi="l1")
        if cert.gamma < 1.0 - 1e-6:
            found = (a, cert)
            break
    assert found is not None, "no certifiable 5x6 instance in 40 seeds"
    a, cert = found
    chk = check_condition_Cs(a, None, st, 1, cert.gamma, cert.beta, "l1",
                             trials=3000, seed=0)
    assert chk.ok
    for i in range(6):
        for sign in (-1.0, 1.0):
            x0 = np.zeros(6)
            x0[i] = sign
            prob = RecoveryProblem(a=a, b=None, y=a @ x0, phi="l1",
                                   epsilon=0.0)
            res = recover_regular(prob, st)
            assert np.max(np.abs(res.x_hat - x0)) <= 1e-6


# ---------------------------------------------------------------------------
# per-block decomposition at s = 1 with unit weights

PAIRS = [(2 * i, 2 * i + 1) for i in range(5)]


def _pinned_cases():
    """Instances with gamma and beta of the joint LP (one LP over all of H),
    as computed before synthesis was split per block."""
    st = structures.build_plain(12)
    a = np.random.default_rng(1201).standard_normal((7, 12))
    yield "plain", st, a, 0.9705505435282762, 0.7811197466195434
    for j, (tag, gamma, beta) in enumerate((
            ("l1", 1.1919386469854878, 1.5645743848241265),
            ("linf", 1.016099896234997, 1.2653717606884254),
            ("l2", 2.138084350277359, 3.1465109823480475))):
        st = structures.build_group(PAIRS, block_norm=tag)
        a = np.random.default_rng(1300 + j).standard_normal((6, 10))
        yield tag, st, a, gamma, beta


def test_synthesis_s1_plain_is_exact():
    """At s = 1 the verifiable LP loses nothing: gamma = 2 * gamma_1."""
    for n in (6, 9, 12):
        st = structures.build_plain(n)
        for trial in range(2):
            a = np.random.default_rng(40 + 3 * n + trial).standard_normal(
                (n // 2 + 1, n))
            cert = synth_certificate_group(a, None, st, 1, phi="l1")
            bf = gamma_s_bruteforce(a, st, 1)
            assert cert.gamma == pytest.approx(2.0 * bf.gamma_value, abs=1e-8)
            assert cert.exact_gamma


def test_synthesis_per_block_matches_joint_lp_values():
    for name, st, a, gamma, beta in _pinned_cases():
        cert = synth_certificate_group(a, None, st, 1, phi="l1")
        assert cert.gamma == pytest.approx(gamma, abs=1e-9), name
        assert cert.identity_residual <= 1e-8
        if name != "l2":     # l2 stage two minimizes only a surrogate
            assert cert.beta <= beta + 1e-9, name
        assert cert.beta == pytest.approx(psi_s(cert.h_matrix, st, 1))
        assert cert.gamma >= cert.details["gamma_recheck_exact_norms"]


def _stage_one(st, a):
    from sparsecert.certify import synthesis
    lay = synthesis._Layout(st, a, st.b)
    seqs = {}
    return synthesis, lay, seqs, synthesis._stage_one(lay, seqs)


def _stage_one_cases():
    """Plain, l1, linf, l2, mixed-tag and uneven-size blocks, two draws each."""
    blocks = [(0, 1, 2), (3,), (4, 5), (6, 7, 8), (9, 10)]
    shapes = [(structures.build_plain(10), 6)] + [
        (structures.build_group(PAIRS, block_norm=tag), 6)
        for tag in ("l1", "linf", "l2")] + [
        (structures.build_group(blocks,
                                block_norm=["l1", "linf", "l2", "l1", "linf"]), 7),
        (structures.build_group(blocks, block_norm="linf"), 7),
        (structures.build_group(blocks, block_norm="l1"), 7)]
    for i, (st, m) in enumerate(shapes):
        for d in range(2):
            a = np.random.default_rng([77, i, d]).standard_normal(
                (m, st.b.shape[1]))
            yield f"{i}.{d}", st, a


def test_dual_stage_one_matches_cold_primal_per_block():
    """g_k of the warm-started dual sequences is the cold primal optimum of
    every block, and the H read from the duals attains it: its exact block
    row of 2 * Omega is at most g_k."""
    from sparsecert import norms
    from oracles import stage_one_primal_oracle
    for name, st, a in _stage_one_cases():
        synthesis, lay, seqs, stages = _stage_one(st, a)
        cold = stage_one_primal_oracle(lay)
        assert len(seqs) == len(set(zip(lay.sizes, lay.tags))), name
        assert sum(q.lps for q in seqs.values()) == len(stages) == len(cold)
        h = np.hstack([stage.h_cols for stage in stages])
        w = (st.b - h.T @ a) @ lay.b_pinv
        omega = np.abs(w) if np.all(lay.sizes == 1) else \
            norms.omega(st, w)[0]
        for k, (stage, (_, g_cold, status)) in enumerate(zip(stages, cold)):
            assert status.value == "optimal"
            assert stage.g == pytest.approx(g_cold, abs=1e-9), (name, k)
            assert 2.0 * omega[k].max() <= stage.g + 1e-9, (name, k)


def test_dual_stage_two_matches_cold_primal_per_block():
    """Every block's stage-two dual, solved in its signature's warm-started
    sequence, reaches the optimum of the cold primal beta LP, and the H read
    from its multipliers attains it in the norm that LP minimizes (l1 for
    l1 and l2 blocks, linf for linf and scalar ones)."""
    from oracles import stage_two_primal_oracle
    for name, st, a in _stage_one_cases():
        synthesis, lay, _, stages = _stage_one(st, a)
        gamma = max(stage.g for stage in stages)
        cold = stage_two_primal_oracle(lay, stages, gamma)
        seqs = {}
        for k, (stage, (_, t_cold, status)) in enumerate(zip(stages, cold)):
            beta = synthesis._beta_lp(lay, k, stage.lp, stage.rhs, gamma)
            nh = stage.h_cols.size
            key = (lay.sizes[k], lay.tags[k])
            if key not in seqs:
                seqs[key] = synthesis.LPSequence(synthesis._dual_lp(beta, nh))
            report = seqs[key].solve(beta.h)[1]
            assert status.value == report.status.value == "optimal", (name, k)
            assert -report.objective == pytest.approx(t_cold, abs=1e-9)
            h2 = report.dual[:nh].reshape(stage.h_cols.shape)
            tag = "l1" if nh > lay.d_full.shape[0] and \
                lay.tags[k] != "linf" else "linf"
            assert synthesis._block_norm(h2, tag) == pytest.approx(
                t_cold, abs=1e-9), (name, k)
        assert len(seqs) == len(set(zip(lay.sizes, lay.tags)))


def test_stage_two_dual_with_a_degenerate_plateau_is_optimal():
    """Block 0's stage-two dual of plain n = 20, m = 12 (unscaled Gaussian
    A, seed 5), solved cold under the default pivoting, walks a degenerate
    vertex on which a leaving rule that drops tied rows with small pivot
    elements cycles; the lexicographic rule reaches the primal optimum."""
    from sparsecert.engine import LinearProgram, Status, solve_lp
    st = structures.build_plain(20)
    a = np.random.default_rng(5).standard_normal((12, 20))
    synthesis, lay, _, stages = _stage_one(st, a)
    gamma = max(stage.g for stage in stages)
    beta = synthesis._beta_lp(lay, 0, stages[0].lp, stages[0].rhs, gamma)
    dual = synthesis._dual_lp(beta, 12)
    _, report = solve_lp(LinearProgram(c=beta.h, G=dual.G, h=dual.h,
                                       senses=dual.senses))
    _, primal = solve_free_split(beta, 12)
    assert report.status is Status.OPTIMAL
    assert -report.objective == pytest.approx(primal.objective, abs=1e-9)


def test_stage_two_sequences_end_optimal():
    """No stage-two LP ends short of its optimum over 28 draws: plain
    n = 16 to 30 and l1, linf and l2 pairs, with A scaled by 1/sqrt(m) and
    unscaled."""
    cases = [structures.build_plain(n) for n in (16, 20, 24, 30)] + [
        structures.build_group([(2 * i, 2 * i + 1) for i in range(8)],
                               block_norm=tag) for tag in ("l1", "linf", "l2")]
    for i, st in enumerate(cases):
        n = st.b.shape[1]
        m = round(0.6 * n)
        for d in range(4):
            a = np.random.default_rng([31, i, d]).standard_normal((m, n))
            a /= np.sqrt(m) if d % 2 else 1.0
            cert = synth_certificate_group(a, None, st, 1, phi="l1")
            assert cert.details["beta_lps"] >= 1
            assert cert.details["stage_two_not_optimal"] == 0, (i, d)


def test_synthesis_lazy_beta_equals_full_stage_two():
    """Stopping the visit early gives the beta of settling every block in
    the same order through the same stage-two sequences."""
    for name, st, a, _, _ in _pinned_cases():
        cert = synth_certificate_group(a, None, st, 1, phi="l1")
        synthesis, lay, _, stages = _stage_one(st, a)
        gamma = max(stage.g for stage in stages)
        norm1 = [synthesis._block_norm(stage.h_cols, tag)
                 for stage, tag in zip(stages, lay.tags)]
        seqs = {}
        every = max(synthesis._settle_block(lay, k, stages[k], gamma, seqs)[1]
                    for k in np.argsort(np.negative(norm1), kind="stable"))
        assert cert.beta == pytest.approx(2.0 * every, abs=1e-9), name
        assert sum(q.lps for q in seqs.values()) == len(stages)
        assert sum(q.not_optimal for q in seqs.values()) == 0
        assert cert.details["beta_lps"] <= len(stages)
        assert cert.details["stage_two_sequences"] <= len(seqs)


def test_synthesis_failed_stage_two_keeps_stage_one(monkeypatch):
    from sparsecert.engine import SolveReport, Status
    _, st, a, _, _ = next(_pinned_cases())
    from sparsecert.engine import simplex
    synthesis, _, _, stages = _stage_one(st, a)
    real, opened = simplex._phase_two, []

    # plain blocks share one signature: the first sequence (standard form)
    # is stage one's, every later one is a stage-two sequence, and all of
    # those stall, below the tallies of their sequence
    def stage_two_stalls(std, tab, cost, maxiter):
        if std not in opened:
            opened.append(std)
        x, rep, binv = real(std, tab, cost, maxiter)
        if std is opened[0]:
            return x, rep, binv
        return None, SolveReport(status=Status.MAXITER, iterations=7), binv

    monkeypatch.setattr(simplex, "_phase_two", stage_two_stalls)
    cert = synth_certificate_group(a, None, st, 1, phi="l1")
    h_one = np.hstack([stage.h_cols for stage in stages])
    d = cert.details
    assert d["beta_lps"] >= 1 and d["stage_two_not_optimal"] == d["beta_lps"]
    assert len(opened) == 1 + d["stage_two_sequences"] == 2
    assert d["stage_two_iterations"] == 7 * d["beta_lps"]
    assert np.array_equal(cert.h_matrix, h_one)
    assert cert.beta == pytest.approx(psi_s(h_one, st, 1))


# gamma and beta at s = 1 as computed when every stage-one LP was solved one
# by one, each from the basis the one before ended on
_ONE_BY_ONE = [
    ("plain-16", 0, 0.6659461087697044, 0.6250970691767701),
    ("plain-16", 1, 0.6735426339936008, 0.487497975095302),
    ("plain-20", 0, 0.6249228845892526, 0.4887719794404152),
    ("plain-20", 1, 0.5413158746413008, 0.4664404535649016),
    ("l1-pairs", 0, 1.084691996539873, 0.9383063684585747),
    ("l1-pairs", 1, 0.8877854197341041, 0.8425123453413396),
    ("linf-pairs", 0, 1.2217641146178424, 1.6607603119624674),
    ("linf-pairs", 1, 1.142122435367353, 0.8507587006273016),
]


def test_lockstep_stage_one_keeps_the_one_by_one_certificates(monkeypatch):
    """Stage one in lockstep batches: gamma within 1e-9 of the one-by-one
    solves and beta no higher (plain n = 16 / 20, 5 pairs with l1 and linf
    blocks, two seeded draws each), and every sequence's ``lps``,
    ``starts`` and ``not_optimal`` count the reports it returned."""
    from sparsecert.engine import LPSequence, Status
    real_solve, real_many = LPSequence.solve, LPSequence.solve_many
    returned, depth = {}, []

    def solve(seq, cost):
        out = real_solve(seq, cost)
        if not depth:
            returned.setdefault(seq, []).append(out[1])
        return out

    def solve_many(seq, costs):
        depth.append(seq)
        try:
            out = real_many(seq, costs)
        finally:
            depth.pop()
        returned.setdefault(seq, []).extend(rep for _, rep in out)
        return out

    monkeypatch.setattr(LPSequence, "solve", solve)
    monkeypatch.setattr(LPSequence, "solve_many", solve_many)
    shapes = {"plain-16": (structures.build_plain(16), 10),
              "plain-20": (structures.build_plain(20), 12),
              "l1-pairs": (structures.build_group(PAIRS, block_norm="l1"), 6),
              "linf-pairs": (structures.build_group(PAIRS, block_norm="linf"),
                             6)}
    for name, d, gamma, beta in _ONE_BY_ONE:
        st, m = shapes[name]
        a = np.random.default_rng([2110, list(shapes).index(name), d]) \
            .standard_normal((m, st.b.shape[1]))
        returned.clear()
        cert = synth_certificate_group(a, None, st, 1, phi="l1")
        assert cert.gamma == pytest.approx(gamma, abs=1e-9), (name, d)
        assert cert.beta <= beta + 1e-9, (name, d)
        assert cert.details["lps"] == sum(map(len, returned.values()))
        for seq, reports in returned.items():
            starts = [r.start for r in reports if r.start is not None]
            assert seq.lps == len(reports)
            assert seq.starts == {k: starts.count(k) for k in seq.starts}
            assert seq.not_optimal == sum(r.status is not Status.OPTIMAL
                                          for r in reports)


def test_synthesis_details_count_the_lps():
    _, st, a, _, _ = next(_pinned_cases())
    cert = synth_certificate_group(a, None, st, 1, phi="l1")
    d = cert.details
    assert d["lps"] == st.n + d["beta_lps"] and d["beta_lps"] >= 1
    assert d["lp_iterations"] > 0 and 0.0 <= d["lp_delta"] <= 1e-8
    st6 = structures.build_plain(6)
    a6 = np.random.default_rng(5).standard_normal((4, 6))
    joint = synth_certificate_group(a6, None, st6, 2, phi="l1")
    assert joint.details["lps"] == 1 and joint.details["beta_lps"] == 0


def test_synthesis_budget_sizes_the_lp_solved(monkeypatch):
    """Stage one solves the dual, whose tableau has one row per primal
    variable: plain n = 20, m = 12 has 13 x 53 dual cells against 40 x 53
    primal ones.  A budget between the two admits stage one; the joint LP
    (s = 2) is sized on its primal and refused."""
    from sparsecert.certify import synthesis
    from sparsecert.norms import UnsupportedNormError
    st = structures.build_plain(20)
    a = np.random.default_rng(8).standard_normal((12, 20))
    monkeypatch.setattr(synthesis, "_LP_ENTRY_BUDGET", 1000)
    cert = synth_certificate_group(a, None, st, 1, phi="l1")
    assert cert.details["stage_one_sequences"] == 1
    with pytest.raises(UnsupportedNormError, match="too large"):
        synth_certificate_group(a, None, st, 2, phi="l1")


def test_synthesis_budget_counts_the_split_columns(monkeypatch):
    """The joint LP is solved with a negative beside each free H column
    (``_split_free``): plain n = 20, m = 12, s = 2 has 820 rows, 661
    variables and 240 H columns, so 820 x (661 + 240 + 820) = 1,411,220
    cells where 820 x (661 + 820) = 1,214,420.  A budget between the two
    refuses it."""
    from sparsecert.certify import synthesis
    from sparsecert.norms import UnsupportedNormError
    st = structures.build_plain(20)
    a = np.random.default_rng(0).standard_normal((12, 20))
    monkeypatch.setattr(synthesis, "_LP_ENTRY_BUDGET", 1.3e6)
    with pytest.raises(UnsupportedNormError, match="820 rows, 901 variables"):
        synth_certificate_group(a, None, st, 2, phi="l1")


def test_joint_lp_pinned():
    """The joint LP (s = 2; one case with non-unit weights) keeps its gamma,
    beta and pivots bit for bit: they depend on the order of its columns,
    each free H column beside its negative (``_split_free``)."""
    plain8, plain12 = structures.build_plain(8), structures.build_plain(12)
    group = structures.build_group([[0, 1], [2, 3], [4, 5], [6, 7]],
                                   weights=[1, 2, 1.5, 1],
                                   block_norm=["l1", "linf", "l2", "l1"])
    cases = [
        (plain8, np.random.default_rng([0, 8]).standard_normal((5, 8)),
         1.5407870482039185, 2.6396485941068137, 132),
        (plain12, np.random.default_rng([1, 12]).standard_normal((7, 12)),
         1.2984578327253389, 1.4844361126744676, 599),
        (group, np.random.default_rng(7).standard_normal((5, 8)),
         1.8914990885201606, 1.2610015382290438, 153)]
    for st, a, gamma, beta, pivots in cases:
        cert = synth_certificate_group(a, None, st, 2.0)
        assert (cert.gamma, cert.beta, cert.details["lp_iterations"]) == \
            (gamma, beta, pivots)


def test_joint_lp_matches_row_by_row_reference():
    """Where pi_s couples the blocks, the array-built joint LP is the one
    the row-by-row assembly gives, entry for entry."""
    from sparsecert.certify import synthesis
    from oracles import joint_synthesis_lp_oracle
    blocks = [(0, 1, 2), (3,), (4, 5), (6, 7, 8)]
    cases = [(structures.build_plain(9), 2.0)]
    for tags in ("l1", "linf", "l2", ["l1", "l2", "linf", "l2"]):
        cases.append((structures.build_group(blocks, block_norm=tags), 2.0))
        cases.append((structures.build_group(blocks, weights=[1, 2, 1.5, 1],
                                             block_norm=tags), 1.0))
    for i, (st, s) in enumerate(cases):
        a = np.random.default_rng(i).standard_normal((5, 9))
        lay = synthesis._Layout(st, a, st.b)
        lp, nh, _ = synthesis._synthesis_lp(lay, range(lay.sizes.size), s,
                                         simple=False)
        g_ref, h_ref, nh_ref = joint_synthesis_lp_oracle(
            a, st.b, lay.sizes, lay.tags, lay.chi, s)
        assert nh == nh_ref
        assert np.array_equal(lp.G, g_ref) and np.array_equal(lp.h, h_ref)
        assert lp.c[-1] == 1.0
        # the LP solved: each H column beside its negative, the others after
        split, _ = split_free(np.arange(lp.c.size) < nh)
        joint = synthesis._split_free(lp, nh)
        assert np.array_equal(joint.G, split(g_ref))
        assert np.array_equal(joint.c, split(lp.c))
        assert np.array_equal(joint.h, lp.h) and joint.senses == lp.senses
