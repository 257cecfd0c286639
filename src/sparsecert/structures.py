"""Sparsity structures: a norm on a representation space plus a weighted
projector family with complements.

Three concrete models are implemented:

* ``group``   - possibly overlapping index blocks V_1..V_K with positive
                weights chi_l; the representation space stacks the blocks,
                the norm sums per-block norms, projectors keep a subset of
                blocks, weight = sum of kept chi_l;
* ``plain``   - coordinate sparsity in R^n: the n singleton l1 blocks (i,)
                with unit weights, run by the group code; its projectors
                keep a support, block i being coordinate i;
* ``lowrank`` - p x q matrices (any shape), nuclear norm, projectors
                P(x) = P_left x P_right built from orthonormal bases, weight
                = max of the two ranks.  The complement is
                (I - P_left) x (I - P_right), which is NOT identity minus P.

Fields derived at construction: ``shared_norm`` (the tag all blocks share,
else None) and the block layout of E that every block norm, prox, projector
and LP builder reads: ``offsets`` (block k is E[offsets[k]:offsets[k+1]])
and ``block_of`` (the block of each E coordinate; empty for low rank), and
``tag_blocks``, one ``TagBlocks`` per norm tag present, so that a mixed-tag
layout takes each tag's block norms with one gather.  ``b`` is the
canonical representation map B, a read-only E x n matrix: the 0/1 selection
of each block's coordinates for plain and group, the identity for low rank.
Every solver takes an optional B of its own; ``representation`` is the one
place that resolves and validates it; ``sensing_matrix`` checks A's width.

The finite families (plain and group) have one projector per
inclusion-maximal block set of weight <= s, listed by
``maximal_block_sets``, which the brute-force verdicts share.

The module also houses randomized verification of the three axioms the
framework rests on: every P is idempotent (A.1), the complement kills the
range (A.2), and mixing adjoints of P and its complement never beats the
larger dual norm (A.3).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import norms
# singular_values is not called here but stays importable from this module,
# where perfbench/spans.py wraps it
from .norms import singular_values, svd_descending  # noqa: F401


class StructureError(ValueError):
    """Invalid structure parameters."""


class NotEnumerableError(RuntimeError):
    """The projector family is continuous (low rank) and cannot be listed."""


class TagBlocks(NamedTuple):
    """The blocks of one norm tag: their indices, their E coordinates block
    by block, and where each block starts among those coordinates."""
    tag: str
    blocks: np.ndarray
    coords: np.ndarray
    starts: np.ndarray


@dataclass(frozen=True, eq=False)
class SparsityStructure:
    kind: str
    ambient_dim_x: int
    ambient_dim_e: int
    n: int = 0
    blocks: tuple = ()
    weights: tuple = ()
    block_norms: tuple = ()
    p: int = 0
    q: int = 0
    shared_norm: str | None = field(init=False)
    offsets: np.ndarray = field(init=False, repr=False)
    block_of: np.ndarray = field(init=False, repr=False)
    tag_blocks: tuple = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tags = sorted(set(self.block_norms))
        object.__setattr__(self, "shared_norm",
                           tags[0] if len(tags) == 1 else None)
        sizes = np.array([len(v) for v in self.blocks], dtype=int)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        block_of = np.repeat(np.arange(sizes.size), sizes)
        tag_of = np.array(self.block_norms)
        groups = []
        for tag in tags:
            blocks = np.flatnonzero(tag_of == tag)
            coords = np.flatnonzero(tag_of[block_of] == tag)
            size = sizes[blocks]
            groups.append(TagBlocks(tag, blocks, coords, np.cumsum(size) - size))
        if self.kind == "lowrank":
            b = np.eye(self.ambient_dim_e)
        else:
            b = np.zeros((self.ambient_dim_e, self.ambient_dim_x))
            b[np.arange(block_of.size), np.concatenate(self.blocks)] = 1.0
        arrays = [offsets, block_of, b] + [a for g in groups for a in g[1:]]
        for arr in arrays:
            arr.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "block_of", block_of)
        object.__setattr__(self, "tag_blocks", tuple(groups))
        object.__setattr__(self, "b", b)

    def full_weight(self):
        """Largest projector weight in the family."""
        if self.kind == "lowrank":
            return float(min(self.p, self.q))
        return float(sum(self.weights))


@dataclass(frozen=True, eq=False)
class ProjectorDesc:
    """One member of the projector family, with its weight.

    plain and group: ``block_set``, the frozenset of kept block indices (for
    plain, block i is coordinate i, so it is the support); lowrank:
    ``left``/``right`` orthonormal bases of the row/column ranges.
    """
    kind: str
    nu: float
    block_set: frozenset = frozenset()
    left: np.ndarray | None = None
    right: np.ndarray | None = None


# ---------------------------------------------------------------------------
# construction


def representation(structure, b=None):
    """(B, custom): the representation map B of ``structure`` and, when it
    is not the canonical ``structure.b``, that same matrix, else None.

    ``b`` None is ``structure.b`` itself; any other ``b`` must be a finite
    E x n matrix (ValueError naming B otherwise).  A ``b`` equal to
    ``structure.b`` gives custom None, so a caller that has a cheaper form
    for the canonical B keeps it.
    """
    if b is None:
        return structure.b, None
    bmat = np.asarray(b, dtype=float)
    if bmat.shape != structure.b.shape or not np.all(np.isfinite(bmat)):
        raise ValueError("B must be {} x {} and finite for this structure"
                         .format(*structure.b.shape))
    if np.array_equal(bmat, structure.b):
        return structure.b, None
    return bmat, bmat


def sensing_matrix(structure, a):
    """A as a 2-D float array with the structure's n columns."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != structure.ambient_dim_x:
        raise ValueError(f"A must have {structure.ambient_dim_x} columns "
                         "for this structure")
    return a


def build_plain(n):
    """Coordinate sparsity: the n singleton l1 blocks with unit weights."""
    n = int(n)
    if n < 1:
        raise StructureError("plain structure needs n >= 1")
    return SparsityStructure(kind="plain", n=n, ambient_dim_x=n,
                             ambient_dim_e=n,
                             blocks=tuple((i,) for i in range(n)),
                             weights=(1.0,) * n, block_norms=("l1",) * n)


def build_group(blocks, weights=None, block_norm="l2"):
    """Group structure from index blocks (0-based coordinate lists).

    ``block_norm`` is a single tag applied to every block or a per-block list;
    ``weights`` defaults to all ones.
    """
    blocks = tuple(tuple(int(i) for i in v) for v in blocks)
    if not blocks:
        raise StructureError("need at least one block")
    for v in blocks:
        if len(v) == 0:
            raise StructureError("empty block")
        if len(set(v)) != len(v):
            raise StructureError(f"repeated coordinate inside block {v}")
        if min(v) < 0:
            raise StructureError("negative coordinate index")
    n = max(max(v) for v in blocks) + 1
    covered = set(itertools.chain.from_iterable(blocks))
    if covered != set(range(n)):
        raise StructureError("blocks must cover every coordinate 0..n-1")
    k = len(blocks)
    if weights is None:
        weights = (1.0,) * k
    weights = tuple(float(c) for c in weights)
    if len(weights) != k or not all(math.isfinite(c) and c > 0
                                    for c in weights):
        raise StructureError("need one positive finite weight per block")
    if isinstance(block_norm, str):
        tags = (block_norm,) * k
    else:
        tags = tuple(block_norm)
    if len(tags) != k or any(t not in norms.VECTOR_TAGS for t in tags):
        raise StructureError("block norms must be l1/l2/linf, one per block")
    return SparsityStructure(kind="group", n=n, blocks=blocks, weights=weights,
                             block_norms=tags, ambient_dim_x=n,
                             ambient_dim_e=sum(len(v) for v in blocks))


def build_lowrank(p, q):
    p, q = int(p), int(q)
    if p < 1 or q < 1:
        raise StructureError("lowrank structure needs p, q >= 1")
    return SparsityStructure(kind="lowrank", p=p, q=q,
                             ambient_dim_x=p * q, ambient_dim_e=p * q)


def build_structure(kind, **params):
    """Dispatching constructor of the three kinds."""
    if kind == "plain":
        return build_plain(**params)
    if kind == "group":
        return build_group(**params)
    if kind == "lowrank":
        return build_lowrank(**params)
    raise StructureError(f"unknown structure kind {kind!r}")


def structure_to_dict(structure):
    """JSON-ready description; field names match the CLI file formats."""
    if structure.kind == "plain":
        return {"kind": "plain", "n": structure.n}
    if structure.kind == "group":
        return {"kind": "group",
                "blocks": [list(v) for v in structure.blocks],
                "weights": list(structure.weights),
                "block_norms": list(structure.block_norms)}
    return {"kind": "lowrank", "p": structure.p, "q": structure.q}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list_of(v, check):
    return isinstance(v, list) and all(map(check, v))


def structure_from_dict(d):
    """The structure of a structure document, the format of
    ``structure_to_dict``; StructureError naming the field that is missing
    or of the wrong type."""
    if not isinstance(d, dict):
        raise StructureError("a structure must be a JSON object")
    kind = d.get("kind")
    need = {"plain": ("n",), "group": ("blocks",), "lowrank": ("p", "q")}
    if kind not in need:
        raise StructureError(f"unknown structure kind {kind!r}")
    for name in need[kind]:
        if name not in d:
            raise StructureError(f"{kind} structure needs '{name}'")
        if kind != "group" and not _is_int(d[name]):
            raise StructureError(f"{name} must be an integer")
    if kind != "group":
        return build_plain(d["n"]) if kind == "plain" else \
            build_lowrank(d["p"], d["q"])
    blocks, weights = d["blocks"], d.get("weights")
    tags = d.get("block_norms", d.get("block_norm", "l2"))
    if not _is_list_of(blocks, lambda v: _is_list_of(v, _is_int)):
        raise StructureError("blocks must be a list of lists of integers")
    if weights is not None and not _is_list_of(
            weights, lambda c: _is_int(c) or isinstance(c, float)):
        raise StructureError("weights must be a list of numbers")
    if not (isinstance(tags, str)
            or _is_list_of(tags, lambda t: isinstance(t, str))):
        raise StructureError("block_norms must be a tag or a list of tags")
    return build_group(blocks, weights, tags)


# ---------------------------------------------------------------------------
# projectors


def group_projector(structure, block_set):
    """The projector of a plain or group structure keeping the blocks
    ``block_set`` (plain: block i is coordinate i); its weight is the sum of
    theirs."""
    block_set = frozenset(int(i) for i in block_set)
    if block_set and (min(block_set) < 0 or max(block_set) >= len(structure.blocks)):
        raise StructureError("block index out of range")
    nu = float(sum(structure.weights[i] for i in block_set))
    return ProjectorDesc(kind=structure.kind, nu=nu, block_set=block_set)


def lowrank_projector(structure, left, right):
    left = np.atleast_2d(np.asarray(left, dtype=float))
    right = np.atleast_2d(np.asarray(right, dtype=float))
    if left.shape[0] != structure.p or right.shape[0] != structure.q:
        raise StructureError("basis row counts must be p and q")
    for b in (left, right):
        if b.shape[1] and not np.allclose(b.T @ b, np.eye(b.shape[1]), atol=1e-8):
            raise StructureError("basis columns must be orthonormal")
    return ProjectorDesc(kind="lowrank", nu=float(max(left.shape[1], right.shape[1])),
                         left=left, right=right)


def project(structure, proj, w, which="direct"):
    """Apply P (``which="direct"``) or its complement to an E-vector.

    For plain/group the complement is identity minus P; for lowrank it is
    (I - P_left) w (I - P_right), so direct + complement != w in general.
    Low-rank inputs may be given flat (length p*q) or as p x q arrays; the
    output matches the input shape.
    """
    if which not in ("direct", "complement"):
        raise ValueError("which must be 'direct' or 'complement'")
    if structure.kind != "lowrank":
        w = np.asarray(w, dtype=float).ravel()
        if w.size != structure.ambient_dim_e:
            raise ValueError(f"expected E-dimension {structure.ambient_dim_e}, "
                             f"got {w.size}")
        mask = np.isin(structure.block_of, list(proj.block_set))
        return np.where(mask, w, 0.0) if which == "direct" else np.where(mask, 0.0, w)
    # lowrank
    w = np.asarray(w, dtype=float)
    flat = w.ndim == 1
    m = w.reshape(structure.p, structure.q)
    if which == "direct":
        out = proj.left @ (proj.left.T @ m @ proj.right) @ proj.right.T
    else:
        out = m - proj.left @ (proj.left.T @ m) \
            - (m - proj.left @ (proj.left.T @ m)) @ proj.right @ proj.right.T
    return out.reshape(-1) if flat else out


def random_projector(structure, rng, max_weight=None):
    """Draw one projector from the family, optionally capped in weight.

    Low-rank bases come from QR factors of Gaussian matrices (the framework
    fixes no sampler, so this is the repo's choice).  Plain keeps its own
    draw (a size, then a support), so a seed draws the projectors it did
    before plain became a block layout.
    """
    top = math.inf if max_weight is None else max_weight
    if structure.kind == "plain":
        k = int(rng.integers(0, norms.level_size(top, structure.n) + 1))
        return group_projector(structure, rng.choice(structure.n, size=k, replace=False))
    if structure.kind == "group":
        order = rng.permutation(len(structure.blocks))
        if max_weight is None:
            keep = [int(i) for i in order if rng.random() < 0.5]
        else:
            keep, acc = [], 0.0
            for i in order:
                if acc + structure.weights[i] <= max_weight + 1e-12:
                    keep.append(int(i))
                    acc += structure.weights[i]
        return group_projector(structure, keep)
    r_l = int(rng.integers(0, norms.level_size(top, structure.p) + 1))
    r_r = int(rng.integers(0, norms.level_size(top, structure.q) + 1))
    left = np.linalg.qr(rng.standard_normal((structure.p, r_l)))[0] if r_l else \
        np.zeros((structure.p, 0))
    right = np.linalg.qr(rng.standard_normal((structure.q, r_r)))[0] if r_r else \
        np.zeros((structure.q, 0))
    return lowrank_projector(structure, left, right)


def maximal_block_sets(weights, s):
    """The nonempty inclusion-maximal sets of blocks whose weights sum to at
    most s (to 1e-12; block l weighs ``weights[l]``), as sorted tuples in
    lexicographic order, one at a time.  None when no block fits.

    An iterative depth-first walk takes each block that fits before it
    skips it.  A set is maximal exactly when the lightest block skipped
    that would have fitted no longer fits, and a branch is cut when even
    every later block cannot fill the room that block leaves.  With equal
    weights every branch walked ends in a set, so the walk costs at most K
    steps per set, K the number of blocks.
    """
    cap = s + 1e-12
    chi = [float(c) for c in weights]
    # rest[l]: the weight of blocks l.. together
    rest = list(itertools.accumulate(reversed(chi), initial=0.0))[::-1]
    # each branch: (first block to decide, weight, lightest skipped, size)
    chosen, branches = [], [(0, 0.0, math.inf, 0)]
    while branches:
        first, weight, light, size = branches.pop()
        del chosen[size:]
        for l in range(first, len(chi)):
            if weight + chi[l] <= cap:
                skipped = min(light, chi[l])
                if weight + rest[l + 1] + skipped > cap:
                    branches.append((l + 1, weight, skipped, len(chosen)))
                chosen.append(l)
                weight += chi[l]
        # light is inf when no block was skipped (at s = inf too)
        if chosen and (light == math.inf or weight + light > cap):
            yield tuple(chosen)


def enumerate_projectors(structure, s):
    """All maximal projectors of weight <= s, where the family is finite.

    plain and group: one projector per inclusion-maximal block set of
    weight <= s (``maximal_block_sets``; for plain the supports of size
    ``norms.level_size(s)``), in its lexicographic order, or the empty
    projector alone when no block fits; lowrank: raises NotEnumerableError
    (continuous family).
    """
    return list(iter_projectors(structure, s))


def iter_projectors(structure, s):
    """``enumerate_projectors`` one at a time, in the same order; the checks
    run at the first ``next``."""
    if not s >= 0:      # NaN fails too
        raise ValueError("s must be nonnegative")
    if structure.kind == "lowrank":
        raise NotEnumerableError("the low-rank projector family is continuous")
    sets = maximal_block_sets(structure.weights, s)
    for chosen in itertools.chain([next(sets, ())], sets):
        yield group_projector(structure, chosen)


class SparseApprox(NamedTuple):
    projector: ProjectorDesc
    delta_x: float
    exact: bool
    kept: float     # the structure-norm mass the projector keeps


def best_sparse_approx(structure, w, s):
    """Best weight-<= s projector for w and the structure-norm residual.

    plain/group take the block set of ``norms.select_blocks`` for the block
    norms of w (plain keeps the s largest magnitudes); it is a projector of
    weight <= s, and exact is True when the selection certifies it the
    heaviest (its mass meets the selection's upper bound).  Past the
    selection's block limit for real weights it may be the greedy set, so
    kept is then a lower and delta_x an upper bound on the best values.
    lowrank truncates the SVD.  delta_x is ||w - Pw|| in the structure
    norm, kept the norm of Pw.
    """
    if structure.kind != "lowrank":
        vals = norms.group_block_norms(structure, w)
        kept, mask, upper = norms.select_blocks(vals, structure.weights, s)
        p = group_projector(structure, np.nonzero(mask)[0])
        delta = float(vals[~mask].sum())
        return SparseApprox(p, delta, kept == upper, kept)
    # lowrank: truncated SVD projectors
    k = norms.level_size(s, min(structure.p, structure.q))
    w = np.asarray(w, dtype=float).reshape(structure.p, structure.q)
    u, sv, vt = svd_descending(w)
    p = lowrank_projector(structure, u[:, :k], vt[:k, :].T)
    return SparseApprox(p, float(sv[k:].sum()), True, float(sv[:k].sum()))


# ---------------------------------------------------------------------------
# axiom verification


@dataclass
class AxiomReport:
    kind: str
    trials: int
    seed: int
    worst_margin: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _dual_norm(structure, w):
    return norms.structure_norm(structure, w, dual=True)


def axiom_margins(structure, proj, f, g):
    """Margins of the three axioms on one (P, f, g) triple.

    Returns dict axiom -> margin, nonnegative when the axiom holds.  A.1/A.2
    margins are negated deviations; A.3 margin is the dual-norm slack,
    normalized by max(1, right-hand side).
    """
    pf = project(structure, proj, f, "direct")
    ppf = project(structure, proj, pf, "direct")
    a1 = -float(np.max(np.abs(ppf - pf))) if pf.size else 0.0
    cpf = project(structure, proj, pf, "complement")
    a2 = -float(np.max(np.abs(cpf))) if cpf.size else 0.0
    # adjoints: all three families use self-adjoint P and complement
    mix = pf + project(structure, proj, g, "complement")
    rhs = max(_dual_norm(structure, f), _dual_norm(structure, g))
    a3 = (rhs - _dual_norm(structure, mix)) / max(1.0, rhs)
    return {"idempotent": a1, "complement_kills_range": a2,
            "dual_mixing": a3}


def verify_axioms(structure, trials, seed, tol=1e-9):
    """Randomized check of the three axioms; never raises on violations.

    Draws ``trials`` random (P, f, g) triples and records the worst margin
    per axiom plus up to five witness triples for anything below -tol.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = AxiomReport(kind=structure.kind, trials=trials, seed=seed)
    worst = {"idempotent": np.inf, "complement_kills_range": np.inf,
             "dual_mixing": np.inf}
    dim = structure.ambient_dim_e
    for t in range(trials):
        proj = random_projector(structure, rng)
        f = rng.standard_normal(dim)
        g = rng.standard_normal(dim)
        margins = axiom_margins(structure, proj, f, g)
        for name, m in margins.items():
            if m < worst[name]:
                worst[name] = m
            if m < -tol and len(report.violations) < 5:
                report.violations.append(
                    {"axiom": name, "trial": t, "margin": float(m),
                     "projector": proj, "f": f, "g": g})
    report.worst_margin = {k: float(v) for k, v in worst.items()}
    return report
