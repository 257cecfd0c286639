"""Sparsity structures: a norm on a representation space plus a weighted
projector family with complements.

Three concrete models are implemented:

* ``plain``   - coordinate sparsity in R^n, l1 norm, coordinate projectors,
                weight = support size, complement = identity minus projector;
* ``group``   - possibly overlapping index blocks V_1..V_K with positive
                weights chi_l; the representation space stacks the blocks,
                the norm sums per-block norms, projectors keep a subset of
                blocks, weight = sum of kept chi_l;
* ``lowrank`` - p x q matrices (any shape), nuclear norm, projectors
                P(x) = P_left x P_right built from orthonormal bases, weight
                = max of the two ranks.  The complement is
                (I - P_left) x (I - P_right), which is NOT identity minus P.

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
    """The projector family is continuous (or too large) and cannot be listed."""


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

    def full_weight(self):
        """Largest projector weight in the family."""
        if self.kind == "plain":
            return float(self.n)
        if self.kind == "group":
            return float(sum(self.weights))
        return float(min(self.p, self.q))


@dataclass(frozen=True, eq=False)
class RepresentationMap:
    matrix: np.ndarray
    identity_shortcut: bool

    def apply(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if self.identity_shortcut:
            return x.copy()
        return self.matrix @ x


@dataclass(frozen=True, eq=False)
class ProjectorDesc:
    """One member of the projector family, with its weight.

    plain: ``support`` (frozenset of coordinates); group: ``block_set``
    (frozenset of block indices); lowrank: ``left``/``right`` orthonormal
    bases of the row/column ranges.
    """
    kind: str
    nu: float
    support: frozenset = frozenset()
    block_set: frozenset = frozenset()
    left: np.ndarray | None = None
    right: np.ndarray | None = None


# ---------------------------------------------------------------------------
# construction


def _build_rep_map(structure):
    if structure.kind == "group":
        b = np.zeros((structure.ambient_dim_e, structure.ambient_dim_x))
        row = 0
        for v in structure.blocks:
            for i in v:
                b[row, i] = 1.0
                row += 1
        ident = bool(b.shape[0] == b.shape[1] and np.array_equal(b, np.eye(b.shape[0])))
        return RepresentationMap(matrix=b, identity_shortcut=ident)
    dim = structure.ambient_dim_e
    return RepresentationMap(matrix=np.eye(dim), identity_shortcut=True)


def rep_matrix(structure, b=None):
    """Dense matrix of B: ``b`` (a RepresentationMap or array-like) if given,
    else the structure's canonical representation map."""
    if b is None:
        return _build_rep_map(structure).matrix
    return b.matrix if hasattr(b, "matrix") else \
        np.atleast_2d(np.asarray(b, dtype=float))


def build_plain(n):
    if int(n) < 1:
        raise StructureError("plain structure needs n >= 1")
    s = SparsityStructure(kind="plain", n=int(n),
                          ambient_dim_x=int(n), ambient_dim_e=int(n))
    return s, _build_rep_map(s)


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
    if len(weights) != k or any(c <= 0 for c in weights):
        raise StructureError("need one positive weight per block")
    if isinstance(block_norm, str):
        tags = (block_norm,) * k
    else:
        tags = tuple(block_norm)
    if len(tags) != k or any(t not in norms.VECTOR_TAGS for t in tags):
        raise StructureError("block norms must be l1/l2/linf, one per block")
    s = SparsityStructure(kind="group", n=n, blocks=blocks, weights=weights,
                          block_norms=tags, ambient_dim_x=n,
                          ambient_dim_e=sum(len(v) for v in blocks))
    return s, _build_rep_map(s)


def build_lowrank(p, q):
    p, q = int(p), int(q)
    if p < 1 or q < 1:
        raise StructureError("lowrank structure needs p, q >= 1")
    s = SparsityStructure(kind="lowrank", p=p, q=q,
                          ambient_dim_x=p * q, ambient_dim_e=p * q)
    return s, _build_rep_map(s)


def build_structure(kind, **params):
    """Dispatching constructor; returns (structure, representation map)."""
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


def structure_from_dict(d):
    kind = d.get("kind")
    if kind == "plain":
        return build_plain(d["n"])
    if kind == "group":
        return build_group(d["blocks"], d.get("weights"),
                           d.get("block_norms", d.get("block_norm", "l2")))
    if kind == "lowrank":
        return build_lowrank(d["p"], d["q"])
    raise StructureError(f"unknown structure kind {kind!r}")


# ---------------------------------------------------------------------------
# projectors


def plain_projector(structure, support):
    support = frozenset(int(i) for i in support)
    if support and (min(support) < 0 or max(support) >= structure.n):
        raise StructureError("support outside 0..n-1")
    return ProjectorDesc(kind="plain", nu=float(len(support)), support=support)


def group_projector(structure, block_set):
    block_set = frozenset(int(i) for i in block_set)
    if block_set and (min(block_set) < 0 or max(block_set) >= len(structure.blocks)):
        raise StructureError("block index out of range")
    nu = float(sum(structure.weights[i] for i in block_set))
    return ProjectorDesc(kind="group", nu=nu, block_set=block_set)


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
    if structure.kind in ("plain", "group"):
        w = np.asarray(w, dtype=float).ravel()
        if w.size != structure.ambient_dim_e:
            raise ValueError(f"expected E-dimension {structure.ambient_dim_e}, "
                             f"got {w.size}")
        mask = np.zeros(w.size, dtype=bool)
        if structure.kind == "plain":
            mask[list(proj.support)] = True
        else:
            pos = 0
            for l, v in enumerate(structure.blocks):
                if l in proj.block_set:
                    mask[pos: pos + len(v)] = True
                pos += len(v)
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
    fixes no sampler, so this is the repo's choice).
    """
    if structure.kind == "plain":
        cap = structure.n if max_weight is None else min(structure.n, int(max_weight))
        k = int(rng.integers(0, cap + 1))
        return plain_projector(structure, rng.choice(structure.n, size=k, replace=False))
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
    cap_l = structure.p if max_weight is None else min(structure.p, int(max_weight))
    cap_r = structure.q if max_weight is None else min(structure.q, int(max_weight))
    r_l = int(rng.integers(0, cap_l + 1))
    r_r = int(rng.integers(0, cap_r + 1))
    left = np.linalg.qr(rng.standard_normal((structure.p, r_l)))[0] if r_l else \
        np.zeros((structure.p, 0))
    right = np.linalg.qr(rng.standard_normal((structure.q, r_r)))[0] if r_r else \
        np.zeros((structure.q, 0))
    return lowrank_projector(structure, left, right)


def enumerate_projectors(structure, s):
    """All maximal projectors of weight <= s, where the family is finite.

    plain: supports of size exactly min(floor(s), n) (smaller supports are
    dominated); group: inclusion-maximal block subsets with total weight <= s;
    lowrank: raises NotEnumerableError (continuous family).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if structure.kind == "plain":
        k = min(int(math.floor(s + 1e-12)), structure.n)
        return [plain_projector(structure, c)
                for c in itertools.combinations(range(structure.n), k)]
    if structure.kind == "group":
        kk = len(structure.blocks)
        if 2 ** kk > 4_000_000:
            raise NotEnumerableError(f"2^{kk} block subsets is beyond the "
                                     "enumeration budget")
        chi = np.asarray(structure.weights)
        out = []
        for mask in range(2 ** kk):
            members = [i for i in range(kk) if mask >> i & 1]
            tot = chi[members].sum() if members else 0.0
            if tot > s + 1e-12:
                continue
            # inclusion-maximal: no outside block still fits under the cap
            if any(tot + chi[i] <= s + 1e-12 for i in range(kk) if not mask >> i & 1):
                continue
            out.append(group_projector(structure, members))
        return out
    raise NotEnumerableError("the low-rank projector family is continuous")


class SparseApprox(NamedTuple):
    projector: ProjectorDesc
    delta_x: float
    exact: bool


def best_sparse_approx(structure, w, s):
    """Best weight-<= s projector for w and the structure-norm residual.

    plain keeps the s largest magnitudes; group solves the retained-norm
    knapsack exactly where ``norms.select_blocks`` can (integer weights, or
    at most 25 blocks), else takes its greedy set, an upper bound flagged
    exact=False; lowrank truncates the SVD.  delta_x is ||w - Pw|| in the
    structure norm.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if structure.kind == "plain":
        w = np.asarray(w, dtype=float).ravel()
        k = min(int(math.floor(s + 1e-12)), structure.n)
        keep = np.argsort(-np.abs(w), kind="stable")[:k]
        p = plain_projector(structure, keep)
        delta = float(np.abs(w).sum() - np.abs(w[keep]).sum())
        return SparseApprox(p, delta, True)
    if structure.kind == "group":
        vals = norms.group_block_norms(structure, w)
        _, mask, exact = norms.select_blocks(vals, structure.weights, s)
        p = group_projector(structure, np.nonzero(mask)[0])
        delta = float(vals[~mask].sum())
        return SparseApprox(p, delta, exact)
    # lowrank: truncated SVD projectors
    w = np.asarray(w, dtype=float).reshape(structure.p, structure.q)
    k = min(int(math.floor(s + 1e-12)), structure.p, structure.q)
    u, sv, vt = svd_descending(w)
    p = lowrank_projector(structure, u[:, :k], vt[:k, :].T)
    return SparseApprox(p, float(sv[k:].sum()), True)


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


def axiom_margins(structure, proj, f, g, complement_fn=None):
    """Margins of the three axioms on one (P, f, g) triple.

    Returns dict axiom -> margin, nonnegative when the axiom holds.  A.1/A.2
    margins are negated deviations; A.3 margin is the dual-norm slack,
    normalized by max(1, right-hand side).  ``complement_fn(w)`` overrides the
    complement application (fault-injection hook for tests).
    """
    comp = (lambda w: project(structure, proj, w, "complement")) \
        if complement_fn is None else complement_fn
    pf = project(structure, proj, f, "direct")
    ppf = project(structure, proj, pf, "direct")
    a1 = -float(np.max(np.abs(ppf - pf))) if pf.size else 0.0
    cpf = comp(pf)
    a2 = -float(np.max(np.abs(cpf))) if np.size(cpf) else 0.0
    # adjoints: all three families use self-adjoint P and complement
    mix = pf + comp(g)
    rhs = max(_dual_norm(structure, f), _dual_norm(structure, g))
    a3 = (rhs - _dual_norm(structure, mix)) / max(1.0, rhs)
    return {"idempotent": a1, "complement_kills_range": a2,
            "dual_mixing": a3}


def verify_axioms(structure, trials, seed, complement_fn=None, tol=1e-9):
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
        margins = axiom_margins(structure, proj, f, g, complement_fn)
        for name, m in margins.items():
            if m < worst[name]:
                worst[name] = m
            if m < -tol and len(report.violations) < 5:
                report.violations.append(
                    {"axiom": name, "trial": t, "margin": float(m),
                     "projector": proj, "f": f, "g": g})
    report.worst_margin = {k: float(v) for k, v in worst.items()}
    return report
