"""Certificate/verdict containers and the randomized contraction check.

The contraction condition behind every error bound here reads: for all z and
every projector P of weight at most s,

    ||P B z|| + ||B z|| - ||P_bar B z|| <= beta * phi(A z) + gamma * ||B z||.

``check_condition_Cs`` samples z (half the draws biased into Ker(A), where the
condition bites) and evaluates the left side at the worst projector the
structure admits: the top-s support (entrywise), the weight-knapsack block set
of ``norms.select_blocks`` (group; past its block limit for real weights the
greedy set, a feasible projector whose left side may fall short of the
worst), or singular-subspace truncations of Bz plus random probes (low rank,
where the family is continuous and the aligned projector is only the natural
candidate, not a proven maximizer).  Every projector tried has weight <= s,
so a violation found is a real one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import norms, structures


@dataclass
class Certificate:
    """A (gamma, beta) pair certifying the contraction condition at level s.

    ``method`` tags how it was produced: ColumnLP (group/plain synthesis),
    LowRankUBar, or LowRankUStar.  For synthesized certificates the
    algebraic identity B = W B + H^T A holds; ``identity_residual`` records its
    Frobenius defect.  ``exact_gamma``/``exact_beta`` flag whether the numbers
    are exact optima or certified upper bounds (still sound either way).
    """
    gamma: float
    beta: float
    s: float
    phi: str
    method: str
    h_matrix: np.ndarray | None = None
    w_matrix: np.ndarray | None = None
    identity_residual: float = 0.0
    exact_gamma: bool = True
    exact_beta: bool = True
    details: dict = field(default_factory=dict)

    @property
    def valid(self):
        return bool(self.gamma < 1.0)


@dataclass
class NullspaceVerdict:
    """Outcome of a nullspace-property query at sparsity level s.

    status is CertifiedGood (exhaustive method, strict margin), CertifiedBad
    (explicit kernel witness z and projector with ||P_bar B z|| <= ||P B z||),
    or Unknown.  ``gamma_value`` is the exact retained-fraction maximum when
    the method is exhaustive; sampling-based searches report ``bracket``
    = (best found, trivial upper bound) instead.
    """
    status: str
    s: float
    gamma_value: float | None = None
    bracket: tuple | None = None
    witness: np.ndarray | None = None
    witness_projector: object = None
    details: dict = field(default_factory=dict)

    @property
    def certified_good(self):
        return self.status == "CertifiedGood"


@dataclass
class CsCheck:
    ok: bool
    trials: int
    worst_margin: float
    violation: dict | None = None


def worst_condition_projector(structure, w, s, rng=None, probes=0):
    """Worst (or best-known) projector for the condition's left side at w.

    Returns (projector, lhs): ``structures.best_sparse_approx``'s projector
    and twice the mass it keeps, the worst for plain and for group
    structures wherever that selection is exact (``SparseApprox.exact``),
    else a feasible projector whose lhs is a lower bound on the worst; for
    low rank (its singular truncation) ``probes`` extra random projectors
    are tried.
    """
    approx = structures.best_sparse_approx(structure, w, s)
    best_proj, best = approx.projector, 2.0 * approx.kept
    if structure.kind == "lowrank" and rng is not None:
        total = approx.kept + approx.delta_x
        for _ in range(probes):
            proj = structures.random_projector(structure, rng, max_weight=s)
            direct = norms.structure_norm(
                structure, structures.project(structure, proj, w, "direct"))
            comp = norms.structure_norm(
                structure, structures.project(structure, proj, w, "complement"))
            lhs = direct + total - comp
            if lhs > best:
                best, best_proj = lhs, proj
    return best_proj, best


def _kernel_basis(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, sv, vt = np.linalg.svd(a)
    tol = max(a.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int((sv > tol).sum())
    return vt[rank:].T


def check_condition_Cs(a, b, structure, s, gamma, beta, phi, trials, seed,
                       tol=1e-9, probes=3):
    """Randomized search for violations of the contraction condition.

    Half the z draws are Gaussian vectors projected onto Ker(A) (where the
    phi term vanishes and only gamma can save the day); the rest are plain
    Gaussians.  Stops at the first margin below -tol * scale.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[1]
    if n != structure.ambient_dim_x:
        raise ValueError(f"A must have {structure.ambient_dim_x} columns "
                         "for this structure")
    bmat, _ = structures.representation(structure, b)
    rng = np.random.default_rng(seed)
    null = _kernel_basis(a)
    worst = np.inf
    for t in range(trials):
        if t % 2 == 0 and null.shape[1]:
            z = null @ rng.standard_normal(null.shape[1])
        else:
            z = rng.standard_normal(n)
        nz = np.linalg.norm(z)
        if nz < 1e-14:
            continue
        z /= nz
        w = bmat @ z
        proj, lhs = worst_condition_projector(structure, w, s, rng=rng,
                                              probes=probes)
        rhs = beta * norms.vector_norm(a @ z, phi) \
            + gamma * norms.structure_norm(structure, w)
        scale = max(1.0, abs(lhs), abs(rhs))
        margin = (rhs - lhs) / scale
        if margin < worst:
            worst = margin
        if margin < -tol:
            return CsCheck(ok=False, trials=t + 1, worst_margin=float(worst),
                           violation={"z": z, "projector": proj,
                                      "lhs": float(lhs), "rhs": float(rhs),
                                      "trial": t})
    return CsCheck(ok=True, trials=trials, worst_margin=float(worst))
