"""Structured sparse recovery with verifiable nullspace-type certificates.

Covers entrywise sparsity, overlapping weighted groups, and low rank under
one abstraction (a norm plus a weighted projector family), provides the two
standard recovery programs, closed-form error bounds, and both brute-force
and relaxation-based certification of the underlying nullspace condition.
"""

__version__ = "0.1.0"

from .norms import (UnsupportedNormError, dual_tag, induced_norm, omega, pi_s,
                    project_ball, prox_structure_norm, prox_vector_norm,
                    ps_seminorm, sigma_sum, structure_norm, sum_top,
                    vector_norm)
from .structures import (AxiomReport, NotEnumerableError, ProjectorDesc,
                         SparsityStructure, StructureError, best_sparse_approx,
                         build_group, build_lowrank, build_plain,
                         build_structure, enumerate_projectors, project,
                         random_projector, structure_from_dict,
                         structure_to_dict, verify_axioms)
from .engine import (LinearProgram, SolveReport, SplitProblem, Status,
                     solve_lp, solve_split)
from .recovery import (ErrorBudget, GammaTooLargeError, LambdaBelowBetaError,
                       RecoveryProblem, RecoveryResult, error_bound,
                       recover_penalized, recover_regular)
from .certify import (Certificate, CsCheck, NullspaceVerdict, badnews_check,
                      certify_lowrank, check_condition_Cs, gamma_s_bruteforce,
                      opt_bar, opt_star, psi_s, synth_certificate_group)

__all__ = [
    "__version__",
    "UnsupportedNormError", "dual_tag", "induced_norm", "omega", "pi_s",
    "project_ball", "prox_structure_norm", "prox_vector_norm", "ps_seminorm",
    "sigma_sum", "structure_norm", "sum_top", "vector_norm",
    "AxiomReport", "NotEnumerableError", "ProjectorDesc", "SparsityStructure",
    "StructureError", "best_sparse_approx", "build_group", "build_lowrank",
    "build_plain", "build_structure", "enumerate_projectors", "project",
    "random_projector", "structure_from_dict", "structure_to_dict",
    "verify_axioms",
    "LinearProgram", "SolveReport", "SplitProblem", "Status", "solve_lp",
    "solve_split",
    "ErrorBudget", "GammaTooLargeError", "LambdaBelowBetaError",
    "RecoveryProblem", "RecoveryResult", "error_bound", "recover_penalized",
    "recover_regular",
    "Certificate", "CsCheck", "NullspaceVerdict", "badnews_check",
    "certify_lowrank", "check_condition_Cs", "gamma_s_bruteforce", "opt_bar",
    "opt_star", "psi_s", "synth_certificate_group",
]
