"""Optimization backends: a dense two-phase simplex, whose ``LPSequence``
warm-starts many costs over one feasible set, and an ADMM-style splitting."""

from .simplex import LinearProgram, LPSequence, SolveReport, Status, solve_lp
from .splitting import SplitProblem, solve_split

__all__ = ["LinearProgram", "LPSequence", "SolveReport", "Status", "solve_lp",
           "SplitProblem", "solve_split"]
