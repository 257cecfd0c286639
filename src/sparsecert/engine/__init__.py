"""Optimization backends: dense two-phase simplex and an ADMM-style splitting."""

from .simplex import LinearProgram, SolveReport, Status, solve_lp, solve_lp_costs
from .splitting import SplitProblem, solve_split

__all__ = ["LinearProgram", "SolveReport", "Status", "solve_lp", "solve_lp_costs",
           "SplitProblem", "solve_split"]
