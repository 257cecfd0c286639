"""Certification: brute-force nullspace verdicts, randomized condition checks,
and the verifiable sufficient conditions for all three structures."""

from .conditions import (Certificate, CsCheck, NullspaceVerdict,
                         check_condition_Cs, worst_condition_projector)
from .bruteforce import gamma_s_bruteforce
from .synthesis import (SynthesisNotOptimalError, psi_s,
                        synth_certificate_group)
from .lowrank import (badnews_check, certify_lowrank, opt_bar, opt_star,
                      rearrange, theta)

__all__ = ["Certificate", "CsCheck", "NullspaceVerdict", "check_condition_Cs",
           "worst_condition_projector", "gamma_s_bruteforce", "psi_s",
           "SynthesisNotOptimalError", "synth_certificate_group",
           "badnews_check", "certify_lowrank", "opt_bar", "opt_star",
           "rearrange", "theta"]
