"""Trace-norm contractivity scans and divisibility certification for
finite-dimensional quantum dynamical maps, built around a qutrit family
that contracts monotonically yet admits no positive intermediate maps."""

from .contractivity import (ScanReport, bound_chain_check,
                            gamma4_derivative_closed_form,
                            lambda_reflection_check, norm_derivative_scan,
                            theta_window_sweep)
from .divisibility import (cp_divisibility_scan, intermediate_map,
                           positive_forcing_witness)
from .operators import ProbeSet, random_probes, trace_norm
from .qutrit_family import (MapParams, continuity_report, family,
                            gamma_family, lambda_t, load_params, make_E)
from .superops import (SuperOp, apply_to_extended, from_kraus, image_rank,
                       is_image_nonincreasing, superop_from_action, to_choi)

# The names the command line, the benchmark, the acceptance test or the
# README use; everything else is imported from its module.
__all__ = [
    "ScanReport", "bound_chain_check", "gamma4_derivative_closed_form",
    "lambda_reflection_check", "norm_derivative_scan", "theta_window_sweep",
    "cp_divisibility_scan", "intermediate_map", "positive_forcing_witness",
    "ProbeSet", "random_probes", "trace_norm",
    "MapParams", "continuity_report", "family", "gamma_family", "lambda_t",
    "load_params", "make_E",
    "SuperOp", "apply_to_extended", "from_kraus", "image_rank",
    "is_image_nonincreasing", "superop_from_action", "to_choi",
]
