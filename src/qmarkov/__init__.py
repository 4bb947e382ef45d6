"""Trace-norm contractivity scans and divisibility certification for
finite-dimensional quantum dynamical maps, built around a qutrit family
that contracts monotonically yet admits no positive intermediate maps."""

from .contractivity import (ScanReport, bound_chain_check,
                            gamma4_derivative_closed_form,
                            gamma4_norm_closed_form, lambda_probe,
                            lambda_reflection_check, norm_derivative_scan,
                            theta_window_sweep)
from .divisibility import (ForcingWitness, IntermediateMap,
                           cp_divisibility_scan, intermediate_map,
                           positive_forcing_witness)
from .operators import ProbeSet, random_probes, trace_norm
from .qutrit_family import (MapParams, continuity_report, family,
                            gamma_family, gamma_family_dot, lambda_t,
                            lambda_t_dot, load_params, make_E)
from .superops import (SuperOp, apply_to_extended, compose, from_kraus,
                       identity_superop, image_basis, image_rank,
                       is_cp, is_image_nonincreasing, is_tp,
                       superop_from_action, to_choi)

__all__ = [name for name in dir() if not name.startswith("_")]
