"""Test-only oracles: a Richardson finite-difference right derivative and a
full matrix evaluation of the closed-form norm.

The package computes these quantities exactly (Kato's formula in the scan,
the closed forms in ``contractivity``); the tests check it against these
independent routes.
"""

import numpy as np

from qmarkov.contractivity import lambda_probe
from qmarkov.operators import OperandError, trace_norm
from qmarkov.qutrit_family import MapParams, gamma_family

# Default initial step of the finite-difference right-derivative estimator
# (right_derivative), the oracle the exact scan is tested against; two
# Richardson halvings on top of this pass closed-form checks at 1e-5
# without catastrophic cancellation at the 1e-12 matrix tolerance floor.
DEFAULT_H0 = 1e-4


def _richardson(d):
    """Extrapolate forward differences d = [D(h), D(h/2), D(h/4)] to h -> 0.

    Two Richardson levels remove the O(h) and O(h^2) error terms.  When the
    two first-level extrapolants disagree strongly the stencil straddles a
    kink of f; extrapolation is then meaningless and the smallest-step plain
    difference (a faithful one-sided estimate) is returned instead.
    """
    d0, d1, d2 = d
    a1 = 2.0 * d1 - d0
    a2 = 2.0 * d2 - d1
    rich = (4.0 * a2 - a1) / 3.0
    scale = np.maximum(np.maximum(np.abs(d0), np.abs(d1)), np.abs(d2))
    bad = np.abs(a2 - a1) > 0.1 * scale + 1e-9
    return np.where(bad, d2, rich)


def right_derivative(f, t: float, h0: float = DEFAULT_H0) -> float:
    """One-sided derivative lim_{h -> 0+} [f(t+h) - f(t)] / h.

    Forward differences at steps h0, h0/2, h0/4 with Richardson
    extrapolation; evaluations never leave [t, t + h0], so only the
    right-limit behaviour of ``f`` matters.
    """
    if h0 <= 0:
        raise OperandError("h0 must be positive")
    f0 = f(t)
    diffs = [(f(t + h) - f0) / h for h in (h0, h0 / 2, h0 / 4)]
    return float(_richardson(np.asarray(diffs)))


def gamma4_norm_numeric(lam: float, tau: float, theta: float) -> float:
    """Full matrix-evaluation oracle for the closed-form norm."""
    params = MapParams(theta=theta)
    return trace_norm(gamma_family(4, tau, params).apply(lambda_probe(lam)))
