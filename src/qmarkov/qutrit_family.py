"""The qutrit dynamical-map family and its building blocks.

Four elementary CP maps E1..E4, interpolating families Gamma1..Gamma4 on
tau in [0, 1], a dephasing generator with an s-dependent rate, and the
piecewise-composed family Lambda_t on [0, t4].  E1..E3 and the stage
prefixes E2 E1 and E3 E2 E1 are read-only constants built once at import.
Parameters (rotation angle theta, junction times, smoothing exponent delta)
live in an immutable MapParams and are loadable from a plain key=value
config file, e.g.::

    theta = 1.5
    t1 = 1
    t2 = 2
    t3 = 3
    t4 = 4
    delta = 1.0
    rate = default-pole
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperandError
from .superops import SuperOp, compose, from_kraus, superop_from_action, vec

D1 = np.diag([-1.0, 1.0, 1.0])
D2 = np.diag([1.0, -1.0, 1.0])
D3 = np.diag([1.0, 1.0, -1.0])
K2 = np.array([[1.0, 0.0, 0.0],
               [0.0, 1.0, 1.0],
               [0.0, 0.0, 0.0]])
RHO_A = np.diag([1.0, 0.0, 1.0]) / 2
RHO_B = np.diag([0.0, 1.0, 1.0]) / 2
G = np.array([[0.0, -1.0j, 0.0],
              [1.0j, 0.0, 0.0],
              [0.0, 0.0, 0.0]])


def rotated_ket(angle: float) -> np.ndarray:
    """exp(i*G*angle)|2>: the generator acts as a y-rotation on the 1-2 block."""
    return np.array([math.sin(angle), math.cos(angle), 0.0], dtype=complex)


def rate_f(tau: float) -> float:
    """Rate of the second and third families, f(tau) = tau^2 / (1 - tau).

    f diverges at tau = 1, which drives both families to their tau = 1
    limits exactly.
    """
    if not 0.0 <= tau <= 1.0:
        raise OperandError("tau must lie in [0, 1]")
    if tau == 1.0:
        return math.inf
    return tau * tau / (1.0 - tau)


def rate_g(tau: float) -> float:
    """Integrated dephasing rate g(tau) = -ln(1 - tau) of gamma(s) = 1/(1 - s)."""
    if not 0.0 <= tau <= 1.0:
        raise OperandError("tau must lie in [0, 1]")
    if tau == 1.0:
        return math.inf
    return -math.log1p(-tau)


SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MapParams:
    """All family parameters.

    The junction times are arbitrary ascending positives (equal unit
    segments by default, which makes the per-segment tau mapping trivial).
    theta defaults to 1.5, interior of the monotone-contractivity window
    [sqrt(2), pi/2] and away from both of its tight ends.  delta > 1 smooths
    the time derivative at the junctions by substituting tau -> tau^delta
    inside the rotation argument of the fourth family only.
    """

    theta: float = 1.5
    t1: float = 1.0
    t2: float = 2.0
    t3: float = 3.0
    t4: float = 4.0
    delta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.t1 < self.t2 < self.t3 < self.t4):
            raise OperandError("junction times must satisfy 0 < t1 < t2 < t3 < t4")
        if not (0.0 < self.theta < math.pi):
            raise OperandError("theta must lie in (0, pi)")
        if self.delta < 1.0:
            raise OperandError("delta must be >= 1")

    @property
    def in_contractive_window(self) -> bool:
        return SQRT2 <= self.theta <= math.pi / 2


def load_params(path) -> MapParams:
    """Read MapParams from a plain-text key = value file."""
    kwargs = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise OperandError(f"bad config line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "rate":
                if value != "default-pole":
                    raise OperandError(f"unknown rate {value!r} in config")
            elif key in ("theta", "t1", "t2", "t3", "t4", "delta"):
                kwargs[key] = float(value)
            else:
                raise OperandError(f"unknown config key {key!r}")
    return MapParams(**kwargs)


def _constant(S: SuperOp) -> SuperOp:
    S.matrix.flags.writeable = False
    return S


E1 = _constant(from_kraus([np.eye(3) / 2, D1 / 2, D2 / 2, D3 / 2]))
E2 = _constant(from_kraus([K2]))
E3 = _constant(superop_from_action(lambda X: X[0, 0] * RHO_A + X[1, 1] * RHO_B, 3))
E2_E1 = _constant(compose(E2, E1))
E3_E2_E1 = _constant(compose(E3, E2_E1))


def make_E(i: int, params: MapParams | None = None) -> SuperOp:
    """The four elementary CP maps (E4 needs theta from ``params``)."""
    if i in (1, 2, 3):
        return (E1, E2, E3)[i - 1]
    if i == 4:
        return gamma_family(4, 1.0, params)
    raise OperandError(f"map index must be 1..4, got {i}")


def _gamma1_matrix(g_value: float) -> np.ndarray:
    """Coefficient map of exp(g * L0) with L0(X) = sum_i D_i X D_i - 3X.

    In the matrix-unit basis L0 is diagonal: coefficient 0 on diagonal
    units and -4 on off-diagonal ones, so the exponential multiplies
    off-diagonal entries by exp(-4g) and leaves the diagonal alone.  Using
    the closed form keeps the tau -> 1 limit exact (coefficient exactly 0).
    """
    decay = 0.0 if math.isinf(g_value) else math.exp(-4.0 * g_value)
    coeffs = np.empty(9)
    for j in range(3):
        for i in range(3):
            coeffs[j * 3 + i] = 1.0 if i == j else decay
    return np.diag(coeffs).astype(complex)


def dephasing_generator() -> SuperOp:
    """L0(X) = D1 X D1 + D2 X D2 + D3 X D3 - 3X (unit rate)."""
    m = sum(np.kron(D.conj(), D) for D in (D1, D2, D3)) - 3.0 * np.eye(9)
    return SuperOp(dim=3, matrix=m.astype(complex))


def gamma_family(i: int, tau: float, params: MapParams | None = None) -> SuperOp:
    """Gamma^(i)_tau for i in 1..4 and tau in [0, 1]."""
    params = params or MapParams()
    if not 0.0 <= tau <= 1.0:
        raise OperandError("tau must lie in [0, 1]")
    if i == 1:
        return SuperOp(dim=3, matrix=_gamma1_matrix(rate_g(tau)))
    if i in (2, 3):
        f = rate_f(tau)
        w = 0.0 if math.isinf(f) else math.exp(-f)
        target = E2 if i == 2 else E3
        m = w * np.eye(9) + (1.0 - w) * target.matrix
        return SuperOp(dim=3, matrix=m)
    if i == 4:
        # delta-smoothing reparameterizes the whole family as tau -> tau^delta.
        # Substituting only inside the rotation argument would make the norm of
        # the lam = 1 probe behave as (1 + tau^2) cos(theta tau^delta), which
        # grows like tau^2 near tau = 0 for every delta > 1 (norm backflow);
        # the full reparameterization keeps contractivity by the chain rule
        # while still zeroing the right time-derivative at the third junction.
        # X -> (1 + s^2)(x00 |0><0| + x11 |psi><psi|) + (1 - s^2)(x00 + x11) |2><2|
        # with s = tau^delta and |psi> the ket rotated by theta*s: only the
        # columns of |0><0| (index 0) and |1><1| (index 4) are nonzero.
        sigma = tau ** params.delta
        ket = rotated_ket(params.theta * sigma)
        up, down = 1.0 + sigma * sigma, 1.0 - sigma * sigma
        m = np.zeros((9, 9), dtype=complex)
        m[0, 0] = up
        m[:, 4] = up * vec(np.outer(ket, ket.conj()))
        m[8, [0, 4]] = down
        return SuperOp(dim=3, matrix=m)
    raise OperandError(f"family index must be 1..4, got {i}")


def lambda_t(t: float, params: MapParams | None = None) -> SuperOp:
    """The piecewise family on [0, t4]; t outside the domain is an error."""
    params = params or MapParams()
    if t < 0.0 or t > params.t4:
        raise OperandError(f"t = {t} outside [0, {params.t4}]")
    if t < params.t1:
        return gamma_family(1, t / params.t1, params)
    if t < params.t2:
        tau = (t - params.t1) / (params.t2 - params.t1)
        return compose(gamma_family(2, tau, params), E1)
    if t < params.t3:
        tau = (t - params.t2) / (params.t3 - params.t2)
        return compose(gamma_family(3, tau, params), E2_E1)
    tau = (t - params.t3) / (params.t4 - params.t3)
    return compose(gamma_family(4, tau, params), E3_E2_E1)


def family(params: MapParams | None = None):
    """Callable t -> Lambda_t with parameters bound."""
    params = params or MapParams()
    return lambda t: lambda_t(t, params)


def continuity_report(params: MapParams | None = None,
                      eps_ladder=(1e-2, 1e-3, 1e-4),
                      derivative: bool = False) -> dict:
    """Sup-norm gaps across each junction for a decreasing epsilon ladder.

    For each junction t in {t1, t2, t3} and each eps, the gap is the
    max-abs entry difference between Lambda_{t-eps} and Lambda_{t+eps}.
    With ``derivative=True`` the report also contains the gap between the
    one-sided finite-difference time derivatives of the matrix entries,
    which should vanish for the smooth (delta > 1, pole-rate) variant.
    """
    params = params or MapParams()
    eps_ladder = tuple(eps_ladder)
    limit = min(params.t1, params.t2 - params.t1,
                params.t3 - params.t2, params.t4 - params.t3) / 2
    if any(not 0.0 < e < limit for e in eps_ladder):
        raise OperandError("epsilon ladder must lie in (0, min segment length / 2)")
    report = {}
    for name, tj in (("t1", params.t1), ("t2", params.t2), ("t3", params.t3)):
        gaps, dgaps = [], []
        for eps in eps_ladder:
            left = lambda_t(tj - eps, params).matrix
            right = lambda_t(tj + eps, params).matrix
            gaps.append(float(np.max(np.abs(left - right))))
            if derivative:
                dleft = (left - lambda_t(tj - 2 * eps, params).matrix) / eps
                dright = (lambda_t(tj + 2 * eps, params).matrix - right) / eps
                dgaps.append(float(np.max(np.abs(dleft - dright))))
        entry = {"eps": eps_ladder, "gap": tuple(gaps)}
        if derivative:
            entry["derivative_gap"] = tuple(dgaps)
        report[name] = entry
    return report
