"""The qutrit dynamical-map family and its building blocks.

Four elementary CP maps E1..E4, interpolating families Gamma1..Gamma4 on
tau in [0, 1] with their closed-form tau-derivatives, a dephasing
generator with an s-dependent rate, and the piecewise-composed family
Lambda_t on [0, t4] with its right time-derivative.  E1..E3 and the stage
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
        if not 1.0 <= self.delta < math.inf:
            raise OperandError("delta must be finite and >= 1")

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


def _gamma1_matrix(off_diagonal: float, diagonal: float = 1.0) -> np.ndarray:
    """Diagonal coefficient map: ``diagonal`` on the diagonal matrix units
    |i><i| and ``off_diagonal`` on the others.

    exp(g * L0) with L0(X) = sum_i D_i X D_i - 3X is of this form: in the
    matrix-unit basis L0 is diagonal, with coefficient 0 on diagonal units
    and -4 on off-diagonal ones, so the exponential multiplies off-diagonal
    entries by exp(-4g) and leaves the diagonal alone.  Using the closed
    form keeps the tau -> 1 limit exact (coefficient exactly 0).
    """
    coeffs = np.full(9, off_diagonal)
    coeffs[::4] = diagonal
    return np.diag(coeffs).astype(complex)


def dephasing_generator() -> SuperOp:
    """L0(X) = D1 X D1 + D2 X D2 + D3 X D3 - 3X (unit rate)."""
    m = sum(np.kron(D.conj(), D) for D in (D1, D2, D3)) - 3.0 * np.eye(9)
    return SuperOp(dim=3, matrix=m.astype(complex))


def _gamma4_matrix(c00: float, c11: np.ndarray, c_trace: float) -> np.ndarray:
    """Matrix of X -> c00 x00 |0><0| + x11 c11 + c_trace (x00 + x11) |2><2|.

    Gamma^(4) and its derivative have this form: only the columns of |0><0|
    (index 0) and |1><1| (index 4) are nonzero.
    """
    m = np.zeros((9, 9), dtype=complex)
    m[0, 0] = c00
    m[:, 4] = vec(c11)
    m[8, [0, 4]] = c_trace
    return m


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau <= 1.0:
        raise OperandError("tau must lie in [0, 1]")


def gamma_family(i: int, tau: float, params: MapParams | None = None) -> SuperOp:
    """Gamma^(i)_tau for i in 1..4 and tau in [0, 1]."""
    params = params or MapParams()
    _check_tau(tau)
    if i == 1:
        g = rate_g(tau)
        return SuperOp(dim=3, matrix=_gamma1_matrix(
            0.0 if math.isinf(g) else math.exp(-4.0 * g)))
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
        # with s = tau^delta and |psi> the ket rotated by theta*s.
        sigma = tau ** params.delta
        ket = rotated_ket(params.theta * sigma)
        up, down = 1.0 + sigma * sigma, 1.0 - sigma * sigma
        return SuperOp(dim=3, matrix=_gamma4_matrix(
            up, up * np.outer(ket, ket.conj()), down))
    raise OperandError(f"family index must be 1..4, got {i}")


def gamma_family_dot(i: int, tau: float, params: MapParams | None = None) -> SuperOp:
    """d Gamma^(i)_tau / d tau for i in 1..4 and tau in [0, 1], from the
    closed forms of ``gamma_family``; one-sided at the ends of [0, 1]."""
    params = params or MapParams()
    _check_tau(tau)
    if i == 1:
        # off-diagonal coefficient exp(-4 g(tau)) = (1 - tau)^4
        return SuperOp(dim=3, matrix=_gamma1_matrix(-4.0 * (1.0 - tau) ** 3, 0.0))
    if i in (2, 3):
        # d/dtau [w I + (1 - w) E] = -f'(tau) w (I - E) with w = exp(-f);
        # f' w -> 0 as tau -> 1, where f diverges.
        f = rate_f(tau)
        if math.isinf(f):
            return SuperOp(dim=3, matrix=np.zeros((9, 9), dtype=complex))
        rate = tau * (2.0 - tau) / (1.0 - tau) ** 2
        target = E2 if i == 2 else E3
        return SuperOp(dim=3, matrix=-rate * math.exp(-f) * (np.eye(9) - target.matrix))
    if i == 4:
        # chain rule through s = tau^delta, with ds/dtau = 0 at tau = 0 for
        # delta > 1, and d|psi>/ds = theta (cos, -sin, 0)
        delta = params.delta
        ds = delta * tau ** (delta - 1.0) if tau > 0.0 else float(delta == 1.0)
        sigma = tau ** delta
        ket = rotated_ket(params.theta * sigma)
        dket = params.theta * np.array([ket[1], -ket[0], 0.0])
        dproj = np.outer(dket, ket.conj()) + np.outer(ket, dket.conj())
        return SuperOp(dim=3, matrix=ds * _gamma4_matrix(
            2.0 * sigma, 2.0 * sigma * np.outer(ket, ket.conj())
            + (1.0 + sigma * sigma) * dproj, -2.0 * sigma))
    raise OperandError(f"family index must be 1..4, got {i}")


# Constant map that stage i's Gamma^(i) acts after, at index i - 1.
_PREFIXES = (None, E1, E2_E1, E3_E2_E1)


def _stage(t: float, params: MapParams) -> tuple[int, float, float]:
    """(stage i, tau, segment length) of the stage containing t.

    The stages are [0, t1), [t1, t2), [t2, t3) and [t3, t4]; t outside the
    domain is an error.
    """
    if t < 0.0 or t > params.t4:
        raise OperandError(f"t = {t} outside [0, {params.t4}]")
    starts = (0.0, params.t1, params.t2, params.t3, params.t4)
    i = 1 if t < params.t1 else 2 if t < params.t2 else 3 if t < params.t3 else 4
    length = starts[i] - starts[i - 1]
    return i, (t - starts[i - 1]) / length, length


def lambda_t(t: float, params: MapParams | None = None) -> SuperOp:
    """The piecewise family on [0, t4]; t outside the domain is an error."""
    params = params or MapParams()
    i, tau, _ = _stage(t, params)
    gamma, prefix = gamma_family(i, tau, params), _PREFIXES[i - 1]
    return gamma if prefix is None else compose(gamma, prefix)


def lambda_t_dot(t: float, params: MapParams | None = None) -> SuperOp:
    """d Lambda_t / dt from the right, within the stage ``lambda_t`` picks for t.

    (1 / segment length) d Gamma^(i)/d tau composed with the stage's constant
    prefix.  At t = t4 it is the left derivative, the end of stage 4.
    """
    params = params or MapParams()
    i, tau, length = _stage(t, params)
    m, prefix = gamma_family_dot(i, tau, params).matrix / length, _PREFIXES[i - 1]
    return SuperOp(dim=3, matrix=m if prefix is None else m @ prefix.matrix)


@dataclass(frozen=True)
class Family:
    """Callable t -> Lambda_t with parameters bound; ``dot(t)`` is d Lambda/dt.

    Both look ``lambda_t``/``lambda_t_dot`` up at call time, so a wrapper
    installed on the module (as the traced benchmark does) sees every call.
    """

    params: MapParams

    def __call__(self, t: float) -> SuperOp:
        return lambda_t(t, self.params)

    def dot(self, t: float) -> SuperOp:
        return lambda_t_dot(t, self.params)


def family(params: MapParams | None = None) -> Family:
    """Callable t -> Lambda_t with parameters bound (and ``dot`` its derivative)."""
    return Family(params or MapParams())


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
