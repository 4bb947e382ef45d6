"""The qutrit dynamical-map family and its building blocks.

Four elementary CP maps E1..E4, interpolating families Gamma1..Gamma4 on
tau in [0, 1] with their closed-form tau-derivatives, a dephasing
generator with an s-dependent rate, and the piecewise-composed family
Lambda_t on [0, t4] with its right time-derivative.  E1..E3 and the chain
Id, E1, E2 E1, E3 E2 E1 are read-only constants built once at import.
Gamma1..Gamma3 relax Id toward E_i, so stage i <= 3 of Lambda_t is one
weighted blend of consecutive chain maps; stage 4 is Gamma4 after E3 E2 E1.
Parameters (rotation angle theta, junction times, smoothing exponent delta)
live in an immutable MapParams and are loadable from a plain key=value
config file, e.g.::

    theta = 1.5
    t1 = 1
    t2 = 2
    t3 = 3
    t4 = 4
    delta = 1.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperandError
from .superops import SuperOp, compose, from_kraus, superop_from_action

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


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau <= 1.0:
        raise OperandError("tau must lie in [0, 1]")


def rate_f(tau: float) -> float:
    """Rate of the second and third families, f(tau) = tau^2 / (1 - tau).

    f diverges at tau = 1, which drives both families to their tau = 1
    limits exactly.
    """
    _check_tau(tau)
    if tau == 1.0:
        return math.inf
    return tau * tau / (1.0 - tau)


def rate_g(tau: float) -> float:
    """Integrated dephasing rate g(tau) = -ln(1 - tau) of gamma(s) = 1/(1 - s)."""
    _check_tau(tau)
    if tau == 1.0:
        return math.inf
    return -math.log1p(-tau)


# The theta window [sqrt(2), pi/2] of monotone trace-norm contractivity.
CONTRACTIVE_WINDOW = (math.sqrt(2.0), math.pi / 2)


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
        if not (0.0 < self.t1 < self.t2 < self.t3 < self.t4 < math.inf):
            raise OperandError("junction times must satisfy 0 < t1 < t2 < t3 < t4 < inf")
        if not (0.0 < self.theta < math.pi):
            raise OperandError("theta must lie in (0, pi)")
        if not 1.0 <= self.delta < math.inf:
            raise OperandError("delta must be finite and >= 1")


def load_params(path) -> MapParams:
    """Read MapParams from a plain-text key = value file; a key may appear once."""
    kwargs, seen = {}, set()
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise OperandError(f"bad config line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in seen:
                raise OperandError(f"config key {key!r} is repeated")
            seen.add(key)
            if key not in ("theta", "t1", "t2", "t3", "t4", "delta"):
                raise OperandError(f"unknown config key {key!r}")
            kwargs[key] = float(value)
    return MapParams(**kwargs)


def _constant(S: SuperOp) -> SuperOp:
    S.matrix.flags.writeable = False
    return S


E1 = _constant(from_kraus([np.eye(3) / 2, D1 / 2, D2 / 2, D3 / 2]))
E2 = _constant(from_kraus([K2]))
E3 = _constant(superop_from_action(lambda X: X[0, 0] * RHO_A + X[1, 1] * RHO_B, 3))
E2_E1 = _constant(compose(E2, E1))
E3_E2_E1 = _constant(compose(E3, E2_E1))

# The chain P0 = Id, P1 = E1, P2 = E2 E1, P3 = E3 E2 E1: stage i <= 3 of
# Lambda_t runs from P_{i-1} at tau = 0 to P_i at tau = 1, and stage 4 acts
# after P3.  Each column holds at most one nonzero entry, 1 or 1/2, so
# every chain map, like E1..E3, is float64.
_CHAIN = (_constant(SuperOp(np.eye(9))).matrix, E1.matrix, E2_E1.matrix, E3_E2_E1.matrix)

# The chain maps' images P_j(|a><b|) of the basis, (9, 3, 3) in the column
# order 3b + a: each P_j's columns unvectorised, so ``_stage_images`` of
# these is Lambda_t's columns.
_CHAIN_IMAGES = tuple(np.ascontiguousarray(np.swapaxes(P.T.reshape(9, 3, 3), 1, 2))
                      for P in _CHAIN)

# Per stage i <= 3, the (3, 3) mask of the output entries |i><j| that
# P_{i-1} or P_i can make nonzero (vec |i><j| is row 3j + i).
_BLEND_SUPPORT = tuple(np.any(np.stack(_CHAIN[i:i + 2]), axis=(0, 2)).reshape(3, 3).T
                       for i in range(3))


def make_E(i: int, params: MapParams | None = None) -> SuperOp:
    """The four elementary CP maps (E4 needs theta from ``params``)."""
    if i in (1, 2, 3):
        return (E1, E2, E3)[i - 1]
    if i == 4:
        return gamma_family(4, 1.0, params)
    raise OperandError(f"map index must be 1..4, got {i}")


def dephasing_generator() -> SuperOp:
    """L0(X) = D1 X D1 + D2 X D2 + D3 X D3 - 3X (unit rate)."""
    return SuperOp(sum(np.kron(D.conj(), D) for D in (D1, D2, D3)) - 3.0 * np.eye(9))


def _weights(i: int, taus: list, dot: bool) -> np.ndarray:
    """The weight w of Gamma^(i)_tau = w Id + (1 - w) E_i for i <= 3, or
    dw/dtau with ``dot``, at each tau of ``taus``: a (len(taus), 1, 1) column
    of scalar libm values, each 0 at tau = 1, where Gamma^(i) is E_i exactly.
    Stage 1 has this form because L0 = 4 (E1 - Id), so exp(g L0) =
    exp(-4g) Id + (1 - exp(-4g)) E1, with exp(-4 g(tau)) = (1 - tau)^4.
    Stages 2 and 3 weigh Id by exp(-f); f' exp(-f) -> 0 as f diverges."""
    if i == 1:
        w = ([-4.0 * (1.0 - tau) ** 3 for tau in taus] if dot else
             [0.0 if math.isinf(g) else math.exp(-4.0 * g) for g in map(rate_g, taus)])
    elif dot:
        w = [0.0 if math.isinf(f) else -(tau * (2.0 - tau) / (1.0 - tau) ** 2) * math.exp(-f)
             for tau, f in zip(taus, map(rate_f, taus))]
    else:
        w = [0.0 if math.isinf(f) else math.exp(-f) for f in map(rate_f, taus)]
    return np.array(w)[:, None, None]


def _blend(w: np.ndarray, start: np.ndarray, end: np.ndarray, dot: bool) -> np.ndarray:
    """w start + (1 - w) end per weight of the column ``w``, or with ``dot``
    (w holding dw/dtau) its derivative w (start - end).  In this order each
    entry of two chain maps is rounded once, and + 0.0 writes every exact
    zero of the derivative as +0.0 whatever the sign of w."""
    if dot:
        m = w * (start - end)
        m += 0.0
    else:
        m = w * start
        m += (1.0 - w) * end
    return m


def _gamma4(c00: np.ndarray, vec_c11: np.ndarray, c_trace: np.ndarray) -> np.ndarray:
    """Stack of X -> c00 x00 |0><0| + x11 c11 + c_trace (x00 + x11) |2><2|, the
    form of Gamma^(4) and its derivative: only the columns of |0><0| (index 0)
    and |1><1| (index 4) are nonzero.  ``vec_c11`` is (points, 9)."""
    m = np.zeros((len(c00), 81))
    m[:, 0] = c00
    m[:, 4::9] = vec_c11  # column 4
    m[:, 72:77:4] = c_trace[:, None]  # row 8, columns 0 and 4
    return m.reshape(-1, 9, 9)


def _vec_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """vec |a><b| for each point of the real ket stacks a and b.  + 0.0
    writes each exact zero as +0.0, the sign the complex product gives."""
    return (b[:, :, None] * a[:, None, :] + 0.0).reshape(-1, 9)


def _gammas(i: int, taus: list, params: MapParams, dot: bool) -> np.ndarray:
    """Gamma^(i)_tau, or d Gamma^(i)/d tau (one-sided at 0 and 1) with ``dot``,
    at each tau of ``taus``: a fresh (len(taus), 9, 9) array, float64 for i = 4,
    from libm coefficients per point broadcast against constant matrices."""
    if i in (1, 2, 3):
        return _blend(_weights(i, taus, dot), _CHAIN[0], (E1, E2, E3)[i - 1].matrix, dot)
    if i == 4:
        # delta-smoothing reparameterizes the whole family as tau -> tau^delta.
        # Substituting only inside the rotation argument would make the norm of
        # the lam = 1 probe behave as (1 + tau^2) cos(theta tau^delta), which
        # grows like tau^2 near tau = 0 for every delta > 1 (norm backflow);
        # the full reparameterization keeps contractivity by the chain rule
        # while still zeroing the right time-derivative at the third junction.
        # X -> (1 + s^2)(x00 |0><0| + x11 |psi><psi|) + (1 - s^2)(x00 + x11) |2><2|
        # with s = tau^delta and |psi> the ket rotated by theta*s.
        delta, theta = params.delta, params.theta
        sigma = np.array([tau ** delta for tau in taus])
        kets = np.array([(math.sin(a), math.cos(a), 0.0)  # rotated_ket(theta s)
                         for a in (theta * sigma).tolist()])
        vec_proj, up = _vec_outer(kets, kets), 1.0 + sigma * sigma
        if not dot:
            return _gamma4(up, up[:, None] * vec_proj, 1.0 - sigma * sigma)
        # chain rule through s = tau^delta, with ds/dtau = 0 at tau = 0 for
        # delta > 1, and d|psi>/ds = theta (cos, -sin, 0)
        ds = [delta * tau ** (delta - 1.0) if tau > 0.0 else float(delta == 1.0)
              for tau in taus]
        dkets = np.zeros_like(kets)
        dkets[:, 0], dkets[:, 1] = theta * kets[:, 1], theta * -kets[:, 0]
        c11 = ((2.0 * sigma)[:, None] * vec_proj
               + up[:, None] * (_vec_outer(dkets, kets) + _vec_outer(kets, dkets)))
        return np.array(ds)[:, None, None] * _gamma4(2.0 * sigma, c11, -2.0 * sigma)
    raise OperandError(f"family index must be 1..4, got {i}")


def gamma_family(i: int, tau: float, params: MapParams | None = None) -> SuperOp:
    """Gamma^(i)_tau for i in 1..4 and tau in [0, 1]: the one-point ``_gammas``.
    For i <= 3 it is w Id + (1 - w) E_i with w from ``_weights``."""
    _check_tau(tau)
    return SuperOp(_gammas(i, [tau], params or MapParams(), False)[0])


def _stages(ts, params: MapParams, left: bool = False) -> np.ndarray:
    """The stage index 0..3 of each t of ``ts``, in one ``searchsorted`` pass:
    the stages are [0, t1), [t1, t2), [t2, t3) and [t3, t4], or with ``left``
    [0, t1], (t1, t2], (t2, t3] and (t3, t4].  A t outside [0, t4] (NaN
    included) is an error."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    inside = (ts >= 0.0) & (ts <= params.t4)  # NaN is outside
    if not inside.all():
        raise OperandError(f"t = {ts[~inside][0].item()} outside [0, {params.t4}]")
    return np.searchsorted((params.t1, params.t2, params.t3), ts, "left" if left else "right")


def _stage_images(chain, s: int, ts, params: MapParams, dot: bool):
    """(Lambda_t tensor Id_k)(A), or (d Lambda_t / dt tensor Id_k)(A) with
    ``dot``, at the points ``ts`` of stage s (0..3, as ``_stages`` assigns),
    from the images A_j = (P_j tensor Id_k)(A) of a stack A under the chain
    maps: ``chain`` holds four (q, 3k, 3k) stacks, system-major.  Returns a
    fresh (points, q, 3k, 3k) array and the (points, 3, 3) mask of the output
    entries |i><j| that the map, or its derivative, can make nonzero; all
    others are exactly 0.

    Stage i <= 3 is the blend w P_{i-1} + (1 - w) P_i (``_blend``), one row
    per point over the flattened images, so both sides of t1 and t2 read the
    same chain entry and no point's entries depend on the others.  Stage 4
    is Gamma^(4) after P3, which reads only the |0><0| and |1><1| blocks of
    A_3: per point, one matmul of Gamma^(4)'s two nonzero columns by those
    blocks.  A derivative is multiplied by 1 / length of its stage, on
    stage 4 before P3: at delta = 110 the product's subnormals round
    otherwise.  That rounds every finite entry as numpy's complex division
    by length does (the reciprocal times each part), so a real map and the
    complex images of the scan read the same bits."""
    starts = (0.0, params.t1, params.t2, params.t3, params.t4)
    length = starts[s + 1] - starts[s]
    taus = ((np.asarray(ts, dtype=float) - starts[s]) / length).tolist()
    points, (q, n) = len(taus), chain[0].shape[:2]
    if s < 3:
        w = _weights(s + 1, taus, dot).reshape(-1, 1)
        out = _blend(w, chain[s].reshape(1, -1), chain[s + 1].reshape(1, -1), dot)
        if dot:
            out *= 1.0 / length
        support = (_BLEND_SUPPORT[s] & (w != 0)[:, :, None] if dot
                   else _BLEND_SUPPORT[s][None].repeat(points, axis=0))
        return out.reshape(points, q, n, n), support
    factor = _gammas(4, taus, params, dot)[:, :, [0, 4]]  # the columns of x00 and x11
    if dot:
        factor *= 1.0 / length
    k = n // 3
    Y = chain[3].reshape(q, 3, k, 3, k)[:, [0, 1], :, [0, 1]]  # (2, q, k, k)
    out = (factor @ Y.reshape(2, -1)).reshape(points, 3, 3, q, k, k)  # [point, j, i]: 3j + i
    support = np.swapaxes(factor.any(axis=-1).reshape(points, 3, 3), 1, 2)
    return out.transpose(0, 3, 2, 4, 1, 5).reshape(points, q, n, n), support


def _lambda_stack(ts, params: MapParams, dot: bool, left: bool = False) -> np.ndarray:
    """Lambda_t, or d Lambda_t / dt with ``dot``, at each t of ``ts``: a fresh
    (len(ts), 9, 9) float64 array, each t in the stage ``_stages`` assigns,
    from ``_stage_images`` of the chain maps' own (real) columns."""
    stages = _stages(ts, params, left)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    out = np.empty((len(ts), 9, 9))
    for s in set(stages.tolist()):
        at = stages == s
        images, _ = _stage_images(_CHAIN_IMAGES, s, ts[at], params, dot)
        out[at] = images.transpose(0, 3, 2, 1).reshape(-1, 9, 9)  # [point, 3j + i, column]
    return out


def lambda_t(t: float, params: MapParams | None = None) -> SuperOp:
    """The piecewise family on [0, t4] (the one-point ``Family.stack``); t
    outside the domain is an error."""
    return SuperOp(_lambda_stack([t], params or MapParams(), False)[0])


@dataclass(frozen=True)
class Family:
    """Callable t -> Lambda_t with parameters bound.

    The divisibility scan, the CP/TP check, the continuity check and the
    forcing witness take their maps from ``stack`` and ``dot_stack``, which
    build stages 1-3 as blends of the chain Id, E1, E2 E1, E3 E2 E1 and take
    one matmul only on stage 4.  The contractivity scan builds no map: it
    applies Lambda_t to the chain maps' images of its probes through the
    same ``_stage_images``.  ``__call__`` looks up its one-point case
    ``lambda_t`` at call time, so a wrapper installed on that module
    function sees single-point calls only, not the grids.
    """

    params: MapParams

    def __call__(self, t: float) -> SuperOp:
        return lambda_t(t, self.params)

    def stack(self, ts, left: bool = False) -> np.ndarray:
        """Lambda_t, which is real, at each t of ``ts``: a fresh (len(ts), 9, 9)
        float64 array.  With ``left``, the left limit: at a junction t_j it is
        the stage that ends there, at tau = 1 (at 0 it is still stage 1)."""
        return _lambda_stack(ts, self.params, False, left)

    def dot_stack(self, ts, left: bool = False) -> np.ndarray:
        """d Lambda_t / dt at each t of ``ts``, as ``stack``: from the right
        within the stage ``stack`` picks for t, at t4 from the left; with
        ``left``, the left derivative."""
        return _lambda_stack(ts, self.params, True, left)


def family(params: MapParams | None = None) -> Family:
    """Callable t -> Lambda_t with parameters bound, and its grids (see ``Family``)."""
    return Family(params or MapParams())


CONTINUITY_LADDER = (1e-2, 1e-3, 1e-4)


def continuity_report(params: MapParams | None = None,
                      eps_ladder=CONTINUITY_LADDER) -> dict:
    """Sup-norm gaps across each junction for a decreasing epsilon ladder.

    For each junction t in {t1, t2, t3} and each eps, the gap is the
    max-abs entry difference between Lambda_{t-eps} and Lambda_{t+eps}.
    All ladder points go through one ``Family.stack`` call.  This is the
    reference of acceptance criterion 1, on the tau -> 1 approach of the
    stage 1-3 formulas; the junction check itself compares the exact
    one-sided values ``Family.stack(ts, left=True)`` and ``Family.stack(ts)``.
    """
    params = params or MapParams()
    eps_ladder = tuple(eps_ladder)
    limit = min(params.t1, params.t2 - params.t1,
                params.t3 - params.t2, params.t4 - params.t3) / 2
    if any(not 0.0 < e < limit for e in eps_ladder):
        raise OperandError("epsilon ladder must lie in (0, min segment length / 2)")
    junctions = {"t1": params.t1, "t2": params.t2, "t3": params.t3}
    maps = Family(params).stack([tj + o * eps for tj in junctions.values()
                                 for eps in eps_ladder for o in (-1, 1)])
    maps = maps.reshape(len(junctions), len(eps_ladder), 2, 9, 9)
    return {name: {"eps": eps_ladder,
                   "gap": tuple(np.abs(m[:, 0] - m[:, 1]).max(axis=(1, 2)).tolist())}
            for name, m in zip(junctions, maps)}
