"""Property tests of the algebraic identities behind the family and Choi code."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qmarkov
from qmarkov.qutrit_family import (D1, D2, D3, K2, MapParams, gamma_family,
                                   lambda_t, make_E)
from qmarkov.superops import SuperOp, compose, from_kraus, is_cp, is_tp, to_choi

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def _choi_by_definition(S: SuperOp) -> np.ndarray:
    """sum_ij S(|i><j|) kron |i><j|, one matrix unit at a time."""
    d = S.dim
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            C += np.kron(S.apply(unit), unit)
    return C


def _superop_matrices(d: int):
    entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                 allow_infinity=False)
    return arrays(np.complex128, (d * d, d * d), elements=entries)


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 3]).flatmap(
    lambda d: _superop_matrices(d).map(lambda m: SuperOp(dim=d, matrix=m))))
def test_choi_reshuffle_matches_definition(S):
    assert np.array_equal(to_choi(S), _choi_by_definition(S))


def _ket_bra(a: int, b: int) -> np.ndarray:
    m = np.zeros((3, 3))
    m[a, b] = 1.0
    return m


# E1..E3 from their Kraus operators; E3 sends X to x00 rho_A + x11 rho_B.
KRAUS_E1 = from_kraus([np.eye(3) / 2, D1 / 2, D2 / 2, D3 / 2])
KRAUS_E2 = from_kraus([K2])
KRAUS_E3 = from_kraus([_ket_bra(a, b) / math.sqrt(2)
                       for a, b in ((0, 0), (2, 0), (1, 1), (2, 1))])


@st.composite
def family_points(draw):
    steps = [draw(st.floats(0.1, 2.0)) for _ in range(4)]
    t1, t2, t3, t4 = np.cumsum(steps)
    params = MapParams(theta=draw(st.floats(math.sqrt(2.0), math.pi / 2)),
                       t1=t1, t2=t2, t3=t3, t4=t4,
                       delta=draw(st.floats(1.0, 1.2)))
    return params, draw(st.floats(0.0, 1.0)) * t4


@PROPERTY_SETTINGS
@given(family_points())
def test_lambda_t_is_stage_composition(point):
    p, t = point
    if t < p.t1:
        expected = gamma_family(1, t / p.t1, p)
    elif t < p.t2:
        expected = compose(gamma_family(2, (t - p.t1) / (p.t2 - p.t1), p),
                           KRAUS_E1)
    elif t < p.t3:
        expected = compose(gamma_family(3, (t - p.t2) / (p.t3 - p.t2), p),
                           compose(KRAUS_E2, KRAUS_E1))
    else:
        expected = compose(gamma_family(4, (t - p.t3) / (p.t4 - p.t3), p),
                           compose(KRAUS_E3, compose(KRAUS_E2, KRAUS_E1)))
    S = lambda_t(t, p)
    assert np.allclose(S.matrix, expected.matrix, rtol=0.0, atol=1e-12)
    assert is_cp(S) and is_tp(S)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_elementary_maps_are_read_only(i):
    with pytest.raises(ValueError):
        make_E(i).matrix[0, 0] = 2.0


def test_import_leaves_scipy_unloaded():
    src = str(Path(qmarkov.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, qmarkov; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "False"
