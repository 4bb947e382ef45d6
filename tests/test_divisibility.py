import math

import numpy as np
import pytest
from scipy.linalg import expm

from qmarkov import divisibility
from qmarkov.divisibility import (cp_divisibility_scan, intermediate_map,
                                  positive_forcing_witness)
from qmarkov.operators import OperandError, random_probes, trace_norm
from qmarkov.qutrit_family import (G, RHO_A, RHO_B, MapParams, family,
                                   rotated_ket)
from qmarkov.superops import choi_min_eigenvalue, compose, from_kraus
from qmarkov.tolerances import RANK_CUTOFF, RESIDUAL_TOL, TOL_PSD

SEED = 3


class FakeFamily:
    """A qutrit family given by its map matrix at t, read as the package
    reads a ``Family``: through ``stack``, whose points it records in
    ``stacked``."""

    def __init__(self, matrix):
        self.matrix, self.stacked = matrix, []

    def stack(self, ts):
        self.stacked.append(list(ts))
        return np.stack([self.matrix(t) for t in ts])


identity_family = FakeFamily(lambda t: np.eye(9, dtype=complex))
# Rank-deficient before t = 2 and the identity from there: no map V with
# V Lambda_s = Lambda_t exists across the jump.  Complex throughout, like
# the other fakes, so every batch of its stack has one dtype.
rank_jump_family = FakeFamily(
    lambda t: family()(3.5).matrix.astype(complex) if t < 2.0 else np.eye(9, dtype=complex))
# 10^(-8t) times the identity: full rank throughout, at scales from 1 to
# 1e-32, so each interval's rank must be read relative to its own map.
fading_family = FakeFamily(lambda t: 10.0 ** (-8.0 * t) * np.eye(9, dtype=complex))


class TestIntermediateMap:
    def test_from_zero_is_the_map_itself(self):
        fam = family()
        im = intermediate_map(fam, 0.0, 2.5)
        assert im.definedness == "exact"
        assert im.residual < 1e-12
        assert np.allclose(im.map.matrix, fam(2.5).matrix, atol=1e-10)

    def test_invertible_stretch_is_cp(self):
        fam = family()
        im = intermediate_map(fam, 0.2, 0.8)
        assert im.definedness == "exact"
        assert choi_min_eigenvalue(im.map) >= -1e-10

    def test_cocycle_on_invertible_stretch(self):
        fam = family()
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            r, s, t = np.sort(rng.uniform(0.05, 0.95, size=3))
            if t - s < 1e-3 or s - r < 1e-3:
                continue
            v_rs = intermediate_map(fam, r, s).map.matrix
            v_st = intermediate_map(fam, s, t).map.matrix
            v_rt = intermediate_map(fam, r, t).map.matrix
            assert np.max(np.abs(v_st @ v_rs - v_rt)) < 1e-8

    def test_last_segment_is_image_restricted(self):
        fam = family()
        im = intermediate_map(fam, 3.0, 4.0)
        assert im.definedness == "image-restricted"
        ket = rotated_ket(1.5)
        assert np.max(np.abs(im.map.apply(RHO_A)
                             - np.diag([1.0, 0.0, 0.0]))) < 1e-10
        assert np.max(np.abs(im.map.apply(RHO_B)
                             - np.outer(ket, ket.conj()))) < 1e-10

    def test_requires_ordered_times(self):
        with pytest.raises(OperandError):
            intermediate_map(family(), 2.0, 1.0)

    def test_rank_cutoff_residual_clears_residual_tol(self):
        """At the end of stage 2 RANK_CUTOFF drops a singular value of Lambda_s
        of 1.41e-8 and leaves a residual at its bound, RANK_CUTOFF times
        Lambda_s's largest singular value sqrt(2), split over two entries:
        9.99999999999412e-9.  The interval must stay image-restricted, with
        room for that bound to move."""
        s = 1.9491785011793674
        im = intermediate_map(family(), s, s + 1e-15)
        assert im.definedness == "image-restricted"
        assert RANK_CUTOFF / 2 < im.residual < 2 * RANK_CUTOFF
        assert 10 * im.residual < RESIDUAL_TOL


class TestCpDivisibilityScan:
    def test_first_segment_all_cp(self):
        rows = cp_divisibility_scan(family(), np.linspace(0.0, 0.95, 8))
        assert all(r["verdict"] == "CP" for r in rows)
        assert all(r["choi_min_eig"] >= -1e-10 for r in rows)

    def test_cp_intervals_send_states_to_states(self):
        fam = family()
        rows = cp_divisibility_scan(fam, np.linspace(0.0, 0.95, 5))
        states = random_probes(3, 100, SEED, "state-difference").probes
        for row in rows:
            V = intermediate_map(fam, row["s"], row["t"]).map
            for X in states:
                rho = X + np.eye(3) * (1.5 - np.trace(X).real) / 3  # shift PSD-ish
                rho = rho @ rho.conj().T
                rho /= np.trace(rho).real
                out = V.apply(rho)
                assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10

    def test_final_interval_not_cp(self):
        rows = cp_divisibility_scan(family(), [3.0, 4.0])
        assert rows[0]["verdict"] == "not-CP"
        assert rows[0]["choi_min_eig"] < -1e-6

    def test_identity_family_all_cp(self):
        rows = cp_divisibility_scan(identity_family, np.linspace(0.0, 4.0, 9))
        assert all(r["verdict"] == "CP" for r in rows)

    @pytest.mark.parametrize("fam", [family(), identity_family, rank_jump_family,
                                     fading_family],
                             ids=["qutrit", "identity", "rank-jump", "fading"])
    def test_rows_match_interval_at_a_time(self, monkeypatch, fam):
        # 149 intervals across all four stages (two full batches of 64 and a
        # partial one), then 999 in 16 batches.  Each interval's map is the
        # scan's V in its dtype, bit for bit: float64 for a Family
        batches = []

        def spy(V):
            batches.append(V)
            return choi_min_eigenvalue(V)
        monkeypatch.setattr(divisibility, "choi_min_eigenvalue", spy)
        for points in (150, 1000):
            grid = np.linspace(0.0, 4.0, points)
            batches.clear()
            rows = cp_divisibility_scan(fam, grid)
            assert len(rows) == len(grid) - 1
            for row, V, s, t in zip(rows, np.concatenate(batches), grid, grid[1:]):
                im = intermediate_map(fam, s, t)
                assert im.map.matrix.dtype == V.dtype == (
                    complex if isinstance(fam, FakeFamily) else float)
                assert np.array_equal(im.map.matrix.view(np.uint64), V.view(np.uint64))
                lo = (math.nan if im.definedness == "inconsistent"
                      else choi_min_eigenvalue(im.map))
                verdict = ("undefined-off-image" if math.isnan(lo)
                           else "CP" if lo >= -TOL_PSD else "not-CP")
                assert (row["s"], row["t"], row["definedness"], row["verdict"]) == \
                    (s, t, im.definedness, verdict)
                assert row["residual"] == im.residual
                assert np.array_equal(row["choi_min_eig"], lo, equal_nan=True)

    @pytest.mark.parametrize("theta", [1.3, math.sqrt(2), 1.5, math.pi / 2, 1.6],
                             ids=["1.3", "sqrt2", "1.5", "pi/2", "1.6"])
    @pytest.mark.parametrize("delta", [1.0, 1.05, 2.0])
    def test_complex_stack_reads_the_same(self, monkeypatch, theta, delta):
        # Family.stack is float64; the same maps as a complex stack take the
        # complex SVD and Choi spectrum, and must give the same labels and
        # the same numbers to rounding
        fam = family(MapParams(theta=theta, delta=delta))
        complex_fam = FakeFamily(None)
        complex_fam.stack = lambda ts: fam.stack(ts).astype(complex)
        dtypes, choi = [], divisibility.choi_min_eigenvalue

        def spy(V):
            dtypes.append(V.dtype)
            return choi(V)
        monkeypatch.setattr(divisibility, "choi_min_eigenvalue", spy)
        for points in (50, 150, 1000):
            grid = np.linspace(0.0, 4.0, points)
            dtypes.clear()
            real = cp_divisibility_scan(fam, grid)
            assert set(dtypes) == {np.dtype(float)}
            dtypes.clear()
            rows = cp_divisibility_scan(complex_fam, grid)
            assert set(dtypes) == {np.dtype(complex)}
            assert (rows.definedness == real.definedness).all()
            assert (rows.verdict == real.verdict).all()
            assert np.abs(rows.residual - real.residual).max() <= 1e-14
            assert np.allclose(rows.choi_min_eig, real.choi_min_eig, rtol=0.0, atol=1e-14,
                               equal_nan=True)

    def test_rank_jump_is_inconsistent(self):
        rows = cp_divisibility_scan(rank_jump_family, [1.0, 3.0, 3.5])
        assert [r["verdict"] for r in rows] == ["undefined-off-image", "CP"]
        assert math.isnan(rows[0]["choi_min_eig"])

    @pytest.mark.parametrize("points", [2, 65, 150])
    def test_one_family_call_per_grid_point(self, points):
        fam = FakeFamily(lambda t: family()(t).matrix)
        grid = list(np.linspace(0.0, 4.0, points))
        cp_divisibility_scan(fam, grid)
        assert [t for ts in fam.stacked for t in ts] == grid

    def test_single_point_grid_is_an_empty_table(self):
        rows = cp_divisibility_scan(family(), [1.0])
        assert len(rows) == 0
        assert rows.dtype.names == ("s", "t", "definedness", "residual",
                                    "choi_min_eig", "verdict")

    def test_grid_must_ascend(self):
        with pytest.raises(OperandError):
            cp_divisibility_scan(family(), [1.0, 0.5])


class TestForcingWitness:
    def test_counterexample_witness(self):
        w = positive_forcing_witness(family(), 3.0, 4.0)
        assert w is not None
        # shared support vector is |3>
        overlap = abs(w.shared_vector[2])
        assert overlap == pytest.approx(1.0, abs=1e-8)
        assert w.discrepancy == pytest.approx(2 * abs(math.cos(1.5)), abs=1e-9)
        # independent oracle: trace norm of the two forced pure targets
        ket = rotated_ket(1.5)
        direct = trace_norm(np.diag([1.0, 0.0, 0.0]) - np.outer(ket, ket.conj()))
        assert w.discrepancy == pytest.approx(direct, abs=1e-12)

    def test_right_angle_degenerates(self):
        fam = family(MapParams(theta=math.pi / 2))
        w = positive_forcing_witness(fam, 3.0, 4.0)
        assert w is not None
        assert w.discrepancy == pytest.approx(0.0, abs=1e-9)

    def test_near_right_angle_scaling(self):
        theta = math.pi / 2 - 1e-3
        w = positive_forcing_witness(family(MapParams(theta=theta)), 3.0, 4.0)
        assert w.discrepancy == pytest.approx(2e-3, rel=0.1)

    def test_one_stack_call(self):
        fam = FakeFamily(lambda t: family()(t).matrix)
        positive_forcing_witness(fam, 3.0, 4.0)
        assert fam.stacked == [[3.0, 4.0]]

    @pytest.mark.parametrize("s", [3.0, 3.5, 3.98])
    @pytest.mark.parametrize("delta", [1.0, 1.05])
    @pytest.mark.parametrize("theta", [1.2, math.sqrt(2), 1.5, 1.55,
                                       math.pi / 2 - 1e-3, math.pi / 2])
    def test_basis_witness(self, theta, delta, s):
        """The forced targets are |1><1| and the rotated ket's projector,
        2|cos theta| apart, and the shared vector is |3>, also at pi/2."""
        w = positive_forcing_witness(family(MapParams(theta=theta, delta=delta)), s, 4.0)
        assert abs(w.discrepancy - 2 * abs(math.cos(theta))) <= 1e-15
        assert abs(abs(w.shared_vector[2]) - 1.0) <= 1e-12

    def test_identity_family_has_none(self):
        assert positive_forcing_witness(identity_family, 3.0, 4.0) is None

    def test_unitary_conjugation_invariance(self):
        base = family()
        rng = np.random.default_rng(SEED)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U = expm(1j * (h + h.conj().T))
        conj = from_kraus([U])

        rotated = FakeFamily(lambda t: compose(conj, base(t)).matrix)
        w0 = positive_forcing_witness(base, 3.0, 4.0)
        w1 = positive_forcing_witness(rotated, 3.0, 4.0)
        assert w1.discrepancy == pytest.approx(w0.discrepancy, abs=1e-9)
