import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from qmarkov import contractivity, qutrit_family
from qmarkov.cli import check_cp_tp
from qmarkov.contractivity import norm_derivative_scan
from qmarkov.divisibility import cp_divisibility_scan
from qmarkov.operators import OperandError, as_hermitian, random_probes, trace_norm
from qmarkov.qutrit_family import (_CHAIN, CONTRACTIVE_WINDOW, D1, D2, D3, G, RHO_A, RHO_B,
                                   Family, MapParams, _gammas, continuity_report,
                                   dephasing_generator, family, gamma_family, lambda_t,
                                   load_params, make_E, rate_f, rate_g, rotated_ket)
from qmarkov.tolerances import TOL_HERM, TOL_PSD

from oracles import (gamma4_by_point, lambda_stack_prefixed, rate_f_by_point, rate_g_by_point,
                     weights_by_point)

SEED = 5


def unit(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


class TestConstants:
    def test_sign_matrices_are_involutions(self):
        for D in (D1, D2, D3):
            assert np.allclose(D @ D, np.eye(3))

    def test_target_states_are_densities(self):
        for rho in (RHO_A, RHO_B):
            assert abs(np.trace(as_hermitian(rho)) - 1.0) <= TOL_HERM
            assert np.linalg.eigvalsh(rho).min() >= -TOL_PSD
        assert np.allclose(RHO_A, np.diag([1.0, 0.0, 1.0]) / 2)
        assert np.allclose(RHO_B, np.diag([0.0, 1.0, 1.0]) / 2)

    def test_rotation_generator_block(self):
        # G^2 restricted to the 1-2 block is the identity there
        assert np.allclose((G @ G)[:2, :2], np.eye(2))
        assert np.allclose(G[2], 0.0)

    def test_rotated_ket_matches_expm(self):
        for angle in (0.0, 0.7, 1.5):
            assert np.allclose(rotated_ket(angle),
                               expm(1j * G * angle) @ np.array([0.0, 1.0, 0.0]))


class TestRateFunction:
    def test_default_pole(self):
        assert rate_f(0.0) == 0.0
        assert rate_f(0.5) == pytest.approx(0.5)
        assert math.isinf(rate_f(1.0))
        assert rate_g(0.5) == pytest.approx(-math.log(0.5))
        assert math.isinf(rate_g(1.0))
        for rate in (rate_f, rate_g):
            with pytest.raises(OperandError):
                rate(1.5)

    def test_f_monotone(self):
        taus = np.linspace(0.0, 0.99, 50)
        vals = [rate_f(t) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# tau at 0, the smallest subnormal, 1e-300, the last float below 1 and 1,
# a dense grid, the stage taus of grid-heavy's 1000-point grid, and 4000
# uniform draws
COEFFICIENT_TAUS = np.concatenate([
    [0.0, 2.0 ** -1074, 1e-300, 1.0 - 2.0 ** -53, 1.0], np.linspace(0.0, 1.0, 2001),
    np.linspace(0.0, 4.0, 1000) % 1.0, np.random.default_rng(SEED).random(4000)])


class TestCoefficientBits:
    """The coefficient columns, from numpy arithmetic and one libm call per
    point, hold the bits of the per-tau float expressions they replace."""

    def test_rates_match_the_float_expressions(self):
        for rate, by_point in ((rate_f, rate_f_by_point), (rate_g, rate_g_by_point)):
            column = rate(COEFFICIENT_TAUS)
            scalars = [rate(tau) for tau in COEFFICIENT_TAUS.tolist()]
            expected = np.array([by_point(tau) for tau in COEFFICIENT_TAUS.tolist()])
            assert column.shape == COEFFICIENT_TAUS.shape
            assert np.array_equal(column.view(np.uint64), expected.view(np.uint64))
            assert np.array_equal(np.array(scalars).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("bad", [-1e-300, 1.5, math.nan, -math.inf])
    def test_rates_refuse_tau_outside_the_unit_interval(self, bad):
        for rate in (rate_f, rate_g):
            with pytest.raises(OperandError, match=re.escape("tau must lie in [0, 1]")):
                rate(bad)
            with pytest.raises(OperandError, match=re.escape("tau must lie in [0, 1]")):
                rate(np.array([0.0, 0.5, bad, 1.0]))

    @pytest.mark.parametrize("dot", [False, True])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_weights(self, i, dot):
        expected = weights_by_point(i, COEFFICIENT_TAUS.tolist(), dot)
        got = qutrit_family._weights(i, COEFFICIENT_TAUS, dot)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("dot", [False, True])
    @pytest.mark.parametrize("delta", [1.0, 1.05, 110.0])
    @pytest.mark.parametrize("theta", [math.sqrt(2.0), 1.5, math.pi / 2, 1.6])
    def test_gamma4(self, theta, delta, dot):
        params = MapParams(theta=theta, delta=delta)
        expected = gamma4_by_point(COEFFICIENT_TAUS.tolist(), params, dot)
        got = _gammas(4, COEFFICIENT_TAUS, params, dot)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestParams:
    def test_defaults_in_window(self):
        low, high = CONTRACTIVE_WINDOW
        assert low <= MapParams().theta <= high

    def test_validation(self):
        with pytest.raises(OperandError):
            MapParams(t2=0.5)
        with pytest.raises(OperandError):
            MapParams(theta=4.0)
        with pytest.raises(OperandError):
            MapParams(delta=0.9)

    @pytest.mark.parametrize("t4", [math.inf, float("1e400"), math.nan])
    def test_junction_times_finite(self, t4):
        with pytest.raises(OperandError):
            MapParams(t4=t4)

    def test_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("# comment\ntheta = 1.45\nt1=0.5\nt2=1\nt3=2\nt4=3\n"
                       "delta = 1.1\n")
        p = load_params(cfg)
        assert p.theta == 1.45 and p.t1 == 0.5 and p.delta == 1.1

    def test_config_rejects_unknown(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        for text in ("thetaa = 1\n", "theta = 1.5\nrate = default-pole\n"):
            cfg.write_text(text)
            with pytest.raises(OperandError, match="unknown config key"):
                load_params(cfg)


class TestElementaryMaps:
    def test_e1_action(self):
        X = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        assert np.allclose(make_E(1).apply(X), np.diag([1.0, 4.0, 6.0]), atol=1e-14)

    def test_e3_targets(self):
        E3 = make_E(3)
        assert np.allclose(E3.apply(unit(0, 0)), RHO_A, atol=1e-14)
        assert np.allclose(E3.apply(unit(1, 1)), RHO_B, atol=1e-14)

    def test_e4_rotated_target(self):
        theta = 1.5
        ket = np.array([math.sin(theta), math.cos(theta), 0.0])
        out = make_E(4, MapParams(theta=theta)).apply(unit(1, 1))
        assert np.allclose(out, 2 * np.outer(ket, ket), atol=1e-12)

    def test_index_range(self):
        with pytest.raises(OperandError):
            make_E(5)


class TestGammaFamilies:
    def test_gamma1_matches_expm_oracle(self):
        L0 = dephasing_generator().matrix
        for tau in np.arange(0.1, 0.95, 0.1):
            g = -math.log1p(-tau)
            dense = expm(g * L0)
            assert np.max(np.abs(gamma_family(1, tau).matrix - dense)) < 1e-10

    def test_gamma1_coefficients(self):
        for tau in np.arange(0.1, 0.95, 0.1):
            S = gamma_family(1, tau)
            decay = math.exp(4 * math.log1p(-tau))  # e^{-4 g} for the pole rate
            for i in range(3):
                for j in range(3):
                    expected = 1.0 if i == j else decay
                    assert S.apply(unit(i, j))[i, j] == pytest.approx(expected,
                                                                     abs=1e-10)

    def test_gamma1_limit_is_e1(self):
        assert np.allclose(gamma_family(1, 1.0).matrix, make_E(1).matrix)

    def test_gamma23_limits(self):
        assert np.allclose(gamma_family(2, 0.0).matrix, np.eye(9))
        assert np.allclose(gamma_family(2, 1.0).matrix, make_E(2).matrix)
        assert np.allclose(gamma_family(3, 1.0).matrix, make_E(3).matrix)

    def test_gamma4_endpoints(self):
        g0 = gamma_family(4, 0.0)
        assert np.allclose(g0.apply(RHO_A), RHO_A, atol=1e-14)
        assert np.allclose(g0.apply(RHO_B), RHO_B, atol=1e-14)
        g1 = gamma_family(4, 1.0)
        ket = rotated_ket(1.5)
        assert np.allclose(g1.apply(RHO_A), np.outer(ket * 0, ket * 0)
                           + np.diag([1.0, 0.0, 0.0]), atol=1e-14)
        assert np.allclose(g1.apply(RHO_B), np.outer(ket, ket.conj()), atol=1e-14)

    def test_gamma23_tp_on_their_images(self):
        probes = random_probes(3, 20, SEED).probes
        E1 = make_E(1)
        E2E1_in = [E1.apply(X) for X in probes]
        for tau in (0.2, 0.7):
            G2 = gamma_family(2, tau)
            for Y in E2E1_in:
                assert abs(np.trace(G2.apply(Y)) - np.trace(Y)) < 1e-12
        from qmarkov.superops import compose
        stack = compose(make_E(2), E1)
        for tau in (0.2, 0.7):
            G3 = gamma_family(3, tau)
            for X in probes:
                Y = stack.apply(X)
                assert abs(np.trace(G3.apply(Y)) - np.trace(Y)) < 1e-12

    def test_tau_out_of_range(self):
        with pytest.raises(OperandError):
            gamma_family(2, 1.5)


class TestLambdaFamily:
    def test_identity_at_zero(self):
        assert np.allclose(lambda_t(0.0).matrix, np.eye(9))

    def test_segment_end_closed_forms(self):
        # entrywise via matrix-unit probes against the three dephasing stages
        for i in range(3):
            for j in range(3):
                X = unit(i, j)
                out1 = lambda_t(1.0).apply(X)
                exp1 = X if i == j else np.zeros((3, 3))
                assert np.max(np.abs(out1 - exp1)) < 1e-12
                out2 = lambda_t(2.0).apply(X)
                exp2 = np.diag([X[0, 0], X[1, 1] + X[2, 2], 0.0])
                assert np.max(np.abs(out2 - exp2)) < 1e-12
                out3 = lambda_t(3.0).apply(X)
                exp3 = np.diag([X[0, 0], X[1, 1] + X[2, 2],
                                X[0, 0] + X[1, 1] + X[2, 2]]) / 2
                assert np.max(np.abs(out3 - exp3)) < 1e-12

    def test_final_time_pure_targets(self):
        theta = 1.5
        ket = rotated_ket(theta)
        out1 = lambda_t(4.0).apply(unit(0, 0))
        out2 = lambda_t(4.0).apply(unit(1, 1))
        assert np.max(np.abs(out1 - np.diag([1.0, 0.0, 0.0]))) < 1e-12
        assert np.max(np.abs(out2 - np.outer(ket, ket.conj()))) < 1e-12

    def test_domain(self):
        with pytest.raises(OperandError):
            lambda_t(-0.1)
        with pytest.raises(OperandError):
            lambda_t(4.1)

    def test_cp_tp_on_grid(self):
        from qmarkov.superops import choi_min_eigenvalue
        probes = random_probes(3, 20, SEED).probes
        for t in np.linspace(0.0, 4.0, 41):
            S = lambda_t(t)
            assert choi_min_eigenvalue(S) >= -1e-10
            for X in probes[:5]:
                assert abs(np.trace(S.apply(X)) - np.trace(X)) <= 1e-10

    def test_segment2_norm_formula(self):
        # ||Lambda_t X||_1 = |x11| + |x22 + (1 - e^-f1) x33| + e^-f1 |x33|
        params = MapParams()
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            x11, x22, x33 = rng.standard_normal(3)
            X = np.diag([x11, x22, x33])
            for t in (1.0, 1.3, 1.8):
                tau = t - 1.0
                w = math.exp(-tau * tau / (1.0 - tau))
                expected = abs(x11) + abs(x22 + (1 - w) * x33) + w * abs(x33)
                assert trace_norm(lambda_t(t, params).apply(X)) == pytest.approx(
                    expected, abs=1e-10)


class TestChain:
    """Stages 1-3 blend consecutive maps of the chain Id, E1, E2 E1, E3 E2 E1;
    the blend reproduces Gamma^(i) followed by its prefix map bit for bit."""

    def test_each_map_is_the_last_one_followed_by_E_i(self):
        assert np.array_equal(_CHAIN[0], np.eye(9))
        for i in (1, 2, 3):
            assert np.array_equal(make_E(i).matrix @ _CHAIN[i - 1], _CHAIN[i])

    def test_dephasing_generator_is_E1_minus_identity(self):
        # so exp(g L0) = exp(-4g) Id + (1 - exp(-4g)) E1, the stage-1 blend
        assert np.array_equal(dephasing_generator().matrix, 4.0 * (_CHAIN[1] - _CHAIN[0]))

    def test_chain_entries_are_real(self):
        # so the chain images, and every Lambda_t built from them, are float64
        for m in _CHAIN:
            assert m.dtype == np.float64
            assert set(np.unique(m).tolist()) <= {0.0, 0.5, 1.0}
        assert all(images.dtype == np.float64 for images in qutrit_family._CHAIN_IMAGES)
        maps = [make_E(1), make_E(2), make_E(3), dephasing_generator()]
        assert all(S.matrix.dtype == np.float64 for S in maps)

    @pytest.mark.parametrize("delta", [1.0, 1.05, 110.0])
    @pytest.mark.parametrize("junctions", [(1.0, 2.0, 3.0, 4.0), (0.7, 1.9, 2.3, 5.1)],
                             ids=["t=1/2/3/4", "t=0.7/1.9/2.3/5.1"])
    def test_stacks_are_float64_on_every_stage(self, delta, junctions):
        params = MapParams(1.5, *junctions, delta=delta)
        ts = np.linspace(0.0, params.t4, 41)
        fam = family(params)
        for left in (False, True):
            assert set(qutrit_family._stages(ts, params, left).tolist()) == {0, 1, 2, 3}
            for stack in (fam.stack, fam.dot_stack):
                for points in (ts, ts[-1:], [junctions[2]]):
                    m = stack(points, left=left)
                    assert m.dtype == np.float64 and m.shape == (len(points), 9, 9)
        one_point = [make_E(4, params)] + [gamma_family(i, tau, params)
                                           for i in (1, 2, 3, 4) for tau in (0.0, 0.4, 1.0)]
        assert all(S.matrix.dtype == np.float64 for S in one_point)
        # Lambda_t's one-point map is its one-point stack, bit for bit
        for t in [*ts.tolist(), *junctions]:
            for m in (lambda_t(t, params).matrix, fam(t).matrix):
                assert m.dtype == np.float64
                assert np.array_equal(m.view(np.uint64), fam.stack([t])[0].view(np.uint64))

    def test_chain_is_read_only(self):
        for m in _CHAIN:
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 2.0

    @pytest.mark.parametrize("theta", [1.3, math.pi / 2], ids=["theta=1.3", "theta=pi/2"])
    @pytest.mark.parametrize("delta", [1.0, 1.05, 110.0])
    @pytest.mark.parametrize("junctions", [(1.0, 2.0, 3.0, 4.0), (0.7, 1.9, 2.3, 5.1)],
                             ids=["t=1/2/3/4", "t=0.7/1.9/2.3/5.1"])
    def test_stacks_are_bit_equal_to_the_prefix_oracle(self, theta, delta, junctions):
        # zero signs included: the bits, not the values, are compared
        params = MapParams(theta, *junctions, delta=delta)
        t4 = params.t4
        grids = [np.linspace(0.0, t4, 7), np.linspace(0.0, t4, 200), np.linspace(0.0, t4, 1000),
                 np.linspace(0.0, t4, 200, endpoint=False),
                 np.random.default_rng(SEED).uniform(0.0, t4, 300),
                 np.array([0.0, *junctions]),
                 np.array([np.nextafter(0.0, 1.0), np.nextafter(t4, 0.0)]
                          + [np.nextafter(t, t + side) for t in junctions[:3]
                             for side in (-1.0, 1.0)])]
        fam = family(params)
        for dot, stack in ((False, fam.stack), (True, fam.dot_stack)):
            for left in (False, True):
                for ts in grids:
                    # the complex oracle's imaginary parts are 0, and the
                    # float64 stack holds the bits of its real parts
                    expected = lambda_stack_prefixed(ts, params, dot, left)
                    assert not expected.imag.any()
                    assert np.array_equal(stack(ts, left=left).view(np.uint64),
                                          expected.real.view(np.uint64))

    @pytest.mark.parametrize("bad", [4.5, math.nan, -1e-300, 5.0])
    def test_first_point_outside_the_domain_is_named(self, bad):
        with pytest.raises(OperandError, match=re.escape(f"t = {bad} outside [0, 4.0]")):
            family().dot_stack([1.0, bad, 2.0, 4.5])

    def test_gamma_derivative_zeros_are_positive(self):
        for i in (1, 2, 3):
            for tau in (0.0, 0.3, 1.0):
                m = _gammas(i, np.array([tau]), MapParams(), True)[0]
                assert m.dtype == np.float64
                assert not np.signbit(m[m == 0.0]).any()


    @pytest.mark.parametrize("theta", [1.5, 1.6, 2.5])
    def test_gamma4_ket_zeros_are_positive(self, theta):
        # column 4 above row 8 is (1 + s^2) |psi><psi| or its derivative: its
        # zeros come from the kets' 0 third entry, times cos < 0 past pi/2
        taus = np.linspace(0.0, 1.0, 41)
        for dot in (False, True):
            column = _gammas(4, taus, MapParams(theta=theta, delta=1.05), dot)[:, :8, 4]
            assert column.dtype == np.float64
            assert (column == 0.0).any()
            assert not np.signbit(column[column == 0.0]).any()


class TestContinuity:
    def test_gaps_shrink(self):
        report = continuity_report()
        for entry in report.values():
            gaps = entry["gap"]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 1e-3

    def test_t3_junction_despite_nontrivial_gamma4(self):
        # Gamma4_0 != identity, but Gamma4_0 E3 = E3 keeps the junction closed
        from qmarkov.superops import compose
        g0 = gamma_family(4, 0.0)
        assert not np.allclose(g0.matrix, np.eye(9))
        stack = compose(make_E(3), compose(make_E(2), make_E(1)))
        assert np.allclose(compose(g0, stack).matrix, stack.matrix, atol=1e-14)

    def test_smooth_variant_derivative_is_continuous(self):
        # both one-sided derivatives are exact, and agree to the bit
        params = MapParams(theta=1.55, delta=1.05)
        fam, junctions = family(params), [params.t1, params.t2, params.t3]
        assert np.array_equal(fam.dot_stack(junctions, left=True), fam.dot_stack(junctions))

    def test_epsilon_validation(self):
        with pytest.raises(OperandError):
            continuity_report(eps_ladder=(0.9,))

    @pytest.mark.parametrize("values,dot", [("stack", False), ("dot_stack", True)],
                             ids=["stack", "dot_stack"])
    def test_left_value_takes_the_stage_that_ends(self, values, dot):
        # at t_j the stage ending there at tau = 1, its prefix applied; off the
        # junctions, and at 0 and t4, the same bits as the right value
        params = MapParams(delta=1.05, t1=0.7, t2=1.9, t3=2.3, t4=5.1)
        values = getattr(family(params), values)
        left = values([params.t1, params.t2, params.t3], left=True)
        starts = (0.0, params.t1, params.t2, params.t3)
        for i, (m, prefix) in enumerate(zip(left, (None, make_E(1), qutrit_family.E2_E1))):
            gamma = _gammas(i + 1, np.array([1.0]), params, dot)[0]
            if dot:
                gamma = gamma / (starts[i + 1] - starts[i])
            assert np.array_equal(m, gamma if prefix is None else gamma @ prefix.matrix)
        ts = [0.0, 0.3, 1.2, 2.0, 3.7, params.t4]
        assert np.array_equal(values(ts, left=True), values(ts))


def test_family_callable_binds_params():
    params = MapParams(theta=1.45)
    fam = family(params)
    assert np.allclose(fam(4.0).matrix, lambda_t(4.0, params).matrix)


class TestStackCallers:
    """The grid checks take each chunk from one ``Family.stack`` (and
    ``dot_stack``) call and never evaluate the family one point at a time.
    The contractivity scan takes no map stack at all (see also
    ``test_contractivity.TestScanOnTheChain``)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"stack": [], "dot_stack": []}
        for name in calls:
            def counting(fam, ts, _name=name, _original=getattr(Family, name)):
                calls[_name].append(list(ts))
                return _original(fam, ts)
            monkeypatch.setattr(Family, name, counting)

        def per_point(*args):
            raise AssertionError("per-point family evaluation")
        monkeypatch.setattr(qutrit_family, "lambda_t", per_point)
        return calls

    # points per batch: SCAN_CHUNK_ENTRIES // (probes x (3k)^2 entries), at
    # least 1, within a stage (t1, t2 and t3 fall after grid points 37, 74
    # and 112); each batch is one call of the block kernel.  The budget is
    # meant to give 2 qutrit probes each stage in one batch, and the
    # benchmark's 2000 qutrit probes and 500 at k = 2 several points a batch.
    @pytest.mark.parametrize("k,n_probes", [(1, 2), (1, 2000), (2, 500)])
    def test_scan(self, calls, monkeypatch, k, n_probes):
        chunk = max(1, contractivity.SCAN_CHUNK_ENTRIES // (n_probes * (3 * k) ** 2))
        assert chunk >= 38 if n_probes == 2 else chunk > 1
        batches, kernel = [], []
        batch, block = contractivity._norm_rderiv, contractivity._block_norm_rderiv

        def batch_counting(fam, chain, s, ts, k):
            batches.append((s, list(ts)))
            return batch(fam, chain, s, ts, k)

        def block_counting(codes, *args):
            kernel.append(len(codes))
            return block(codes, *args)

        monkeypatch.setattr(contractivity, "_norm_rderiv", batch_counting)
        monkeypatch.setattr(contractivity, "_block_norm_rderiv", block_counting)
        grid = list(np.linspace(0.0, 4.0, 150, endpoint=False))
        norm_derivative_scan(family(), random_probes(3 * k, n_probes, SEED), grid, k=k)
        stages = [grid[:38], grid[38:75], grid[75:113], grid[113:]]
        assert batches == [(s, part[i:i + chunk]) for s, part in enumerate(stages)
                           for i in range(0, len(part), chunk)]
        assert kernel == [len(ts) for _, ts in batches]
        assert calls == {"stack": [], "dot_stack": []}

    def test_cp_tp(self, calls):
        check_cp_tp(MapParams(), 150)
        grid = list(np.linspace(0.0, 4.0, 150))
        assert calls == {"stack": [grid[:64], grid[64:128], grid[128:]],
                         "dot_stack": []}

    def test_divisibility_scan(self, calls):
        grid = list(np.linspace(0.0, 4.0, 150))
        cp_divisibility_scan(family(), grid)
        cp_divisibility_scan(family(), [1.0])
        cp_divisibility_scan(family(), [])
        # one stack of the whole grid, its 149 intervals sliced into batches
        # of 64; a grid of fewer than two points stacks nothing
        assert calls == {"stack": [grid], "dot_stack": []}

    def test_continuity_report(self, calls):
        continuity_report()
        assert len(calls["stack"]) == 1 and len(calls["stack"][0]) == 3 * 3 * 2
        assert calls["dot_stack"] == []
