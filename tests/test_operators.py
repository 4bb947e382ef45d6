import numpy as np
import pytest

from qmarkov.operators import OperandError, ProbeSet, as_hermitian, random_probes, trace_norm

from oracles import right_derivative

SEED = 42


def char_poly_eigenvalues(X):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients, then polynomial root finding."""
    n = X.shape[0]
    coeffs = [1.0 + 0j]
    M = np.zeros_like(X)
    for k in range(1, n + 1):
        M = X @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(X @ M) / k)
    return np.roots(coeffs)


def rand_herm(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def rand_unitary(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    from scipy.linalg import expm
    return expm(1j * (a + a.conj().T))


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0, 0.0])) == pytest.approx(2.0)

    def test_identity(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0)

    def test_against_char_poly_oracle(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            X = rand_herm(rng, 4)
            expected = np.sum(np.abs(np.real(char_poly_eigenvalues(X))))
            assert trace_norm(X) == pytest.approx(expected, abs=1e-9)

    def test_lower_bounded_by_trace(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            X = rand_herm(rng, 3)
            assert trace_norm(X) >= abs(np.trace(X).real) - 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(OperandError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        """A NaN or inf entry is an OperandError, raised before eigvalsh
        (which fails to converge on NaN) and without a RuntimeWarning."""
        with pytest.raises(OperandError, match="NaN or infinite"):
            trace_norm(np.diag([1.0, bad, -1.0]))

    def test_triangle_and_scaling(self):
        rng = np.random.default_rng(SEED)
        for _ in range(30):
            X, Y = rand_herm(rng, 3), rand_herm(rng, 3)
            c = rng.standard_normal()
            assert trace_norm(X + Y) <= trace_norm(X) + trace_norm(Y) + 1e-9
            assert trace_norm(c * X) == pytest.approx(abs(c) * trace_norm(X), abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            X = rand_herm(rng, 3)
            U = rand_unitary(rng, 3)
            assert trace_norm(U @ X @ U.conj().T) == pytest.approx(
                trace_norm(X), abs=1e-9)


class TestRightDerivative:
    def test_square(self):
        assert right_derivative(lambda t: t * t, 1.0) == pytest.approx(2.0, abs=1e-6)

    def test_abs_at_kink(self):
        assert right_derivative(abs, 0.0) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("coeffs", [(1.0,), (0.0, 2.0), (1.0, -1.0, 0.5),
                                        (0.3, 0.0, -2.0, 1.0),
                                        (0.1, 1.0, 0.2, -0.5, 2.0)])
    @pytest.mark.parametrize("t0", [0.0, 0.7, -1.3])
    def test_polynomials_up_to_degree_4(self, coeffs, t0):
        p = np.polynomial.Polynomial(coeffs)
        assert right_derivative(p, t0) == pytest.approx(p.deriv()(t0), abs=1e-6)

    def test_requires_positive_step(self):
        with pytest.raises(OperandError):
            right_derivative(abs, 0.0, h0=0.0)

    def test_matches_segment4_closed_form(self):
        # norm trajectory of the lam = 1 probe through the fourth family
        from qmarkov.contractivity import (gamma4_derivative_closed_form,
                                           gamma4_norm_closed_form)
        f = lambda tau: gamma4_norm_closed_form(1.0, tau, 1.5)
        expected = gamma4_derivative_closed_form(1.0, 0.5, 1.5)
        assert right_derivative(f, 0.5) == pytest.approx(expected, abs=1e-5)


class TestRandomProbes:
    def test_deterministic(self):
        a = random_probes(3, 5, 42)
        b = random_probes(3, 5, 42)
        for x, y in zip(a.probes, b.probes):
            assert np.array_equal(x, y)

    def test_hermitian(self):
        for kind in ("random-hermitian", "state-difference"):
            ps = random_probes(3, 10, 1, kind)
            for X in ps.probes:
                assert np.max(np.abs(X - X.conj().T)) <= 1e-14

    def test_state_difference_trace(self):
        ps = random_probes(3, 20, 7, "state-difference")
        for X in ps.probes:
            tr = np.trace(X).real
            assert -1.0 - 1e-12 <= tr <= 1.0 + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(OperandError):
            random_probes(3, 0, 1)
        with pytest.raises(OperandError):
            random_probes(3, 1, 1, "no-such-kind")


class TestProbeSet:
    def test_holds_one_array(self):
        ps = ProbeSet((np.diag([1.0, 0.0, -1.0]),), 0)
        assert ps.probes.shape == (1, 3, 3) and ps.probes.dtype == complex
        assert len(ps) == 1 and ps.dim == 3
        with pytest.raises(TypeError):  # random_probes validates a kind but keeps none
            ProbeSet(ps.probes, 0, "random-hermitian")

    @pytest.mark.parametrize("probes", [
        (np.diag([1, np.nan, -1]),),  # a scan of it died in eigh
        (np.diag([1, np.inf, -1]),),
        (np.array([[0.0, 1.0], [0.0, 0.0]]),),  # not Hermitian
        np.eye(3),  # one matrix, not a stack
        np.zeros((2, 3, 2)),  # not square
        np.zeros((0, 3, 3)),  # empty
    ], ids=["nan", "inf", "non-hermitian", "2-d", "non-square", "empty"])
    def test_rejects(self, probes):
        with pytest.raises(OperandError):
            ProbeSet(probes, 0)


def test_stacks():
    """as_hermitian checks every matrix of a stack, and trace_norm returns
    one norm per matrix."""
    rng = np.random.default_rng(SEED)
    stack = np.stack([[rand_herm(rng, 3) for _ in range(4)] for _ in range(2)])
    assert as_hermitian(stack).shape == (2, 4, 3, 3)
    norms = trace_norm(stack)
    assert norms.shape == (2, 4)
    assert norms.tolist() == [[trace_norm(X) for X in row] for row in stack]
    stack[1, 2, 0, 1] += 1e-3
    with pytest.raises(OperandError, match="not Hermitian"):
        as_hermitian(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_as_hermitian_rejects_non_finite_density(bad):
    """Every comparison with a NaN is false, so a NaN entry passes trace and
    eigenvalue checks; as_hermitian tests finiteness first."""
    with pytest.raises(OperandError, match="NaN or infinite"):
        as_hermitian(np.diag([bad, 0.5, 0.5]))
