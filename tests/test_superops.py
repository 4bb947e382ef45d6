import numpy as np
import pytest

from qmarkov.operators import OperandError, random_probes
from qmarkov.qutrit_family import RHO_A, RHO_B, family, lambda_t, make_E
from qmarkov.superops import (SuperOp, _image_basis, apply_to_extended,
                              choi_min_eigenvalue, compose, from_kraus,
                              image_inclusion_residual, image_rank,
                              is_image_nonincreasing, superop_from_action, to_choi,
                              tp_error)
from qmarkov.tolerances import TOL_PSD

from oracles import tp_error_by_choi

SEED = 11
IDENTITY = SuperOp(np.eye(9, dtype=complex))


def unit(i, j, d=3):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def transpose_map(d=3):
    return superop_from_action(lambda X: X.T, d)


def rand_kraus(rng, d, n_ops):
    return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(n_ops)]


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(SEED)
        X = rng.standard_normal((3, 3))
        assert np.allclose(IDENTITY.apply(X), X)

    def test_e1_dephases(self):
        X = np.arange(9, dtype=float).reshape(3, 3)
        X = (X + X.T) / 2
        assert np.allclose(make_E(1).apply(X), np.diag(np.diag(X)), atol=1e-14)

    def test_matches_kraus_sum_oracle(self):
        rng = np.random.default_rng(SEED)
        ops = rand_kraus(rng, 3, 3)
        S = from_kraus(ops)
        for probe in random_probes(3, 5, SEED).probes:
            expected = sum(K @ probe @ K.conj().T for K in ops)
            assert np.allclose(S.apply(probe), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(OperandError):
            IDENTITY.apply(np.eye(2))

    @pytest.mark.parametrize("shape", [(8, 8), (9, 4), (9,), (1, 9, 9)])
    def test_bad_shape(self, shape):
        """d is read off the matrix, which must be d^2 x d^2."""
        with pytest.raises(OperandError, match="d\\^2 x d\\^2"):
            SuperOp(np.zeros(shape))

    def test_dim_is_read_off_the_matrix(self):
        assert IDENTITY.dim == 3 and SuperOp(np.eye(4)).dim == 2
        with pytest.raises(TypeError):
            SuperOp(dim=3, matrix=np.eye(9))

    def test_hermiticity_preserved(self):
        for S in (make_E(1), make_E(2), make_E(3), make_E(4)):
            for probe in random_probes(3, 10, SEED).probes:
                out = S.apply(probe)
                assert np.max(np.abs(out - out.conj().T)) < 1e-10


class TestCompose:
    def test_with_identity(self):
        S = make_E(2)
        assert np.allclose(compose(S, IDENTITY).matrix, S.matrix)

    def test_e2e1_closed_form(self):
        X = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        out = compose(make_E(2), make_E(1)).apply(X)
        assert np.allclose(out, np.diag([1.0, 4.0 + 6.0, 0.0]), atol=1e-14)

    def test_e3e2e1_closed_form(self):
        X = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        out = compose(make_E(3), compose(make_E(2), make_E(1))).apply(X)
        assert np.allclose(out, np.diag([1.0, 10.0, 11.0]) / 2, atol=1e-14)

    def test_associative(self):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            A, B, C = (SuperOp(rng.standard_normal((9, 9))) for _ in range(3))
            left = compose(compose(A, B), C).matrix
            right = compose(A, compose(B, C)).matrix
            assert np.max(np.abs(left - right)) < 1e-12

    def test_apply_composes(self):
        rng = np.random.default_rng(SEED)
        X = rng.standard_normal((3, 3))
        S1, S2 = make_E(1), make_E(2)
        assert np.allclose(compose(S2, S1).apply(X), S2.apply(S1.apply(X)))


class TestFromKraus:
    def test_single_identity(self):
        assert np.allclose(from_kraus([np.eye(3)]).matrix, np.eye(9))

    def test_e1_kills_coherences(self):
        assert np.allclose(make_E(1).apply(unit(0, 1)), 0.0, atol=1e-14)

    def test_k2_maps_three_to_two(self):
        out = make_E(2).apply(unit(2, 2))
        assert np.allclose(out, unit(1, 1), atol=1e-14)

    def test_random_kraus_is_cp(self):
        rng = np.random.default_rng(SEED)
        for n_ops in (1, 2, 4):
            S = from_kraus(rand_kraus(rng, 3, n_ops))
            assert choi_min_eigenvalue(S) >= -1e-10


class TestDtypeRule:
    """A real map's matrix is float64 and any other is complex128, from every
    constructor; operands of apply stay complex."""

    def test_real_kraus_operators_give_float64(self):
        assert from_kraus([np.eye(3), np.diag([1, 2, 3])]).matrix.dtype == np.float64
        assert all(make_E(i).matrix.dtype == np.float64 for i in (1, 2))

    def test_complex_kraus_operators_give_complex128(self):
        rng = np.random.default_rng(SEED)
        assert from_kraus(rand_kraus(rng, 3, 2)).matrix.dtype == np.complex128
        assert from_kraus([np.eye(3), 1j * np.eye(3)]).matrix.dtype == np.complex128

    def test_compose_follows_its_factors(self):
        unitary = from_kraus([np.diag([1.0, 1j, -1.0])])
        assert compose(make_E(2), make_E(1)).matrix.dtype == np.float64
        assert compose(make_E(2), unitary).matrix.dtype == np.complex128

    def test_action_keeps_its_dtype(self):
        assert transpose_map().matrix.dtype == np.float64
        assert make_E(3).matrix.dtype == np.float64
        assert superop_from_action(lambda X: 1j * X, 3).matrix.dtype == np.complex128

    def test_operands_stay_complex(self):
        X = np.eye(3)
        assert make_E(1).apply(X).dtype == np.complex128
        assert apply_to_extended(make_E(1), X, 1).dtype == np.complex128


class TestChoi:
    def test_identity_choi(self):
        C = to_choi(IDENTITY)
        vals = np.linalg.eigvalsh(C)
        assert np.trace(C) == pytest.approx(3.0)
        assert np.sum(vals > 1e-10) == 1  # rank one

    def test_e4_cp_not_tp(self):
        S = make_E(4)
        assert choi_min_eigenvalue(S) >= -TOL_PSD
        assert tp_error(S) > TOL_PSD
        # trace doubles on the upper block
        assert np.trace(S.apply(np.eye(3) / 3)).real == pytest.approx(4 / 3)

    def test_transpose_not_cp(self):
        S = transpose_map()
        assert not choi_min_eigenvalue(S) >= -TOL_PSD
        assert choi_min_eigenvalue(S) == pytest.approx(-1.0, abs=1e-12)

    def test_tp_iff_trace_preserved_on_probes(self):
        rng = np.random.default_rng(SEED)
        maps = [make_E(1), make_E(2), make_E(3), make_E(4),
                from_kraus([np.linalg.qr(rng.standard_normal((3, 3))
                                         + 1j * rng.standard_normal((3, 3)))[0]]),
                transpose_map()]
        probes = random_probes(3, 100, SEED).probes
        for S in maps:
            preserved = all(
                abs(np.trace(S.apply(X)) - np.trace(X)) <= 1e-10 for X in probes)
            assert (tp_error(S) <= TOL_PSD) == preserved


class TestTpError:
    """tp_error, read off the map's rows, against the Choi partial trace it
    replaced (``oracles.tp_error_by_choi``), bit for bit."""

    @pytest.mark.parametrize("kind", [float, complex], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_stacks(self, d, kind):
        rng = np.random.default_rng(SEED + d)
        m = rng.standard_normal((1000, d * d, d * d)).astype(kind)
        if kind is complex:
            m += 1j * rng.standard_normal(m.shape)
        # every other map preserves trace up to rounding: its row 0 completes
        # the output-diagonal rows' sum to vec(I)
        m[::2, 0] = np.eye(d).reshape(-1) - m[::2, d + 1::d + 1].sum(axis=1)
        expected = tp_error_by_choi(m)
        assert np.median(expected[::2]) < 1e-14 < expected[1::2].min()
        assert tp_error(m).tobytes() == expected.tobytes()
        assert tp_error(m.reshape(10, 100, d * d, d * d)).tobytes() == expected.tobytes()
        assert [tp_error(SuperOp(x)) for x in m[:100]] == expected[:100].tolist()

    def test_family_and_named_maps(self):
        maps = family().stack(np.linspace(0.0, 4.0, 1000))
        assert tp_error(maps).tobytes() == tp_error_by_choi(maps).tobytes()
        named = [make_E(i) for i in (1, 2, 3, 4)] + [transpose_map(), IDENTITY]
        assert [tp_error(S) for S in named] == [tp_error_by_choi(S) for S in named]


class TestImage:
    def test_identity_full_rank(self):
        assert image_rank(IDENTITY) == 9

    def test_t3_image_spanned_by_target_states(self):
        S = lambda_t(3.0)
        basis = _image_basis(S)
        assert basis.shape[0] == 2
        E = basis.reshape(2, -1).T
        for op in (RHO_A, RHO_B):
            v = op.reshape(-1)
            residual = np.linalg.norm(v - E @ (E.conj().T @ v))
            assert residual < 1e-10

    def test_rank_monotone_to_t3(self):
        ranks = [image_rank(lambda_t(t))
                 for t in (0.0, 0.5, 0.99, 1.0, 1.5, 2.0, 2.5, 3.0)]
        assert ranks == sorted(ranks, reverse=True)
        assert ranks[0] == 9 and ranks[3] == 3 and ranks[-1] == 2

    def test_inclusion_fails_across_last_segment(self):
        fam = family()
        assert not is_image_nonincreasing(fam, [3.0, 3.5, 4.0])
        assert image_inclusion_residual(fam(3.0), fam(4.0)) > 0.01

    def test_inclusion_holds_within_second_segment(self):
        assert is_image_nonincreasing(family(), [1.0, 1.25, 1.5, 1.75, 2.0])

    def test_family_is_not_image_nonincreasing_overall(self):
        # the third-segment images pick up a |3><3| component absent at t2,
        # so the family sits outside the image-nonincreasing class
        assert not is_image_nonincreasing(family(), [2.0, 2.5])


class TestAncillaApply:
    def test_matches_kron_identity(self):
        rng = np.random.default_rng(SEED)
        S = make_E(2)
        for _ in range(5):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            X = (a + a.conj().T) / 2
            # oracle: act with E2's Kraus operator extended by the identity
            K = np.kron(np.array([[1.0, 0, 0], [0, 1, 1], [0, 0, 0]]), np.eye(2))
            assert np.allclose(apply_to_extended(S, X, 2), K @ X @ K.conj().T,
                               atol=1e-12)

    def test_k_equals_one_reduces_to_apply(self):
        rng = np.random.default_rng(SEED)
        X = rng.standard_normal((3, 3))
        S = make_E(3)
        assert np.allclose(apply_to_extended(S, X, 1), S.apply(X))


class TestStackedMaps:
    """A stack (G, d^2, d^2) of map matrices gives, entry by entry, the bits
    of the one-map call on each."""

    def maps(self):
        fam = family()
        return [fam(t) for t in np.linspace(0.0, 4.0, 13)] + [transpose_map(),
                                                             make_E(4)]

    def test_choi_and_predicates(self):
        maps = self.maps()
        stack = np.stack([S.matrix for S in maps])
        assert all(np.array_equal(C, to_choi(S)) for C, S in zip(to_choi(stack), maps))
        assert choi_min_eigenvalue(stack).tolist() == [choi_min_eigenvalue(S)
                                                       for S in maps]
        assert tp_error(stack).tolist() == [tp_error(S) for S in maps]

    @pytest.mark.parametrize("k", [1, 2])
    def test_apply_to_extended(self, k):
        maps = self.maps()
        X = random_probes(3 * k, 7, SEED).probes
        out = apply_to_extended(np.stack([S.matrix for S in maps]), X, k)
        assert out.shape == (len(maps),) + X.shape
        assert all(np.array_equal(Y, apply_to_extended(S, X, k))
                   for Y, S in zip(out, maps))
