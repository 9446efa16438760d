import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdisc import (
    BipartiteState,
    DomainError,
    StateEnsemble,
    generalized_pauli,
    is_unitary,
    me_state,
    state_from_matrix,
    transpose_identity_check,
)
from loccdisc.bounds import lambda_max
from loccdisc.qstate import normal_eigensystem, reduced_spectrum, schmidt, schmidt_coefficients

from conftest import b_matrix, random_state

OMEGA3 = np.exp(2j * np.pi / 3)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMeState:
    def test_me2_amplitudes(self):
        np.testing.assert_allclose(
            me_state(2).amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_me1(self):
        np.testing.assert_allclose(me_state(1).amplitudes, [1.0], atol=1e-15)

    def test_me3_schmidt_uniform(self):
        coeffs, _, _ = schmidt(me_state(3))
        np.testing.assert_allclose(coeffs, [1 / 3] * 3, atol=1e-14)

    def test_me_b_matrix_is_identity(self):
        np.testing.assert_allclose(b_matrix(me_state(4)), np.eye(4), atol=1e-14)

    def test_zero_dim_rejected(self):
        with pytest.raises(DomainError):
            me_state(0)


class TestStateMatrixCorrespondence:
    def test_identity_gives_me(self):
        psi = state_from_matrix(np.eye(2), 2)
        np.testing.assert_allclose(psi.amplitudes, me_state(2).amplitudes, atol=1e-15)

    def test_rank_one_gives_product(self):
        psi = state_from_matrix(np.diag([np.sqrt(2), 0.0]), 2)
        np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_pauli_x_expansion(self):
        # oracle: expand (I (x) X)|ME_2> with an explicit Kronecker product
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.kron(np.eye(2), x) @ me_state(2).amplitudes
        psi = state_from_matrix(x, 2)
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)
        np.testing.assert_allclose(np.abs(psi.amplitudes), [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-15)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            state_from_matrix(np.zeros((2, 2)), 2)

    def test_column_count_must_match(self):
        with pytest.raises(DomainError):
            state_from_matrix(np.eye(3), 2)

    def test_zero_dim_a_rejected(self):
        with pytest.raises(DomainError, match="^dim_a must be positive$"):
            state_from_matrix(np.eye(2), 0)

    def test_roundtrip_on_random_states(self, rng):
        for _ in range(50):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            psi = random_state(rng, m, n)
            back = state_from_matrix(b_matrix(psi), m)
            assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12

    def test_normalization_convention(self, rng):
        psi = random_state(rng, 3, 4)
        b = b_matrix(psi)
        assert abs(np.trace(b.conj().T @ b) - 3) < 1e-12


class TestTransposeIdentity:
    def test_identity_case(self):
        assert transpose_identity_check(np.eye(3)) < 1e-15

    def test_row_vector_case(self, rng):
        v = _rand_complex(rng, (1, 4))
        assert transpose_identity_check(v) <= 1e-12

    def test_matches_manual_kron(self, rng):
        a = _rand_complex(rng, (2, 3))
        lhs = np.sqrt(3) * np.kron(np.eye(3), a) @ me_state(3).amplitudes
        rhs = np.sqrt(2) * np.kron(a.T, np.eye(2)) @ me_state(2).amplitudes
        manual = float(np.max(np.abs(lhs - rhs)))
        assert abs(transpose_identity_check(a) - manual) < 1e-15
        assert manual <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_random_matrices(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = _rand_complex(rng, (m, n))
        assert transpose_identity_check(a) <= 1e-12


class TestSchmidt:
    def test_product_state(self):
        psi = BipartiteState(2, 2, [1, 0, 0, 0])
        assert schmidt(psi)[0][0] == pytest.approx(1.0)

    def test_two_term_state(self):
        amps = np.zeros(4)
        amps[0] = np.sqrt(0.8)
        amps[3] = np.sqrt(0.2)
        coeffs, _, _ = schmidt(BipartiteState(2, 2, amps))
        np.testing.assert_allclose(coeffs, [0.8, 0.2], atol=1e-14)

    def test_reconstruction(self, rng):
        for _ in range(25):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            psi = random_state(rng, m, n)
            coeffs, left, right = schmidt(psi)
            assert not (coeffs.flags.writeable or left.flags.writeable or right.flags.writeable)
            rebuilt = np.einsum("i,ai,bi->ab", np.sqrt(coeffs), left, right)
            np.testing.assert_allclose(rebuilt, psi.amplitude_matrix, atol=1e-12)

    def test_operator_norm_identity(self, rng):
        for _ in range(25):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            psi = random_state(rng, m, n)
            b = b_matrix(psi)
            opnorm = np.linalg.eigvalsh(b.conj().T @ b)[-1]
            assert abs(opnorm / m - schmidt(psi)[0][0]) < 1e-10

    def test_lambda_one_iff_rank_one(self, rng):
        for _ in range(20):
            a = _rand_complex(rng, 3)
            b = _rand_complex(rng, 3)
            prod = np.outer(a, b).reshape(-1)
            prod /= np.linalg.norm(prod)
            assert schmidt(BipartiteState(3, 3, prod))[0][0] > 1 - 1e-10
        assert schmidt(me_state(3))[0][0] < 1 - 1e-10

    def test_matches_ensemble_coefficients(self, rng):
        # the per-state oracle and the batched SVD behind StateEnsemble's witness pass agree row by row
        for _ in range(10):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            ens = StateEnsemble(tuple(random_state(rng, m, n) for _ in range(int(rng.integers(1, 5)))))
            rows = schmidt_coefficients(ens.amplitude_matrices(), reduced_spectrum(ens.reduced_states))
            for psi, row in zip(ens.states, rows):
                np.testing.assert_allclose(schmidt(psi)[0], row, rtol=0, atol=1e-14)
            assert lambda_max(ens) == float(rows[:, 0].max())


class TestGeneralizedPauli:
    def test_qubit_case(self):
        x, z = generalized_pauli(2)
        np.testing.assert_allclose(x, [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(z, [[1, 0], [0, -1]], atol=1e-15)

    def test_traceless_for_qutrits(self):
        x, z = generalized_pauli(3)
        assert abs(np.trace(x)) < 1e-14
        assert abs(np.trace(z)) < 1e-14

    def test_commutation_phase(self):
        for n in (2, 3, 4, 5):
            x, z = generalized_pauli(n)
            w = np.exp(2j * np.pi / n)
            np.testing.assert_allclose(x @ z, w * (z @ x), atol=1e-13)

    def test_group_commutator(self):
        x, z = generalized_pauli(3)
        comm = x @ z @ x.conj().T @ z.conj().T
        np.testing.assert_allclose(comm, OMEGA3 * np.eye(3), atol=1e-13)

    def test_orders(self):
        for n in (2, 3, 5):
            x, z = generalized_pauli(n)
            np.testing.assert_allclose(np.linalg.matrix_power(x, n), np.eye(n), atol=1e-12)
            np.testing.assert_allclose(np.linalg.matrix_power(z, n), np.eye(n), atol=1e-12)
        assert is_unitary(generalized_pauli(4)[0])

    def test_small_dims_rejected(self):
        with pytest.raises(DomainError):
            generalized_pauli(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_shift_is_the_defining_sum(self, n):
        # reference: X = sum_j |j><j+1| written entry by entry
        ref = np.zeros((n, n), dtype=complex)
        for j in range(n):
            ref[j, (j + 1) % n] = 1.0
        assert np.array_equal(generalized_pauli(n)[0], ref)


class TestPredicatesAndEigensystems:
    def test_is_unitary(self, rng):
        assert is_unitary(np.eye(3))
        assert not is_unitary(2 * np.eye(3))
        assert not is_unitary(np.ones((2, 3)))

    def test_normal_eigensystem_rejects_jordan_block(self):
        with pytest.raises(DomainError):
            normal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_normal_eigensystem_rejects_non_square(self):
        with pytest.raises(DomainError, match="^eigensystem requires a square matrix$"):
            normal_eigensystem(np.ones((2, 3)))


def _assert_eigensystem(m, vals, vecs):
    n = m.shape[0]
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, m, rtol=0, atol=1e-12)


class TestDegenerateSpectra:
    """normal_eigensystem on spectra with repeated eigenvalues (n = 4 and 6)."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_pauli_products_with_phase(self, n, rng):
        # X^a Z^b has eigenvalues of multiplicity n / order, up to n-fold (a = 0, b = 0)
        x, z = generalized_pauli(n)
        for a in range(n):
            for b in range(n):
                m = np.exp(2j * np.pi * rng.random()) * (
                    np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                )
                vals, vecs = normal_eigensystem(m)
                _assert_eigensystem(m, vals, vecs)

    @pytest.mark.parametrize("n", [4, 6])
    def test_rotated_repeated_diagonal(self, n, rng):
        from loccdisc import haar_unitary

        for spectrum in ([1.0] * n, [1.0, 1.0] + [-1.0] * (n - 2), [2j] * (n // 2) + [0.5] * (n - n // 2)):
            u = haar_unitary(n, rng)
            m = u @ np.diag(spectrum) @ u.conj().T
            vals, vecs = normal_eigensystem(m)
            _assert_eigensystem(m, vals, vecs)
            np.testing.assert_allclose(np.sort_complex(vals), np.sort_complex(np.array(spectrum, complex)), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 6])
    def test_upper_triangular_rejected(self, n, rng):
        m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        with pytest.raises(DomainError):
            normal_eigensystem(m)


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            BipartiteState(2, 2, [1, 0, 0, 1])

    def test_length_enforced(self):
        with pytest.raises(DomainError):
            BipartiteState(2, 2, [1, 0, 0])

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError, match="^dimensions must be positive$"):
            BipartiteState(0, 2, [1])

    def test_amplitudes_read_only(self):
        psi = me_state(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_from_matrix_validates_once(self, rng, monkeypatch):
        # amplitudes equal the checked constructor's bit for bit, without a second scan
        mats = [_rand_complex(rng, (n, m)) for m, n in ((1, 1), (1, 4), (3, 1), (2, 3), (5, 5))]
        expected = [BipartiteState(m.shape[1], m.shape[0], m.T / np.linalg.norm(m)).amplitudes for m in mats]

        def refuse(self):
            raise AssertionError("state_from_matrix re-validated its amplitudes")

        monkeypatch.setattr(BipartiteState, "__post_init__", refuse)
        for mat, want in zip(mats, expected):
            psi = state_from_matrix(mat, mat.shape[1])
            assert (psi.dim_a, psi.dim_b) == (mat.shape[1], mat.shape[0])
            assert np.array_equal(psi.amplitudes.view(float), want.view(float))
            assert psi.amplitudes.flags.c_contiguous and not psi.amplitudes.flags.writeable

    @pytest.mark.parametrize(
        "bad, dim_a",
        [
            (np.array([[np.nan, 1.0], [0.0, 1.0]]), 2),
            (np.array([[1.0, 1j * np.inf], [0.0, 1.0]]), 2),
            (np.array([[-np.inf, 1.0], [0.0, 1.0]]), 2),
            (np.zeros((2, 2)), 2),
            (np.full((2, 2), 1e-170), 2),
            (np.ones(3), 1),
            (np.zeros((2, 0)), 0),
            (np.ones((2, 2)), 3),
        ],
        ids=["nan", "inf-imag", "neg-inf", "zero", "underflow", "1-d", "empty", "columns"],
    )
    def test_from_matrix_rejects(self, bad, dim_a):
        with pytest.raises(DomainError):
            state_from_matrix(bad, dim_a)

    def test_from_matrix_norm_sums_in_memory_order(self, rng):
        # np.linalg.norm sums an F-ordered matrix column by column; the stacked norm does too
        for m, n in rng.integers(1, 12, size=(40, 2)):
            mat = np.asfortranarray(_rand_complex(rng, (n, m)))
            want = (mat.T / np.linalg.norm(mat)).reshape(-1)
            assert np.array_equal(state_from_matrix(mat, m).amplitudes.view(float), want.view(float))

    def test_normalized_stack_matches_per_state_build(self, rng):
        from loccdisc.qstate import normalized_amplitudes

        for rows, cols in ((1, 1), (3, 12), (8, 8), (16, 16), (24, 24)):
            b = _rand_complex(rng, (5, rows, cols))
            amps = normalized_amplitudes(b)
            for mat, got in zip(b, amps):
                want = state_from_matrix(mat, cols).amplitudes
                assert np.array_equal(got.reshape(-1).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "stack, message",
        [
            ([np.eye(2), np.zeros((2, 2)), np.full((2, 2), np.nan)], "zero matrix does not correspond to a state"),
            ([np.eye(2), np.full((2, 2), np.nan), np.zeros((2, 2))], "matrix contains non-finite entries"),
            ([np.eye(2), np.full((2, 2), 1e200), np.zeros((2, 2))], "matrix norm overflows; entries too large for a state"),
        ],
        ids=["zero-then-nan", "nan-then-zero", "overflow-then-zero"],
    )
    def test_normalized_stack_refused_at_first_faulty_state(self, stack, message):
        from loccdisc.qstate import normalized_amplitudes

        with pytest.raises(DomainError, match=f"^{message}$"):
            normalized_amplitudes(np.array(stack, dtype=complex))

    def test_from_matrix_rejects_overflowing_norm(self):
        # finite entries whose norm overflows would normalize to an all-zero state
        with pytest.raises(DomainError, match="overflows"):
            state_from_matrix(np.full((2, 2), 1e200), 2)
        with pytest.raises(DomainError, match="overflows"):
            BipartiteState(1, 2, [1e200, 0.0])


class TestStackedEigensystem:
    """``normal_eigensystem`` takes one matrix: a stack is refused like any other bad shape."""

    def test_single_matrix_message_unchanged(self):
        with pytest.raises(DomainError, match="^matrix is not normal within tolerance"):
            normal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_bad_shapes_rejected(self):
        for bad in (np.zeros(3), np.zeros((2, 0, 0)), np.zeros((2, 3, 4)), np.zeros((2, 3, 3)), np.full((2, 2), np.nan)):
            with pytest.raises(DomainError):
                normal_eigensystem(bad)
