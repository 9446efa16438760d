import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdisc import (
    BipartiteState,
    DomainError,
    generalized_pauli,
    is_unitary,
    me_state,
    state_from_matrix,
    transpose_identity_check,
)
from loccdisc.qstate import normal_eigensystem, schmidt, unitary_eigensystem

from conftest import random_state

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
        dec = schmidt(me_state(3))
        np.testing.assert_allclose(dec.coefficients, [1 / 3] * 3, atol=1e-14)

    def test_me_b_matrix_is_identity(self):
        np.testing.assert_allclose(me_state(4).b_matrix, np.eye(4), atol=1e-14)

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

    def test_roundtrip_on_random_states(self, rng):
        for _ in range(50):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            psi = random_state(rng, m, n)
            back = state_from_matrix(psi.b_matrix, m)
            assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12

    def test_normalization_convention(self, rng):
        psi = random_state(rng, 3, 4)
        b = psi.b_matrix
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
        assert schmidt(psi).lambda_max == pytest.approx(1.0)

    def test_two_term_state(self):
        amps = np.zeros(4)
        amps[0] = np.sqrt(0.8)
        amps[3] = np.sqrt(0.2)
        dec = schmidt(BipartiteState(2, 2, amps))
        np.testing.assert_allclose(dec.coefficients, [0.8, 0.2], atol=1e-14)

    def test_reconstruction(self, rng):
        for _ in range(25):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            psi = random_state(rng, m, n)
            dec = schmidt(psi)
            np.testing.assert_allclose(dec.reconstruct(), psi.amplitude_matrix, atol=1e-12)

    def test_operator_norm_identity(self, rng):
        for _ in range(25):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            psi = random_state(rng, m, n)
            b = psi.b_matrix
            opnorm = np.linalg.eigvalsh(b.conj().T @ b)[-1]
            assert abs(opnorm / m - schmidt(psi).lambda_max) < 1e-10

    def test_lambda_one_iff_rank_one(self, rng):
        for _ in range(20):
            a = _rand_complex(rng, 3)
            b = _rand_complex(rng, 3)
            prod = np.outer(a, b).reshape(-1)
            prod /= np.linalg.norm(prod)
            assert schmidt(BipartiteState(3, 3, prod)).lambda_max > 1 - 1e-10
        assert schmidt(me_state(3)).lambda_max < 1 - 1e-10


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


class TestPredicatesAndEigensystems:
    def test_is_unitary(self, rng):
        assert is_unitary(np.eye(3))
        assert not is_unitary(2 * np.eye(3))
        assert not is_unitary(np.ones((2, 3)))

    def test_unitary_eigensystem_reconstructs(self, rng):
        from loccdisc import haar_unitary

        for _ in range(20):
            u = haar_unitary(4, rng)
            vals, vecs = unitary_eigensystem(u)
            np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-14)
            recon = vecs @ np.diag(vals) @ vecs.conj().T
            np.testing.assert_allclose(recon, u, atol=1e-10)

    def test_normal_eigensystem_rejects_jordan_block(self):
        with pytest.raises(DomainError):
            normal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_unitary_eigensystem_rejects_nonunitary(self):
        with pytest.raises(DomainError):
            unitary_eigensystem(np.diag([1.0, 2.0]))


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

    def test_amplitudes_read_only(self):
        psi = me_state(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestStackedEigensystem:
    """One ``normal_eigensystem`` call on a stack equals the per-matrix calls bit for bit."""

    @staticmethod
    def _normal_stack(rng, count, n):
        from loccdisc import haar_unitary

        mats = []
        for _ in range(count):
            u = haar_unitary(n, rng)
            mats.append(u @ np.diag(_rand_complex(rng, n)) @ u.conj().T)
        return np.array(mats)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_per_matrix_calls(self, n, rng):
        stack = self._normal_stack(rng, 7, n)
        vals, vecs = normal_eigensystem(stack)
        assert vals.shape == (7, n) and vecs.shape == (7, n, n)
        for m, v, q in zip(stack, vals, vecs):
            v1, q1 = normal_eigensystem(m)
            assert np.array_equal(v.view(float), v1.view(float))
            assert np.array_equal(q.view(float), q1.view(float))

    def test_unitary_products_with_degenerate_spectra(self):
        # X^a Z^b at n = 6 have repeated eigenvalues
        x, z = generalized_pauli(6)
        stack = np.array([np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) for a in range(6) for b in range(6)])
        vals, vecs = normal_eigensystem(stack)
        for m, v, q in zip(stack, vals, vecs):
            v1, q1 = normal_eigensystem(m)
            assert np.array_equal(v, v1) and np.array_equal(q, q1)

    def test_leading_axes_kept(self, rng):
        stack = self._normal_stack(rng, 6, 3).reshape(2, 3, 3, 3)
        vals, vecs = normal_eigensystem(stack)
        assert vals.shape == (2, 3, 3) and vecs.shape == (2, 3, 3, 3)

    def test_first_non_normal_member_named(self, rng):
        stack = self._normal_stack(rng, 5, 4)
        jordan = np.eye(4) + np.diag(np.ones(3), 1)
        stack[2] = jordan
        stack[4] = jordan
        with pytest.raises(DomainError, match="matrix 2 of the stack is not normal") as info:
            normal_eigensystem(stack)
        assert info.value.index == 2

    def test_single_matrix_message_unchanged(self):
        with pytest.raises(DomainError, match="^matrix is not normal within tolerance") as info:
            normal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert info.value.index == 0

    def test_bad_shapes_rejected(self):
        for bad in (np.zeros(3), np.zeros((2, 0, 0)), np.zeros((2, 3, 4)), np.full((2, 2), np.nan)):
            with pytest.raises(DomainError):
                normal_eigensystem(bad)
