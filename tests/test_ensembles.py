import itertools

import numpy as np
import pytest

from loccdisc import (
    DomainError,
    StateEnsemble,
    bell_basis,
    bell_subset,
    fourier_matrix,
    me_state,
    random_orthogonal_me_triple,
    simultaneously_diagonal_ensemble,
    uniform_ensemble,
)
from loccdisc.ensembles import (
    bell_unitary,
    common_unbiased_basis_check,
    from_descriptor,
    haar_unitary,
    is_prime,
    mub_prime,
    mub_prime_bases,
)
from loccdisc.qstate import generalized_pauli, normal_eigensystem

from conftest import random_state


def _gram_direct(ensemble):
    amps = np.array([s.amplitudes for s in ensemble.states])
    return amps.conj() @ amps.T


class TestBellBasis:
    def test_qubit_bell_states(self):
        ens = bell_basis(2)
        assert ens.k == 4
        s = 1 / np.sqrt(2)
        # (m, l) order: (0,0), (0,1), (1,0), (1,1)
        np.testing.assert_allclose(ens.states[0].amplitudes, [s, 0, 0, s], atol=1e-15)
        np.testing.assert_allclose(ens.states[1].amplitudes, [s, 0, 0, -s], atol=1e-15)
        np.testing.assert_allclose(ens.states[2].amplitudes, [0, s, s, 0], atol=1e-15)
        np.testing.assert_allclose(np.abs(ens.states[3].amplitudes), [0, s, s, 0], atol=1e-15)

    def test_shift_state_amplitudes(self):
        ens = bell_basis(2)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(ens.states[2].amplitudes, [0, s, s, 0], atol=1e-15)

    def test_gram_is_identity_qutrit(self):
        ens = bell_basis(3)
        np.testing.assert_allclose(_gram_direct(ens), np.eye(9), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthogonal_and_maximally_entangled(self, n):
        ens = bell_basis(n)
        assert ens.k == n * n
        assert ens.is_orthogonal(1e-12)
        assert ens.is_maximally_entangled(1e-12)
        assert ens.is_uniform()

    def test_dimension_one_rejected(self):
        with pytest.raises(DomainError):
            bell_basis(1)

    def test_subset_labels_validated(self):
        with pytest.raises(DomainError):
            bell_subset(2, [(0, 0), (0, 0)])
        with pytest.raises(DomainError):
            bell_subset(2, [(2, 0)])


class TestMubPrime:
    def test_qubit_family_structure(self):
        fam = mub_prime(2)
        assert len(fam) == 3
        np.testing.assert_allclose(fam[0], np.eye(2), atol=1e-15)
        # remaining members: X and Y eigenbases, all entries of modulus 1/sqrt(2)
        for b in fam[1:]:
            np.testing.assert_allclose(np.abs(b), 0.5 * np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_pairwise_unbiased(self, n):
        fam = mub_prime(n)
        assert len(fam) == n + 1
        for b1, b2 in itertools.combinations(fam, 2):
            overlaps = np.abs(b1.conj().T @ b2) ** 2
            assert np.max(np.abs(overlaps - 1.0 / n)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_read_only_stack_of_bases(self, n):
        fam = mub_prime(n)
        assert fam.shape == (n + 1, n, n) and not fam.flags.writeable
        assert np.array_equal(fam, np.array(list(mub_prime_bases(n))))

    def test_composite_rejected(self):
        for n in (4, 6, 1):
            with pytest.raises(DomainError):
                mub_prime(n)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_member_diagonalizes_x_z_power(self, n):
        # member t + 1 is an eigenbasis of X Z^t, in that order
        fam = mub_prime(n)
        for t in range(n):
            d = fam[t + 1].conj().T @ bell_unitary(n, 1, t) @ fam[t + 1]
            assert np.max(np.abs(d - np.diag(np.diag(d)))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_pauli_power_eigenbases_stay_in_family(self, n):
        # eigenbasis of every nonidentity X^a Z^b matches one member up to
        # phases and column order: exactly one unit-modulus overlap per column
        fam = mub_prime(n)
        for a in range(n):
            for b in range(n):
                if (a, b) == (0, 0):
                    continue
                _, vecs = normal_eigensystem(bell_unitary(n, a, b))
                matched = False
                for member in fam:
                    ov = np.abs(member.conj().T @ vecs)
                    if np.allclose(np.sort(ov.ravel())[::-1][:n], 1.0, atol=1e-8) and np.allclose(
                        ov @ ov.T, np.eye(n), atol=1e-8
                    ):
                        matched = True
                        break
                assert matched, f"eigenbasis of X^{a} Z^{b} not in the family"

    def test_is_prime(self):
        assert [p for p in range(14) if is_prime(p)] == [2, 3, 5, 7, 11, 13]


class TestCommonUnbiasedBasisCheck:
    def test_fourier_vs_computational(self):
        fam = np.eye(3, dtype=complex)[None]
        assert common_unbiased_basis_check(fourier_matrix(3), fam)

    def test_basis_vs_itself_fails(self):
        fam = np.eye(3, dtype=complex)[None]
        assert not common_unbiased_basis_check(np.eye(3, dtype=complex), fam)

    def test_mub_member_vs_rest(self):
        fam = mub_prime(3)
        assert common_unbiased_basis_check(fam[0], fam[1:])

    def test_dimension_mismatch(self):
        fam = np.eye(3, dtype=complex)[None]
        with pytest.raises(DomainError):
            common_unbiased_basis_check(np.eye(2, dtype=complex), fam)

    def test_nonunitary_candidate(self):
        fam = np.eye(2, dtype=complex)[None]
        with pytest.raises(DomainError):
            common_unbiased_basis_check(np.ones((2, 2)), fam)

    @pytest.mark.parametrize("angle, unbiased", [(1e-11, True), (1e-6, False)])
    def test_tolerance_is_eigen_tol(self, angle, unbiased):
        # rotating two Fourier columns by t moves their overlaps with |1> by about t/3
        f = fourier_matrix(3)
        c, s = np.cos(angle), np.sin(angle)
        cand = np.column_stack([c * f[:, 0] + s * f[:, 1], c * f[:, 1] - s * f[:, 0], f[:, 2]])
        assert common_unbiased_basis_check(cand, np.eye(3, dtype=complex)[None]) is unbiased


class TestRandomTriples:
    def test_two_hundred_seeds(self):
        for seed in range(200):
            ens = random_orthogonal_me_triple(3, seed)
            assert np.max(np.abs(_gram_direct(ens) - np.eye(3))) < 1e-12
            for b in ens.b_matrices():
                assert np.max(np.abs(b.conj().T @ b - np.eye(3))) < 1e-12

    def test_deterministic_per_seed(self):
        a = random_orthogonal_me_triple(3, 9)
        b = random_orthogonal_me_triple(3, 9)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.amplitudes, sb.amplitudes)

    def test_seeds_differ(self):
        a = random_orthogonal_me_triple(3, 1)
        b = random_orthogonal_me_triple(3, 2)
        cross = np.abs(
            np.array([s.amplitudes for s in a.states]).conj()
            @ np.array([s.amplitudes for s in b.states]).T
        )
        assert np.max(np.abs(cross - np.eye(3))) > 1e-3

    def test_general_dimension(self):
        ens = random_orthogonal_me_triple(4, 3)
        assert ens.is_orthogonal(1e-12)
        assert ens.is_maximally_entangled(1e-12)


class TestSimultaneouslyDiagonal:
    def test_identity_gives_product_states(self):
        ens = simultaneously_diagonal_ensemble(np.eye(3))
        for j, state in enumerate(ens.states):
            expected = np.zeros(9)
            expected[j * 3 + j] = 1.0
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_fourier_contains_me(self):
        ens = simultaneously_diagonal_ensemble(fourier_matrix(3))
        np.testing.assert_allclose(ens.states[0].amplitudes, me_state(3).amplitudes, atol=1e-14)
        assert ens.is_maximally_entangled(1e-12)

    def test_gram_identity_for_random_unitary(self, rng):
        u = haar_unitary(4, rng)
        ens = simultaneously_diagonal_ensemble(u)
        np.testing.assert_allclose(_gram_direct(ens), np.eye(4), atol=1e-12)

    def test_nonunitary_rejected(self):
        with pytest.raises(DomainError):
            simultaneously_diagonal_ensemble(np.ones((2, 2)))


class TestEnsembleType:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(DomainError):
            StateEnsemble((me_state(2), me_state(2)), np.array([0.6, 0.6]))

    def test_negative_priors_rejected(self):
        with pytest.raises(DomainError):
            StateEnsemble((me_state(2), me_state(2)), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_priors_rejected(self, bad):
        with pytest.raises(DomainError):
            StateEnsemble((me_state(2), me_state(2)), np.array([bad, 1.0]))
        with pytest.raises(DomainError):
            StateEnsemble((me_state(2),), np.array([bad]))

    def test_mixed_dims_rejected(self):
        with pytest.raises(DomainError):
            uniform_ensemble([me_state(2), me_state(3)])

    def test_b_matrices_stacked_read_only(self, rng):
        square = StateEnsemble(random_orthogonal_me_triple(3, 4).states, np.array([0.2, 0.3, 0.5]))
        rectangular = uniform_ensemble([random_state(rng, 2, 3) for _ in range(4)])
        for ens, shape in ((square, (3, 3, 3)), (rectangular, (4, 3, 2))):
            b = ens.b_matrices()
            assert b.shape == shape
            assert b is ens.b_matrices()
            with pytest.raises(ValueError):
                b[0, 0, 0] = 0.0
            for i, state in enumerate(ens.states):
                np.testing.assert_array_equal(b[i], state.b_matrix)

    def test_b_grams_cached_read_only(self, rng):
        square = random_orthogonal_me_triple(4, 1)
        rectangular = uniform_ensemble([random_state(rng, 2, 3) for _ in range(4)])
        for ens in (square, rectangular):
            b = ens.b_matrices()
            g = ens.b_grams
            assert g is ens.b_grams
            assert np.array_equal(g.view(float), (b.conj().transpose(0, 2, 1) @ b).view(float))
            with pytest.raises(ValueError):
                g[0, 0, 0] = 0.0

    def test_b_grams_shared_by_predicate_and_bounds(self, monkeypatch):
        from loccdisc import bounds

        ens = bell_subset(5, [(0, 0), (1, 0), (0, 1)])
        assert ens.is_maximally_entangled()
        grams = ens.__dict__["b_grams"]
        # a stand-in with one disagreeing Gram shows _unilateral_sides reads the cached stack
        odd = grams.copy()
        odd[1] *= 2.0
        monkeypatch.setitem(ens.__dict__, "b_grams", odd)
        assert bounds._unilateral_sides(ens) == (True, False)
        assert not ens.is_maximally_entangled()

    def test_uniform_flag(self):
        ens = StateEnsemble((me_state(2), me_state(2)), np.array([0.7, 0.3]))
        assert not ens.is_uniform()


class TestDescriptors:
    def test_bell(self):
        ens = from_descriptor({"kind": "bell", "n": 2})
        assert ens.k == 4

    def test_random_me_triple(self):
        ens = from_descriptor({"kind": "random_me_triple", "n": 3, "seed": 7})
        assert ens.k == 3 and ens.is_maximally_entangled(1e-10)

    def test_simdiag(self):
        from loccdisc.serial import matrix_to_json

        ens = from_descriptor({"kind": "simdiag", "u": matrix_to_json(fourier_matrix(3))})
        assert ens.k == 3

    def test_explicit(self):
        from loccdisc.serial import state_to_json

        ens = from_descriptor(
            {
                "kind": "explicit",
                "states": [state_to_json(me_state(2))],
                "priors": [1.0],
            }
        )
        assert ens.k == 1

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            from_descriptor({"kind": "nope"})

    def test_malformed(self):
        with pytest.raises(DomainError):
            from_descriptor({"kind": "bell"})

    def test_integral_floats_accepted(self):
        assert from_descriptor({"kind": "bell", "n": 3.0}).k == 9
        assert from_descriptor({"kind": "bell_subset", "n": 3, "labels": [[1.0, 2]]}).k == 1

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"kind": "bell", "n": 2.7},
            {"kind": "bell", "n": True},
            {"kind": "bell", "n": "3"},
            {"kind": "bell", "n": float("inf")},
            {"kind": "bell_subset", "n": 3, "labels": [[0.5, 0]]},
            {"kind": "bell_subset", "n": 3, "labels": [[0, False]]},
            {"kind": "random_me_triple", "n": 3, "seed": 7.5},
        ],
    )
    def test_non_integers_rejected(self, descriptor):
        with pytest.raises(DomainError, match="must be an integer"):
            from_descriptor(descriptor)


def _bell_reference(n, m, l):
    """X^m Z^l as two ``matrix_power`` calls and one product."""
    x, z = generalized_pauli(n)
    return np.linalg.matrix_power(x, m % n) @ np.linalg.matrix_power(z, l % n)


class TestBellStack:
    """The stacked Bell unitaries equal the per-label product bit for bit, signed zeros included."""

    @staticmethod
    def _same_bits(a, b):
        return np.array_equal(np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))

    @pytest.mark.parametrize("n", range(2, 18))
    def test_full_stack_matches_per_label_product(self, n):
        from loccdisc.ensembles import _bell_unitaries

        labels = np.arange(n * n)
        stack = _bell_unitaries(n, labels // n, labels % n)
        for (m, l), u in zip(itertools.product(range(n), range(n)), stack):
            ref = _bell_reference(n, m, l)
            assert np.array_equal(u, ref)
            assert self._same_bits(u, ref)
            assert self._same_bits(bell_unitary(n, m, l), ref)

    def test_labels_reduced_mod_n(self):
        assert self._same_bits(bell_unitary(5, 7, -1), _bell_reference(5, 2, 4))

    @pytest.mark.parametrize("n", [2, 5, 8, 17])
    def test_ensembles_match_per_state_build(self, n):
        from loccdisc import state_from_matrix

        labels = [(1 % n, 0), (0, n - 1), (n - 1, n // 2), (0, 0)]
        for ens, labs in ((bell_basis(n), list(itertools.product(range(n), range(n)))), (bell_subset(n, labels), labels)):
            assert ens.k == len(labs)
            for psi, (m, l) in zip(ens.states, labs):
                assert self._same_bits(psi.amplitudes, state_from_matrix(_bell_reference(n, m, l), n).amplitudes)


class TestBasisFamilyStack:
    """A family of bases is a plain (members, n, n) stack."""

    def test_empty_family(self):
        fam = np.zeros((0, 2, 2), dtype=complex)
        assert common_unbiased_basis_check(np.eye(2, dtype=complex), fam)

    def test_check_agrees_with_per_member_checks(self):
        fam = mub_prime(7)
        cands = list(fam) + [fourier_matrix(7)]
        for cand in cands:
            whole = common_unbiased_basis_check(cand, fam[1:])
            each = all(common_unbiased_basis_check(cand, m[None]) for m in fam[1:])
            assert whole == each
