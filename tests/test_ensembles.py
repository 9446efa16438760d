import gc
import itertools
import weakref

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
from loccdisc.bounds import verdict
from loccdisc.ensembles import (
    bell_unitary,
    common_unbiased_basis_check,
    from_descriptor,
    haar_unitary,
    is_prime,
    mub_prime,
    mub_prime_bases,
)
from loccdisc.library import build_library
from loccdisc.qstate import frozen_array, generalized_pauli, normal_eigensystem, reduced_state
from loccdisc.serial import ensemble_to_json, state_from_json

from conftest import random_orthogonal_pair, random_state


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

    def test_negative_seed_refused(self):
        with pytest.raises(DomainError, match="^seed must be >= 0$"):
            random_orthogonal_me_triple(3, -1)
        with pytest.raises(DomainError, match="^seed must be >= 0$"):
            from_descriptor({"kind": "random_me_triple", "n": 3, "seed": -1})


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

    def test_non_square_rejected(self):
        with pytest.raises(DomainError, match="^coefficient matrix must be square$"):
            simultaneously_diagonal_ensemble(np.ones((2, 3)))


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

    def test_reduced_states_cached_read_only(self, rng):
        square = random_orthogonal_me_triple(4, 1)
        rectangular = uniform_ensemble([random_state(rng, 2, 3) for _ in range(4)])
        for ens in (square, rectangular):
            s = ens.amplitude_matrices()
            for side, amps in ((ens, s), (ens.swapped(), s.transpose(0, 2, 1))):
                rho = side.reduced_states
                assert rho is side.reduced_states
                assert rho.shape == (ens.k, amps.shape[1], amps.shape[1])
                assert np.array_equal(rho.view(float), reduced_state(amps).view(float))
                with pytest.raises(ValueError):
                    rho[0, 0, 0] = 0.0
            # Bob's side, bit for bit the stacked product S_i^T conj(S_i) on the transposed view
            assert np.array_equal(ens.swapped().reduced_states.view(float), (s.transpose(0, 2, 1) @ s.conj()).view(float))

    @staticmethod
    def _patched_row(monkeypatch, ens, name):
        # a stand-in with one disagreeing row shows the callers read the cached stack
        odd = getattr(ens, name).copy()
        odd[1] *= 2.0
        monkeypatch.setitem(ens.__dict__, name, odd)

    def test_alice_reduced_states_shared_by_predicate_and_bounds(self, monkeypatch):
        from loccdisc import bounds

        ens = bell_subset(5, [(0, 0), (1, 0), (0, 1)])
        assert ens.is_maximally_entangled() and bounds._unilateral_sides(ens) == (True, True)
        self._patched_row(monkeypatch, ens, "reduced_states")
        assert bounds._unilateral_sides(ens) == (True, False)
        assert not ens.is_maximally_entangled()

    def test_bob_reduced_states_decide_alices_side(self, monkeypatch):
        from loccdisc import bounds

        ens = bell_subset(5, [(0, 0), (1, 0), (0, 1)])
        self._patched_row(monkeypatch, ens.swapped(), "reduced_states")
        assert bounds._unilateral_sides(ens) == (False, True)
        assert ens.is_maximally_entangled()

    @pytest.mark.parametrize("entry", build_library(), ids=lambda entry: entry.name)
    def test_swap_is_an_involution(self, entry):
        ens = entry.ensemble
        swap = ens.swapped()
        assert swap is ens.swapped()
        assert (swap.k, swap.dim_a, swap.dim_b) == (ens.k, ens.dim_b, ens.dim_a)
        amps = swap.amplitude_matrices()
        assert amps.flags.c_contiguous and not amps.flags.writeable
        assert _same_bits(amps, ens.amplitude_matrices().transpose(0, 2, 1))
        assert _same_bits(swap.priors, ens.priors)
        back = swap.swapped()
        assert back is not ens
        assert _same_bits(back.amplitude_matrices(), ens.amplitude_matrices())
        assert _same_bits(back.priors, ens.priors)

    def test_swap_holds_no_reference_back(self):
        # freed by its reference count alone: the swap is no cycle through the ensemble
        ens = bell_subset(3, [(0, 0), (1, 2)])
        ref, swap = weakref.ref(ens), ens.swapped()
        gc.disable()
        try:
            del ens
            assert ref() is None
        finally:
            gc.enable()
        assert swap.k == 2

    def test_states_built_on_first_read(self):
        ens = bell_subset(4, [(0, 0), (1, 0), (0, 1)])
        swap = ens.swapped()
        verdict(ens)
        assert "states" not in vars(ens) and "states" not in vars(swap)
        assert (ens.k, ens.dim_a, ens.dim_b) == (3, 4, 4)
        states = ens.states
        assert states is ens.states and len(states) == 3
        for psi, amps in zip(swap.states, swap.amplitude_matrices()):
            assert np.shares_memory(psi.amplitudes, amps)

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


def _same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


class TestBellStack:
    """The stacked Bell unitaries equal the per-label product bit for bit, signed zeros included."""

    @pytest.mark.parametrize("n", range(2, 18))
    def test_full_stack_matches_per_label_product(self, n):
        from loccdisc.ensembles import _bell_unitaries

        labels = np.arange(n * n)
        stack = _bell_unitaries(n, labels // n, labels % n)
        for (m, l), u in zip(itertools.product(range(n), range(n)), stack):
            ref = _bell_reference(n, m, l)
            assert np.array_equal(u, ref)
            assert _same_bits(u, ref)
            assert _same_bits(bell_unitary(n, m, l), ref)

    def test_labels_reduced_mod_n(self):
        assert _same_bits(bell_unitary(5, 7, -1), _bell_reference(5, 2, 4))

    @pytest.mark.parametrize("n", [2, 5, 8, 17])
    def test_ensembles_match_per_state_build(self, n):
        from loccdisc import state_from_matrix

        labels = [(1 % n, 0), (0, n - 1), (n - 1, n // 2), (0, 0)]
        for ens, labs in ((bell_basis(n), list(itertools.product(range(n), range(n)))), (bell_subset(n, labels), labels)):
            assert ens.k == len(labs)
            for psi, (m, l) in zip(ens.states, labs):
                assert _same_bits(psi.amplitudes, state_from_matrix(_bell_reference(n, m, l), n).amplitudes)


def _assert_stack_matches(ens, refs):
    """``ens`` holds the states ``refs`` bit for bit: its stack, its state views and its B stack."""
    amps = frozen_array([psi.amplitude_matrix for psi in refs])
    assert ens.k == len(refs)
    assert _same_bits(ens.amplitude_matrices(), amps)
    assert _same_bits(ens.b_matrices(), np.sqrt(ens.dim_a) * amps.transpose(0, 2, 1))
    for psi, ref in zip(ens.states, refs):
        assert (psi.dim_a, psi.dim_b) == (ref.dim_a, ref.dim_b)
        assert _same_bits(psi.amplitudes, ref.amplitudes)


class TestStackedBuilders:
    """Each builder's one checked stack equals the per-state ``state_from_matrix`` build bit for bit."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("seed", range(10))
    def test_me_triple_matches_per_state_build(self, n, seed):
        from loccdisc import state_from_matrix

        rng = np.random.default_rng(seed)
        labels = rng.choice(n * n, size=3, replace=False)
        u = haar_unitary(n, rng)
        w = haar_unitary(n, rng)
        refs = [state_from_matrix(u @ bell_unitary(n, lab // n, lab % n) @ w, n) for lab in labels]
        _assert_stack_matches(random_orthogonal_me_triple(n, seed), refs)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_simdiag_matches_per_state_build(self, n):
        from loccdisc import state_from_matrix

        # -I carries -0.0 in every zero, and the Haar columns are turned to negative real parts
        u_haar = haar_unitary(n, np.random.default_rng(n))
        u_haar = u_haar * -np.sign(u_haar[0].real)
        for u in (-np.eye(n, dtype=complex), u_haar):
            assert np.any(u.real < 0)
            refs = [state_from_matrix(np.sqrt(n) * np.diag(u[i, :]), n) for i in range(n)]
            _assert_stack_matches(simultaneously_diagonal_ensemble(u), refs)
        # the per-state build gives -I's states negative zeros, which the stack keeps
        assert np.any(np.signbit(simultaneously_diagonal_ensemble(-np.eye(n, dtype=complex)).amplitude_matrices().imag))

    @pytest.mark.parametrize(
        "ens",
        [e.ensemble for e in build_library()] + [uniform_ensemble(random_orthogonal_pair(np.random.default_rng(d), d, d)) for d in (8, 16, 24)],
        ids=[e.name for e in build_library()] + ["pair-8x8", "pair-16x16", "pair-24x24"],
    )
    def test_explicit_matches_per_state_build(self, ens):
        payload = ensemble_to_json(ens)
        refs = [state_from_json(s) for s in payload["states"]]
        with_priors = from_descriptor(payload)
        _assert_stack_matches(with_priors, refs)
        assert _same_bits(with_priors.priors, StateEnsemble(tuple(refs), np.asarray(payload["priors"])).priors)
        without = from_descriptor({"kind": "explicit", "states": payload["states"]})
        _assert_stack_matches(without, refs)
        assert _same_bits(without.priors, uniform_ensemble(refs).priors)

    def test_stack_adopted_without_copy(self):
        ens = bell_subset(3, [(0, 0), (1, 2)])
        amps = ens.amplitude_matrices()
        assert amps.flags.c_contiguous and not amps.flags.writeable
        for i, psi in enumerate(ens.states):
            assert not psi.amplitudes.flags.writeable
            assert np.shares_memory(psi.amplitudes, amps[i])
        b = ens.b_matrices()
        assert b.flags.c_contiguous and b.flags.owndata and not b.flags.writeable
        assert ens.is_uniform() is True
        assert StateEnsemble(ens.states, [0.75, 0.25]).is_uniform() is False

    @pytest.mark.parametrize("priors", [None, [0.5, 0.25, 0.25]])
    def test_explicit_states_are_views_of_stack(self, priors):
        given = random_orthogonal_pair(np.random.default_rng(5), 3, 4) + (random_state(np.random.default_rng(6), 3, 4),)
        payload = {"kind": "explicit", "states": ensemble_to_json(uniform_ensemble(given))["states"]}
        if priors is not None:
            payload["priors"] = priors
        for ens in (from_descriptor(payload), StateEnsemble(given, priors)):
            amps = ens.amplitude_matrices()
            assert amps.flags.c_contiguous and not amps.flags.writeable
            for i, psi in enumerate(ens.states):
                assert not psi.amplitudes.flags.writeable
                assert np.shares_memory(psi.amplitudes, amps[i])
                assert _same_bits(psi.amplitudes, given[i].amplitudes)


def _state(dim_a, dim_b, amps):
    return {"dim_a": dim_a, "dim_b": dim_b, "amplitudes": [[re, im] for re, im in amps]}


_BELL = _state(2, 2, [(2**-0.5, 0), (0, 0), (0, 0), (2**-0.5, 0)])


class TestExplicitFaults:
    """A faulty explicit payload is refused for its first faulty state, with the message that state gets alone."""

    @pytest.mark.parametrize(
        "states, message",
        [
            # a bad norm in state 0 is reported before state 1's wrong amplitude count
            ([_state(2, 2, [(1, 0), (0, 0), (0, 0), (1, 0)]), _state(2, 2, [(1, 0), (0, 0), (0, 0)])],
             "state norm 1.4142135623730951 deviates from 1 by more than 1e-12"),
            ([_state(2, 2, [(1, 0), (0, 0), (0, 0)]), _state(2, 2, [(1, 0), (0, 0), (0, 0), (1, 0)])],
             "amplitude count 3 != dim_a*dim_b = 4"),
            ([_BELL, _state(1, 4, [(1, 0), (0, 0), (0, 0), (0, 0)])],
             "states live in different spaces: [(1, 4), (2, 2)]"),
            ([_BELL, _state(1, 4, [(1, 0), (0, 0), (0, 0), (0, 0)]), _state(2, 2, [(2, 0), (0, 0), (0, 0), (0, 0)])],
             "state norm 2.0 deviates from 1 by more than 1e-12"),
            ([_BELL, _state(2, 2, [(float("nan"), 0), (0, 0), (0, 0), (0, 0)])],
             "amplitudes contain non-finite entries"),
            ([_BELL, _state(2, 2, [(1, float("inf")), (0, 0), (0, 0), (0, 0)]), _state(2, 2, [(3, 0), (0, 0), (0, 0), (0, 0)])],
             "amplitudes contain non-finite entries"),
            ([_state(2, 2, [(0.5, 0), (0, 0), (0, 0), (0, 0)]), _state(2, 2, [(float("nan"), 0), (0, 0), (0, 0), (0, 0)])],
             "state norm 0.5 deviates from 1 by more than 1e-12"),
            ([_BELL, _state(2, 2, [(1e200, 0), (1e200, 0), (0, 0), (0, 0)])],
             "state norm overflows; amplitudes too large for a state"),
            ([_BELL, _state(1, 2, [(1e200, 0), (0, 0)])],
             "state norm overflows; amplitudes too large for a state"),
            ([_state(2, 2, [(1, 0), (0, 0), (0, 0), (1, 0)]), _state(2, 2, [(1, 0), (0, "x"), (0, 0), (1, 0)])],
             "state norm 1.4142135623730951 deviates from 1 by more than 1e-12"),
            ([], "ensemble needs at least one state"),
            ([_state(2, 2, [(1, 0), (0, True), (0, 0), (0, 0)]), _state(2, 2, [(2, 0), (0, 0), (0, 0), (0, 0)])],
             "malformed complex vector: [re, im] entries must be JSON numbers, got [0, True]"),
            ([{"dim_a": 2, "amplitudes": []}, _BELL], "malformed state payload: 'dim_b'"),
            ([_BELL, {"dim_a": True, "dim_b": 2, "amplitudes": []}], "dim_a must be an integer, got True"),
            ([_state(0, 2, []), _BELL], "empty complex vector"),
            ([_state(0, 1, [(1, 0)]), _state(0, 1, [(1, 0)])], "dimensions must be positive"),
            ([_state(-1, -1, [(1, 0)]), _state(-1, -1, [(1, 0)])], "dimensions must be positive"),
        ],
        ids=["norm0-size1", "size0-norm1", "mixed-dims", "mixed-dims-norm2", "nan1", "inf1-norm2",
             "norm0-nan1", "overflow1", "overflow1-mixed", "norm0-parse1", "empty",
             "parse0-norm1", "key0", "bool-dim1", "empty0", "dim0", "negative-dims"],
    )
    @pytest.mark.parametrize("priors", [None, [0.5, 0.5]])
    def test_first_faulty_state_reported(self, states, message, priors):
        descriptor = {"kind": "explicit", "states": states}
        if priors is not None:
            descriptor["priors"] = priors
        with pytest.raises(DomainError) as info:
            from_descriptor(descriptor)
        assert str(info.value) == message


class TestExplicitStack:
    """An explicit payload of one shape is checked and adopted as one stack."""

    def test_one_stack_bit_for_bit(self, monkeypatch, rng):
        from loccdisc import serial

        states = [random_state(rng, 3, 4) for _ in range(5)]
        descriptor = ensemble_to_json(StateEnsemble(tuple(states), rng.dirichlet(np.ones(5))))
        norms = []

        def counting(rows):
            norms.append(rows.shape)
            return row_norms(rows)

        row_norms = serial._row_norms
        monkeypatch.setattr(serial, "_row_norms", counting)
        monkeypatch.setattr(serial, "BipartiteState", None)  # the stacked path builds no state on its own
        ens = from_descriptor(descriptor)
        assert norms == [(5, 12)]
        stack = ens.amplitude_matrices()
        assert not stack.flags.writeable and stack.flags.c_contiguous
        for state, ref in zip(ens.states, states):
            assert np.array_equal(state.amplitudes.view(float), ref.amplitudes.view(float))
            assert np.shares_memory(state.amplitudes, stack)
        assert np.array_equal(ens.priors, np.asarray(descriptor["priors"]))

    @pytest.mark.parametrize(
        "second, priors, message",
        [
            # the priors' types are checked before the spaces
            (_state(1, 4, [(1, 0), (0, 0), (0, 0), (0, 0)]), [True, 0.5],
             "malformed ensemble descriptor: priors must be JSON numbers, got True"),
            # and their values on the adopted stack
            (_BELL, [0.5, 0.25], "priors must sum to 1 within 1e-12"),
        ],
        ids=["types-before-spaces", "sum-on-stack"],
    )
    def test_priors_checked_after_states(self, second, priors, message):
        with pytest.raises(DomainError) as info:
            from_descriptor({"kind": "explicit", "states": [_BELL, second], "priors": priors})
        assert str(info.value) == message


class TestCheckedTol:
    """The predicates refuse a tolerance that is NaN, infinite or negative."""

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    @pytest.mark.parametrize("k", [1, 2])
    def test_refused(self, tol, k):
        ens = bell_subset(2, [(0, 0), (1, 1)][:k])
        for predicate in (ens.is_orthogonal, ens.is_maximally_entangled):
            with pytest.raises(DomainError, match="tol must be finite and >= 0"):
                predicate(tol)

    def test_rectangular_refused(self, rng):
        ens = uniform_ensemble([random_state(rng, 2, 3)])
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            ens.is_maximally_entangled(float("nan"))

    def test_zero_allowed(self):
        ens = bell_subset(2, [(0, 0)])
        assert ens.is_orthogonal(0.0) and ens.is_orthogonal(0)


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
