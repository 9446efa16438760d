import itertools

import numpy as np
import pytest

from loccdisc import (
    BipartiteState,
    DomainError,
    bell_basis,
    bell_subset,
    evaluate,
    fourier_matrix,
    random_orthogonal_me_triple,
    simultaneously_diagonal_ensemble,
    state_from_matrix,
    synthesize_cub_protocol,
    synthesize_three_qutrit_protocol,
    uniform_ensemble,
    verdict,
)
from loccdisc.ensembles import haar_unitary, mub_prime
from loccdisc.qstate import generalized_pauli, normal_eigensystem
from loccdisc.synth import default_cub_candidates, find_cub, pairwise_product_eigenbases

from conftest import near_commuting_triple


class TestThreeQutritSynthesis:
    def test_commuting_clock_triple(self):
        _, z = generalized_pauli(3)
        ens = uniform_ensemble(
            [state_from_matrix(np.linalg.matrix_power(z, p), 3) for p in range(3)]
        )
        spec = synthesize_three_qutrit_protocol(ens)
        assert spec.max_bob_overlap() < 1e-8
        # Alice's basis is unbiased to the computational basis (Fourier-like)
        np.testing.assert_allclose(np.abs(spec.alice_basis), 1 / np.sqrt(3), atol=1e-10)
        res = evaluate(spec.as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_random_triples(self, seed):
        ens = random_orthogonal_me_triple(3, seed)
        spec = synthesize_three_qutrit_protocol(ens)
        assert spec.max_bob_overlap() < 1e-8
        res = evaluate(spec.as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9

    def test_global_phase_invariance(self, rng):
        ens = random_orthogonal_me_triple(3, 17)
        phases = np.exp(2j * np.pi * rng.random(3))
        perturbed = uniform_ensemble(
            [
                state_from_matrix(ph * b, 3)
                for ph, b in zip(phases, ens.b_matrices())
            ]
        )
        spec = synthesize_three_qutrit_protocol(perturbed)
        res = evaluate(spec.as_protocol(), perturbed)
        assert res.success_probability > 1 - 1e-9

    def test_wrong_count_rejected(self):
        with pytest.raises(DomainError):
            synthesize_three_qutrit_protocol(bell_basis(3))

    def test_wrong_dims_rejected(self):
        with pytest.raises(DomainError):
            synthesize_three_qutrit_protocol(bell_subset(2, [(0, 0), (0, 1), (1, 0)]))

    def test_not_entangled_rejected(self):
        ens = simultaneously_diagonal_ensemble(np.eye(3))
        ens3 = uniform_ensemble(ens.states[:3])
        with pytest.raises(DomainError):
            synthesize_three_qutrit_protocol(ens3)

    def test_not_orthogonal_rejected(self):
        _, z = generalized_pauli(3)
        states = [state_from_matrix(np.eye(3), 3), state_from_matrix(z, 3)]
        ens = uniform_ensemble(states + [states[0]])
        with pytest.raises(DomainError):
            synthesize_three_qutrit_protocol(ens)


def _assert_perfect(ens):
    spec = synthesize_three_qutrit_protocol(ens)
    assert spec.max_bob_overlap() <= 1e-12
    assert evaluate(spec.as_protocol(), ens).success_probability >= 1 - 1e-12


class TestAnyThreeQutritTriple:
    """The paper's claim, any three orthogonal ME states of C^3 (x) C^3, met to 1e-12.

    Bell triples have at most one nonzero off-diagonal cyclic diagonal of B3^dag B2 in the
    eigenbasis of B2^dag B1 (as ``random_me_triple`` does); the delta = 1 triples have both.
    """

    @pytest.mark.parametrize(
        "labels",
        list(itertools.combinations([(m, l) for m in range(3) for l in range(3)], 3)),
        ids=lambda labels: "-".join(f"{m}{l}" for m, l in labels),
    )
    def test_bell_triples(self, labels):
        _assert_perfect(bell_subset(3, list(labels)))

    @pytest.mark.parametrize("seed", range(50))
    def test_both_cyclic_diagonals_nonzero(self, seed):
        ens = near_commuting_triple(1.0, seed)
        b = ens.b_matrices()
        _, e = normal_eigensystem(b[1].conj().T @ b[0])
        a = e.conj().T @ b[2].conj().T @ b[1] @ e
        i = np.arange(3)
        assert min(np.abs(a[i, (i + s) % 3]).min() for s in (1, 2)) > 0.05
        _assert_perfect(ens)

    @pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-7, 1e-6, 1e-5])
    def test_near_commuting_triples(self, delta):
        # cyclic diagonals of size ~delta: the phases are read off them with no magnitude threshold
        for seed in range(20):
            _assert_perfect(near_commuting_triple(delta, seed))


class TestCubProtocol:
    def test_bell_triple_with_fourth_mub(self):
        ens = bell_subset(3, [(0, 0), (1, 0), (1, 1)])
        pairs, family = pairwise_product_eigenbases(ens)
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        cub = find_cub(family, list(mub_prime(3)))
        assert cub is not None
        spec = synthesize_cub_protocol(ens, cub)
        res = evaluate(spec.as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9

    def test_unbiased_vector_annihilates_products(self):
        # soundness: <b|Bi^dag Bj|b> = 0 for every unbiased basis vector
        ens = bell_subset(5, [(0, 0), (1, 0), (0, 1)])
        _, family = pairwise_product_eigenbases(ens)
        cub = find_cub(family, list(mub_prime(5)))
        b_mats = ens.b_matrices()
        for x in range(5):
            col = cub[:, x]
            for i in range(3):
                for j in range(i + 1, 3):
                    val = col.conj() @ (b_mats[i].conj().T @ b_mats[j]) @ col
                    assert abs(val) < 1e-8

    def test_simdiag_with_fourier(self, rng):
        ens = simultaneously_diagonal_ensemble(haar_unitary(4, rng))
        spec = synthesize_cub_protocol(ens, fourier_matrix(4))
        res = evaluate(spec.as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9

    def test_failure_names_pair(self):
        ens = simultaneously_diagonal_ensemble(fourier_matrix(3))
        with pytest.raises(DomainError, match=r"pair \(0, 1\)"):
            synthesize_cub_protocol(ens, np.eye(3, dtype=complex))

    def test_default_candidates_when_no_basis_given(self):
        ens = bell_subset(5, [(0, 0), (1, 0), (0, 1)])
        _, family = pairwise_product_eigenbases(ens)
        cub = find_cub(family, default_cub_candidates(5))
        auto = synthesize_cub_protocol(ens)
        np.testing.assert_array_equal(auto.alice_basis, synthesize_cub_protocol(ens, cub).alice_basis)
        assert evaluate(auto.as_protocol(), ens).success_probability > 1 - 1e-9

    def test_no_default_candidate_raises(self):
        ens = bell_subset(4, [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DomainError, match="no common unbiased basis"):
            synthesize_cub_protocol(ens)

    def test_verdict_takes_no_pairwise_eigensystem(self, monkeypatch):
        from loccdisc import bounds, synth

        calls = []

        def recording(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called on the CUB path")

            return call

        for name in ("pairwise_product_eigenbases", "find_cub", "normal_eigensystem"):
            monkeypatch.setattr(synth, name, recording(name))
        rep = bounds.verdict(bell_subset(5, [(0, 0), (1, 0), (0, 1)]))
        assert rep.possible_via == "cub"
        assert calls == []


class TestFindCub:
    def test_clock_powers_family(self):
        _, z = generalized_pauli(3)
        ens = uniform_ensemble(
            [state_from_matrix(np.linalg.matrix_power(z, p), 3) for p in range(3)]
        )
        _, family = pairwise_product_eigenbases(ens)
        cub = find_cub(family, default_cub_candidates(3))
        assert cub is not None
        # anything unbiased to the computational basis qualifies
        assert np.max(np.abs(np.abs(cub) ** 2 - 1 / 3)) < 1e-8

    def test_full_mub_family_has_no_cub(self):
        fam = mub_prime(3)
        assert find_cub(fam, list(fam)) is None

    def test_empty_family_vacuous(self):
        fam = np.zeros((0, 3, 3), dtype=complex)
        cands = [np.eye(3, dtype=complex)]
        np.testing.assert_allclose(find_cub(fam, cands), np.eye(3), atol=1e-15)

    def test_default_candidates(self):
        assert len(list(default_cub_candidates(5))) == 6
        assert len(list(default_cub_candidates(4))) == 1

    def test_default_candidates_built_lazily(self, monkeypatch):
        def no_eig(m):
            raise AssertionError("the candidate scan runs no eigensolver")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        for n in (2, 3, 5, 7, 11, 13, 17, 19):
            candidates = default_cub_candidates(n)
            np.testing.assert_array_equal(next(candidates), np.eye(n))
            assert len(list(candidates)) == n
        # the lazy scan yields the bases of mub_prime in the same order
        for lazy, eager in zip(default_cub_candidates(5), mub_prime(5), strict=True):
            np.testing.assert_array_equal(lazy, eager)


class TestStackedPairwise:
    """All pairwise products in one stack: the same bases as one product and one eigensystem per pair."""

    @pytest.mark.parametrize(
        "ens",
        [
            bell_subset(11, [(0, 0), (1, 2), (3, 4), (5, 6), (7, 8)]),
            bell_subset(6, [(0, 0), (2, 2), (3, 0), (1, 5)]),
            random_orthogonal_me_triple(8, 2),
            simultaneously_diagonal_ensemble(haar_unitary(8, np.random.default_rng(4))),
        ],
        ids=["bell-n11", "bell-n6", "me-triple-n8", "simdiag-n8"],
    )
    def test_matches_per_pair_eigensystems(self, ens):
        pairs, vecs = pairwise_product_eigenbases(ens)
        b = ens.b_matrices()
        assert pairs == [(i, j) for i in range(ens.k) for j in range(i + 1, ens.k)]
        assert vecs.shape == (len(pairs), ens.dim_a, ens.dim_a) and not vecs.flags.writeable
        for (i, j), basis in zip(pairs, vecs):
            _, ref = normal_eigensystem(b[i].conj().T @ b[j])
            assert np.array_equal(basis.view(float), ref.view(float))

    def test_first_non_normal_pair_named(self, rng):
        # B_0^dag B_1 is unitary (normal); B_0^dag B_2 is a generic, non-normal matrix
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ens = uniform_ensemble([state_from_matrix(np.eye(3), 3), state_from_matrix(haar_unitary(3, rng), 3), state_from_matrix(g, 3)])
        with pytest.raises(DomainError, match=r"pairwise product \(0, 2\) is not orthogonally diagonalizable"):
            pairwise_product_eigenbases(ens)

    def test_explicit_basis_check_names_first_pair(self):
        # the computational basis is unbiased to the Fourier eigenbasis of (0, 1) but not to (0, 2)'s
        ens = bell_subset(3, [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DomainError, match=r"pair \(0, 2\)"):
            synthesize_cub_protocol(ens, np.eye(3, dtype=complex))


def _oracle_cases():
    """Seeded Bell subsets at prime n <= 17 (k = 2..n+1), simultaneously diagonal sets and ME triples."""
    cases = []
    for n in (2, 3, 5, 7, 11, 13, 17):
        rng = np.random.default_rng(n)
        for k in sorted({2, 3, max(k for k in range(2, n + 2) if k * (k - 1) // 2 <= n), n + 1}):
            labels = rng.choice(n * n, size=k, replace=False)
            cases.append(pytest.param(n, [(int(x) // n, int(x) % n) for x in labels], id=f"bell-n{n}-k{k}"))
    for n in range(2, 10):
        cases.append(pytest.param(n, "simdiag", id=f"simdiag-n{n}"))
        cases.append(pytest.param(n, "me-triple", id=f"me-triple-n{n}"))
    return cases


class TestZeroDiagonalScreen:
    """The CUB screen tests <b|B_i^dag B_j|b> = 0 on the product stack instead of unbiasedness to eigenbases."""

    @pytest.mark.parametrize("n, kind", _oracle_cases())
    def test_same_first_candidate_as_eigenbasis_oracle(self, n, kind):
        if kind == "simdiag":
            ens = simultaneously_diagonal_ensemble(haar_unitary(n, np.random.default_rng(n)))
        elif kind == "me-triple":
            ens = random_orthogonal_me_triple(n, n)
        else:
            ens = bell_subset(n, kind)
        _, family = pairwise_product_eigenbases(ens)
        expected = find_cub(family, default_cub_candidates(n))
        if expected is None:
            with pytest.raises(DomainError, match="no common unbiased basis"):
                synthesize_cub_protocol(ens)
        else:
            got = synthesize_cub_protocol(ens).alice_basis
            assert np.array_equal(got.view(float), expected.conj().view(float))

    def test_oracle_cases_cover_hits_and_misses(self):
        outcomes = set()
        for param in _oracle_cases():
            n, kind = param.values
            if kind in ("simdiag", "me-triple"):
                continue
            _, family = pairwise_product_eigenbases(bell_subset(n, kind))
            outcomes.add(find_cub(family, default_cub_candidates(n)) is None)
        assert outcomes == {True, False}

    def test_non_normal_product_raises(self):
        # the computational product basis of C^2 (x) C^2: B_0^dag B_2 = 2|0><1| is nilpotent
        ens = uniform_ensemble([BipartiteState(2, 2, np.eye(4, dtype=complex)[i]) for i in range(4)])
        b = ens.b_matrices()
        for i in range(4):
            for j in range(i + 1, 4):
                # every vector of the computational basis zeroes every diagonal ...
                assert np.all(np.diag(b[i].conj().T @ b[j]) == 0)
        # ... so only the normality test keeps the construction from claiming this set
        with pytest.raises(DomainError, match=r"pairwise product \(0, 2\) is not orthogonally diagonalizable"):
            synthesize_cub_protocol(ens)
        with pytest.raises(DomainError, match=r"pairwise product \(0, 2\) is not orthogonally diagonalizable"):
            synthesize_cub_protocol(ens, np.eye(2, dtype=complex))
        assert verdict(ens).possible_via == "product-basis"

    def test_explicit_basis_must_be_orthonormal(self):
        ens = bell_subset(3, [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DomainError, match="not orthonormal"):
            synthesize_cub_protocol(ens, 2 * fourier_matrix(3))
