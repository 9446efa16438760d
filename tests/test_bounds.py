import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loccdisc import (
    BipartiteState,
    DomainError,
    StateEnsemble,
    bell_basis,
    bell_subset,
    entropy_bound_bits,
    evaluate,
    f_bounds,
    f_mixed_dims_bounds,
    fme_bounds,
    g_bounds_bits,
    haar_unitary,
    me_state,
    random_orthogonal_me_triple,
    schmidt_bound,
    uniform_ensemble,
    verdict,
)
from loccdisc import bounds, serial, synth
from loccdisc.bounds import VERDICT_IMPOSSIBLE, VERDICT_POSSIBLE, VERDICT_UNKNOWN
from loccdisc.errors import ToleranceError
from loccdisc.library import build_library
from loccdisc.locc import BOB
from loccdisc.qstate import is_unitary, schmidt

from conftest import bob_first_product_set, random_orthogonal_pair, random_state


def _product_basis(dim_a, dim_b):
    states = []
    for a in range(dim_a):
        for b in range(dim_b):
            amps = np.zeros(dim_a * dim_b, dtype=complex)
            amps[a * dim_b + b] = 1.0
            states.append(BipartiteState(dim_a, dim_b, amps))
    return uniform_ensemble(states)


class TestFmeBounds:
    def test_examples(self):
        assert fme_bounds(4, 2) == (0.5, 0.5)
        assert fme_bounds(5, 3) == (0.6, 0.6)
        assert fme_bounds(2, 5) == (1.0, 1.0)
        assert fme_bounds(3, 3) == (1.0, 1.0)

    def test_general_window(self):
        lo, hi = fme_bounds(7, 4)
        assert lo == pytest.approx(2 / 7)
        assert hi == pytest.approx(4 / 7)

    def test_fewer_states_than_dimension(self):
        assert fme_bounds(3, 5) == (2 / 3, 1.0)

    def test_domain_errors(self):
        for k, n in ((1, 3), (10, 3), (2, 1)):
            with pytest.raises(DomainError):
                fme_bounds(k, n)

    def test_exact_values_nonincreasing_in_k(self):
        vals = [fme_bounds(k, 3)[0] for k in range(3, 10)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestFBounds:
    def test_examples(self):
        assert f_bounds(3, 4) == (2 / 3, 2 / 3)
        assert f_bounds(9, 3) == (2 / 9, 3 / 9)
        assert f_bounds(2, 7) == (1.0, 1.0)
        assert f_bounds(4, 5) == (0.5, 0.5)

    def test_exact_values_independent_of_n(self):
        for k in (2, 3, 4):
            vals = {f_bounds(k, n) for n in range(2, 7) if k <= n * n}
            assert len(vals) == 1

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 8), k=st.integers(2, 64))
    def test_window_shape(self, n, k):
        if k > n * n:
            with pytest.raises(DomainError):
                f_bounds(k, n)
            return
        lo, hi = f_bounds(k, n)
        assert 0 < lo <= hi <= 1

    def test_exact_values_nonincreasing_in_k(self):
        # monotonicity holds where the window collapses to an exact value
        exact = [f_bounds(k, 5)[0] for k in (2, 3, 4)]
        assert exact == sorted(exact, reverse=True)


class TestMixedDims:
    def test_tight_case(self):
        assert f_mixed_dims_bounds(4, 2, 3) == (0.5, 0.5)

    def test_beyond_square_window(self):
        lo, hi = f_mixed_dims_bounds(5, 2, 3)
        assert hi == pytest.approx(3 / 5)
        assert lo == pytest.approx(2 / 5)

    def test_two_states(self):
        assert f_mixed_dims_bounds(2, 2, 2) == (1.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_mixed_dims_bounds(7, 2, 3)
        with pytest.raises(DomainError):
            f_mixed_dims_bounds(2, 3, 2)


class TestSchmidtBound:
    def test_full_bell_basis(self):
        assert schmidt_bound(bell_basis(2)) == pytest.approx(0.5)
        assert schmidt_bound(bell_basis(3)) == pytest.approx(1 / 3)

    def test_me_subset_value(self):
        ens = bell_subset(3, [(0, 0), (0, 1), (1, 0), (2, 2)])
        assert schmidt_bound(ens) == pytest.approx(3 / 4)

    def test_product_basis_gives_one(self):
        assert schmidt_bound(_product_basis(2, 2)) == pytest.approx(1.0)

    def test_nonuniform_rejected(self):
        ens = StateEnsemble(tuple(bell_basis(2).states), np.array([0.4, 0.3, 0.2, 0.1]))
        with pytest.raises(DomainError, match="equally probable"):
            schmidt_bound(ens)


class TestEntropyBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bell_basis_gives_log_n(self, n):
        assert abs(entropy_bound_bits(bell_basis(n)) - math.log2(n)) < 1e-10

    def test_single_product_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        ens = uniform_ensemble([BipartiteState(2, 2, amps)])
        assert abs(entropy_bound_bits(ens)) < 1e-12

    def test_product_basis_two_bits(self):
        assert abs(entropy_bound_bits(_product_basis(2, 2)) - 2.0) < 1e-10


class TestGBounds:
    def test_examples(self):
        lo, hi = g_bounds_bits(4, 2)
        assert (lo, hi) == (0.5, 1.0)
        lo, hi = g_bounds_bits(9, 3)
        assert lo == pytest.approx(2 / 9)
        assert hi == pytest.approx(math.log2(3))
        assert g_bounds_bits(2, 2) == (1.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            g_bounds_bits(1, 2)
        with pytest.raises(DomainError):
            g_bounds_bits(5, 2)


def _reference_windows(k, m, n, me):
    """The (f, f_me, g) windows by the explicit domain guards verdict once carried."""
    f = fme = g = (None, None)
    if 2 <= k:
        if m == n and k <= n * n:
            f = f_bounds(k, n)
        elif min(m, n) >= 2 and k <= m * n:
            f = f_mixed_dims_bounds(k, min(m, n), max(m, n))
    if me and 2 <= k <= n * n:
        fme = fme_bounds(k, n)
    if m == n and 2 <= k <= n * n:
        g = g_bounds_bits(k, n)
    return f + fme + g


class TestVerdict:
    def test_full_bell2_impossible(self):
        rep = verdict(bell_basis(2))
        assert rep.verdict == VERDICT_IMPOSSIBLE
        schmidt_witness = [w for w in rep.witnesses if w.name == "schmidt-weight"]
        assert schmidt_witness and schmidt_witness[0].value == pytest.approx(0.5)
        assert schmidt_witness[0].violated

    def test_four_me_qutrits_impossible(self):
        rep = verdict(bell_subset(3, [(0, 0), (0, 1), (1, 0), (2, 2)]))
        assert rep.verdict == VERDICT_IMPOSSIBLE
        vals = {w.name: w.value for w in rep.witnesses if w.kind == "success"}
        assert vals["schmidt-weight"] == pytest.approx(0.75)
        assert vals["unilateral-bob"] == pytest.approx(0.75)

    def test_random_triple_possible(self):
        rep = verdict(random_orthogonal_me_triple(3, 42))
        assert rep.verdict == VERDICT_POSSIBLE
        assert rep.possible_via == "three-qutrit"

    def test_product_basis_possible(self):
        rep = verdict(_product_basis(2, 2))
        assert rep.verdict == VERDICT_POSSIBLE
        assert rep.possible_via == "product-basis"

    def test_two_state_possible(self, rng):
        s1, s2 = random_orthogonal_pair(rng, 2, 3)
        rep = verdict(uniform_ensemble([s1, s2]))
        assert rep.verdict == VERDICT_POSSIBLE
        assert rep.possible_via == "two-state"

    def test_bell_subset_cub_possible(self):
        rep = verdict(bell_subset(5, [(0, 0), (1, 0), (0, 1)]))
        assert rep.verdict == VERDICT_POSSIBLE
        assert rep.possible_via in ("cub", "three-qutrit")

    def test_bell4_census(self):
        # every 4-subset of bell_basis(4), one per class under translation by a Bell label
        labels = [(m, l) for m in range(4) for l in range(4)]
        classes = {
            min(tuple(sorted(((m + a) % 4, (l + b) % 4) for m, l in subset)) for a, b in labels)
            for subset in itertools.combinations(labels, 4)
        }
        reports = [verdict(bell_subset(4, subset)) for subset in sorted(classes)]
        counts = Counter((rep.verdict, rep.possible_via) for rep in reports)
        assert len(classes) == 122
        assert counts == {(VERDICT_POSSIBLE, "cub"): 20, (VERDICT_UNKNOWN, None): 102}

    def test_windows_over_whole_domain(self, monkeypatch):
        # every k <= mn for m, n <= 6, k = 1, m > n and the ME flag (1x1 states are ME);
        # synthesis does not touch the windows, so it is skipped to keep the sweep fast
        monkeypatch.setattr(bounds, "_try_synthesizers", lambda ens: (None, None))
        seen = set()
        for m, n in itertools.product(range(1, 7), repeat=2):
            families = [_product_basis(m, n)] + ([bell_basis(n)] if m == n >= 2 else [])
            for family, k in itertools.product(families, range(1, m * n + 1)):
                ens = uniform_ensemble(family.states[:k])
                me = ens.is_maximally_entangled(1e-10)
                rep = verdict(ens)
                got = (rep.f_lower, rep.f_upper, rep.fme_lower, rep.fme_upper, rep.g_lower_bits, rep.g_upper_bits)
                assert got == _reference_windows(k, m, n, me), (k, m, n, me)
                seen.add((k, m, n, me))
        assert len(seen) == 441 + 90  # every (k, m, n) with product states, every square n >= 2 with Bell states

    @pytest.mark.parametrize("dims, k", [((12, 3), 2), ((3, 2), 6), ((3, 2), 4), ((4, 2), 5)], ids=["12x3-k2", "3x2-k6", "3x2-k4", "4x2-k5"])
    def test_f_window_either_order(self, dims, k):
        # the bound covers C^n (x) C^m in either order, so swapping the parties keeps the window
        windows = []
        for dim_a, dim_b in (dims, dims[::-1]):
            rep = verdict(uniform_ensemble(_product_basis(dim_a, dim_b).states[:k]))
            windows.append((rep.f_lower, rep.f_upper))
        assert windows[0] == windows[1] and None not in windows[0]

    def test_large_dim_triple_unknown(self):
        # whether three orthogonal ME states are distinguishable beyond
        # qutrits is open; no witness fires and no synthesizer applies
        rep = verdict(random_orthogonal_me_triple(4, 5))
        assert rep.verdict == VERDICT_UNKNOWN

    def test_nonorthogonal_rejected(self):
        ens = uniform_ensemble([me_state(2), me_state(2)])
        with pytest.raises(DomainError):
            verdict(ens)

    def test_nonorthogonal_refused_before_any_spectrum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spectral call before the orthogonality check")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        ens = uniform_ensemble([me_state(2), me_state(2)])
        with pytest.raises(DomainError, match="orthogonal ensembles"):
            verdict(ens)
        assert "_witness_pass" not in ens.__dict__

    def test_report_fields(self):
        rep = verdict(bell_basis(2))
        assert (rep.k, rep.m, rep.n) == (4, 2, 2)
        assert rep.lambda_max == pytest.approx(0.5)
        assert rep.fme_lower == pytest.approx(0.5)
        assert rep.fme_upper == pytest.approx(0.5)
        assert rep.entropy_upper_bits == pytest.approx(1.0)
        assert rep.g_lower_bits == pytest.approx(0.5)


def _sweep_2x2_prod2(reps):
    """The prod-2 sets of the first ``reps`` repetitions of the seeded 2x2 sweep, as (k, ensemble).

    Every kind of each repetition is drawn, in the sweep's order, so the
    generator stays on the full sweep's stream: haar sets draw one
    4x4 Haar unitary, and a prod-p set draws ua, ub, p product labels and
    a 4x(k-p) Gaussian block, keeping the p product columns and the QR
    completion's next k-p columns.
    """
    rng = np.random.default_rng(2026)
    sets = []
    for _ in range(reps):
        for k in (3, 4):
            for p in (None, 1, 2, 3):
                if p is None:
                    haar_unitary(4, rng)
                    continue
                ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
                idx = rng.choice(4, p, replace=False)
                g = rng.standard_normal((4, k - p)) + 1j * rng.standard_normal((4, k - p))
                prod = np.array([np.kron(ua[:, i // 2], ub[:, i % 2]) for i in idx]).T
                cols = np.concatenate([prod, np.linalg.qr(np.concatenate([prod, g], axis=1))[0][:, p:k]], axis=1)
                if p == 2:
                    sets.append((k, uniform_ensemble([BipartiteState(2, 2, c) for c in cols.T])))
    return sets


class TestBobFirst:
    def test_rows_follow_every_alice_first_row(self):
        names = list(synth.RUNGS)
        alice = [name for name in names if not name.endswith("/bob-first")]
        assert names == alice + [f"{name}/bob-first" for name in alice]

    def test_product_set_settled_bob_first(self):
        ens = bob_first_product_set()
        rep = verdict(ens)
        assert (rep.verdict, rep.possible_via) == (VERDICT_POSSIBLE, "product-basis/bob-first")
        with pytest.raises(DomainError):
            synth.RUNGS["product-basis"](ens)
        via, protocol = bounds._try_synthesizers(ens)
        assert via == "product-basis/bob-first" and protocol.root.actor == BOB
        assert evaluate(protocol, ens).success_probability >= 1 - 1e-9

    def test_gate_scores_the_original_ensemble(self, monkeypatch):
        # the swapped ensemble's perfect protocol, not swapped back, is not perfect on the original one
        ens = bob_first_product_set()
        unswapped = lambda e: synth.rung_protocol(synth.RUNGS["product-basis"](e.swapped()))[0]
        assert evaluate(unswapped(ens), ens.swapped()).success_probability >= 1 - 1e-9
        assert evaluate(unswapped(ens), ens).success_probability < 1 - 1e-9
        monkeypatch.setitem(synth.RUNGS, "product-basis/bob-first", unswapped)
        rep = verdict(ens)
        assert (rep.verdict, rep.possible_via) == (VERDICT_UNKNOWN, None)

    def test_sweep_prod2_sets(self):
        # the sweep's 40 repetitions: the 25 sets the Bob-first rows settle, all of them prod-2
        sets = _sweep_2x2_prod2(40)
        vias = [bounds._try_synthesizers(ens) for _, ens in sets]
        counts = Counter((k, via) for (k, _), (via, _) in zip(sets, vias))
        assert counts == {
            (3, "product-basis"): 19,
            (4, "product-basis"): 17,
            (3, "product-basis/bob-first"): 11,
            (4, "product-basis/bob-first"): 14,
            (3, None): 10,
            (4, None): 9,
        }
        for (_, ens), (via, protocol) in zip(sets, vias):
            if via == "product-basis/bob-first":
                assert protocol.root.actor == BOB
                assert evaluate(protocol, ens).success_probability >= 1 - 1e-9


class TestConsistencyWithEvaluate:
    def test_achieved_success_below_caps(self):
        # value-level restatement of the discard scaling: (j/k) * inner success
        from loccdisc import discard_protocol, two_state_protocol

        ens = bell_basis(2)
        inner = two_state_protocol(uniform_ensemble(ens.states[:2])).as_protocol()
        res = evaluate(discard_protocol(inner, [0, 1], 4), ens)
        assert res.success_probability <= schmidt_bound(ens) + 1e-9
        assert res.mutual_information_bits <= entropy_bound_bits(ens) + 1e-9


def _reference_witnesses(ens):
    """lambda_max, entropy cap, unilateral sides and ME flag, one state at a time."""
    lam = max(schmidt(psi)[0][0] for psi in ens.states)
    rho_a = np.zeros((ens.dim_a, ens.dim_a), dtype=complex)
    rho_b = np.zeros((ens.dim_b, ens.dim_b), dtype=complex)
    cond = 0.0
    for p, psi in zip(ens.priors, ens.states):
        s = psi.amplitude_matrix
        rho_a += p * (s @ s.conj().T)
        rho_b += p * (s.T @ s.conj())
        cond += float(p) * bounds.von_neumann_entropy_bits(s @ s.conj().T)
    entropy = bounds.von_neumann_entropy_bits(rho_a) + bounds.von_neumann_entropy_bits(rho_b) - cond

    def agree(mats):
        return all(np.max(np.abs(x.conj().T @ x - mats[0].conj().T @ mats[0])) <= 1e-8 for x in mats)

    # both sides on the dim rho scale: sqrt(dim_b) S_i is to Alice what B_i = sqrt(dim_a) S_i^T is to Bob
    alice = [np.sqrt(ens.dim_b) * psi.amplitude_matrix for psi in ens.states]
    sides = (agree(alice), agree([psi.b_matrix for psi in ens.states]))
    me = ens.dim_a == ens.dim_b and all(is_unitary(psi.b_matrix, 1e-10) for psi in ens.states)
    return lam, entropy, sides, me


class TestUnilateralScale:
    def test_alice_side_reads_dim_b_rho_b(self):
        # state 2 is state 1 with Bob's basis turned by theta: its rho_B moves by about theta (p - q) = 7.5e-9,
        # between 1e-8 / dim_b and 1e-8, and its rho_A only by rounding
        p, theta = 0.75, 1.5e-8
        s0 = np.diag([np.sqrt(p), np.sqrt(1.0 - p)])
        turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        ens = uniform_ensemble([BipartiteState(2, 2, s.reshape(-1)) for s in (s0, s0 @ turn.T)])
        rho_b = ens.swapped().reduced_states
        assert 1e-8 / ens.dim_b < np.max(np.abs(rho_b[1] - rho_b[0])) < 1e-8
        assert bounds._unilateral_sides(ens) == (False, True)
        assert _reference_witnesses(ens)[2] == (False, True)
        names = [w.name for w in bounds.success_upper_bounds(ens)]
        assert "unilateral-bob" in names and "unilateral-alice" not in names


def _low_rank_state(rng, dim_a, dim_b, rank):
    a = rng.standard_normal((dim_a, rank)) + 1j * rng.standard_normal((dim_a, rank))
    b = rng.standard_normal((rank, dim_b)) + 1j * rng.standard_normal((rank, dim_b))
    s = a @ b
    return BipartiteState(dim_a, dim_b, s.reshape(-1) / np.linalg.norm(s))


def _seeded_witness_ensemble(seed):
    """Rectangular (3x12), low Schmidt rank or non-uniform ensembles, by seed."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    if seed % 3 == 0:
        states = [random_state(rng, 3, 12) for _ in range(k)]
    elif seed % 3 == 1:
        da, db = (int(x) for x in rng.integers(2, 7, size=2))
        states = [_low_rank_state(rng, da, db, int(rng.integers(1, min(da, db) + 1))) for _ in range(k)]
    else:
        states = [random_state(rng, 4, 4) for _ in range(k)]
    priors = rng.dirichlet(np.ones(k)) if seed % 2 else None
    return StateEnsemble(tuple(states), priors)


class TestWitnessPass:
    """The batched spectral pass agrees with per-state Schmidt decompositions."""

    @staticmethod
    def _assert_matches_reference(ens):
        lam, entropy, sides, me = _reference_witnesses(ens)
        assert abs(bounds.lambda_max(ens) - lam) <= 1e-14
        if ens.is_uniform():
            assert abs(schmidt_bound(ens) - min(1.0, lam * ens.dim_a * ens.dim_b / ens.k)) <= 1e-14
        assert abs(entropy_bound_bits(ens) - entropy) <= 1e-14
        assert bounds._unilateral_sides(ens) == sides
        assert ens.is_maximally_entangled(1e-10) == me

    @pytest.mark.parametrize("entry", build_library(), ids=lambda e: e.name)
    def test_library_matches_reference(self, entry):
        self._assert_matches_reference(entry.ensemble)

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_ensembles_match_reference(self, seed):
        self._assert_matches_reference(_seeded_witness_ensemble(seed))

    def test_coefficients_cached_and_read_only(self):
        ens = _seeded_witness_ensemble(1)
        coeffs = ens.schmidt_coefficients
        assert coeffs is ens.schmidt_coefficients
        assert coeffs.shape == (ens.k, min(ens.dim_a, ens.dim_b))
        with pytest.raises(ValueError):
            coeffs[0, 0] = 0.5

    def test_perturbed_svd_fails_operator_norm_check(self, monkeypatch):
        svd = np.linalg.svd

        def perturbed(a, *args, compute_uv=True, **kwargs):
            out = svd(a, *args, compute_uv=compute_uv, **kwargs)
            return out if compute_uv else out * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        with pytest.raises(ToleranceError, match="operator-norm identity"):
            verdict(bell_subset(3, [(0, 0), (0, 1), (1, 0), (2, 2)]))

    def test_perturbed_eigvalsh_fails_operator_norm_check(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def perturbed(a, *args, **kwargs):
            return eigvalsh(a, *args, **kwargs) * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(ToleranceError, match="operator-norm identity"):
            verdict(bell_subset(3, [(0, 0), (0, 1), (1, 0), (2, 2)]))

    @pytest.mark.parametrize(
        "ens",
        [
            bell_subset(3, [(0, 0), (1, 0), (0, 1)]),
            bell_subset(3, [(0, 0), (0, 1), (1, 0), (2, 2)]),
            uniform_ensemble(random_orthogonal_pair(np.random.default_rng(3), 3, 12)),
        ],
        ids=["bell3-k3", "bell3-k4", "pair-3x12"],
    )
    def test_verdict_makes_one_batched_eigvalsh(self, monkeypatch, ens):
        # every eigvalsh call counts: the rho_A^i and both prior means share one call when dim_a == dim_b,
        # and mean rho_B takes a second one otherwise
        eigvalsh = np.linalg.eigvalsh
        stacks = []

        def counting(a, *args, **kwargs):
            stacks.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        verdict(ens)
        k, m, n = ens.k, ens.dim_a, ens.dim_b
        assert stacks == ([(k + 2, m, m)] if m == n else [(k + 1, m, m), (1, n, n)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: bell_subset(3, [(0, 0), (1, 0), (0, 1)]),
            lambda: bell_subset(3, [(0, 0), (0, 1), (1, 0), (2, 2)]),
            lambda: uniform_ensemble(random_orthogonal_pair(np.random.default_rng(3), 3, 12)),
        ],
        ids=["bell3-k3", "bell3-k4", "pair-3x12"],
    )
    def test_verdict_builds_one_reduced_state_stack_per_party(self, monkeypatch, build):
        # the witnesses and is_maximally_entangled share rho_A^i, and the unilateral and entropy caps rho_B^i;
        # a builder, not an ensemble, so the spy counts the first, cache-filling verdict of a fresh ensemble
        ens = build()
        from loccdisc import ensembles, qstate

        reduced_state = qstate.reduced_state
        operands = []

        def counting(amplitudes):
            operands.append(np.shape(amplitudes))
            return reduced_state(amplitudes)

        monkeypatch.setattr(qstate, "reduced_state", counting)
        monkeypatch.setattr(ensembles, "reduced_state", counting)
        verdict(ens)
        assert operands == [(ens.k, ens.dim_a, ens.dim_b), (ens.k, ens.dim_b, ens.dim_a)]

    @pytest.mark.parametrize("labels", [[(0, 0), (1, 0), (0, 1)], [(0, 0), (0, 1), (1, 0), (2, 2)]])
    def test_verdict_makes_one_batched_svd(self, monkeypatch, labels):
        svd = np.linalg.svd
        calls = []

        def counting(a, *args, compute_uv=True, **kwargs):
            if not compute_uv:
                calls.append(np.shape(a))
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        verdict(bell_subset(3, labels))
        assert calls == [(len(labels), 3, 3)]


# sha256 of each library entry's `bounds` report, serialized as the CLI prints it.  The digests
# pin the floating-point output of one numpy/BLAS build.
LIBRARY_BOUNDS_PINS = {
    "bell-standard-full-2": "012f2addf2ba9ef47653ee6e24a9c64d4a9817fddc13bafe915db4bc9b54fe88",
    "bell-standard-full-3": "7d3737085e646e87e7a2edb0d035cfb090166437d226aa01fd7f43440558616a",
    "bell-standard-full-4": "658ade262db123c2dc1e2fa2e07b859ccda8571292f154d05e79ccf20b79b5ac",
    "bell-standard-full-5": "0e6964da002ff1f5946388617b368e8082daeb69f729bc4022db7146195d7b85",
    "bell-standard-sub-3-k4": "809de0eb61a9a95f7c24c1e066204ed69752685834398e4333f88005229ef645",
    "bell-standard-sub-3-k6": "a13da2f38d9c64f770e581689423cf514be54e43e2d11f001d6881774651f72b",
    "bell-standard-sub-4-k5": "03d247a2eeb52d1173c462d0c15fd0ba49f02677f27c9899a0f4d7c64ab8e161",
    "three-qutrit-seed0": "55bc01eb668b1c33d6cb20ce98eb2715bca63d7575ed8c181783bedfa70a50b4",
    "three-qutrit-seed1": "c782244894c344dc466001f0a3620211ff3626ad5ed6ce81258fdc9e670800ef",
    "three-qutrit-seed2": "d57bba442b0193600c30e95fe49950d371f4199f48c644e8f140d4be9bd2ca72",
    "three-qutrit-seed3": "c16913d5c764f235d5362b74b5188060833d30b9f68eb05e641992dfd8b33155",
    "three-qutrit-seed4": "9d69518d593bafac4b4380a7098350fab442b1bd74731bef77ee37de84c1aea9",
    "three-qutrit-bell-triple": "a687f6e7115c1cf3af478e3b3cd5be0fe437b268b758b1084022ebea7e7e04cf",
    "cub-3-k3": "a687f6e7115c1cf3af478e3b3cd5be0fe437b268b758b1084022ebea7e7e04cf",
    "cub-3-k2": "dd5b21ff70d0f3c4747e04ea4b1bea7a0d68ffc55cbad02c616a17fefd31fbdb",
    "cub-5-k3": "2053ac5db55833a96460134460c9521fbbd744509eeb7f3877791237af7452e5",
    "cub-5-k2": "7cca1ba09c4af209a48acc58b8384ddcaf5e2cce605ce65fb7b2b1642b3b14c1",
    "cub-7-k4": "95a76b59d0a3cbc9d1575f06abcb5b09f167a9d76bf2041bba72481fc9c657c3",
    "cub-7-k3": "2c9cdce1d68c75022043dc4c7db29fd7308a2a609e0e700e519ff73caa00b70f",
    "discard-bell2-keep2of3": "ccaebde4d62a60c30337cbd601576e37e534eadd323b64b0e19ebe5413a05271",
    "discard-bell2-keep2of4": "012f2addf2ba9ef47653ee6e24a9c64d4a9817fddc13bafe915db4bc9b54fe88",
    "discard-bell3-keep3of4": "809de0eb61a9a95f7c24c1e066204ed69752685834398e4333f88005229ef645",
    "discard-bell3-keep3of5": "900569c94d535069817427c228f6f927f65dab87236dadf0078208b35e543618",
    "discard-bell3-keep3of7": "f6991be1f40196111e6d7d6605c3da80c1d861b0c0cbe07f5b15251df74001cb",
    "discard-bell3-keep3of9": "7d3737085e646e87e7a2edb0d035cfb090166437d226aa01fd7f43440558616a",
    "two-state-bell2": "4b179640966cc1c5060534a20ae341223e9cf7d4b101fc0f60f15dfc987b8dd2",
    "two-state-product": "bf55da83e494f0fdb9b2a5392f193d4d17c83d6a845885fa16d0fcb5cbb9a5cc",
    "two-state-random-2x3": "459e1234eb7a3ae26581e0eeae3351e04b13d8e2d04ccd228f21e4ca7b2ed86b",
    "blind-guess-bell2": "012f2addf2ba9ef47653ee6e24a9c64d4a9817fddc13bafe915db4bc9b54fe88",
    "blind-guess-prod23": "eb7a031cd8d64e5941b062a87a266c798b602c7c3da659bca4aa3e996976648b",
    "product-basis-2x2": "7f0ed1b82222a92bae6b6de0a61ad67af8ef606fb2875c65a3bdf95eb9683160",
    "product-basis-2x3": "eb7a031cd8d64e5941b062a87a266c798b602c7c3da659bca4aa3e996976648b",
    "simdiag-fourier3": "a687f6e7115c1cf3af478e3b3cd5be0fe437b268b758b1084022ebea7e7e04cf",
    "simdiag-haar4": "16b617e321c669bd57e5c53220bd380467a44cec34054521eddb1f6f1cfa8b16",
    "single-state": "b2106208fcf2e41b8c4fe652122ac1280c9793a163f4551db86db62ec18986a3",
}


class TestLibraryBoundsBytes:
    def test_every_entry_pinned(self):
        assert sorted(LIBRARY_BOUNDS_PINS) == sorted(entry.name for entry in build_library())

    @pytest.mark.parametrize("entry", build_library(), ids=lambda e: e.name)
    def test_report_bytes(self, entry):
        doc = serial.bounds_report_to_json(verdict(entry.ensemble))
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert hashlib.sha256(text.encode()).hexdigest() == LIBRARY_BOUNDS_PINS[entry.name]


def _low_rank_pair(seed, dim_a, dim_b, rank):
    """Two orthogonal states of Schmidt rank ``rank``: their Alice factors span orthogonal subspaces."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((dim_a, 2 * rank)) + 1j * rng.standard_normal((dim_a, 2 * rank)))[0]
    states = []
    for u in (q[:, :rank], q[:, rank:]):
        s = u @ (rng.standard_normal((rank, dim_b)) + 1j * rng.standard_normal((rank, dim_b)))
        states.append(BipartiteState(dim_a, dim_b, s.reshape(-1) / np.linalg.norm(s)))
    return uniform_ensemble(states)


def _rotated_product_basis(seed, dim_a, dim_b):
    """The product basis u_a (x) w_b for seeded Haar unitaries u and w."""
    rng = np.random.default_rng(seed)
    u, w = haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)
    return uniform_ensemble([BipartiteState(dim_a, dim_b, np.kron(u[:, a], w[:, b])) for a in range(dim_a) for b in range(dim_b)])


def _beyond_library_sets():
    """Sets outside ``LIBRARY_BOUNDS_PINS``: the library under Dirichlet priors, seeded pairs, rotated product bases."""
    rng = np.random.default_rng(2026)
    sets = {f"dirichlet-{e.name}": StateEnsemble(e.ensemble.states, rng.dirichlet(np.ones(e.ensemble.k))) for e in build_library()}
    for seed in range(3):
        sets[f"pair-3x12-s{seed}"] = uniform_ensemble(random_orthogonal_pair(np.random.default_rng(seed), 3, 12))
        sets[f"product-3x4-s{seed}"] = _rotated_product_basis(seed, 3, 4)
        sets[f"product-2x5-s{seed}"] = _rotated_product_basis(seed, 2, 5)
    for seed, (dim_a, dim_b, rank) in enumerate([(2, 6, 1), (4, 5, 2), (6, 6, 3)]):
        sets[f"low-rank-{dim_a}x{dim_b}-r{rank}"] = _low_rank_pair(seed, dim_a, dim_b, rank)
    return sets


# sha256 of the `bounds` report of each set, read back from its explicit JSON descriptor and serialized as
# the CLI prints it; the same numpy/BLAS build as LIBRARY_BOUNDS_PINS.
BEYOND_LIBRARY_PINS = {
    "dirichlet-bell-standard-full-2": "d0b119b0a0767b41606b07e2aba688ce6b04e40aa1dfd2d5111e681a356c4f9c",
    "dirichlet-bell-standard-full-3": "ba2f9fb3f6a09ef94bd51149be399f2386eb7bbe3554230620a4e47b4810c070",
    "dirichlet-bell-standard-full-4": "1ebce08f3053a58acf9f38699f8c35de2222716d4c3afc79af93da36cfa18256",
    "dirichlet-bell-standard-full-5": "8c7c15c7acaebe0d74b5bd48a99c6e1359e82567d70809d1e1f31c65e8508103",
    "dirichlet-bell-standard-sub-3-k4": "c3ae810163ea7691c721f6bce589d6e6a68e559e64fe95ed52dc6fbb20d20a85",
    "dirichlet-bell-standard-sub-3-k6": "53953702aeda7292545db783a9c54d9026c5667cff0a5721e3688af61bd103f5",
    "dirichlet-bell-standard-sub-4-k5": "9d32f19edd8d5094329dd0a2341dc34d530fb3a1b927a815744d2ba4f36a4d96",
    "dirichlet-blind-guess-bell2": "d0b119b0a0767b41606b07e2aba688ce6b04e40aa1dfd2d5111e681a356c4f9c",
    "dirichlet-blind-guess-prod23": "fef9a6e548359243fa997dd1ba139d03feeb440fbff374f5bb7ecc55ea36e6b8",
    "dirichlet-cub-3-k2": "6df4258bd4821ab15ad29dbf0a35c16e48d2b446ffa47d7e84408d1f177a53cc",
    "dirichlet-cub-3-k3": "a5d5108c12aee7863d3e2a0b27f24ac33760099f98ba87813514918fa8f6382c",
    "dirichlet-cub-5-k2": "6cfeb35e9c51e3033f949155c8d835147ba7daca2812e1a6d687464644903e83",
    "dirichlet-cub-5-k3": "f6e7bd1ee833d5abf2354cefc2b447aed799c2aa349685d033752177dbf3c8ad",
    "dirichlet-cub-7-k3": "f4550068933e4b384e8e0ebef7da17e05db08dfcf1a900cfed57e6d87cda9b43",
    "dirichlet-cub-7-k4": "3b8696e55396324a4d093968aa11433bbed387c876954c8545730035fd4c5642",
    "dirichlet-discard-bell2-keep2of3": "45ad9cede5c6fb1e6ee246452ec387c4996440fd5159e7c635736f456d9a9a2f",
    "dirichlet-discard-bell2-keep2of4": "10b49800c5164521e1ecc13c53467fd01dd476b805653bf90047c439f9895455",
    "dirichlet-discard-bell3-keep3of4": "c3ae810163ea7691c721f6bce589d6e6a68e559e64fe95ed52dc6fbb20d20a85",
    "dirichlet-discard-bell3-keep3of5": "1a1e7e634a8cf1e30d0bc33263bbdbbae8aff6dc6c2cac073bf8bec8f7c3efe5",
    "dirichlet-discard-bell3-keep3of7": "48a50ef7f1ca91344bd24b7df96fea411abf02cd74a2b137539161d70f81eec4",
    "dirichlet-discard-bell3-keep3of9": "ba2f9fb3f6a09ef94bd51149be399f2386eb7bbe3554230620a4e47b4810c070",
    "dirichlet-product-basis-2x2": "95f2976a90ff12f840100d46de167e2762d1d5cd7cdd106a4117c351a8682706",
    "dirichlet-product-basis-2x3": "46211b66f323cc3d6c98388ec1ddc9986fa7f29ec330e573515b3b890ad34d13",
    "dirichlet-simdiag-fourier3": "a5d5108c12aee7863d3e2a0b27f24ac33760099f98ba87813514918fa8f6382c",
    "dirichlet-simdiag-haar4": "e027015737266f6635698d268fe70a078143655a1d27d03e0dd3e6a67eafdc8c",
    "dirichlet-single-state": "b2106208fcf2e41b8c4fe652122ac1280c9793a163f4551db86db62ec18986a3",
    "dirichlet-three-qutrit-bell-triple": "4b1f7d5874d5898d3ecddfff5f7522a11630f8ba774f1c2b3cbb9f4d65dc5b7c",
    "dirichlet-three-qutrit-seed0": "825ca46713146526061d033241b0cb037a1c60ae5628874fb2e305aef2746a8b",
    "dirichlet-three-qutrit-seed1": "ad69cee5d2570347dde1b7a714828e3fce7e3f01efe51f1132b98b87d567966f",
    "dirichlet-three-qutrit-seed2": "c331aa6ad771c6a67d9cabd7a51adb86b8e7e239196038dad7bac6a1ebd0d834",
    "dirichlet-three-qutrit-seed3": "a5d5108c12aee7863d3e2a0b27f24ac33760099f98ba87813514918fa8f6382c",
    "dirichlet-three-qutrit-seed4": "825ca46713146526061d033241b0cb037a1c60ae5628874fb2e305aef2746a8b",
    "dirichlet-two-state-bell2": "be76345930bdda75531cae54611c424789fc49472158f27b2148f3e81ba40a28",
    "dirichlet-two-state-product": "6de3cbbdc5583aeef0f56fb27638cd598e36e67e8a0bdc3ddb7a1d2f6fa08be2",
    "dirichlet-two-state-random-2x3": "b98ee3783f8cea6791a4e558a77632177aaaaaca89ee573e44c04321e4c5393a",
    "low-rank-2x6-r1": "11084fbd1aebfae2905a6514264274ec4727a07aa1c3d49119e697e69ce4ba18",
    "low-rank-4x5-r2": "8413a469ddae4136240f21efe066bf6389b2fb55d476069c3ca0c694092593b7",
    "low-rank-6x6-r3": "6011084677e90b2bd12a231eee5341f5dd0961c2fc1f361b3d28a817bd9b63f8",
    "pair-3x12-s0": "bc3dcc6d4716e333b1ee1e9cd530f3e60a56fe741689473b1ef715f6ffc4f62e",
    "pair-3x12-s1": "45075fe98f89bb4354df60550bd1146ea1a55355c13351728fecdbaa2f2e4e99",
    "pair-3x12-s2": "968b007a5c47c4a140450bf7133a529f3c4c68ce48d61764ecec5c2df74277de",
    "product-2x5-s0": "178c375c16fcdb6dd0972e5e1f6d2bc8b2987ae34637649db455f675f7d205e4",
    "product-2x5-s1": "949552d01905c733befeb0c5d8f4a661f413512e01ea78bb51279018fe4f3891",
    "product-2x5-s2": "be446cd87af50a33a6d28f45e414138a7d222dcf19bf4d535521af4f8464e3c4",
    "product-3x4-s0": "1a235d2769f5abc7e5b66e88639ae6d06ca11dbde1907f1413925269fb743407",
    "product-3x4-s1": "346757cba0b1f7355bc782664db113ce688c2db3fcc9226d7de2ffe7542821a9",
    "product-3x4-s2": "d6a56805a1f6c75857664860102000d48613843a78ccac3da04bc69e300a4ba4",
}


BEYOND_LIBRARY_SETS = _beyond_library_sets()


class TestBeyondLibraryBoundsBytes:
    def test_every_set_pinned(self):
        assert sorted(BEYOND_LIBRARY_PINS) == sorted(BEYOND_LIBRARY_SETS)

    @pytest.mark.parametrize("name", sorted(BEYOND_LIBRARY_SETS))
    def test_report_bytes(self, name):
        descriptor = json.loads(json.dumps(serial.ensemble_to_json(BEYOND_LIBRARY_SETS[name])))
        doc = serial.bounds_report_to_json(verdict(serial.from_descriptor(descriptor)))
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert hashlib.sha256(text.encode()).hexdigest() == BEYOND_LIBRARY_PINS[name]
