import gc
import hashlib
import itertools
import math

import numpy as np
import pytest

from loccdisc import (
    BipartiteState,
    DomainError,
    Leaf,
    LoccProtocol,
    Povm,
    ProtocolNode,
    StateEnsemble,
    ToleranceError,
    bell_basis,
    bell_subset,
    blind_guess_protocol,
    discard_protocol,
    evaluate,
    me_state,
    product_basis_protocol,
    simulate,
    standard_bell_protocol,
    synthesize_three_qutrit_protocol,
    random_orthogonal_me_triple,
    simultaneously_diagonal_ensemble,
    two_state_protocol,
    uniform_ensemble,
)
from loccdisc import locc, serial
from loccdisc.bounds import VERDICT_POSSIBLE, VERDICT_UNKNOWN, verdict
from loccdisc.ensembles import fourier_matrix, haar_unitary
from loccdisc.library import build_library
from loccdisc.locc import (
    ALICE,
    BOB,
    PRUNE_TOL,
    OneWayProtocolSpec,
    identity_round,
    projective_povm,
)

from loccdisc.qstate import ROUNDING_ZERO
from loccdisc.synth import default_cub_candidates

from conftest import (
    bob_first_product_set,
    max_overlap_per_pair,
    one_way_groups_per_vector,
    orthonormal_completion,
    overweight_perfect_case,
    product_basis_per_state,
    random_kraus_case,
    random_orthogonal_pair,
    refined_bell_protocol,
)


def _product_state(dim_a, dim_b, a, b):
    amps = np.zeros(dim_a * dim_b, dtype=complex)
    amps[a * dim_b + b] = 1.0
    return BipartiteState(dim_a, dim_b, amps)


def _low_rank_orthogonal_pair(rng, dim_a, dim_b, r1, r2):
    """Orthogonal pair of amplitude matrices with Schmidt ranks at most r1 and r2.

    S_i = A_i B_i^T; A_2 is projected off the one direction in which it
    overlaps S_1, which keeps both factorizations and so both ranks.
    """

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a1, b1, a2, b2 = gauss(dim_a, r1), gauss(dim_b, r1), gauss(dim_a, r2), gauss(dim_b, r2)
    s1 = a1 @ b1.T
    # Tr(S1^dag A2 B2^T) = <G, A2> with G = A1 (B2^T conj(B1))^dag
    g = a1 @ (b2.T @ b1.conj()).conj().T
    a2 = a2 - np.vdot(g, a2) / np.vdot(g, g) * g
    s2 = a2 @ b2.T
    return tuple(BipartiteState(dim_a, dim_b, s.reshape(-1) / np.linalg.norm(s)) for s in (s1, s2))


def _assert_perfect_pair(s1, s2):
    ens = uniform_ensemble([s1, s2])
    res = evaluate(two_state_protocol(ens).as_protocol(), ens)
    assert res.success_probability >= 1 - 1e-9
    assert verdict(ens).verdict == VERDICT_POSSIBLE


def _pad_with_identity_rounds(protocol):
    """Append one trivial round below every leaf (alternation preserved)."""

    def walk(node, prev_actor, da, db):
        if isinstance(node, Leaf):
            nxt = BOB if prev_actor == ALICE else ALICE
            dim = db if nxt == BOB else da
            return ProtocolNode(nxt, identity_round(dim), (node,))
        children = []
        for op, child in zip(node.povm.elements, node.children):
            nda, ndb = (op.shape[0], db) if node.actor == ALICE else (da, op.shape[0])
            children.append(walk(child, node.actor, nda, ndb))
        return ProtocolNode(node.actor, node.povm, tuple(children))

    return LoccProtocol(
        protocol.dim_a, protocol.dim_b, walk(protocol.root, None, protocol.dim_a, protocol.dim_b)
    )


def _reference_rows(protocol, ensemble):
    """Joint rows (v, path, guess, p, weight) from ||E B X^T||_F^2 / dim_a, one leaf and state at a time."""
    rows = []

    def walk(node, x, e, path):
        if isinstance(node, Leaf):
            for i, b in enumerate(ensemble.b_matrices()):
                w = np.linalg.norm(e @ b @ x.T) ** 2 / protocol.dim_a
                if ensemble.priors[i] * w >= PRUNE_TOL:
                    rows.append((i, path, node.guess, float(ensemble.priors[i] * w), w))
            return
        for idx, (op, child) in enumerate(zip(node.povm.elements, node.children)):
            alice = node.actor == ALICE
            walk(child, op @ x if alice else x, e if alice else op @ e, path + (idx,))

    walk(protocol.root, np.eye(protocol.dim_a), np.eye(protocol.dim_b), ())
    return rows


def _assert_matches_reference(protocol, ensemble, tol=1e-14):
    res = evaluate(protocol, ensemble)
    ref = _reference_rows(protocol, ensemble)
    assert [r[:3] for r in res.joint] == [r[:3] for r in ref]
    np.testing.assert_allclose([r[3] for r in res.joint], [r[3] for r in ref], rtol=0, atol=tol)
    hits = [r for r in ref if r[0] == r[2]]
    assert abs(res.success_probability - min(1.0, sum(r[3] for r in hits))) <= tol
    per_state = [min(1.0, sum(r[4] for r in hits if r[0] == i)) for i in range(ensemble.k)]
    np.testing.assert_allclose(res.per_state_success, per_state, rtol=0, atol=tol)
    pv, py = {}, {}
    for v, path, _, p, _ in ref:
        pv[v] = pv.get(v, 0.0) + p
        py[path] = py.get(path, 0.0) + p
    mi = sum(p * math.log2(p / (pv[v] * py[path])) for v, path, _, p, _ in ref)
    assert abs(res.mutual_information_bits - max(mi, 0.0)) <= tol


def _reference_zero_diagonal_basis(mat, tol=1e-9):
    """Loop form of ``locc._zero_diagonal_basis``: pairs picked by Python loops over the live
    coordinates, the m x m working matrix and basis rotated in place and never shrunk."""
    m = mat.shape[0]
    w = np.eye(m, dtype=complex)
    scale = float(np.max(np.abs(mat)))
    if np.max(np.abs(np.diag(mat).imag)) > ROUNDING_ZERO * scale:
        w = np.linalg.eigh((mat - mat.conj().T) / 2j)[1] @ fourier_matrix(m)
    b = w.conj().T @ mat @ w
    live, cols = list(range(m)), []
    while len(live) > 1:
        d = {i: b[i, i].real for i in live}
        q = min(live, key=lambda i: abs(d[i]))
        if abs(d[q]) > tol:
            q = min((i for i in live if d[i] > 0), key=d.get)
            pair = [q, max((i for i in live if d[i] < 0), key=d.get)]
            c0, c1 = locc._solve_compression(b[np.ix_(pair, pair)], scale)
            g = np.array([[c0, -np.conj(c1)], [c1, np.conj(c0)]])
            b[:, pair] = b[:, pair] @ g
            b[pair] = g.conj().T @ b[pair]
            w[:, pair] = w[:, pair] @ g
        cols.append(w[:, q])
        live.remove(q)
    return np.column_stack(cols + [w[:, live[0]]])


def _traceless(rng, m, kind):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    if kind == "hermitian":
        a = a + a.conj().T
    elif kind == "hermitian-rounding":
        # Hermitian up to anti-Hermitian noise far below the rounding cut, so its diagonal is complex
        a = a + a.conj().T + 1e-17 * (a - a.conj().T)
    elif kind == "anti-hermitian":
        a = a - a.conj().T
    elif kind == "near-diagonal":
        a = np.diag(np.diag(a)) + 1e-3 * a
    elif kind == "zero":
        a = np.zeros((m, m), dtype=complex)
    elif kind in ("jordan", "rotated-clock"):
        # a nilpotent Jordan block, or the clock matrix diag(w^j), in a Haar-random basis
        core = np.eye(m, k=1) if kind == "jordan" else np.diag(np.exp(2j * np.pi * np.arange(m) / m))
        u = haar_unitary(m, rng)
        a = u @ core @ u.conj().T
    return a - np.trace(a) / m * np.eye(m)


def _edge_case(name):
    """Trees the random Kraus trees never produce, on one seeded 3 x 3 ensemble of four states.

    No state has amplitude on Alice's |2>, so the root's third outcome has
    zero Born weight for every state; a Bob round also has a zero operator
    among its elements.  Nodes mix leaf and internal children.
    """
    rng = np.random.default_rng(7)
    amps = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    amps[:, 2, :] = 0.0
    ens = StateEnsemble(
        tuple(BipartiteState(3, 3, a.reshape(-1) / np.linalg.norm(a)) for a in amps),
        rng.dirichlet(np.ones(4)),
    )
    if name == "leaf-root":
        return LoccProtocol(3, 3, Leaf(1)), ens
    haar = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    if name == "mixed-children":
        # Alice keeps a two-dimensional space on her first outcome and measures it again later
        kraus = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        small = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        alice = ProtocolNode(ALICE, projective_povm(small), (Leaf(2), Leaf(3)))
        bob = ProtocolNode(BOB, projective_povm(haar), (alice, Leaf(1), Leaf(3)))
        root = ProtocolNode(ALICE, Povm((kraus[:2], kraus[2:])), (bob, Leaf(0)))
        return LoccProtocol(3, 3, root), ens
    # dead-outcomes: Bob's zero operator and Alice's unoccupied |2> each lead to an internal node
    zero_op = Povm((*haar.conj().T[:, None, :], np.zeros((1, 3))))
    halves = Povm((np.sqrt(0.5) * np.eye(1), np.sqrt(0.5) * np.eye(1)))
    dead = ProtocolNode(ALICE, halves, (Leaf(2), Leaf(3)))
    bob = ProtocolNode(BOB, zero_op, (Leaf(0), Leaf(1), Leaf(2), dead))
    unreached = ProtocolNode(BOB, projective_povm(haar), (Leaf(3), Leaf(0), Leaf(1)))
    comp = projective_povm(np.eye(3, dtype=complex))
    return LoccProtocol(3, 3, ProtocolNode(ALICE, comp, (bob, Leaf(1), unreached))), ens


# The multi-node steps each of ``_run_case``'s trees must give ``locc._collect_leaves``:
# (nodes in the run, parent is Alice, nodes share one Povm), in walk order.
RUN_CASES = {
    "bob-parent-shared": [(3, False, True)],
    "bob-parent-multirow-children": [(5, False, False)],
    "alice-parent-multirow": [(3, True, False)],
    "broken-runs": [(2, True, True), (2, True, False), (3, False, False), (2, True, True), (2, True, False)],
}


def _run_case(name):
    """Seeded trees whose sibling nodes of leaves only form runs of every kind, on a 3 x 4 ensemble of five states.

    Every POVM is cut row-wise from one random isometry, so outcomes may
    have several rows; guesses are random.
    """
    rng = np.random.default_rng(list(RUN_CASES).index(name))
    dim_a, dim_b, k = 3, 4, 5
    states = []
    for _ in range(k):
        a = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
        states.append(BipartiteState(dim_a, dim_b, a / np.linalg.norm(a)))
    ens = StateEnsemble(tuple(states), rng.dirichlet(np.ones(k)))

    def cut(rows, dim_in):
        z = rng.standard_normal((sum(rows), dim_in)) + 1j * rng.standard_normal((sum(rows), dim_in))
        return Povm(tuple(np.split(np.linalg.qr(z)[0], np.cumsum(rows)[:-1])))

    def leaves(actor, povm):
        return ProtocolNode(actor, povm, tuple(Leaf(int(g)) for g in rng.integers(k, size=len(povm.elements))))

    if name == "bob-parent-shared":
        # three nine-row outcomes (sums of nine terms round differently in another order) feed one
        # shared Alice POVM; the last, one-row outcome is a run of one
        shared = cut([1, 1, 1], dim_a)
        root = ProtocolNode(BOB, cut([9, 9, 9, 1], dim_b), tuple(leaves(ALICE, shared) for _ in range(4)))
    elif name == "bob-parent-multirow-children":
        root = ProtocolNode(BOB, cut([1] * 5, dim_b), tuple(leaves(ALICE, cut([2, 1, 2], dim_a)) for _ in range(5)))
    elif name == "alice-parent-multirow":
        root = ProtocolNode(ALICE, cut([9, 9, 9], dim_a), tuple(leaves(BOB, cut([1, 3, 1], dim_b)) for _ in range(3)))
    else:
        # broken-runs: A and B share a shape but not offsets, C has another shape
        pa, pb, pc = cut([1, 1, 1, 1], dim_b), cut([2, 2], dim_b), cut([1] * 5, dim_b)
        # below the root's one-row outcome Alice holds C^1; the two-row outcome is a run of one
        inner = ProtocolNode(BOB, cut([1, 1, 1, 2], dim_b), tuple(leaves(ALICE, cut([1, 1], 1)) for _ in range(4)))
        children = (
            leaves(BOB, pa), leaves(BOB, pa), Leaf(2),  # shared run, broken by a leaf
            leaves(BOB, cut([1, 1, 1, 1], dim_b)), leaves(BOB, pa),  # stacked run, broken by an internal node
            inner,
            leaves(BOB, pa), leaves(BOB, pb), leaves(BOB, pb),  # one-node run, then a shared run of another offsets
            leaves(BOB, pc), leaves(BOB, cut([1] * 5, dim_b)), leaves(BOB, pa),  # stacked run of another shape, one-node run
        )
        root = ProtocolNode(ALICE, cut([1] * len(children), dim_a), children)
    return LoccProtocol(dim_a, dim_b, root), ens


class TestProtocolStructure:
    def test_incomplete_povm_rejected(self):
        half = Povm((np.eye(2, dtype=complex) / 2,))
        tree = LoccProtocol(2, 2, ProtocolNode(ALICE, half, (Leaf(0),)))
        with pytest.raises(DomainError):
            tree.validate()

    def test_alternation_enforced(self):
        comp = projective_povm(np.eye(2, dtype=complex))
        inner = ProtocolNode(ALICE, comp, (Leaf(0), Leaf(1)))
        tree = LoccProtocol(2, 2, ProtocolNode(ALICE, comp, (inner, Leaf(0))))
        with pytest.raises(DomainError):
            tree.validate()

    def test_shared_povm_checked_once(self, monkeypatch):
        calls = []
        original = Povm.completeness_defect

        def counting(povm):
            calls.append(id(povm))
            return original(povm)

        monkeypatch.setattr(Povm, "completeness_defect", counting)
        comp = projective_povm(np.eye(2, dtype=complex))
        bob = ProtocolNode(BOB, comp, (Leaf(0), Leaf(1)))
        tree = LoccProtocol(2, 2, ProtocolNode(ALICE, comp, (bob, bob)))
        tree.validate()
        assert calls == [id(comp)]
        calls.clear()
        # one Povm object at the root and at all 16 Bob nodes
        standard_bell_protocol(16).validate()
        assert len(calls) == 1

    def test_shared_incomplete_povm_still_rejected(self):
        half = Povm((np.eye(2, dtype=complex) / 2,))
        comp = projective_povm(np.eye(2, dtype=complex))
        bob = ProtocolNode(BOB, half, (Leaf(0),))
        tree = LoccProtocol(2, 2, ProtocolNode(ALICE, comp, (bob, bob)))
        with pytest.raises(DomainError, match="incomplete POVM"):
            tree.validate()

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # with tol = nan every "defect > tol" test is false, so the half POVM would pass
        half = Povm((np.eye(2, dtype=complex) / 2,))
        tree = LoccProtocol(2, 2, ProtocolNode(ALICE, half, (Leaf(0),)))
        message = f"^tol must be finite and >= 0, got {tol}$"
        with pytest.raises(DomainError, match=message):
            tree.validate(tol=tol)
        with pytest.raises(DomainError, match=message):
            evaluate(standard_bell_protocol(2), bell_basis(2), tol=tol)
        tree.validate(tol=0.75)  # the defect is 0.75, not above it

    def test_projective_povm_complete(self):
        assert projective_povm(np.eye(5, dtype=complex)).completeness_defect() < 1e-14

    def test_orthonormal_completion(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        basis = orthonormal_completion([v], 4)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)
        assert abs(np.vdot(basis[:, 0], v)) > 1 - 1e-12

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((), "at least one element"),
            ((np.ones(2),), "nonempty 2-D matrix"),
            ((np.zeros((0, 2)),), "nonempty 2-D matrix"),
            ((np.eye(2), np.zeros((1, 0))), "nonempty 2-D matrix"),
            ((np.array([[1.0, np.nan]]), np.array([[0.0, 1.0]])), "non-finite"),
            ((np.eye(2), np.array([[np.inf, 0.0]])), "non-finite"),
            ((np.eye(2), np.ones((1, 3))), "disagree on input dimension"),
        ],
    )
    def test_povm_boundary(self, elements, message):
        with pytest.raises(DomainError, match=message):
            Povm(elements)

    def test_povm_stacked_read_only(self):
        ops = (np.eye(3, dtype=complex)[:1], np.eye(3, dtype=complex)[1:])
        povm = Povm(ops)
        assert povm.stacked.shape == (3, 3)
        assert povm.offsets.tolist() == [0, 1]
        for m, op in zip(povm.elements, ops):
            np.testing.assert_array_equal(m, op)
            assert np.shares_memory(m, povm.stacked)
        for arr in (povm.stacked, povm.offsets, *povm.elements):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_leaf_guess_range_checked(self):
        tree = blind_guess_protocol(2, 2, guess=5)
        with pytest.raises(DomainError):
            evaluate(tree, bell_basis(2))
        # a fraction or a bool is no label: refused where the leaf is built, not truncated or read as 1
        for guess in (1.5, True):
            with pytest.raises(DomainError, match="guess must be an integer"):
                blind_guess_protocol(2, 2, guess)
        with pytest.raises(DomainError, match="label must be an integer"):
            OneWayProtocolSpec(np.eye(2), ((1.7,), ()), [[1, 0]])
        assert Leaf(np.int64(2)).guess == 2 and type(Leaf(2.0).guess) is int

    @pytest.mark.parametrize("name", ["leaf-root", "mixed-children", "dead-outcomes"])
    @pytest.mark.parametrize("guess", [-1, 4])
    def test_leaf_guess_checked_at_every_depth(self, name, guess):
        protocol, ens = _edge_case(name)
        protocol.validate(k=ens.k)
        bad = protocol.map_leaves(lambda leaf: Leaf(guess) if leaf.guess == 3 or name == "leaf-root" else leaf)
        with pytest.raises(DomainError, match=f"leaf guess {guess} out of range"):
            bad.validate(k=ens.k)


class TestEvaluate:
    def test_full_bell_basis_values(self):
        for n in (2, 3):
            res = evaluate(standard_bell_protocol(n), bell_basis(n))
            assert abs(res.success_probability - 1.0 / n) < 1e-12
            assert abs(res.mutual_information_bits - math.log2(n)) < 1e-10

    def test_singleton_subset(self):
        ens = bell_subset(3, [(0, 0)])
        res = evaluate(standard_bell_protocol(3, [(0, 0)]), ens)
        assert res.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_partially_distinguishable_subset(self):
        # shifts 1 and 2 are unique, shift 0 is guessed among two states
        labels = [(0, 0), (1, 0), (2, 0), (0, 1)]
        res = evaluate(standard_bell_protocol(3, labels), bell_subset(3, labels))
        assert abs(res.success_probability - 3.0 / 4.0) < 1e-12

    def test_blind_guess(self):
        res = evaluate(blind_guess_protocol(2, 2, 0), bell_basis(2))
        assert res.success_probability == pytest.approx(0.25, abs=1e-14)
        assert res.mutual_information_bits == pytest.approx(0.0, abs=1e-12)

    def test_joint_table_consistency(self):
        ens = bell_basis(3)
        res = evaluate(standard_bell_protocol(3), ens)
        total = sum(p for _, _, _, p in res.joint)
        assert abs(total - 1.0) < 1e-10
        per_v = {}
        for v, _, _, p in res.joint:
            per_v[v] = per_v.get(v, 0.0) + p
        for v, mass in per_v.items():
            assert abs(mass - ens.priors[v]) < 1e-10
        success = sum(p for v, _, g, p in res.joint if v == g)
        assert abs(success - res.success_probability) < 1e-12

    def test_identity_padding_invariance(self):
        ens = bell_basis(3)
        base = standard_bell_protocol(3)
        padded = _pad_with_identity_rounds(base)
        r1 = evaluate(base, ens)
        r2 = evaluate(padded, ens)
        assert abs(r1.success_probability - r2.success_probability) < 1e-12
        assert abs(r1.mutual_information_bits - r2.mutual_information_bits) < 1e-12

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DomainError):
            evaluate(standard_bell_protocol(2), bell_basis(3))

    def test_joint_built_once(self):
        res = evaluate(standard_bell_protocol(3), bell_basis(3))
        first = res.joint
        assert res.joint is first
        assert len(first) == 27

    def test_leaf_root(self):
        res = evaluate(LoccProtocol(3, 3, Leaf(2)), bell_basis(3))
        assert res.success_probability == pytest.approx(1 / 9, abs=1e-15)
        assert res.mutual_information_bits == 0.0
        assert [row[:3] for row in res.joint] == [(v, (), 2) for v in range(9)]
        np.testing.assert_allclose([row[3] for row in res.joint], [1 / 9] * 9, rtol=0, atol=1e-15)
        assert res.per_state_success == pytest.approx([0, 0, 1, 0, 0, 0, 0, 0, 0], abs=1e-15)


class TestBatchedEvaluator:
    """The stacked push-through agrees with the per-leaf, per-state formula."""

    @pytest.mark.parametrize("entry", build_library(), ids=lambda e: e.name)
    def test_library_matches_reference(self, entry):
        _assert_matches_reference(entry.protocol, entry.ensemble)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_kraus_trees_match_reference(self, seed):
        protocol, ens = random_kraus_case(seed)
        _assert_matches_reference(protocol, ens)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_kraus_trees_match_simulation(self, seed):
        protocol, ens = random_kraus_case(seed)
        p = evaluate(protocol, ens).success_probability
        sigma = max(math.sqrt(p * (1.0 - p) / 100_000), 1e-12)
        assert abs(simulate(protocol, ens, trials=100_000, seed=seed) - p) <= 5.0 * sigma

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("kind", ["std", "refined"])
    def test_bell_trees_match_reference(self, kind, n):
        protocol = standard_bell_protocol(n) if kind == "std" else refined_bell_protocol(n)
        _assert_matches_reference(protocol, bell_basis(n))

    @pytest.mark.parametrize("name", ["leaf-root", "mixed-children", "dead-outcomes"])
    def test_edge_trees_match_reference(self, name):
        _assert_matches_reference(*_edge_case(name))

    @pytest.mark.parametrize("case", ["kraus-3", "mixed-children", "refined-4"])
    def test_evaluation_json_matches_reference_rows(self, case):
        if case == "kraus-3":
            protocol, ens = random_kraus_case(3)
        elif case == "refined-4":
            protocol, ens = refined_bell_protocol(4), bell_basis(4)
        else:
            protocol, ens = _edge_case(case)
        doc = serial.evaluation_to_json(evaluate(protocol, ens))
        ref = _reference_rows(protocol, ens)
        table = doc["joint_table"]
        assert [(r["v"], r["path"], r["guess"]) for r in table] == [(v, list(p), g) for v, p, g, _, _ in ref]
        np.testing.assert_allclose([r["p"] for r in table], [r[3] for r in ref], rtol=0, atol=1e-14)

    def test_bell_24_exact(self):
        res = evaluate(standard_bell_protocol(24), bell_basis(24))
        assert abs(res.success_probability - 1.0 / 24) < 1e-12
        assert abs(res.mutual_information_bits - math.log2(24)) < 1e-13

    def test_leaf_blocks_are_rows_of_whole_weights(self):
        # one-row leaf outcomes of an Alice node beside a Bob node, with dim_b = 9: squaring a
        # leaf's own one-column slice of Z sums its nine rows in another order, so other bits
        rng = np.random.default_rng(0)
        da, db, k = 3, 9, 4
        amps = rng.standard_normal((k, da * db)) + 1j * rng.standard_normal((k, da * db))
        ens = uniform_ensemble([BipartiteState(da, db, a / np.linalg.norm(a)) for a in amps])
        haar = lambda d: np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        alice = projective_povm(haar(da))
        bob = ProtocolNode(BOB, projective_povm(haar(db)), tuple(Leaf(int(g)) for g in rng.integers(k, size=db)))
        protocol = LoccProtocol(da, db, ProtocolNode(ALICE, alice, (Leaf(0), bob, Leaf(1))))
        _, _, w = locc._leaf_weights(protocol, ens)
        z = (ens.b_matrices().reshape(-1, da) @ alice.stacked.T).reshape(k, db, da)  # the root's product Z
        whole = (z.real**2 + z.imag**2).sum(axis=1).T / da
        assert w[[0, -1]].tobytes() == whole[[0, 2]].tobytes()
        own = np.concatenate([(z[:, :, [i]].real ** 2 + z[:, :, [i]].imag ** 2).sum(axis=1).T for i in (0, 2)]) / da
        assert own.tobytes() != whole[[0, 2]].tobytes()  # the shape tells the two orders apart


def _run_trees():
    yield from (pytest.param(*_run_case(name), id=name) for name in RUN_CASES)
    yield pytest.param(standard_bell_protocol(5), bell_basis(5), id="std-5")
    yield pytest.param(refined_bell_protocol(6), bell_basis(6), id="refined-6")
    for seed in range(6):
        yield pytest.param(*random_kraus_case(seed), id=f"kraus-{seed}")
    for entry in build_library():
        yield pytest.param(entry.protocol, entry.ensemble, id=entry.name)


class TestRunWeights:
    """Sibling nodes of leaves only are weighed as one run, bit for bit as node by node."""

    @pytest.mark.parametrize("name", list(RUN_CASES))
    def test_run_trees_match_reference(self, name):
        _assert_matches_reference(*_run_case(name))

    @pytest.mark.parametrize("name", list(RUN_CASES))
    def test_runs_found(self, name, monkeypatch):
        runs = []

        def record(run, *args):
            if len(run) > 1:  # the evaluator's multi-node steps; a run's parent is Alice when its nodes are Bob's
                runs.append((len(run), run[0].actor == BOB, all(child.povm is run[0].povm for child in run)))
            return collect(run, *args)

        collect = locc._collect_leaves
        monkeypatch.setattr(locc, "_collect_leaves", record)
        evaluate(*_run_case(name))
        assert runs == RUN_CASES[name]

    @pytest.mark.parametrize("protocol, ens", _run_trees())
    def test_equals_node_by_node(self, protocol, ens, monkeypatch):
        paths, guesses, w = locc._leaf_weights(protocol, ens)
        monkeypatch.setattr(locc, "_run_key", lambda pair: pair[0])  # every node on its own
        alone = locc._leaf_weights(protocol, ens)
        expand = lambda blocks: [pre + suf for pres, sufs in blocks for pre in pres for suf in sufs]
        assert expand(paths) == expand(alone[0]) and guesses == alone[1]
        assert w.tobytes() == alone[2].tobytes()


class TestSquaredNorms:
    """The walk's squares helper gives the bits of the plain ``real**2 + imag**2`` sums."""

    @pytest.mark.parametrize("block_bytes", ["default", 1000])
    @pytest.mark.parametrize("layout", ["c", "transposed"])
    @pytest.mark.parametrize("shape, axis", [((5, 9, 1), 1), ((5, 9, 3), 1), ((7, 4, 9), 2), ((7, 1, 9), 1), ((3, 16, 16), 2)])
    def test_equals_plain_sums(self, shape, axis, layout, block_bytes, monkeypatch):
        if block_bytes != "default":  # out of place in blocks of one or two rows, the last one short
            monkeypatch.setattr(locc, "_SQUARES_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(sum(shape))
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if layout == "transposed":  # the evaluator's Bob-node product: (k, rows, c) over memory (rows, k, c)
            z = np.ascontiguousarray(z.transpose(1, 0, 2)).transpose(1, 0, 2)
        expected, before = (z.real**2 + z.imag**2).sum(axis=axis), z.copy()
        assert np.ascontiguousarray(locc._squared_norms(z, axis, in_place=False)).tobytes() == expected.tobytes()
        assert z.tobytes() == before.tobytes()
        assert np.ascontiguousarray(locc._squared_norms(z, axis, in_place=True)).tobytes() == expected.tobytes()


def _spy_views(monkeypatch):
    """Record, per walk step that squares its product, whether the product views the step's input."""
    inputs, kinds = [], []

    def spy(name, step, at):
        def wrapped(*args):
            inputs.append(args[at])
            try:
                return step(*args)
            finally:
                inputs.pop()

        monkeypatch.setattr(locc, name, wrapped)

    def squares(z, axis, in_place):
        kinds.append("view" if np.shares_memory(z, inputs[-1]) else "product")
        return squared_norms(z, axis, in_place)

    squared_norms = locc._squared_norms
    spy("_collect_leaves", locc._collect_leaves, 1)
    monkeypatch.setattr(locc, "_squared_norms", squares)
    return kinds


def _no_views(monkeypatch):
    monkeypatch.setattr(Povm, "is_identity", property(lambda povm: False))


def _walk_outputs(protocol, ens):
    """Every bit ``evaluate`` and ``simulate`` (three seeds) report: ``float.hex`` of the values, the joint rows."""
    res = evaluate(protocol, ens)
    rows = [(v, path, g, p.hex()) for v, path, g, p in res.joint]
    values = [res.success_probability.hex(), res.mutual_information_bits.hex(), *(x.hex() for x in res.per_state_success)]
    return values, rows, [simulate(protocol, ens, trials=20_000, seed=s) for s in range(3)]


def _identity_tree(name):
    """A seeded 3 x 3 tree whose POVMs include identities, with guesses below 5."""
    rng = np.random.default_rng(list(IDENTITY_TREES).index(name))
    eye = np.eye(3, dtype=complex)

    def leaves(actor, povm):
        return ProtocolNode(actor, povm, tuple(Leaf(int(g)) for g in rng.integers(5, size=len(povm.elements))))

    def haar():
        return projective_povm(np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0])

    if name == "padded-coarse-split":
        # in-order blocks of ranks 2 and 1 stack the identity; Alice then holds C^2 or C^1
        rank2 = ProtocolNode(BOB, projective_povm(eye), tuple(leaves(ALICE, projective_povm(np.eye(2))) for _ in range(3)))
        root = ProtocolNode(ALICE, Povm((eye[:2], eye[2:])), (rank2, leaves(BOB, haar())))
        return _pad_with_identity_rounds(LoccProtocol(3, 3, root))
    if name == "identity-over-dense":
        shared = haar()
        root = ProtocolNode(ALICE, projective_povm(eye), (leaves(BOB, haar()), leaves(BOB, shared), leaves(BOB, shared)))
    elif name == "dense-over-identity":
        shared = projective_povm(eye)  # one POVM object, so the three Bob nodes step as one run
        root = ProtocolNode(ALICE, haar(), tuple(leaves(BOB, shared) for _ in range(3)))
    elif name == "std-3":
        return standard_bell_protocol(3)
    elif name == "refined-3":
        return refined_bell_protocol(3)
    else:  # padded-blind: a trivial round on every path
        return _pad_with_identity_rounds(blind_guess_protocol(3, 3, 1))
    return LoccProtocol(3, 3, root)


# The products the squared steps of each ``_identity_tree`` take.  Dense rounds take the
# product; the padding rounds below leaves (each its own identity POVM) view their input as a
# run of distinct identities, but for Alice left with one coordinate, which keeps the product;
# an identity node whose children are all nodes squares nothing.
IDENTITY_TREES = {
    "padded-coarse-split": {"product", "view"},
    "identity-over-dense": {"product"},
    "dense-over-identity": {"view"},
    "std-3": {"view"},
    "refined-3": {"view"},
    "padded-blind": {"view"},
}


def _skewed_ensemble(seed, dim_a=3, dim_b=3, k=9):
    """Seeded random states, priors 4^-i in seeded order with two of them zero, so two states draw no trials."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((k, dim_a * dim_b)) + 1j * rng.standard_normal((k, dim_a * dim_b))
    priors = 4.0 ** -rng.permutation(k)
    priors[rng.choice(k, size=2, replace=False)] = 0.0
    return StateEnsemble(tuple(BipartiteState(dim_a, dim_b, a / np.linalg.norm(a)) for a in amps), priors / priors.sum())


class TestIdentityViewSteps:
    """A step on an identity POVM views its input, bit for bit the product."""

    @pytest.mark.parametrize("ens_name", ["bell-3", "skewed-0", "skewed-1"])
    @pytest.mark.parametrize("name", list(IDENTITY_TREES))
    def test_equals_product(self, name, ens_name, monkeypatch):
        ens = bell_basis(3) if ens_name == "bell-3" else _skewed_ensemble(int(ens_name[-1]))
        protocol = _identity_tree(name)
        kinds = _spy_views(monkeypatch)
        fast = _walk_outputs(protocol, ens)
        assert set(kinds) == IDENTITY_TREES[name]
        _no_views(monkeypatch)
        assert _walk_outputs(protocol, ens) == fast

    @pytest.mark.parametrize("dim_b", [3, 8, 16])
    def test_one_alice_coordinate_under_dense_bob(self, dim_b, monkeypatch):
        # Bob's product leaves the states innermost in memory, so a view of it would sum
        # Bob's coordinates in sequence where the product sums them pairwise (other bits from 8 on)
        ens = _skewed_ensemble(dim_b, dim_a=2, dim_b=dim_b)
        u = Povm((haar_unitary(dim_b, np.random.default_rng(dim_b)),))
        bob = [ProtocolNode(BOB, u, (ProtocolNode(ALICE, identity_round(1), (Leaf(g),)),)) for g in (3, 5)]
        protocol = LoccProtocol(2, dim_b, ProtocolNode(ALICE, projective_povm(np.eye(2)), tuple(bob)))
        kinds = _spy_views(monkeypatch)
        evaluate(protocol, ens)
        assert kinds == ["product", "product"]
        fast = _walk_outputs(protocol, ens)
        _no_views(monkeypatch)
        assert _walk_outputs(protocol, ens) == fast

    @pytest.mark.parametrize("actor", [ALICE, BOB])
    @pytest.mark.parametrize("povm", ["one-outcome", "projective"])
    @pytest.mark.parametrize("priors", ["all-live", "zero-prior"])
    def test_identity_root_leaves_inputs_alone(self, actor, povm, priors, monkeypatch):
        # the root step of evaluate and simulate alike views the ensemble's read-only B stack:
        # an in-place square there would raise
        ens = _skewed_ensemble(2, dim_a=2, dim_b=3, k=4)
        if priors == "all-live":
            ens = StateEnsemble(ens.states, np.full(4, 0.25))
        dim = ens.dim_a if actor == ALICE else ens.dim_b
        op = identity_round(dim) if povm == "one-outcome" else projective_povm(np.eye(dim))
        protocol = LoccProtocol(2, 3, ProtocolNode(actor, op, tuple(Leaf(g % 4) for g in range(len(op.elements)))))
        stack = ens.b_matrices()
        before = stack.tobytes()
        kinds = _spy_views(monkeypatch)
        fast = _walk_outputs(protocol, ens)
        assert set(kinds) == {"view"}
        assert stack.tobytes() == before and not stack.flags.writeable
        _no_views(monkeypatch)
        assert _walk_outputs(protocol, ens) == fast


class TestIdentityRule:
    """``Povm.is_identity``: whether the stacked rows are the identity's, in order."""

    @pytest.mark.parametrize(
        "elements, expected",
        [
            pytest.param(lambda eye, rng: (eye,), True, id="eye"),
            pytest.param(lambda eye, rng: tuple(eye[:, None, :]), True, id="eye-projective"),
            pytest.param(lambda eye, rng: (eye[:2], eye[2:]), True, id="coarse-in-order"),
            pytest.param(lambda eye, rng: tuple(eye[[2, 0, 3, 1]][:, None, :]), False, id="permutation"),
            pytest.param(lambda eye, rng: (eye[[3]], eye[[0, 2]], eye[[1]]), False, id="coarse-blocks"),
            pytest.param(lambda eye, rng: projective_povm(haar_unitary(4, rng)).elements, False, id="haar"),
            pytest.param(lambda eye, rng: (np.diag([2.0, 1.0, 1.0, 1.0]),), False, id="entry-2"),
            pytest.param(lambda eye, rng: (np.diag([1.0, -1.0, 1.0, 1.0]),), False, id="entry-minus-1"),
            pytest.param(lambda eye, rng: (np.diag([1.0, 1j, 1.0, 1.0]),), False, id="entry-1j"),
            pytest.param(lambda eye, rng: (eye[:1], np.zeros((1, 4)), eye[1:]), False, id="zero-row"),
        ],
    )
    def test_identity_rows_in_order(self, elements, expected, rng):
        povm = Povm(elements(np.eye(4, dtype=complex), rng))
        assert povm.is_identity is expected


class TestSimulate:
    def test_perfect_protocol_hits_one(self):
        ens = random_orthogonal_me_triple(3, 0)
        proto = synthesize_three_qutrit_protocol(ens).as_protocol()
        assert simulate(proto, ens, trials=1000, seed=3) == 1.0

    def test_blind_guess_rate(self):
        rate = simulate(blind_guess_protocol(2, 2, 0), bell_basis(2), trials=100_000, seed=5)
        assert abs(rate - 0.25) < 0.007

    def test_bell2_standard_rate(self):
        rate = simulate(standard_bell_protocol(2), bell_basis(2), trials=100_000, seed=6)
        assert abs(rate - 0.5) < 0.008

    def test_leaf_root(self):
        ens = bell_basis(3)
        per_state = np.random.default_rng(4).multinomial(9000, ens.priors)
        assert simulate(LoccProtocol(3, 3, Leaf(2)), ens, trials=9000, seed=4) == per_state[2] / 9000

    def test_deterministic_per_seed(self):
        ens = bell_basis(2)
        proto = standard_bell_protocol(2)
        r1 = simulate(proto, ens, trials=5000, seed=42)
        r2 = simulate(proto, ens, trials=5000, seed=42)
        assert r1 == r2

    def test_trials_validated(self):
        for trials in (0, -3, 2.5, True, "10", None, 2**63, 10**30):
            with pytest.raises(DomainError):
                simulate(standard_bell_protocol(2), bell_basis(2), trials=trials, seed=1)
        assert simulate(standard_bell_protocol(2), bell_basis(2), trials=2**63 - 1, seed=1) > 0.0
        assert simulate(standard_bell_protocol(2), bell_basis(2), trials=10.0, seed=1) >= 0.0

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_validated(self, seed):
        with pytest.raises(DomainError):
            simulate(standard_bell_protocol(2), bell_basis(2), trials=10, seed=seed)


class TestBatchedSampler:
    """``simulate``'s bookkeeping: the state draw, guess labels, and the success each state draws with."""

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_bell_rate_is_leading_draw(self, n, seed):
        # the shift m is read exactly and the guess is (m, 0): only the state draw decides
        ens = bell_basis(n)
        counts = np.random.default_rng(seed).multinomial(10_000, ens.priors)
        expected = counts[::n].sum() / 10_000
        assert simulate(standard_bell_protocol(n), ens, trials=10_000, seed=seed) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_priors_and_permuted_guesses(self, seed):
        # computational product basis: every outcome is certain, so the rate is the draw of states 0 and 3
        states = tuple(_product_state(2, 2, a, b) for a in range(2) for b in range(2))
        ens = StateEnsemble(states, np.array([0.25, 0.0, 0.5, 0.25]))
        perm = [0, 2, 1, 3]
        proto = product_basis_protocol(ens).as_protocol().map_leaves(lambda leaf: Leaf(perm[leaf.guess]))
        counts = np.random.default_rng(seed).multinomial(5000, ens.priors)
        assert simulate(proto, ens, trials=5000, seed=seed) == (counts[0] + counts[3]) / 5000

    @pytest.mark.parametrize("seed", range(10))
    def test_random_kraus_trees_skewed_priors(self, seed):
        protocol, ens = random_kraus_case(seed)
        # one state never drawn, the others geometrically rarer
        priors = np.array([0.0] + [4.0**-i for i in range(ens.k - 1)])
        ens = StateEnsemble(ens.states, priors / priors.sum())
        p = evaluate(protocol, ens).success_probability
        sigma = max(math.sqrt(p * (1.0 - p) / 100_000), 1e-12)
        assert abs(simulate(protocol, ens, trials=100_000, seed=100 + seed) - p) <= 5.0 * sigma

    @pytest.mark.parametrize("name", list(RUN_CASES))
    def test_runs_found(self, name, monkeypatch):
        # simulate takes its weights from the evaluator's walk: the same multi-node steps, once
        runs = []

        def record(run, *args):
            if len(run) > 1:
                runs.append((len(run), run[0].actor == BOB, all(child.povm is run[0].povm for child in run)))
            return collect(run, *args)

        collect = locc._collect_leaves
        monkeypatch.setattr(locc, "_collect_leaves", record)
        simulate(*_run_case(name), trials=100_000, seed=0)
        assert runs == RUN_CASES[name]

    @pytest.mark.parametrize("block", ["default", 3])
    @pytest.mark.parametrize("protocol, ens", _run_trees())
    def test_runs_equal_node_by_node(self, protocol, ens, block, monkeypatch):
        if block != "default":  # every out-of-place square taken in blocks of one leading row
            monkeypatch.setattr(locc, "_SQUARES_BLOCK_BYTES", block)
        fused = [simulate(protocol, ens, trials=20_000, seed=s) for s in range(3)]
        monkeypatch.setattr(locc, "_run_key", lambda pair: pair[0])  # every node on its own
        assert [simulate(protocol, ens, trials=20_000, seed=s) for s in range(3)] == fused

    def test_rare_state_keeps_its_success(self):
        # state 1 draws a few thousand of 2**62 trials and every leaf guesses it; evaluate
        # prunes its rows (prior x weight 1e-15 < PRUNE_TOL), so its per-state success reads 0
        states = bell_basis(2).states[:2]
        ens = StateEnsemble(states, np.array([1.0 - 1e-15, 1e-15]))
        protocol = two_state_protocol(uniform_ensemble(states)).as_protocol().map_leaves(lambda leaf: Leaf(1))
        assert evaluate(protocol, ens).per_state_success == (0.0, 0.0)
        assert simulate(protocol, ens, trials=2**62, seed=0) > 0.0

    def test_weights_above_one_are_normalized(self):
        # numpy's binomial refuses p > 1, so an unnormalized success would escape as ValueError
        protocol, ens = overweight_perfect_case()
        assert simulate(protocol, ens, trials=100_000, seed=0) == 1.0


def _fault_cases():
    """(protocol, ensemble) pairs that ``validate`` refuses, each fault class at least once."""
    ens2 = bell_basis(2)
    comp = projective_povm(np.eye(2, dtype=complex))
    half = Povm((np.eye(2, dtype=complex) / 2,))
    yield pytest.param(LoccProtocol(2, 2, ProtocolNode(ALICE, half, (Leaf(0),))), ens2, id="incomplete")
    shared = ProtocolNode(BOB, half, (Leaf(0),))
    yield pytest.param(LoccProtocol(2, 2, ProtocolNode(ALICE, comp, (shared, shared))), ens2, id="shared-incomplete")
    # Alice twice, dimensions chained, so only the alternation rule is broken
    inner = ProtocolNode(ALICE, comp, (Leaf(0), Leaf(1)))
    yield pytest.param(LoccProtocol(2, 2, ProtocolNode(ALICE, identity_round(2), (inner,))), ens2, id="not-alternating")
    # Alice keeps one coordinate on her first outcome, where a two-outcome Alice round waits
    keep1 = Povm((np.eye(2, dtype=complex)[:1], np.eye(2, dtype=complex)[1:]))
    bob = ProtocolNode(BOB, comp, (ProtocolNode(ALICE, comp, (Leaf(0), Leaf(1))), Leaf(2)))
    yield pytest.param(LoccProtocol(2, 2, ProtocolNode(ALICE, keep1, (bob, Leaf(3)))), ens2, id="input-dim")
    bob3 = ProtocolNode(BOB, projective_povm(np.eye(3, dtype=complex)), (Leaf(0), Leaf(1), Leaf(2)))
    yield pytest.param(LoccProtocol(2, 2, ProtocolNode(ALICE, comp, (Leaf(0), bob3))), ens2, id="input-dim-bob")
    for name in ("leaf-root", "mixed-children", "dead-outcomes"):
        for guess in (-1, 4):
            protocol, ens = _edge_case(name)
            bad = protocol.map_leaves(lambda leaf: Leaf(guess) if leaf.guess == 3 or name == "leaf-root" else leaf)
            yield pytest.param(bad, ens, id=f"guess-{guess}-{name}")
    # two faults: a leaf guess in the first subtree, an incomplete POVM in the second; depth-first
    # order reports the guess, though a node's loop checks its leaves without a call per leaf
    first = ProtocolNode(BOB, comp, (Leaf(0), Leaf(7)))
    yield pytest.param(LoccProtocol(2, 2, ProtocolNode(ALICE, comp, (first, shared))), ens2, id="guess-before-povm")
    # and an actor fault deep in the first subtree before a dimension fault at the second child
    deep = ProtocolNode(BOB, identity_round(2), (ProtocolNode(BOB, comp, (Leaf(0), Leaf(1))),))
    yield pytest.param(LoccProtocol(2, 2, ProtocolNode(ALICE, comp, (deep, bob3))), ens2, id="actor-before-dim")


class TestFaultParity:
    """``evaluate`` and ``simulate`` refuse a faulty tree with ``validate``'s own message."""

    @pytest.mark.parametrize("protocol, ens", _fault_cases())
    def test_same_fault_as_validate(self, protocol, ens):
        with pytest.raises(DomainError) as expected:
            protocol.validate(k=ens.k)
        with pytest.raises(DomainError) as exact:
            evaluate(protocol, ens)
        with pytest.raises(DomainError) as sampled:
            simulate(protocol, ens, trials=100, seed=0)
        assert str(exact.value) == str(sampled.value) == str(expected.value)

    @pytest.mark.parametrize(
        "name, message",
        [("guess-before-povm", "leaf guess 7 out of range"), ("actor-before-dim", "actors must alternate along every path")],
    )
    def test_two_faults_report_the_first_in_depth_first_order(self, name, message):
        protocol, ens = next(param.values for param in _fault_cases() if param.id == name)
        for run in (lambda: evaluate(protocol, ens), lambda: simulate(protocol, ens, trials=100, seed=0)):
            with pytest.raises(DomainError) as info:
                run()
            assert str(info.value) == message

    def test_completeness_at_the_callers_tol(self):
        # every leaf weight is about 8e-11 heavy: inside the default 1e-10, outside 1e-11
        protocol, ens = overweight_perfect_case()
        assert evaluate(protocol, ens).success_probability == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(DomainError) as expected:
            protocol.validate(k=ens.k, tol=1e-11)
        with pytest.raises(DomainError) as got:
            evaluate(protocol, ens, tol=1e-11)
        assert str(got.value) == str(expected.value)


def _nodes_in_step(a, b):
    """The nodes and leaves of two trees of one shape, pairwise, depth first."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        yield x, y
        if isinstance(x, ProtocolNode):
            assert isinstance(y, ProtocolNode) and len(x.children) == len(y.children)
            stack.extend(zip(x.children, y.children))


class TestPartySwap:
    @pytest.mark.parametrize("entry", build_library(), ids=lambda entry: entry.name)
    def test_swap_is_an_involution(self, entry):
        protocol = entry.protocol
        swap = protocol.swapped()
        assert (swap.dim_a, swap.dim_b) == (protocol.dim_b, protocol.dim_a)
        back = swap.swapped()
        assert (back.dim_a, back.dim_b) == (protocol.dim_a, protocol.dim_b)
        for (node, swapped), (_, restored) in zip(_nodes_in_step(protocol.root, swap.root), _nodes_in_step(protocol.root, back.root)):
            if isinstance(node, Leaf):
                assert swapped is node and restored is node
            else:
                assert swapped.actor == {ALICE: BOB, BOB: ALICE}[node.actor] and restored.actor == node.actor
                assert swapped.povm is node.povm and restored.povm is node.povm

    @pytest.mark.parametrize("entry", build_library(), ids=lambda entry: entry.name)
    def test_swapped_evaluation_agrees(self, entry):
        ref = evaluate(entry.protocol, entry.ensemble)
        got = evaluate(entry.protocol.swapped(), entry.ensemble.swapped())
        assert abs(got.success_probability - ref.success_probability) <= 1e-14
        assert abs(got.mutual_information_bits - ref.mutual_information_bits) <= 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_swapped_kraus_tree_agrees(self, seed):
        # rectangular rounds, either party at the root, Dirichlet priors
        protocol, ens = random_kraus_case(seed)
        protocol.swapped().validate(k=ens.k)
        ref = evaluate(protocol, ens)
        got = evaluate(protocol.swapped(), ens.swapped())
        assert abs(got.success_probability - ref.success_probability) <= 1e-14
        assert abs(got.mutual_information_bits - ref.mutual_information_bits) <= 1e-14

    def test_bob_first_tree_round_trips(self):
        ens = bob_first_product_set()
        protocol = product_basis_protocol(ens.swapped()).as_protocol().swapped()
        assert protocol.root.actor == BOB
        parsed = serial.protocol_from_json(serial.protocol_to_json(protocol))
        assert parsed.root.actor == BOB
        assert evaluate(parsed, ens).success_probability == evaluate(protocol, ens).success_probability >= 1 - 1e-12


class TestNoReferenceCycles:
    """A call leaves nothing for the cycle collector: what it made is freed when it returns."""

    @staticmethod
    def _assert_no_garbage(call):
        call()  # first-use caches are built outside the counted call
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["evaluate", "simulate", "validate", "map_leaves", "swapped"])
    @pytest.mark.parametrize("tree", [standard_bell_protocol, refined_bell_protocol], ids=["std", "refined"])
    def test_call_leaves_no_garbage(self, name, tree):
        protocol, ens = tree(4), bell_basis(4)
        self._assert_no_garbage(
            {
                "evaluate": lambda: evaluate(protocol, ens),
                "simulate": lambda: simulate(protocol, ens, trials=1000, seed=0),
                "validate": lambda: protocol.validate(k=ens.k),
                "map_leaves": lambda: protocol.map_leaves(lambda leaf: Leaf(leaf.guess)),
                "swapped": protocol.swapped,
            }[name]
        )

    def test_verdict_leaves_no_garbage(self):
        self._assert_no_garbage(lambda: verdict(bell_subset(5, [(0, 0), (1, 2), (3, 4)])))

    def test_bob_first_verdict_leaves_no_garbage(self):
        self._assert_no_garbage(lambda: verdict(bob_first_product_set()))


class TestDistinctIdentityRuns:
    """A run of distinct identity ``Povm`` objects, as a parsed tree holds, views its input too."""

    def test_parsed_bell_tree_takes_no_matmul(self, monkeypatch):
        protocol = serial.protocol_from_json(serial.protocol_to_json(standard_bell_protocol(12)))
        ens = bell_basis(12)
        assert len({id(node.povm) for node in protocol.root.children}) == 12
        stacked = []  # every matmul multiplies by the step's _run_stack
        run_stack = locc._run_stack
        monkeypatch.setattr(locc, "_run_stack", lambda run: stacked.append(len(run)) or run_stack(run))
        _, _, w = locc._leaf_weights(protocol, ens)
        assert stacked == []
        _no_views(monkeypatch)
        _, _, product = locc._leaf_weights(protocol, ens)
        assert stacked == [1, 12]
        assert w.tobytes() == product.tobytes()

    def test_first_dense_member_keeps_the_product(self, monkeypatch):
        # one dense POVM among identities of one shape: the whole run takes the product, bit for bit alike
        ens = _skewed_ensemble(5)
        eye = np.eye(3, dtype=complex)
        pov = [projective_povm(eye), projective_povm(haar_unitary(3, np.random.default_rng(5))), projective_povm(eye)]
        bob = tuple(ProtocolNode(BOB, p, (Leaf(0), Leaf(i + 1), Leaf(4))) for i, p in enumerate(pov))
        protocol = LoccProtocol(3, 3, ProtocolNode(ALICE, projective_povm(eye), bob))
        kinds = _spy_views(monkeypatch)
        fast = _walk_outputs(protocol, ens)
        assert kinds == ["product"] * 4
        _no_views(monkeypatch)
        assert _walk_outputs(protocol, ens) == fast


def _simulated_success(monkeypatch, protocol, ens):
    """The per-state success s that ``simulate`` hands its binomial draw."""
    seen, make = [], np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = make(seed)

        def multinomial(self, n, p):
            return self.rng.multinomial(n, p)

        def binomial(self, n, p):
            seen.append(p)
            return self.rng.binomial(n, p)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    simulate(protocol, ens, trials=1000, seed=0)
    (s,) = seen
    return s


# Seeds whose one-state weights sum to other last bits in leaf order than numpy's pairwise sum
ONE_STATE_SEEDS = (5, 10, 11, 13)


def _one_state_case(seed):
    """One seeded state on 5 x 5 under the Bell tree with every guess 0: k = 1, 25 leaves."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    ens = StateEnsemble((BipartiteState(5, 5, v / np.linalg.norm(v)),))
    return standard_bell_protocol(5).map_leaves(lambda leaf: Leaf(0)), ens


class TestHitSums:
    """``simulate``'s per-state hits are one gather, bit for bit the dense (leaves, k) mask sum."""

    @pytest.mark.parametrize(
        "protocol, ens",
        [*_run_trees(), *(pytest.param(*_one_state_case(seed), id=f"one-state-{seed}") for seed in ONE_STATE_SEEDS)],
    )
    def test_gather_equals_mask_sum(self, protocol, ens, monkeypatch):
        _, guesses, w = locc._leaf_weights(protocol, ens)
        dense = (w * (np.array(guesses)[:, None] == np.arange(ens.k))).sum(axis=0)
        s = _simulated_success(monkeypatch, protocol, ens)
        assert s.tobytes() == np.clip(dense / w.sum(axis=0), 0.0, 1.0).tobytes()

    @pytest.mark.parametrize("seed", ONE_STATE_SEEDS)
    def test_one_state_hits_exactly_one(self, seed, monkeypatch):
        # with k = 1 the hit column is contiguous, which numpy sums pairwise, not in leaf order
        protocol, ens = _one_state_case(seed)
        _, _, w = locc._leaf_weights(protocol, ens)
        in_order = np.bincount(np.zeros(len(w), dtype=int), weights=w[:, 0])
        assert in_order.tobytes() != w.sum(axis=0).tobytes()
        assert _simulated_success(monkeypatch, protocol, ens).tolist() == [1.0]

    @pytest.mark.parametrize("seed", range(3))
    def test_perfect_one_way_protocol_hits_exactly_one(self, seed, monkeypatch):
        ens = random_orthogonal_me_triple(3, seed)
        s = _simulated_success(monkeypatch, synthesize_three_qutrit_protocol(ens).as_protocol(), ens)
        assert s.tolist() == [1.0] * ens.k


class TestSamplerStream:
    """Rates pinned exactly: the random stream and the per-state success it draws with must not move.

    Counts are correct trials out of 100,000 at seeds 0, 1 and 2.  Where
    every per-state success is 0 or 1 (``BELL``, ``LIBRARY``, the leaf
    root) only the state draw decides, and the counts are those the
    Born-rule tree walk drew before ``simulate`` took the exact weights.
    ``KRAUS``, the other ``EDGE`` trees and ``RUN`` were recorded from the
    binomial draw on the exact weights.
    """

    TRIALS = 100_000
    SEEDS = (0, 1, 2)
    BELL = {
        ("std", 2): (50127, 50050, 50082),
        ("std", 3): (33548, 33258, 33351),
        ("std", 4): (25013, 24995, 24811),
        ("std", 8): (12502, 12584, 12552),
        ("std", 12): (8311, 8288, 8404),
        ("std", 16): (6234, 6213, 6298),
        ("refined", 2): (50127, 50050, 50082),
        ("refined", 3): (33548, 33258, 33351),
        ("refined", 4): (25013, 24995, 24811),
        ("refined", 8): (12502, 12584, 12552),
        ("refined", 12): (8311, 8288, 8404),
        ("refined", 16): (6234, 6213, 6298),
    }
    KRAUS = {
        0: (18078, 18294, 18140),
        1: (26475, 26225, 26506),
        2: (38384, 38100, 38216),
        3: (30518, 30220, 30343),
        4: (18111, 18321, 18116),
        5: (44406, 44160, 44257),
        6: (44386, 44655, 44379),
        7: (12520, 12321, 12477),
        8: (51949, 51935, 51939),
        9: (29990, 29793, 30178),
    }
    EDGE = {
        "leaf-root": (15169, 15052, 15110),
        "mixed-children": (12081, 12012, 12027),
        "dead-outcomes": (17568, 17308, 17613),
    }
    RUN = {
        "bob-parent-shared": (22553, 22472, 22363),
        "bob-parent-multirow-children": (22736, 22690, 22648),
        "alice-parent-multirow": (14324, 14240, 14264),
        "broken-runs": (19824, 19963, 19825),
    }
    LIBRARY = {
        "bell-standard-full-2": (50127, 50050, 50082),
        "bell-standard-full-3": (33548, 33258, 33351),
        "bell-standard-full-4": (25013, 24995, 24811),
        "bell-standard-full-5": (20081, 20016, 20086),
        "bell-standard-sub-3-k4": (75081, 74865, 74964),
        "bell-standard-sub-3-k6": (50045, 50221, 49988),
        "bell-standard-sub-4-k5": (80006, 79854, 80018),
        "three-qutrit-seed0": (100000, 100000, 100000),
        "three-qutrit-seed1": (100000, 100000, 100000),
        "three-qutrit-seed2": (100000, 100000, 100000),
        "three-qutrit-seed3": (100000, 100000, 100000),
        "three-qutrit-seed4": (100000, 100000, 100000),
        "three-qutrit-bell-triple": (100000, 100000, 100000),
        "cub-3-k3": (100000, 100000, 100000),
        "cub-3-k2": (100000, 100000, 100000),
        "cub-5-k3": (100000, 100000, 100000),
        "cub-5-k2": (100000, 100000, 100000),
        "cub-7-k4": (100000, 100000, 100000),
        "cub-7-k3": (100000, 100000, 100000),
        "discard-bell2-keep2of3": (66771, 66409, 66559),
        "discard-bell2-keep2of4": (50125, 49734, 49896),
        "discard-bell3-keep3of4": (75081, 74865, 74964),
        "discard-bell3-keep3of5": (60104, 59826, 59953),
        "discard-bell3-keep3of7": (42973, 42669, 42805),
        "discard-bell3-keep3of9": (33448, 33149, 33284),
        "two-state-bell2": (100000, 100000, 100000),
        "two-state-product": (100000, 100000, 100000),
        "two-state-random-2x3": (100000, 100000, 100000),
        "blind-guess-bell2": (25171, 24919, 25014),
        "blind-guess-prod23": (16813, 16597, 16678),
        "product-basis-2x2": (100000, 100000, 100000),
        "product-basis-2x3": (100000, 100000, 100000),
        "simdiag-fourier3": (100000, 100000, 100000),
        "simdiag-haar4": (100000, 100000, 100000),
        "single-state": (100000, 100000, 100000),
    }

    def _assert_golden(self, protocol, ens, counts):
        rates = [simulate(protocol, ens, trials=self.TRIALS, seed=s) for s in self.SEEDS]
        assert rates == [c / self.TRIALS for c in counts]

    @pytest.mark.parametrize("kind, n", list(BELL), ids=lambda v: str(v))
    def test_bell_trees(self, kind, n):
        protocol = standard_bell_protocol(n) if kind == "std" else refined_bell_protocol(n)
        self._assert_golden(protocol, bell_basis(n), self.BELL[kind, n])

    @pytest.mark.parametrize("case", list(KRAUS))
    def test_random_kraus_trees(self, case):
        self._assert_golden(*random_kraus_case(case), self.KRAUS[case])

    @pytest.mark.parametrize("name", list(EDGE))
    def test_edge_trees(self, name):
        protocol, ens = _edge_case(name)
        self._assert_golden(protocol, ens, self.EDGE[name])
        p = evaluate(protocol, ens).success_probability
        sigma = max(math.sqrt(p * (1.0 - p) / self.TRIALS), 1e-12)
        for c in self.EDGE[name]:
            assert abs(c / self.TRIALS - p) <= 5.0 * sigma

    @pytest.mark.parametrize("name", list(RUN))
    def test_run_trees(self, name):
        self._assert_golden(*_run_case(name), self.RUN[name])

    @pytest.mark.parametrize("entry", build_library(), ids=lambda e: e.name)
    def test_library(self, entry):
        self._assert_golden(entry.protocol, entry.ensemble, self.LIBRARY[entry.name])

    def test_dead_outcomes_have_zero_weight(self):
        # Alice's unoccupied outcome 2 and Bob's zero operator (outcome 3 below Alice's 0) reach no state
        paths = {path for _, path, _, _ in evaluate(*_edge_case("dead-outcomes")).joint}
        assert (0, 0) in paths and (1,) in paths
        assert not [path for path in paths if path[:1] == (2,) or path[:2] == (0, 3)]


class TestEvaluatorGolden:
    """Exact results pinned bit for bit: the evaluator's arithmetic and its joint row order must not move.

    Each entry is ``float.hex`` of the success probability and of the mutual
    information, plus the first 16 hex digits of the sha256 of the joint rows
    (state, path, guess and ``float.hex`` of p, one line per row).  ``BELL``
    and ``KRAUS`` were recorded from the evaluator that gave every leaf-only
    node its own product; ``EDGE``, ``RUN`` and ``LIBRARY`` from the one
    that weighed a node's leaves beside internal children one row each.  The
    ``three-qutrit-*`` and ``discard-bell3-*`` entries, whose protocols come from
    ``synthesize_three_qutrit_protocol``, were recorded from its one-eigensystem
    form, and ``two-state-random-2x3`` and ``discard-bell2-keep2of4``, whose
    protocols come from ``two_state_protocol``, from its real 2x2 step that
    reads rounding-level values as zero (the Bell pair's diagonal is real up
    to rounding, so it now takes no eigensystem).
    """

    BELL = {
        ("std", 3): ("0x1.5555555555555p-2", "0x1.95c01a39fbd66p+0", "7632d8b797f8313f"),
        ("std", 8): ("0x1.0000000000000p-3", "0x1.8000000000000p+1", "23caf6ea8a50c7cd"),
        ("refined", 3): ("0x1.5555555555555p-2", "0x1.95c01a39fbd66p+0", "8701c5ddc1196d23"),
        ("refined", 8): ("0x1.0000000000000p-3", "0x1.8000000000000p+1", "78cb1e7dbbca04e8"),
    }
    KRAUS = {
        0: ("0x1.73c10fc3582c7p-3", "0x1.3f15b00245a74p-3", "953773382766dd58"),
        1: ("0x1.0e9fea8b9834ap-2", "0x1.bb904da2ff71dp-4", "19bb3eecb18e04d2"),
        2: ("0x1.887c3c67fafa2p-2", "0x1.d8de0994a01aap-5", "b30d281b4d0e1ca4"),
        3: ("0x1.37dad6f48331ep-2", "0x1.1160a25250bb4p-4", "3a061f451f407fa7"),
        4: ("0x1.735f7b1563958p-3", "0x1.f7eb6a330a880p-5", "6505e3460d987c24"),
        5: ("0x1.c67bd77d924e8p-2", "0x1.fca23019abcd6p-4", "807dcec13ec564f6"),
        6: ("0x1.c68d2c44e3c36p-2", "0x1.7c520f6cb3fa2p-3", "8d2cf7ef4fbacb3c"),
        7: ("0x1.fe308c260caadp-4", "0x1.669e7599eb900p-3", "f1f4710e7b64d192"),
        8: ("0x1.0a53c94773f39p-1", "0x1.837bfe7d3b794p-5", "eb9a5f5bbc931c65"),
        9: ("0x1.337c4c8cf714cp-2", "0x1.c828e2e2d8290p-4", "40bb60272db6aefa"),
    }

    EDGE = {
        "mixed-children": ("0x1.ec675ed033a8cp-4", "0x1.6937a0f69ca6fp-2", "1f8c8e412ec0fb93"),
        "dead-outcomes": ("0x1.678b18e64201fp-3", "0x1.b5af2a92f594ap-4", "53db508125e2dad2"),
    }
    RUN = {
        "bob-parent-shared": ("0x1.cb9918bc2f400p-3", "0x1.0c412129e6f56p-4", "df07c62ca13c6beb"),
        "bob-parent-multirow-children": ("0x1.cfc95d243d08dp-3", "0x1.3015aa0d5e9f0p-3", "15d9fe72f58abff2"),
        "alice-parent-multirow": ("0x1.23d7537c5bee5p-3", "0x1.9a607b064093cp-4", "f0402b8cf6e358a8"),
        "broken-runs": ("0x1.97fa5137ed29ap-3", "0x1.2ec18b284d3fdp-2", "5f36f96b61768b63"),
    }
    LIBRARY = {
        "bell-standard-full-2": ("0x1.0000000000000p-1", "0x1.0000000000000p+0", "22fcd49c6705c39d"),
        "bell-standard-full-3": ("0x1.5555555555555p-2", "0x1.95c01a39fbd66p+0", "7632d8b797f8313f"),
        "bell-standard-full-4": ("0x1.0000000000000p-2", "0x1.0000000000000p+1", "bfbe06389486f8c1"),
        "bell-standard-full-5": ("0x1.999999999999ap-3", "0x1.2934f0979a371p+1", "544e03c21b835add"),
        "bell-standard-sub-3-k4": ("0x1.8000000000000p-1", "0x1.8000000000000p+0", "896d534633430dc5"),
        "bell-standard-sub-3-k6": ("0x1.0000000000000p-1", "0x1.95c01a39fbd6ap+0", "ca1cccea0ce5661b"),
        "bell-standard-sub-4-k5": ("0x1.999999999999ap-1", "0x1.ec037ac8ce07cp+0", "f60eab073dde59a6"),
        "three-qutrit-seed0": ("0x1.0000000000000p+0", "0x1.95c01a39fbd6ap+0", "590d142dc943305b"),
        "three-qutrit-seed1": ("0x1.0000000000000p+0", "0x1.95c01a39fbd69p+0", "6cca004029f086fa"),
        "three-qutrit-seed2": ("0x1.0000000000000p+0", "0x1.95c01a39fbd6ap+0", "6ff679ccc0190b6f"),
        "three-qutrit-seed3": ("0x1.0000000000000p+0", "0x1.95c01a39fbd69p+0", "4551c24a32efde00"),
        "three-qutrit-seed4": ("0x1.0000000000000p+0", "0x1.95c01a39fbd6ap+0", "2943bc32b15a5708"),
        "three-qutrit-bell-triple": ("0x1.0000000000000p+0", "0x1.95c01a39fbd69p+0", "88aa8ced1aff1c0f"),
        "cub-3-k3": ("0x1.0000000000000p+0", "0x1.95c01a39fbd69p+0", "d29fa5840a6d3f99"),
        "cub-3-k2": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "be4b678cf0e0b001"),
        "cub-5-k3": ("0x1.0000000000000p+0", "0x1.95c01a39fbd69p+0", "400712786ad705aa"),
        "cub-5-k2": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "c01a7466e4cfcbbf"),
        "cub-7-k4": ("0x1.ffffffffffffdp-1", "0x1.fffffffffffffp+0", "600f108b11565aea"),
        "cub-7-k3": ("0x1.0000000000000p+0", "0x1.95c01a39fbd66p+0", "0a6d80f7640960b3"),
        "discard-bell2-keep2of3": ("0x1.5555555555555p-1", "0x1.d62adf1ea257ap-1", "8995c31f80094091"),
        "discard-bell2-keep2of4": ("0x1.0000000000000p-1", "0x1.0000000000000p+0", "f144ba7805d8c301"),
        "discard-bell3-keep3of4": ("0x1.8000000000003p-1", "0x1.7ffffffffffffp+0", "b940187a4e45bb82"),
        "discard-bell3-keep3of5": ("0x1.3333333333336p-1", "0x1.859d146267a15p+0", "9d9e29f45f75817b"),
        "discard-bell3-keep3of7": ("0x1.b6db6db6db6dep-2", "0x1.8e810dd1a6e08p+0", "7dcf29f19e200320"),
        "discard-bell3-keep3of9": ("0x1.5555555555557p-2", "0x1.95c01a39fbd68p+0", "46b360824b799ea1"),
        "two-state-bell2": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "8a0595c09fe0a94e"),
        "two-state-product": ("0x1.0000000000000p+0", "0x1.fffffffffffffp-1", "bcb7c465dee890ca"),
        "two-state-random-2x3": ("0x1.ffffffffffffep-1", "0x1.0000000000001p+0", "b88790e0ba44bb45"),
        "blind-guess-bell2": ("0x1.0000000000000p-2", "0x0.0p+0", "f3bf06b8f1c12eb9"),
        "blind-guess-prod23": ("0x1.5555555555556p-3", "0x0.0p+0", "4e4afabe10905076"),
        "product-basis-2x2": ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "094441bf7cf37b2f"),
        "product-basis-2x3": ("0x1.0000000000000p+0", "0x1.4ae00d1cfdeb5p+1", "3379301002e9b3af"),
        "simdiag-fourier3": ("0x1.0000000000000p+0", "0x1.95c01a39fbd69p+0", "ff81ed22f2cf4129"),
        "simdiag-haar4": ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "9f731932f8a42aa1"),
        "single-state": ("0x1.0000000000000p+0", "0x0.0p+0", "d0f2ab7fd20b84db"),
    }

    @staticmethod
    def _pin(res):
        rows = "".join(f"{v} {path} {g} {p.hex()}\n" for v, path, g, p in res.joint)
        digest = hashlib.sha256(rows.encode()).hexdigest()[:16]
        return res.success_probability.hex(), res.mutual_information_bits.hex(), digest

    @pytest.mark.parametrize("kind, n", list(BELL), ids=lambda v: str(v))
    def test_bell_trees(self, kind, n):
        protocol = standard_bell_protocol(n) if kind == "std" else refined_bell_protocol(n)
        assert self._pin(evaluate(protocol, bell_basis(n))) == self.BELL[kind, n]

    @pytest.mark.parametrize("case", list(KRAUS))
    def test_random_kraus_trees(self, case):
        assert self._pin(evaluate(*random_kraus_case(case))) == self.KRAUS[case]

    @pytest.mark.parametrize("name", list(EDGE))
    def test_edge_trees(self, name):
        assert self._pin(evaluate(*_edge_case(name))) == self.EDGE[name]

    @pytest.mark.parametrize("name", list(RUN))
    def test_run_trees(self, name):
        assert self._pin(evaluate(*_run_case(name))) == self.RUN[name]

    @pytest.mark.parametrize("entry", build_library(), ids=lambda e: e.name)
    def test_library(self, entry):
        assert self._pin(evaluate(entry.protocol, entry.ensemble)) == self.LIBRARY[entry.name]


def _random_spec(seed):
    """Seeded one-way spec whose Bob groups have unequal sizes, some of them empty."""
    rng = np.random.default_rng(seed)
    da, db = (int(x) for x in rng.integers(2, 7, size=2))

    def haar(d):
        return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]

    sizes = rng.integers(0, db + 1, size=da)
    sizes[0], sizes[-1] = 0, max(int(sizes[-1]), 1)
    labels, vectors = [], []
    for n in sizes:
        group = [(int(rng.integers(3)), v + 1e-9 * rng.standard_normal(db)) for v in haar(db).T[:n]]
        labels.append(tuple(lab for lab, _ in group))
        vectors += [v for _, v in group]
    return OneWayProtocolSpec(haar(da), tuple(labels), vectors)


def _groups(spec):
    """The spec's vectors cut into its outcomes' groups."""
    return np.split(spec.vectors, np.cumsum([len(labs) for labs in spec.labels])[:-1])


class TestOneWayExpansion:
    """``as_protocol``'s one batched QR gives exactly the per-outcome completion."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_outcome_completion(self, seed):
        spec = _random_spec(seed)
        protocol = spec.as_protocol()
        protocol.validate()
        assert not spec.labels[0]
        for node, labs, group in zip(protocol.root.children, spec.labels, _groups(spec)):
            ref = projective_povm(orthonormal_completion(list(group), spec.dim_b))
            assert np.array_equal(node.povm.stacked, ref.stacked)
            guesses = [leaf.guess for leaf in node.children]
            assert guesses == list(labs) + [0] * (spec.dim_b - len(labs))
        assert np.array_equal(protocol.root.povm.stacked, spec.alice_basis.conj().T)

    def test_empty_group_gives_identity(self):
        spec = OneWayProtocolSpec(np.eye(2, dtype=complex), ((), (1,)), [np.array([0.0, 1.0, 0.0])])
        protocol = spec.as_protocol()
        assert np.array_equal(protocol.root.children[0].povm.stacked, np.eye(3))
        assert np.array_equal(protocol.root.children[1].povm.stacked[0], [0.0, 1.0, 0.0])

    def test_all_groups_empty(self):
        spec = OneWayProtocolSpec(np.eye(2, dtype=complex), ((), ()), [])
        assert spec.dim_b == 2 and spec.max_bob_overlap() == 0.0
        protocol = spec.as_protocol()
        protocol.validate()
        assert all(np.array_equal(node.povm.stacked, np.eye(2)) for node in protocol.root.children)

    def test_dependent_vectors_rejected(self):
        v = np.array([1.0, 0.0])
        spec = OneWayProtocolSpec(np.eye(2, dtype=complex), ((0, 1), ()), [v, v])
        with pytest.raises(DomainError, match="numerically dependent"):
            spec.as_protocol()

    def test_too_many_vectors_rejected(self):
        vecs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(DomainError, match="more vectors than the dimension allows"):
            OneWayProtocolSpec(np.eye(2, dtype=complex), ((0, 1, 2), ()), vecs)

    def test_vector_length_checked(self):
        vecs = (np.array([1.0, 0.0]), np.ones(3) / np.sqrt(3))
        with pytest.raises(DomainError, match="vector length does not match dimension"):
            OneWayProtocolSpec(np.eye(2, dtype=complex), ((0,), (1,)), vecs)

    @pytest.mark.parametrize("label", [2.5, True, "3", None])
    def test_non_integer_label_refused(self, label):
        """Refused by the constructor and in a payload alike, never truncated or read as 1."""
        with pytest.raises(DomainError, match="^label must be an integer"):
            OneWayProtocolSpec(np.eye(2, dtype=complex), ((0, label), ()), np.eye(2))
        payload = serial.one_way_spec_to_json(OneWayProtocolSpec(np.eye(2, dtype=complex), ((0, 1), ()), np.eye(2)))
        payload["bob_discriminators"][0][1]["label"] = label
        with pytest.raises(DomainError, match="^label must be an integer"):
            serial.one_way_spec_from_json(payload)

    def test_integer_valued_labels_become_ints(self):
        spec = OneWayProtocolSpec(np.eye(2, dtype=complex), [[np.int64(1), 2.0], []], np.eye(2))
        assert spec.labels == ((1, 2), ()) and all(type(lab) is int for lab in spec.labels[0])

    @pytest.mark.parametrize("count", [1, 3])
    def test_vector_count_checked(self, count):
        vecs = np.eye(3, dtype=complex)[:count]
        with pytest.raises(DomainError, match="need one Bob vector per label"):
            OneWayProtocolSpec(np.eye(2, dtype=complex), ((0,), (1,)), vecs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            OneWayProtocolSpec(np.eye(2), ((0,), ()), [[bad, 0]])


def _bell_subset_cases():
    """Seeded Bell subsets at prime n with every default CUB candidate, and the n = 17 byte pin's labels."""
    rng = np.random.default_rng(23)
    cases = []
    for n in (3, 5, 7, 11, 17):
        pairs = [(m, l) for m in range(n) for l in range(n)]
        for k in (3, int(rng.integers(4, 7))):
            labels = [pairs[i] for i in rng.choice(len(pairs), size=k, replace=False)]
            cases.append((f"bell-n{n}-k{k}", bell_subset(n, labels), [c.conj() for c in default_cub_candidates(n)]))
    pin = bell_subset(17, [(0, 0), (1, 0), (0, 1), (2, 3), (5, 7), (11, 13)])
    cases.append(("bell-subset-n17-pin", pin, [c.conj() for c in default_cub_candidates(17)]))
    return cases


def _pair_cases():
    """Seeded orthogonal pairs with the two-state separator's Alice basis."""
    rng = np.random.default_rng(24)
    cases = []
    for da, db in ((3, 12), (8, 8), (16, 16), (24, 24)):
        ens = uniform_ensemble(random_orthogonal_pair(rng, da, db))
        cases.append((f"pair-{da}x{db}", ens, [two_state_protocol(ens).alice_basis]))
    return cases


def _simdiag_and_triple_cases():
    """Simultaneously diagonal sets (the ``simdiag-n8`` pin among them) and three-qutrit triples."""
    cases = []
    for n, seed in ((7, 7), (8, 8), (8, 9)):
        ens = simultaneously_diagonal_ensemble(haar_unitary(n, np.random.default_rng(seed)))
        cases.append((f"simdiag-n{n}-seed{seed}", ens, [c.conj() for c in default_cub_candidates(n)]))
    for seed in range(3):
        ens = random_orthogonal_me_triple(3, seed)
        cases.append((f"me-triple-seed{seed}", ens, [synthesize_three_qutrit_protocol(ens).alice_basis]))
    triple = bell_subset(3, [(0, 0), (1, 0), (1, 1)])
    cases.append(("bell-triple-n3", triple, [synthesize_three_qutrit_protocol(triple).alice_basis]))
    return cases


_BATCHING_CASES = _bell_subset_cases() + _pair_cases() + _simdiag_and_triple_cases()


class TestOneWayBatching:
    """``one_way_protocol`` and ``max_bob_overlap`` give the per-vector and per-pair loops' bits."""

    @pytest.mark.parametrize("name, ens, bases", _BATCHING_CASES, ids=[case[0] for case in _BATCHING_CASES])
    def test_matches_per_vector_loops(self, name, ens, bases):
        for basis in bases:
            ref = one_way_groups_per_vector(ens.states, basis)
            if max(map(len, ref)) > ens.dim_b:  # such a spec cannot exist, nor be expanded
                with pytest.raises(DomainError, match="more vectors than the dimension allows"):
                    locc.one_way_protocol(ens.amplitude_matrices(), basis)
                continue
            spec = locc.one_way_protocol(ens.amplitude_matrices(), basis)
            assert [list(labs) for labs in spec.labels] == [[lab for lab, _ in g] for g in ref]
            assert np.array_equal(spec.vectors, np.array([v for g in ref for _, v in g]).reshape(-1, ens.dim_b))
            assert spec.max_bob_overlap() == max_overlap_per_pair(ref)

    def test_vectors_read_only_and_fill_bob(self):
        spec = locc.one_way_protocol(bell_subset(3, [(0, 0), (1, 0), (2, 1)]).amplitude_matrices(), np.eye(3, dtype=complex))
        assert spec.vectors.shape == (9, 3) and not spec.vectors.flags.writeable
        filled = np.arange(spec._bob.shape[1]) < np.array([len(labs) for labs in spec.labels])[:, None]
        assert np.array_equal(spec._bob[filled], spec.vectors)
        assert not spec._bob[~filled].any() and not spec._bob.flags.writeable


def _batched_specs():
    """(name, spec) for every spec of ``_BATCHING_CASES`` whose vectors complete to bases (``as_protocol`` expands it).

    Two specs with empty outcome groups, whose rounds are the identity, come first.
    """
    specs = [
        ("empty-group", OneWayProtocolSpec(np.eye(2, dtype=complex), ((), (1,)), [np.array([0.0, 1.0, 0.0])])),
        ("all-groups-empty", OneWayProtocolSpec(np.eye(2, dtype=complex), ((), ()), [])),
    ]
    for name, ens, bases in _BATCHING_CASES:
        for i, basis in enumerate(bases):
            if max(map(len, one_way_groups_per_vector(ens.states, basis))) > ens.dim_b:
                continue
            spec = locc.one_way_protocol(ens.amplitude_matrices(), basis)
            try:
                locc._completed_bases(spec._bob, [len(labs) for labs in spec.labels])
            except DomainError:  # dependent vectors: no tree, on either path
                continue
            specs.append((f"{name}-{i}", spec))
    return specs


_BATCHED_SPECS = _batched_specs()


def _assert_round_matches(povm, ref):
    """``povm`` holds ``ref``'s operators bit for bit, its identity test, and a defect within 1e-15 of ``ref``'s."""
    assert np.array_equal(povm.stacked, ref.stacked) and not povm.stacked.flags.writeable
    assert np.array_equal(povm.offsets, ref.offsets) and povm.offsets.dtype == ref.offsets.dtype
    assert len(povm.elements) == len(ref.elements)
    for a, b in zip(povm.elements, ref.elements):
        assert np.array_equal(a, b) and a.shape == b.shape and not a.flags.writeable
    assert povm.is_identity is ref.is_identity
    assert abs(povm.completeness_defect() - ref.completeness_defect()) <= 1e-15
    assert not povm.is_identity or povm.completeness_defect() == 0.0


class TestBobRoundStack:
    """``as_protocol``'s Bob rounds are views of one checked stack, each equal to the per-round ``Povm(rows)``."""

    @pytest.mark.parametrize("name, spec", _BATCHED_SPECS, ids=[case[0] for case in _BATCHED_SPECS])
    def test_rounds_match_per_round_povms(self, name, spec):
        q = locc._completed_bases(spec._bob, [len(labs) for labs in spec.labels])
        protocol = spec.as_protocol()
        protocol.validate()
        nodes = protocol.root.children
        assert not any("elements" in vars(node.povm) for node in nodes)  # made on first read, and validate reads none
        assert len(nodes) == len(q)
        for node, rows in zip(nodes, q.conj().transpose(0, 2, 1)[:, :, None, :]):
            _assert_round_matches(node.povm, Povm(rows))
            assert node.povm.stacked.base is nodes[0].povm.stacked.base is not None  # views of one stack

    @pytest.mark.parametrize("name, spec", _BATCHED_SPECS, ids=[case[0] for case in _BATCHED_SPECS])
    def test_run_steps_on_the_stack_slice(self, name, spec):
        """A run of consecutive rounds of one stack steps on its slice, with no copy; any other run
        stacks copies; and the walk's bits are those of the tree rebuilt from per-round copies."""
        protocol = spec.as_protocol()
        nodes = protocol.root.children
        whole = nodes[0].povm.stacked.base
        copied = tuple(ProtocolNode(BOB, Povm(np.array(node.povm.stacked)[:, None]), node.children) for node in nodes)
        other = spec.as_protocol().root.children  # rounds of another stack
        runs = [(nodes, True), (nodes[1:], True), (nodes[::-1], False), (nodes[::2], False)]
        for run, sliced in runs + [([nodes[0], other[1]], False), ([nodes[0], copied[1]], False)]:
            if len(run) > 1:
                got = locc._run_stack(run)
                assert (got.base is whole) == sliced
                assert got.tobytes() == np.stack([node.povm.stacked for node in run]).tobytes()
        rng = np.random.default_rng(len(nodes))
        v = rng.standard_normal((1 + max(itertools.chain(*spec.labels), default=0), spec.dim_a * spec.dim_b, 2)) @ [1, 1j]
        ens = uniform_ensemble([BipartiteState(spec.dim_a, spec.dim_b, x / np.linalg.norm(x)) for x in v])
        per_round = LoccProtocol(protocol.dim_a, protocol.dim_b, ProtocolNode(ALICE, protocol.root.povm, copied))
        assert _walk_outputs(protocol, ens) == _walk_outputs(per_round, ens)

    def test_cases_hold_identity_rounds(self):
        """Empty outcome groups complete to the identity, so the identity branch is exercised above."""
        assert sum(node.povm.is_identity for _, spec in _BATCHED_SPECS for node in spec.as_protocol().root.children) == 3

    @pytest.mark.parametrize("entry", build_library(), ids=lambda e: e.name)
    def test_library_rounds_match_per_round_povms(self, entry):
        """Every POVM of every library tree against one rebuilt from copies of its elements."""
        todo = [entry.protocol.root]
        while todo:
            node = todo.pop()
            if isinstance(node, Leaf):
                continue
            _assert_round_matches(node.povm, Povm(tuple(np.array(m) for m in node.povm.elements)))
            todo.extend(node.children)

    def test_library_holds_stacked_rounds(self):
        """The library test above covers one-way trees: most entries hold rounds built by ``as_protocol``."""
        roots = [entry.protocol.root for entry in build_library() if not isinstance(entry.protocol.root, Leaf)]
        stacked = [any(isinstance(getattr(c, "povm", None), locc._StackedRound) for c in root.children) for root in roots]
        assert sum(stacked) >= 20

    def test_scaled_round_refused_in_first_fault_order(self, monkeypatch):
        """Rounds 2 and 5 scaled: the tree is refused for round 2, with the message the per-round tree gives."""
        spec = dict(_BATCHED_SPECS)["pair-8x8-0"]
        completed = locc._completed_bases

        def scaled(rows, counts):
            q = completed(rows, counts)
            q[2] *= 1 + 1e-6
            q[5] *= 1 + 2e-6
            return q

        monkeypatch.setattr(locc, "_completed_bases", scaled)
        protocol = spec.as_protocol()
        q = scaled(spec._bob, [len(labs) for labs in spec.labels])
        per_round = LoccProtocol(
            protocol.dim_a,
            protocol.dim_b,
            ProtocolNode(
                ALICE,
                protocol.root.povm,
                tuple(
                    ProtocolNode(BOB, Povm(rows), node.children)
                    for node, rows in zip(protocol.root.children, q.conj().transpose(0, 2, 1)[:, :, None, :])
                ),
            ),
        )
        messages = []
        for tree in (protocol, per_round):
            with pytest.raises(DomainError, match=r"incomplete POVM \(defect 2\.000e-06 > 1e-10\)") as err:
                tree.validate()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        # the kept defect is compared with tol on every call: a looser tol passes the same tree
        protocol.validate(tol=1e-5)
        with pytest.raises(DomainError, match=r"defect 4\.000e-06 > 3e-06"):
            protocol.validate(tol=3e-6)

    def test_nan_refused_when_built(self, monkeypatch):
        spec = dict(_BATCHED_SPECS)["pair-8x8-0"]
        completed = locc._completed_bases

        def poisoned(rows, counts):
            q = completed(rows, counts)
            q[3, 1, 4] = np.nan
            return q

        monkeypatch.setattr(locc, "_completed_bases", poisoned)
        with pytest.raises(DomainError, match="non-finite"):
            spec.as_protocol()


class TestStandardBellProtocol:
    def test_bad_subset_rejected(self):
        with pytest.raises(DomainError):
            standard_bell_protocol(2, [(3, 0)])
        with pytest.raises(DomainError):
            standard_bell_protocol(2, [])

    def test_dimension_below_two_rejected(self):
        with pytest.raises(DomainError, match="^need dimension >= 2$"):
            standard_bell_protocol(1)

    def test_full_bb2_success(self):
        res = evaluate(standard_bell_protocol(2), bell_basis(2))
        assert abs(res.success_probability - 0.5) < 1e-14


def _built(obj):
    """What a builder's result holds, for comparing two builds."""
    if isinstance(obj, StateEnsemble):
        return obj.amplitude_matrices().tolist()
    if isinstance(obj, LoccProtocol):
        assert type(obj.dim_a) is int and type(obj.dim_b) is int
        return serial.protocol_to_json(obj)
    return obj.stacked.tolist()


_INTEGER_ARGUMENTS = [
    ("bell_basis", lambda x: bell_basis(x)),
    ("bell_subset", lambda x: bell_subset(x, [(0, 0), (1, 2)])),
    ("standard_bell_protocol", lambda x: standard_bell_protocol(x)),
    ("blind_guess_protocol-dim_a", lambda x: blind_guess_protocol(x, 2)),
    ("blind_guess_protocol-dim_b", lambda x: blind_guess_protocol(2, x)),
    ("identity_round", lambda x: identity_round(x)),
    ("random_orthogonal_me_triple-n", lambda x: random_orthogonal_me_triple(x, 1)),
    ("random_orthogonal_me_triple-seed", lambda x: random_orthogonal_me_triple(3, x)),
]


@pytest.mark.parametrize("build", [b for _, b in _INTEGER_ARGUMENTS], ids=[n for n, _ in _INTEGER_ARGUMENTS])
def test_builders_take_integer_valued_sizes_and_seeds(build):
    assert _built(build(3.0)) == _built(build(np.int64(3))) == _built(build(3))
    for bad in (2.5, True, "3"):
        with pytest.raises(DomainError, match="must be an integer"):
            build(bad)


class TestDiscardProtocol:
    def test_keep_two_of_four(self):
        ens = bell_basis(2)
        inner = two_state_protocol(uniform_ensemble(ens.states[:2])).as_protocol()
        res = evaluate(discard_protocol(inner, [0, 1], 4), ens)
        assert abs(res.success_probability - 0.5) < 1e-12

    def test_exactly_scales_inner_success(self):
        ens = bell_subset(3, [(m, l) for m in range(3) for l in range(3)][:5])
        triple = uniform_ensemble(ens.states[:3])
        inner = synthesize_three_qutrit_protocol(triple).as_protocol()
        inner_success = evaluate(inner, triple).success_probability
        outer = evaluate(discard_protocol(inner, [0, 1, 2], 5), ens).success_probability
        assert abs(outer - (3.0 / 5.0) * inner_success) < 1e-12

    def test_keep_all(self):
        ens = bell_subset(2, [(0, 0), (1, 0)])
        inner = two_state_protocol(ens).as_protocol()
        res = evaluate(discard_protocol(inner, [0, 1], 2), ens)
        assert res.success_probability > 1 - 1e-9

    def test_validation(self):
        inner = blind_guess_protocol(2, 2, 0)
        with pytest.raises(DomainError):
            discard_protocol(inner, [], 4)
        with pytest.raises(DomainError):
            discard_protocol(inner, [0, 0], 4)
        with pytest.raises(DomainError):
            discard_protocol(inner, [5], 4)
        for kept in ([0, 1.7], [0, True]):
            with pytest.raises(DomainError, match="kept label must be an integer"):
                discard_protocol(inner, kept, 3)

    def test_inner_guess_outside_kept_rejected(self):
        # the inner Bell tree guesses labels 0..3, two of which have no kept state
        with pytest.raises(DomainError, match="^inner protocol guesses outside the kept set$"):
            discard_protocol(standard_bell_protocol(2), [0, 1], 4)


class TestZeroValueScan:
    """The deflation's search for a zero diagonal entry or a sign pair: the basis of a dense loop
    reference, at most one eigensystem, and a zero diagonal on structured and large inputs."""

    KINDS = ("generic", "hermitian", "near-diagonal", "anti-hermitian", "jordan", "zero", "rotated-clock", "hermitian-rounding")

    @staticmethod
    def _assert_zero_diagonal(mat, w, tol):
        m = mat.shape[0]
        assert float(np.max(np.abs(np.diag(w.conj().T @ mat @ w)))) <= tol
        assert float(np.max(np.abs(w.conj().T @ w - np.eye(m)))) <= 1e-12

    @pytest.mark.parametrize("m", range(2, 41))
    def test_matches_loop_reference(self, m):
        rng = np.random.default_rng(500 + m)
        for kind in self.KINDS:
            mat = _traceless(rng, m, kind)
            w = locc._zero_diagonal_basis(mat)
            np.testing.assert_allclose(w, _reference_zero_diagonal_basis(mat), rtol=0, atol=1e-12)
            self._assert_zero_diagonal(mat, w, 1e-9)

    @pytest.mark.parametrize("m", range(2, 25))
    def test_hermitian_basis_ignores_rounding(self, m):
        """Every phase of c1 solves a Hermitian compression; c1 is real there, so anti-Hermitian
        noise far below the rounding cut, of either sign, leaves the basis where it was."""
        rng = np.random.default_rng(700 + m)
        for _ in range(3):
            mat = _traceless(rng, m, "hermitian")
            noise = 1e-17 * _traceless(rng, m, "anti-hermitian")
            w = locc._zero_diagonal_basis(mat)
            for sign in (1.0, -1.0):
                np.testing.assert_allclose(locc._zero_diagonal_basis(mat + sign * noise), w, rtol=0, atol=1e-12)

    def test_fallback_reached_and_zero_diagonal(self, monkeypatch):
        """A diagonal with imaginary parts above rounding takes one eigensystem, a real one none."""
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        rng = np.random.default_rng(77)
        for m in range(3, 25):
            for kind, expected in (("generic", 1), ("anti-hermitian", 1), ("hermitian", 0), ("hermitian-rounding", 0), ("zero", 0)):
                calls.clear()
                mat = _traceless(rng, m, kind)
                self._assert_zero_diagonal(mat, locc._zero_diagonal_basis(mat), 1e-9)
                assert len(calls) == expected, (m, kind)

    def test_residual_scales_with_the_matrix(self):
        rng = np.random.default_rng(2026)
        for m in range(2, 41):
            for kind in self.KINDS:
                mat = _traceless(rng, m, kind)
                self._assert_zero_diagonal(mat, locc._zero_diagonal_basis(mat), 1e-11 * float(np.max(np.abs(mat))))

    def test_compression_reaches_zero(self, rng):
        """Hermitian compressions, exactly or up to rounding, take c1 real.  A diagonal far below the
        off-diagonal (top = 1e-6) needs the root in the form that adds terms of one sign."""
        for kind, top in itertools.product(("generic", "hermitian", "hermitian-rounding"), (2.0, 1e-6)):
            for _ in range(50):
                b = _traceless(rng, 2, kind)
                b[0, 0], b[1, 1] = rng.uniform(1e-9, top), -rng.uniform(1e-9, top)
                c0, c1 = locc._solve_compression(b, float(np.max(np.abs(b))))
                c = np.array([c0, c1])
                assert abs(np.vdot(c, c) - 1.0) <= 1e-15
                assert abs(np.vdot(c, b @ c)) <= 1e-14
                assert (np.imag(c1) == 0.0) == (kind != "generic")

    def test_traced_matrix_rejected(self):
        with pytest.raises(DomainError, match="^matrix must be traceless$"):
            locc._zero_diagonal_basis(np.eye(2))

    @pytest.mark.parametrize("dim_a, dim_b", [(3, 12), (8, 8), (16, 16), (24, 24)])
    def test_pair_shapes_match_loop_reference(self, dim_a, dim_b):
        """The two-state separator's inputs conj(S1) S2^T for random orthogonal pairs of these shapes."""
        rng = np.random.default_rng(8300 + dim_a)
        for _ in range(4):
            v = rng.standard_normal((dim_a * dim_b, 2)) + 1j * rng.standard_normal((dim_a * dim_b, 2))
            s1, s2 = np.linalg.qr(v)[0].T.reshape(2, dim_a, dim_b)
            mat = s1.conj() @ s2.T
            w = locc._zero_diagonal_basis(mat)
            np.testing.assert_allclose(w, _reference_zero_diagonal_basis(mat), rtol=0, atol=1e-12)
            self._assert_zero_diagonal(mat, w, 1e-9)

    def test_one_signed_diagonal_fails_the_gate(self):
        """Peeling the entries within the tolerance can leave live entries of one sign, which no rotation
        brackets: the basis is refused by the final gate, not by a failed search for a pair."""
        mat = np.diag([-0.99e-9, -0.99e-9, 1.1e-9, 1.1e-9]).astype(complex)
        mat[0, 3] = 1.0
        with pytest.raises(ToleranceError, match="zero-diagonal basis construction failed tolerance"):
            locc._zero_diagonal_basis(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_matrix_rejected(self, bad):
        mat = np.zeros((3, 3), dtype=complex)
        mat[1, 2] = bad
        with pytest.raises(DomainError, match="^matrix contains non-finite entries$"):
            locc._zero_diagonal_basis(mat)
        with pytest.raises(DomainError, match="^matrix contains non-finite entries$"):
            locc._zero_diagonal_basis(np.full((3, 3), bad))

    @pytest.mark.parametrize("gate", ["both", "residual", "unitarity"])
    def test_nan_basis_fails_each_gate(self, monkeypatch, gate):
        """A basis with NaN entries is refused by either final gate alone (NaN > tol is False, so a gate
        must not be written that way); the unitarity gate's ``is_unitary`` refuses a non-finite matrix."""
        mat = _traceless(np.random.default_rng(9), 4, "generic")
        monkeypatch.setattr(locc, "_solve_compression", lambda b2, scale: (math.nan, complex(math.nan, math.nan)))
        error = ToleranceError
        if gate == "residual":
            monkeypatch.setattr(locc, "is_unitary", lambda w, tol: True)
        elif gate == "unitarity":
            monkeypatch.setattr(locc, "_zero_diagonal_residual", lambda products, basis: np.zeros(1))
            error = DomainError
        with pytest.raises(error):
            locc._zero_diagonal_basis(mat)


class TestTwoStateProtocol:
    def test_bell_pair(self):
        ens = bell_subset(2, [(0, 0), (1, 1)])
        res = evaluate(two_state_protocol(ens).as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9

    def test_computational_product_pair(self):
        ens = uniform_ensemble([_product_state(2, 2, 0, 0), _product_state(2, 2, 1, 1)])
        proto = two_state_protocol(ens).as_protocol()
        res = evaluate(proto, ens)
        assert res.success_probability > 1 - 1e-9
        # Alice's round is (up to phases) the computational measurement
        alice_ops = proto.root.povm.elements
        for op in alice_ops:
            np.testing.assert_allclose(np.sort(np.abs(op.ravel())), [0.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs_various_dims(self, seed):
        rng = np.random.default_rng(seed)
        dims = [(2, 3), (3, 2), (2, 2), (3, 4), (4, 3)]
        da, db = dims[seed % len(dims)]
        s1, s2 = random_orthogonal_pair(rng, da, db)
        ens = uniform_ensemble([s1, s2])
        res = evaluate(two_state_protocol(ens).as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bell_pairs_with_identity(self, n):
        # X^m Z^l at composite n has degenerate spectra, e.g. n=6, (2, 2)
        for m in range(n):
            for l in range(n):
                if (m, l) != (0, 0):
                    _assert_perfect_pair(*bell_subset(n, [(0, 0), (m, l)]).states)

    @pytest.mark.parametrize("seed", range(100))
    def test_low_rank_and_rectangular_pairs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        da, db = (int(x) for x in rng.integers(2, 9, size=2))
        r1, r2 = (int(x) for x in rng.integers(1, min(da, db) + 1, size=2))
        _assert_perfect_pair(*_low_rank_orthogonal_pair(rng, da, db, r1, r2))

    def test_nonorthogonal_rejected(self):
        with pytest.raises(DomainError, match=r"states are not orthogonal \(\|<1\|2>\| = 1\.000e\+00\)"):
            two_state_protocol(uniform_ensemble([me_state(2), me_state(2)]))

    def test_dim_mismatch_rejected(self):
        # states of two spaces never form an ensemble to hand the construction
        with pytest.raises(DomainError, match="states live in different spaces"):
            uniform_ensemble([me_state(2), me_state(3)])

    @pytest.mark.parametrize("k", [1, 3])
    def test_state_count_rejected(self, k):
        with pytest.raises(DomainError, match=f"need exactly 2 states, got {k}"):
            two_state_protocol(bell_subset(2, [(0, 0), (1, 0), (0, 1)][:k]))

    def test_returns_the_separating_spec(self):
        ens = bell_subset(3, [(0, 0), (1, 2)])
        spec = two_state_protocol(ens)
        assert isinstance(spec, OneWayProtocolSpec)
        assert spec.max_bob_overlap() <= 1e-12
        assert evaluate(spec.as_protocol(), ens).success_probability >= 1 - 1e-12


class TestProductBasisProtocol:
    def test_computational_basis(self):
        ens = uniform_ensemble(
            [_product_state(2, 2, a, b) for a in range(2) for b in range(2)]
        )
        res = evaluate(product_basis_protocol(ens).as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9
        assert abs(res.mutual_information_bits - 2.0) < 1e-10

    def test_rotated_product_basis(self, rng):
        from loccdisc.ensembles import haar_unitary

        ua = haar_unitary(2, rng)
        ub = haar_unitary(3, rng)
        states = []
        for a in range(2):
            for b in range(3):
                amps = np.kron(ua[:, a], ub[:, b])
                states.append(BipartiteState(2, 3, amps))
        ens = uniform_ensemble(states)
        res = evaluate(product_basis_protocol(ens).as_protocol(), ens)
        assert res.success_probability > 1 - 1e-9

    def test_entangled_state_rejected(self):
        with pytest.raises(DomainError):
            product_basis_protocol(bell_basis(2))

    def test_overlapping_alice_rays_rejected(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        s1 = _product_state(2, 2, 0, 0)
        s2 = BipartiteState(2, 2, np.kron(plus, np.array([0.0, 1.0])))
        with pytest.raises(DomainError):
            product_basis_protocol(uniform_ensemble([s1, s2]))


def _rotated_product_set(seed, dim_a=3, dim_b=4, pairs=((0, 0), (1, 2), (0, 1), (2, 3), (1, 0))):
    """Product states ua[:, x] (x) ub[:, y] with Haar ua, ub and a random phase each; Alice rays interleaved."""
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)
    phases = np.exp(2j * np.pi * rng.random(len(pairs)))
    return uniform_ensemble([BipartiteState(dim_a, dim_b, p * np.kron(ua[:, x], ub[:, y])) for p, (x, y) in zip(phases, pairs)])


def _product_cases():
    """Product sets for the per-state reference: the library's, a full 3x4 basis and rotated interleaved sets."""
    from loccdisc.library import product_basis_ensemble

    cases = [(f"basis-{da}x{db}", product_basis_ensemble(da, db)) for da, db in ((2, 2), (2, 3), (3, 4))]
    cases += [(f"rotated-seed{seed}", _rotated_product_set(seed)) for seed in range(5)]
    full = [(x, y) for y in range(4) for x in (2, 0, 1)]
    cases.append(("rotated-full-3x4", _rotated_product_set(5, pairs=full)))
    return cases


_PRODUCT_CASES = _product_cases()


class TestProductBasisBatching:
    """``product_basis_protocol``'s batched SVD and Gram grouping give the per-state loop's bits."""

    @pytest.mark.parametrize("name, ens", _PRODUCT_CASES, ids=[case[0] for case in _PRODUCT_CASES])
    def test_matches_per_state_reference(self, name, ens):
        got, ref = product_basis_protocol(ens), product_basis_per_state(ens)
        assert np.array_equal(got.alice_basis, ref.alice_basis)
        assert got.labels == ref.labels
        assert np.array_equal(got.vectors, ref.vectors)
        assert evaluate(got.as_protocol(), ens).success_probability > 1 - 1e-9

    def test_interleaved_rays_group_in_first_seen_order(self):
        assert product_basis_protocol(_rotated_product_set(0)).labels == ((0, 2), (1, 4), (3,))

    def test_first_non_product_state_named(self):
        entangled = BipartiteState(3, 4, (np.eye(3, 4) / np.sqrt(3)).reshape(-1))
        states = [*_rotated_product_set(1).states[:3], entangled, entangled]
        with pytest.raises(DomainError, match="state 3 is not a product state"):
            product_basis_protocol(uniform_ensemble(states))
        with pytest.raises(DomainError, match="state 3 is not a product state"):
            product_basis_per_state(uniform_ensemble(states))

    def test_near_product_state_refused(self):
        # leading Schmidt coefficient 1 - 1e-9, read off the construction's own SVD
        lam = 1.0 - 1e-9
        state = BipartiteState(2, 2, np.array([np.sqrt(lam), 0.0, 0.0, np.sqrt(1.0 - lam)]))
        with pytest.raises(DomainError, match="state 0 is not a product state"):
            product_basis_protocol(uniform_ensemble([state]))

    def test_bob_first_row_builds_no_swapped_witness_pass(self):
        ens = bell_subset(4, [(0, 0), (1, 0), (0, 1)])
        assert verdict(ens).verdict == VERDICT_UNKNOWN
        assert "_witness_pass" not in ens.swapped().__dict__

    def test_bob_factors_not_orthogonal_rejected(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        ens = uniform_ensemble([_product_state(2, 2, 0, 0), BipartiteState(2, 2, np.kron([1.0, 0.0], plus))])
        for build in (product_basis_protocol, product_basis_per_state):
            with pytest.raises(DomainError, match="Bob factors within a group are not orthogonal"):
                build(ens)


class TestStackedPovm:
    """A Povm built from one (outcomes, rows, d) array equals the tuple form."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (5, 1, 5), (3, 2, 6), (4, 3, 2)])
    def test_stack_equals_tuple_form(self, shape, rng):
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacked, tup = Povm(arr), Povm(tuple(arr))
        assert np.array_equal(stacked.stacked, tup.stacked)
        assert np.array_equal(stacked.offsets, tup.offsets) and stacked.offsets.dtype == tup.offsets.dtype
        assert len(stacked.elements) == len(tup.elements) == shape[0]
        for a, b in zip(stacked.elements, tup.elements):
            assert np.array_equal(a, b) and a.shape == b.shape
            assert not a.flags.writeable
        assert not stacked.stacked.flags.writeable

    def test_projective_povm_uses_the_stack(self, rng):
        basis = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        povm = projective_povm(basis)
        ref = Povm(tuple(basis.conj().T[:, None, :]))
        assert np.array_equal(povm.stacked, ref.stacked) and np.array_equal(povm.offsets, ref.offsets)
        assert povm.completeness_defect() < 1e-12

    def test_stack_not_aliased(self):
        arr = np.eye(3, dtype=complex)[:, None, :]
        povm = Povm(arr)
        arr[0, 0, 0] = 5.0
        assert povm.stacked[0, 0] == 1.0

    def test_empty_and_non_finite_rejected(self):
        with pytest.raises(DomainError, match="at least one element"):
            Povm(np.zeros((0, 1, 3)))
        for shape in ((2, 0, 3), (2, 1, 0)):
            with pytest.raises(DomainError, match="nonempty 2-D"):
                Povm(np.zeros(shape))
        bad = np.eye(2, dtype=complex)[:, None, :]
        bad[1, 0, 1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            Povm(bad)


def _product_pair(rng, dim_a, dim_b):
    """Orthogonal product states a1 (x) b1 and a2 (x) b2: orthogonal on Alice's side or on Bob's."""

    def unit(d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    a1, b1, b2 = unit(dim_a), unit(dim_b), unit(dim_b)
    if rng.random() < 0.5:
        a2 = unit(dim_a)
        a2 -= np.vdot(a1, a2) * a1
        a2 /= np.linalg.norm(a2)
    else:
        a2 = a1
        b2 -= np.vdot(b1, b2) * b1
        b2 /= np.linalg.norm(b2)
    return BipartiteState(dim_a, dim_b, np.kron(a1, b1)), BipartiteState(dim_a, dim_b, np.kron(a2, b2))


class TestTwoStateDeflation:
    """The deflation by two-coordinate rotations gives a zero-diagonal unitary basis and a perfect protocol."""

    @staticmethod
    def _assert_basis_and_protocol(s1, s2):
        mat = s1.amplitude_matrix.conj() @ s2.amplitude_matrix.T
        w = locc._zero_diagonal_basis(mat)
        m = mat.shape[0]
        assert float(np.max(np.abs(np.diag(w.conj().T @ mat @ w)))) <= 1e-9
        assert float(np.max(np.abs(w.conj().T @ w - np.eye(m)))) <= 1e-9
        ens = uniform_ensemble([s1, s2])
        assert evaluate(two_state_protocol(ens).as_protocol(), ens).success_probability >= 1 - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_generic_pairs(self, seed):
        rng = np.random.default_rng(3000 + seed)
        for da, db in ((3, 12), (12, 3), (8, 8), (16, 16), (24, 24)):
            self._assert_basis_and_protocol(*random_orthogonal_pair(rng, da, db))

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_rank_deficient_pairs(self, seed):
        rng = np.random.default_rng(4000 + seed)
        for da, db in ((3, 12), (6, 6), (10, 4)):
            r1, r2 = (int(x) for x in rng.integers(1, min(da, db) + 1, size=2))
            self._assert_basis_and_protocol(*_low_rank_orthogonal_pair(rng, da, db, r1, r2))

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_product_pairs(self, seed):
        rng = np.random.default_rng(5000 + seed)
        for da, db in ((2, 2), (3, 12), (5, 4)):
            self._assert_basis_and_protocol(*_product_pair(rng, da, db))

    @pytest.mark.parametrize("b01, b10", [(1.0, 1.0), (-1.0, -1.0), (-2.0, 1.0)])
    def test_small_diagonal_strong_coupling(self, b01, b10):
        """A diagonal far below the coupling: the tangent's root must not cancel, for either sign of r."""
        mat = np.array([[1e-8, b01], [b10, -1e-8]], dtype=complex)
        w = locc._zero_diagonal_basis(mat)
        assert float(np.max(np.abs(np.diag(w.conj().T @ mat @ w)))) <= 1e-15
        # the pair (I/sqrt 2, mat^T) has M = conj(S1) S2^T proportional to mat
        pair = uniform_ensemble([BipartiteState(2, 2, np.eye(2) / np.sqrt(2)), BipartiteState(2, 2, mat.T / np.linalg.norm(mat))])
        assert evaluate(two_state_protocol(pair).as_protocol(), pair).success_probability >= 1 - 1e-12

    def test_zero_diagonal_input_needs_no_rotation(self):
        mat = np.diag([0.0, 0.0, 0.0]).astype(complex) + np.triu(np.ones((3, 3)), 1)
        np.testing.assert_array_equal(locc._zero_diagonal_basis(mat), np.eye(3))

    def test_hermitian_input_takes_segments(self, rng):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = a + a.conj().T
        mat -= np.trace(mat) / 9 * np.eye(9)
        w = locc._zero_diagonal_basis(mat)
        assert float(np.max(np.abs(np.diag(w.conj().T @ mat @ w)))) <= 1e-9
        assert float(np.max(np.abs(w.conj().T @ w - np.eye(9)))) <= 1e-9
