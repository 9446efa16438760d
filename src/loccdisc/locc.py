"""Finite LOCC protocol trees: exact evaluation, Monte-Carlo runs, constructions.

A protocol is a finite tree of alternating local POVM rounds.  Node operators
are Kraus-style matrices acting on one party's current space; rectangular
operators are allowed so ancilla enlargement and collapse are carried by the
shapes themselves.  Every leaf holds a guess label into the ensemble.

Exact evaluation pushes all operators onto the matrix side of the state
correspondence: with accumulated Alice product X and Bob product E along a
root-to-leaf path, the branch weight for state B is ||E B X^T||_F^2 / dim_a.
The products are regrouped so the tree is walked once with the whole
ensemble stacked as one (k, dim_b, dim_a) array.  A :class:`Povm` keeps its
operators stacked row-wise in one array, so each node applies all of its
operators to all k states in one product, the weights of its leaf children
come from one block reduction, and the joint table, success and mutual
information are array reductions over the (leaves, k) weights.
The Monte-Carlo sampler is an independent route: it propagates the live
states' amplitude matrices as its own stacked array.  Each node applies its
stacked POVM to them in one product, takes every state's Born weights from
one block reduction, and splits every state's trials over the outcomes with
one multinomial draw; the trials drawn into all of the node's leaves are
scored in one array step, and only internal children are walked further.

Every synthesized protocol is one-way: Alice measures a basis, then Bob
separates his conditional states.  :class:`OneWayProtocolSpec` is the single
representation of such a protocol; :func:`one_way_protocol` derives Bob's
vectors from the states and :meth:`OneWayProtocolSpec.as_protocol` expands a
spec into a tree.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .ensembles import StateEnsemble
from .errors import DomainError, ToleranceError
from .qstate import BipartiteState, as_int, as_matrix, frozen_array, is_unitary

ALICE = "alice"
BOB = "bob"

# Branches lighter than this are dropped from joint tables (keeps entropy
# sums away from log(0); the discarded mass bounds the induced error).
PRUNE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Povm:
    """One measurement round: operators M_i with sum_i M_i^dag M_i = I.

    The operators are stored once, stacked row-wise into the read-only
    (sum of output dims, input dim) array ``stacked``; element i is the row
    block starting at ``offsets[i]``, and ``elements`` holds read-only views
    of those blocks.
    """

    elements: tuple
    stacked: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = [np.asarray(m, dtype=complex) for m in self.elements]
        for m in blocks:
            if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
                raise DomainError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
        if not blocks:
            raise DomainError("POVM needs at least one element")
        if len({m.shape[1] for m in blocks}) != 1:
            raise DomainError("POVM elements disagree on input dimension")
        stacked = frozen_array(np.concatenate(blocks))
        if not np.all(np.isfinite(stacked)):
            raise DomainError("matrix contains non-finite entries")
        ends = list(accumulate(m.shape[0] for m in blocks))
        starts = [0, *ends[:-1]]
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "offsets", frozen_array(starts, dtype=np.intp))
        object.__setattr__(self, "elements", tuple(stacked[a:b] for a, b in zip(starts, ends)))

    @property
    def input_dim(self) -> int:
        return self.stacked.shape[1]

    def completeness_defect(self) -> float:
        gram = self.stacked.conj().T @ self.stacked
        return float(np.max(np.abs(gram - np.eye(self.input_dim))))


@dataclass(frozen=True)
class Leaf:
    guess: int


@dataclass(frozen=True, eq=False)
class ProtocolNode:
    actor: str
    povm: Povm
    children: tuple

    def __post_init__(self):
        if self.actor not in (ALICE, BOB):
            raise DomainError(f"unknown actor {self.actor!r}")
        children = tuple(self.children)
        if len(children) != len(self.povm.elements):
            raise DomainError("one child per POVM outcome required")
        object.__setattr__(self, "children", children)


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Finite tree of alternating Alice/Bob rounds with guess labels at leaves."""

    dim_a: int
    dim_b: int
    root: ProtocolNode

    def validate(self, k: int | None = None, tol: float = 1e-10) -> None:
        """Check alternation, operator shape chaining, completeness, leaf labels."""
        complete = set()  # ids of Povm objects already checked; nodes may share one

        def walk(node, da, db, prev_actor):
            if isinstance(node, Leaf):
                if node.guess < 0 or (k is not None and node.guess >= k):
                    raise DomainError(f"leaf guess {node.guess} out of range")
                return
            if node.actor == prev_actor:
                raise DomainError("actors must alternate along every path")
            cur = da if node.actor == ALICE else db
            if node.povm.input_dim != cur:
                raise DomainError(
                    f"{node.actor} POVM input dim {node.povm.input_dim} != current dim {cur}"
                )
            if id(node.povm) not in complete:
                defect = node.povm.completeness_defect()
                if defect > tol:
                    raise DomainError(f"incomplete POVM (defect {defect:.3e} > {tol:g})")
                complete.add(id(node.povm))
            for m, child in zip(node.povm.elements, node.children):
                out = m.shape[0]
                if node.actor == ALICE:
                    walk(child, out, db, node.actor)
                else:
                    walk(child, da, out, node.actor)

        walk(self.root, self.dim_a, self.dim_b, None)

    def map_leaves(self, fn) -> "LoccProtocol":
        """New protocol with every Leaf replaced by fn(leaf)."""

        def walk(node):
            if isinstance(node, Leaf):
                return fn(node)
            return ProtocolNode(node.actor, node.povm, tuple(walk(c) for c in node.children))

        return LoccProtocol(self.dim_a, self.dim_b, walk(self.root))


@dataclass(frozen=True, eq=False)
class ProtocolEvaluation:
    """Exact outcome statistics for one protocol on one ensemble.

    ``joint`` rows are (state v, outcome path, guess, probability); mutual
    information between the state label and the full transcript is reported
    in bits.
    """

    success_probability: float
    mutual_information_bits: float
    joint: tuple
    per_state_success: tuple

    @property
    def mutual_information_nats(self) -> float:
        return self.mutual_information_bits * math.log(2.0)


def projective_povm(basis) -> Povm:
    """Rank-1 row-vector POVM measuring in the columns of ``basis``."""
    b = as_matrix(basis)
    return Povm(tuple(b[:, i].conj().reshape(1, -1) for i in range(b.shape[1])))


def identity_round(dim: int) -> Povm:
    return Povm((np.eye(dim, dtype=complex),))


def orthonormal_completion(vectors, dim: int) -> np.ndarray:
    """Extend near-orthonormal vectors to an exactly orthonormal basis of C^dim.

    A complete QR factorization tightens the given vectors (phases fixed so
    columns track the inputs) and supplies the complement, so the assembled
    basis is orthonormal to machine precision.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        return np.eye(dim, dtype=complex)
    v = np.column_stack(vecs)
    if v.shape[0] != dim:
        raise DomainError("vector length does not match dimension")
    if v.shape[1] > dim:
        raise DomainError("more vectors than the dimension allows")
    q, r = np.linalg.qr(v, mode="complete")
    d = np.diag(r)
    if np.any(np.abs(d) < 1e-6):
        raise DomainError("vectors are numerically dependent")
    q[:, : d.size] *= d / np.abs(d)
    return q


@dataclass(frozen=True, eq=False)
class OneWayProtocolSpec:
    """Alice's measurement basis plus, per outcome, Bob's labeled discriminators.

    ``alice_basis`` columns are the vectors Alice projects onto;
    ``bob_discriminators[x]`` holds (label, unit vector) pairs that are
    pairwise orthogonal within the synthesis tolerance.
    """

    alice_basis: np.ndarray
    bob_discriminators: tuple

    def __post_init__(self):
        ab = frozen_array(as_matrix(self.alice_basis))
        if not is_unitary(ab, 1e-10):
            raise DomainError("Alice basis is not orthonormal")
        if len(self.bob_discriminators) != ab.shape[1]:
            raise DomainError("need one Bob group per Alice outcome")
        groups = tuple(
            tuple((int(lab), frozen_array(np.asarray(v, dtype=complex).reshape(-1))) for lab, v in group)
            for group in self.bob_discriminators
        )
        object.__setattr__(self, "alice_basis", ab)
        object.__setattr__(self, "bob_discriminators", groups)

    @property
    def dim_a(self) -> int:
        return self.alice_basis.shape[0]

    @property
    def dim_b(self) -> int:
        for group in self.bob_discriminators:
            for _, v in group:
                return v.size
        return self.dim_a

    def max_bob_overlap(self) -> float:
        """Largest |<v_i|v_j>| over distinct labeled vectors of one outcome."""
        worst = 0.0
        for group in self.bob_discriminators:
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    worst = max(worst, abs(np.vdot(group[i][1], group[j][1])))
        return worst

    def as_protocol(self, fallback: int = 0) -> LoccProtocol:
        """Expand into an explicit two-round protocol tree.

        Each outcome's Bob vectors are completed to a full basis; completion
        outcomes guess ``fallback``.
        """
        children = []
        for group in self.bob_discriminators:
            basis = orthonormal_completion([v for _, v in group], self.dim_b)
            leaves = tuple(
                Leaf(group[i][0]) if i < len(group) else Leaf(fallback)
                for i in range(self.dim_b)
            )
            children.append(ProtocolNode(BOB, projective_povm(basis), leaves))
        root = ProtocolNode(ALICE, projective_povm(self.alice_basis), tuple(children))
        return LoccProtocol(self.dim_a, self.dim_b, root)


def one_way_protocol(states, alice_basis) -> OneWayProtocolSpec:
    """One-way spec in which Alice measures the columns of ``alice_basis``.

    When Alice projects onto column c_x, state i leaves Bob holding
    B_i conj(c_x) (unnormalized; B_i is its matrix picture).  Each such
    vector is normalized and labeled i, or dropped when its norm is at most
    1e-12 because state i cannot produce outcome x.  The spec separates the
    states perfectly exactly when every outcome's vectors are orthogonal.
    """
    ab = as_matrix(alice_basis)
    b = [psi.b_matrix for psi in states]
    groups = []
    for x in range(ab.shape[1]):
        col = ab[:, x].conj()
        group = []
        for label, bi in enumerate(b):
            v = bi @ col
            nrm = float(np.linalg.norm(v))
            if nrm > 1e-12:
                group.append((label, v / nrm))
        groups.append(tuple(group))
    return OneWayProtocolSpec(ab, tuple(groups))


def _leaf_weights(protocol: LoccProtocol, ensemble: StateEnsemble):
    """Leaves as (path, guess) in depth-first order, and their (leaves, k) weights.

    The whole ensemble travels down the tree as one stacked array Y of
    matrices E B_i X^T, and each node applies its stacked POVM in one
    product: Alice maps Y to Y S^T, Bob to S Y.  Outcome x's block of the
    product is the child's Y; a leaf's weight for state i is
    ||Y_i||_F^2 / dim_a, for all leaf children of a node at once by one
    ``np.add.reduceat`` over the POVM's row offsets.
    """
    b = ensemble.b_matrices()
    if isinstance(protocol.root, Leaf):
        return [((), protocol.root.guess)], np.einsum("kij,kij->k", b.conj(), b).real[None] / protocol.dim_a
    leaves, weights = [], []

    def walk(node, y, path):
        alice = node.actor == ALICE
        povm = node.povm
        z = y @ povm.stacked.T if alice else povm.stacked @ y
        if any(isinstance(child, Leaf) for child in node.children):
            norms = (z.real**2 + z.imag**2).sum(axis=1 if alice else 2)
            leaf_w = np.add.reduceat(norms, povm.offsets, axis=1) / protocol.dim_a
        for idx, (start, op, child) in enumerate(zip(povm.offsets, povm.elements, node.children)):
            if isinstance(child, Leaf):
                leaves.append((path + (idx,), child.guess))
                weights.append(leaf_w[:, idx])
            else:
                rows = slice(start, start + op.shape[0])
                walk(child, z[:, :, rows] if alice else z[:, rows], path + (idx,))

    walk(protocol.root, b, ())
    return leaves, np.array(weights)


def evaluate(
    protocol: LoccProtocol,
    ensemble: StateEnsemble,
    tol: float = 1e-10,
    prune_tol: float = PRUNE_TOL,
) -> ProtocolEvaluation:
    """Exact branch-sum evaluation of a protocol on an ensemble.

    Computes the full joint distribution over (state, outcome path), the
    success probability P(guess = state), and the mutual information between
    state label and transcript in bits.  Joint rows come leaf by leaf in
    depth-first order, states in label order within a leaf.
    """
    if (protocol.dim_a, protocol.dim_b) != (ensemble.dim_a, ensemble.dim_b):
        raise DomainError("protocol and ensemble dimensions disagree")
    protocol.validate(k=ensemble.k, tol=tol)
    leaves, w = _leaf_weights(protocol, ensemble)

    dev = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    if dev > 1e-9:
        raise ToleranceError(f"branch weights do not conserve probability (max dev {dev:.3e})")

    rows, states = np.nonzero(ensemble.priors * w >= prune_tol)
    w_kept = w[rows, states]
    p = ensemble.priors[states] * w_kept
    hit = np.array([g for _, g in leaves])[rows] == states
    # rounding can push pure-probability sums a few ulp past 1
    success = float(min(1.0, p[hit].sum()))
    per_state = np.bincount(states[hit], weights=w_kept[hit], minlength=ensemble.k)

    pv = np.bincount(states, weights=p, minlength=ensemble.k)
    py = np.bincount(rows, weights=p, minlength=len(leaves))
    mi = max(float(np.sum(p * np.log2(p / (pv[states] * py[rows])))), 0.0)

    return ProtocolEvaluation(
        success_probability=success,
        mutual_information_bits=mi,
        joint=tuple(
            (v, *leaves[r], q) for r, v, q in zip(rows.tolist(), states.tolist(), p.tolist())
        ),
        per_state_success=tuple(np.clip(per_state, 0.0, 1.0).tolist()),
    )


def simulate(protocol: LoccProtocol, ensemble: StateEnsemble, trials: int, seed: int) -> float:
    """Empirical success rate over seeded Monte-Carlo runs.

    Independent of :func:`evaluate`: per-state trial counts are drawn from
    the priors, and the live states travel down the tree as one stacked
    array of amplitude matrices S.  Each node applies its stacked POVM in
    one product (Alice maps S to stacked S, Bob to S stacked^T), whose row
    or column blocks are the outcomes' states; the Born weights are the
    blocks' squared norms, summed by one ``np.add.reduceat``.  Every state's
    trials are split over the outcomes by one multinomial draw, which is
    distribution-identical to per-trial sampling.  The trials drawn into
    the node's leaves are scored together against the leaf guesses, and an
    internal child receives only the states that reached it, renormalized.
    Draws happen only at internal nodes, in preorder.
    """
    trials = as_int(trials, "trials")
    if not 1 <= trials <= 2**63 - 1:
        raise DomainError("trials must be between 1 and 2**63 - 1")
    seed = as_int(seed, "seed")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if (protocol.dim_a, protocol.dim_b) != (ensemble.dim_a, ensemble.dim_b):
        raise DomainError("protocol and ensemble dimensions disagree")
    protocol.validate(k=ensemble.k)
    rng = np.random.default_rng(seed)
    per_state = rng.multinomial(trials, ensemble.priors)
    if isinstance(protocol.root, Leaf):
        return int(per_state[protocol.root.guess]) / trials
    correct = 0

    def walk(node, s, labels, counts):
        nonlocal correct
        alice = node.actor == ALICE
        povm = node.povm
        if alice:
            z = povm.stacked @ s
        else:  # reshaped to one 2-D product: a 3-D matmul loops over the k matrices
            z = (s.reshape(-1, s.shape[2]) @ povm.stacked.T).reshape(*s.shape[:2], -1)
        norms = (z.real**2 + z.imag**2).sum(axis=2 if alice else 1)
        probs = np.add.reduceat(norms, povm.offsets, axis=1)
        probs /= probs.sum(axis=1, keepdims=True)
        drawn = rng.multinomial(counts, probs)
        leaf_cols, inner = [], []
        for i, child in enumerate(node.children):
            (leaf_cols if isinstance(child, Leaf) else inner).append(i)
        if leaf_cols:
            guesses = np.array([node.children[i].guess for i in leaf_cols])
            correct += int((drawn[:, leaf_cols] * (labels[:, None] == guesses)).sum())
        for i in inner:
            keep = drawn[:, i] > 0
            if keep.any():
                rows = slice(povm.offsets[i], povm.offsets[i] + povm.elements[i].shape[0])
                y = (z[keep, rows] if alice else z[keep, :, rows]) / np.sqrt(probs[keep, i])[:, None, None]
                walk(node.children[i], y, labels[keep], drawn[keep, i])

    live = np.flatnonzero(per_state)
    walk(protocol.root, ensemble.amplitude_matrices()[live], live, per_state[live])
    return correct / trials


def standard_bell_protocol(n: int, subset=None) -> LoccProtocol:
    """Both parties measure the computational basis; guess from the shift.

    For a Bell state labelled (m, l) the outcome pair (a, b) always satisfies
    a - b = m (mod n), so the shift m is learned exactly and l not at all.
    The guess is the subset member with that shift and the smallest l; ties
    and shift misses fall back to the lowest label.  ``subset`` lists (m, l)
    pairs and defaults to the full n^2 Bell basis, matching the state order
    of the corresponding ensemble.
    """
    if n < 2:
        raise DomainError("need dimension >= 2")
    if subset is None:
        subset = [(m, l) for m in range(n) for l in range(n)]
    subset = [(as_int(m, "subset label"), as_int(l, "subset label")) for m, l in subset]
    if not subset:
        raise DomainError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise DomainError("duplicate subset labels")
    for m, l in subset:
        if not (0 <= m < n and 0 <= l < n):
            raise DomainError(f"label {(m, l)} out of range")

    comp = projective_povm(np.eye(n, dtype=complex))
    children = []
    for a in range(n):
        leaves = []
        for b in range(n):
            shift = (a - b) % n
            matches = [idx for idx, (m, _) in enumerate(subset) if m == shift]
            if matches:
                guess = min(matches, key=lambda idx: subset[idx][1])
            else:
                guess = 0
            leaves.append(Leaf(guess))
        children.append(ProtocolNode(BOB, comp, tuple(leaves)))
    root = ProtocolNode(ALICE, comp, tuple(children))
    return LoccProtocol(n, n, root)


def discard_protocol(inner: LoccProtocol, kept, k: int) -> LoccProtocol:
    """Lift a protocol for the ``kept`` sub-ensemble to a k-state label space.

    The inner tree is reused unchanged; leaf guesses (indices into ``kept``)
    are relabelled to the enclosing ensemble.  States outside ``kept`` are
    never guessed, so on a uniform ensemble the overall success is
    (len(kept)/k) times the inner success on the kept states.
    """
    kept = [int(x) for x in kept]
    if not kept:
        raise DomainError("kept labels must be nonempty")
    if len(set(kept)) != len(kept):
        raise DomainError("duplicate kept labels")
    if any(x < 0 or x >= k for x in kept):
        raise DomainError("kept labels out of range")

    def remap(leaf: Leaf) -> Leaf:
        if leaf.guess >= len(kept):
            raise DomainError("inner protocol guesses outside the kept set")
        return Leaf(kept[leaf.guess])

    return inner.map_leaves(remap)


def _solve_compression(b2, target):
    """Unit coefficients (c0, c1) with [c0,c1]^dag B [c0,c1] = target.

    Requires ``target`` to lie on the segment between the diagonal entries of
    the 2x2 compression ``b2`` (then a closed-form solution exists).
    """
    bs = b2 - target * np.eye(2)
    z = bs[1, 1] - bs[0, 0]
    if abs(z) < 1e-14:
        return np.array([1.0, 0.0], dtype=complex)
    mu = float(np.clip(-np.real(bs[0, 0] / z), 0.0, 1.0))
    argz = np.angle(z)
    xp = bs[0, 1] * np.exp(-1j * argz)
    yp = bs[1, 0] * np.exp(-1j * argz)
    phi = np.arctan2(-(xp.imag + yp.imag), xp.real - yp.real)
    rho = float(np.real((bs[0, 1] * np.exp(1j * phi) + bs[1, 0] * np.exp(-1j * phi)) * np.exp(-1j * argz)))
    az = abs(z)
    quad = (1.0 - mu) * az
    if quad < 1e-14:
        x = 0.0 if abs(rho) < 1e-14 else max(mu * az / rho, 0.0)
    else:
        x = (-rho + np.sqrt(rho * rho + 4.0 * quad * mu * az)) / (2.0 * quad)
    t = np.arctan(x)
    return np.array([np.cos(t), np.sin(t) * np.exp(1j * phi)], dtype=complex)


def _vector_with_zero_value(mat, tol=1e-9):
    """Unit w with <w|M|w> = 0 for a traceless square matrix M.

    Each diagonal entry M_jj = <e_j|M|e_j> of the working basis lies in the
    numerical range of M, and the entries sum to Tr M = 0, so zero lies in
    their convex hull: on a segment between two entries or inside a triangle
    of three.  The 2x2 compression onto the matching basis vectors then
    reaches zero in closed form (numerical ranges are convex), with no
    eigendecomposition of M needed.
    """
    m = mat.shape[0]
    eye = np.eye(m, dtype=complex)
    d = np.diag(mat)
    j = int(np.argmin(np.abs(d)))
    if abs(d[j]) <= tol:
        return eye[:, j]
    # the first segment (i < j, row-major order) passing within tol of zero
    i, j = np.triu_indices(m, 1)
    seg = d[j] - d[i]
    usable = np.abs(seg) >= 1e-14
    s = np.clip(np.real((0.0 - d[i]) / np.where(usable, seg, 1.0)), 0.0, 1.0)
    hits = np.flatnonzero(usable & (np.abs(d[i] + s * seg) <= tol))
    if hits.size:
        pair = [i[hits[0]], j[hits[0]]]
        return eye[:, pair] @ _solve_compression(mat[np.ix_(pair, pair)], 0.0)
    # no single segment hits zero: the first triangle (i < j < k, lexicographic)
    # holding zero; a singular (collinear) triple gets NaN weights and never hits
    x = np.arange(m)
    i, j, k = np.nonzero((x[:, None, None] < x[:, None]) & (x[:, None] < x))
    num = np.imag([d[j].conj() * d[k], d[k].conj() * d[i], d[i].conj() * d[j]])
    det = num.sum(axis=0)
    lam = num / np.where(det == 0.0, np.nan, det)  # barycentric coordinates of zero
    pos = np.clip(lam[:2], 0.0, None)
    hits = np.flatnonzero(np.all(lam > -1e-9, axis=0) & (pos.sum(axis=0) >= 1e-14))
    if not hits.size:
        raise ToleranceError("could not locate a zero of the numerical range")
    t = hits[0]
    pair = [i[t], j[t]]
    tau = (pos[0, t] * d[i[t]] + pos[1, t] * d[j[t]]) / (pos[0, t] + pos[1, t])
    c = _solve_compression(mat[np.ix_(pair, pair)], tau)
    p = np.column_stack([eye[:, pair] @ c, eye[:, k[t]]])
    return p @ _solve_compression(p.conj().T @ mat @ p, 0.0)


def _zero_diagonal_basis(mat, tol=1e-9) -> np.ndarray:
    """Orthonormal basis in which the traceless matrix ``mat`` has zero diagonal.

    Deflation: find one unit vector with vanishing quadratic form (it exists
    because the numerical range of a traceless matrix contains zero), peel it
    off, and recurse on the orthogonal complement, whose compression is
    traceless again.
    """
    m = mat.shape[0]
    if abs(np.trace(mat)) > 1e-9:
        raise DomainError("matrix must be traceless")
    cols = []
    iso = np.eye(m, dtype=complex)
    mk = mat.astype(complex)
    for _ in range(m - 1):
        wk = _vector_with_zero_value(mk)
        wk = wk / np.linalg.norm(wk)
        cols.append(iso @ wk)
        comp = orthonormal_completion([wk], mk.shape[0])[:, 1:]
        mk = comp.conj().T @ mk @ comp
        iso = iso @ comp
    cols.append(iso[:, 0])
    w = np.column_stack(cols)
    diag = np.abs(np.diag(w.conj().T @ mat @ w))
    if float(np.max(diag)) > tol or float(np.max(np.abs(w.conj().T @ w - np.eye(m)))) > tol:
        raise ToleranceError("zero-diagonal basis construction failed tolerance")
    return w


def two_state_protocol(psi1: BipartiteState, psi2: BipartiteState) -> LoccProtocol:
    """Perfect one-way protocol for any two orthogonal bipartite pure states.

    Alice measures in a basis chosen so Bob's conditional states are
    orthogonal for every outcome: with amplitude matrices S1, S2 the matrix
    M = conj(S1) S2^T is traceless, and any basis W giving M a zero diagonal
    works.  Alice measures the columns of conj(W); outcome x leaves Bob with
    states proportional to S_i^T w_x, whose overlap is <w_x|M|w_x> = 0, and
    Bob separates them projectively.
    """
    if (psi1.dim_a, psi1.dim_b) != (psi2.dim_a, psi2.dim_b):
        raise DomainError("states live in different spaces")
    overlap = abs(np.vdot(psi1.amplitudes, psi2.amplitudes))
    if overlap > 1e-10:
        raise DomainError(f"states are not orthogonal (|<1|2>| = {overlap:.3e})")
    w = _zero_diagonal_basis(psi1.amplitude_matrix.conj() @ psi2.amplitude_matrix.T)
    return one_way_protocol((psi1, psi2), w.conj()).as_protocol()


def blind_guess_protocol(dim_a: int, dim_b: int, guess: int = 0) -> LoccProtocol:
    """Measure nothing (trivial rounds) and always output ``guess``."""
    root = ProtocolNode(
        ALICE,
        identity_round(dim_a),
        (ProtocolNode(BOB, identity_round(dim_b), (Leaf(guess),)),),
    )
    return LoccProtocol(dim_a, dim_b, root)


def product_basis_protocol(ensemble: StateEnsemble) -> LoccProtocol:
    """Perfect local protocol for a locally clustered orthogonal product set.

    Requires every state to be a product a_i (x) b_i whose Alice factors form
    groups of pairwise-equal rays, distinct groups orthogonal, with the Bob
    factors orthogonal inside each group (true for any basis of the form
    {|a> (x) |b>}).  Alice measures the group rays, Bob the group's local
    vectors.
    """
    states = ensemble.states
    factors = []
    for idx, psi in enumerate(states):
        u, s, vh = np.linalg.svd(psi.amplitude_matrix, full_matrices=False)
        if s[0] ** 2 < 1.0 - 1e-10:
            raise DomainError(f"state {idx} is not a product state")
        factors.append((u[:, 0], vh[0, :]))

    groups: list[list[int]] = []
    reps: list[np.ndarray] = []
    for idx, (a_vec, _) in enumerate(factors):
        placed = False
        for g, rep in enumerate(reps):
            ov = abs(np.vdot(rep, a_vec))
            if ov > 1.0 - 1e-8:
                groups[g].append(idx)
                placed = True
                break
            if ov > 1e-8:
                raise DomainError("Alice factors are neither equal nor orthogonal")
        if not placed:
            groups.append([idx])
            reps.append(a_vec)

    bob_groups = [tuple((idx, factors[idx][1]) for idx in members) for members in groups]
    bob_groups += [()] * (ensemble.dim_a - len(reps))
    spec = OneWayProtocolSpec(orthonormal_completion(reps, ensemble.dim_a), tuple(bob_groups))
    if spec.max_bob_overlap() > 1e-8:
        raise DomainError("Bob factors within a group are not orthogonal")
    return spec.as_protocol()
