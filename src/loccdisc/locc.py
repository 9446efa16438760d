"""Finite LOCC protocol trees: exact evaluation, Monte-Carlo runs, constructions.

A protocol is a finite tree of alternating local POVM rounds.  Node operators
are Kraus-style matrices acting on one party's current space; rectangular
operators are allowed so ancilla enlargement and collapse are carried by the
shapes themselves.  Every leaf holds a guess label into the ensemble.

Exact evaluation pushes all operators onto the matrix side of the state
correspondence: with accumulated Alice product X and Bob product E along a
root-to-leaf path, the branch weight for state B is ||E B X^T||_F^2 / dim_a.
The products are regrouped so the tree is walked once with the whole
ensemble stacked as one (k, dim_b, dim_a) array.  The walk steps on runs: a
run is one node, or a run of sibling nodes whose children are all leaves,
with POVMs of one shape and offsets.  A :class:`Povm` keeps its operators
stacked row-wise in one array, so each step applies all of its operators to
all k states in one matmul, bitwise equal to stepping its nodes one by one,
and a step's consecutive leaf children get their weights as one
(leaves, k) block.  Success and mutual information are array reductions
over the stacked (leaves, k) weights; the leaf paths are kept per block,
and the joint table's row tuples are built only when first read.
The Monte-Carlo runs take the same weights: per-state trial counts are
drawn from the priors, and each state's correct trials are one binomial
draw with its exact success, so the tree is walked once, by the evaluator.
A tree meets an ensemble only in :func:`_leaf_weights`, which checks their
dimensions and runs :meth:`LoccProtocol.validate` (one call per node)
before the walk, so both scorers refuse a fault with one message.

Computational-basis measurements and identity rounds stack the identity
(:attr:`Povm.is_identity`).  A step whose every POVM is the identity (one
shared object, or distinct ones, as a parsed tree holds) takes its input
as the product, a view with no copy and no matmul.  The bits are
the product's: each entry of a product with a 0/1 row is 1 x plus exact
zeros, so it equals x up to the sign of a zero, which the squares drop;
and the sums over the summed-away axis run in the product's order.  The
step's input is a slice of the parent's product (the ensemble's B stack
at the root).  For Bob its summed axis (Alice's coordinates) is
innermost, as in the product, so numpy sums it pairwise alike; for Alice
it is an outer axis, summed in sequence in both, while Alice's
coordinates are innermost.  With one Alice coordinate left the product's
summed axis becomes innermost, summed pairwise, while a view of a Bob
parent's product, whose states are innermost, would sum it in sequence,
so such a step keeps the product.  A view aliases memory the step does
not own (the parent's product, the ensemble's read-only stack), so it is
squared out of place.  A run with a dense member keeps the product.

Every synthesized protocol is one-way: Alice measures a basis, then Bob
separates his conditional states.  :class:`OneWayProtocolSpec` is the single
representation of such a protocol: per-outcome label tuples and one array of
Bob's vectors, outcome by outcome, padded once into a zero-filled block.
Every one-way construction takes the ensemble and returns its spec:
:func:`one_way_protocol` derives Bob's vectors from the amplitude stack in
one product, :func:`product_basis_protocol` from one batched SVD, and
:meth:`OneWayProtocolSpec.as_protocol` expands a spec into a tree.
One batched complete QR, :func:`_completed_bases`, completes every basis.
One builder, :func:`_projective_rounds`, makes every projective round,
Bob's rounds of a one-way tree as views of one read-only stack of the
conjugated bases: one finiteness test, one batched Gram product for every
round's completeness defect and one comparison for which rounds are the
identity.  Every :class:`Povm` keeps its defect, so
:meth:`LoccProtocol.validate` compares it with ``tol`` at every node on
every call without recomputing it, and a walk step on a run of distinct
rounds stacks them, in a built tree as in a parsed one.  Every
:class:`Povm` makes its element views only when they are read: validating
leaf-only children reads none, and the walk only those of the first round
of a run.
The two-state separator makes a traceless matrix's diagonal real with one
Hermitian eigensystem and the Fourier matrix (none if it is real up to
rounding), then deflates it one zero-value vector at a time, rotating two
live vectors (rows beside their images) in real closed form; the basis is
formed once, and :func:`_zero_diagonal_residual`, the CUB screen's test, checks it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, groupby, repeat

import numpy as np

from .ensembles import StateEnsemble, _bell_dimension, _bell_labels, fourier_matrix
from .errors import DomainError, ToleranceError
from .qstate import ROUNDING_ZERO, _positive_dims, _row_norms, as_int, as_matrix, as_tol, frozen_array, is_unitary

ALICE = "alice"
BOB = "bob"

# Branches lighter than this are dropped from joint tables (keeps entropy
# sums away from log(0); the discarded mass bounds the induced error).
PRUNE_TOL = 1e-14

# The largest squares buffer ``_squared_norms`` allocates beside a product
# it must keep; larger products are squared in blocks of rows.
_SQUARES_BLOCK_BYTES = 256 * 1024

# The guess on the outcomes that complete a one-way protocol's Bob basis.
COMPLETION_GUESS = 0

# How close to zero the two-state separator drives the diagonal, and how
# close to unitary its basis must be.
ZERO_DIAGONAL_TOL = 1e-9


@dataclass(frozen=True, eq=False, init=False)
class Povm:
    """One measurement round: operators M_i with sum_i M_i^dag M_i = I.

    ``elements`` is any sequence of 2-D matrices (a 3-D array is one such
    sequence).  The operators are stored once, stacked row-wise into the
    read-only (sum of output dims, input dim) array ``stacked``; element i
    is the row block starting at ``offsets[i]``, and ``elements`` holds
    read-only views of those blocks, made on first read.

    The completeness defect and :attr:`is_identity` are found once, then
    kept: on first use, or, for a projective round, when
    :func:`_projective_rounds` builds it.
    """

    stacked: np.ndarray
    offsets: np.ndarray = field(repr=False)

    def __init__(self, elements):
        blocks = [np.asarray(m, dtype=complex) for m in elements]
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
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "offsets", frozen_array([0, *accumulate(len(m) for m in blocks[:-1])], dtype=np.intp))

    @cached_property
    def elements(self) -> tuple:
        bounds = [*self.offsets.tolist(), len(self.stacked)]
        return tuple(self.stacked[a:b] for a, b in zip(bounds, bounds[1:]))

    @property
    def input_dim(self) -> int:
        return self.stacked.shape[1]

    @cached_property
    def is_identity(self) -> bool:
        """Whether ``stacked`` is the identity, so a walk step may take its input as the product.

        Found on first use (a completeness check or a walk step), then kept.
        """
        return np.array_equal(self.stacked, np.eye(self.input_dim))

    def completeness_defect(self) -> float:
        """The largest entry of |sum_i M_i^dag M_i - I|, found once, then kept."""
        return self._defect

    @cached_property
    def _defect(self) -> float:
        if self.is_identity:  # I^dag I - I is exactly 0
            return 0.0
        gram = self.stacked.conj().T @ self.stacked
        return float(np.max(np.abs(gram - np.eye(self.input_dim))))


def _projective_rounds(bases) -> list:
    """One rank-1 round per column set of the (rounds, d, r) stack ``bases``: outcome j projects onto column j.

    The conjugated columns are written once into one read-only (rounds, r, d)
    stack, tested for finiteness once; each round's ``stacked`` is its slice,
    and the rounds share one offsets array.  One batched Gram product gives
    every round's completeness defect (its last bits may differ from a lone
    product's; an identity's is exactly 0, as every product of 0s and 1s is
    exact) and, when r == d, one comparison which rounds are the identity.
    Each round keeps both.
    """
    rounds, d, r = bases.shape
    stack = np.conjugate(bases.transpose(0, 2, 1), out=np.empty((rounds, r, d), dtype=complex))
    stack.setflags(write=False)
    if not np.all(np.isfinite(stack)):
        raise DomainError("matrix contains non-finite entries")
    identity = (stack == np.eye(d)).all(axis=(1, 2)).tolist() if r == d else [False] * rounds
    gram = bases @ stack  # stacked^dag stacked per round: each column set is its block's conjugate transpose, exactly
    gram.reshape(rounds, -1)[:, :: d + 1] -= 1.0  # minus the identity, in place
    defects = np.abs(gram).max(axis=(1, 2)).tolist()
    offsets = frozen_array(range(r), dtype=np.intp)
    povms = []
    for rows, ident, defect in zip(stack, identity, defects):
        povm = object.__new__(Povm)
        # the kept values go where cached_property would put them
        povm.__dict__.update(stacked=rows, offsets=offsets, is_identity=ident, _defect=defect)
        povms.append(povm)
    return povms


@dataclass(frozen=True)
class Leaf:
    guess: int

    def __post_init__(self):
        object.__setattr__(self, "guess", as_int(self.guess, "guess"))


@dataclass(frozen=True, eq=False)
class ProtocolNode:
    actor: str
    povm: Povm
    children: tuple

    def __post_init__(self):
        if self.actor not in (ALICE, BOB):
            raise DomainError(f"unknown actor {self.actor!r}")
        children = tuple(self.children)
        if len(children) != len(self.povm.offsets):
            raise DomainError("one child per POVM outcome required")
        object.__setattr__(self, "children", children)


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Finite tree of alternating Alice/Bob rounds with guess labels at leaves."""

    dim_a: int
    dim_b: int
    root: ProtocolNode

    def __post_init__(self):
        dim_a, dim_b = _positive_dims(self.dim_a, self.dim_b)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)

    def validate(self, k: int | None = None, tol: float = 1e-10) -> None:
        """Check alternation, operator shape chaining, completeness, leaf labels.

        One depth-first walk (:func:`_check_node`) visits nodes and leaves
        alike, children in outcome order, so the first fault on that order
        is the one reported.  A node checks its leaf children's guesses in
        its own loop and steps into a leaf only to word a fault, so a valid
        tree costs one call per node, not per leaf.  ``tol`` must be finite
        and >= 0.
        """
        tol = as_tol(tol, "tol")
        _check_node(self.root, self.dim_a, self.dim_b, None, math.inf if k is None else k, tol)

    def map_leaves(self, fn) -> "LoccProtocol":
        """New protocol with every Leaf replaced by fn(leaf)."""
        return LoccProtocol(self.dim_a, self.dim_b, _map_node(self.root, fn, _SAME_ACTORS))

    def swapped(self) -> "LoccProtocol":
        """The same tree, leaves and POVM objects with the parties exchanged.

        Every node's actor is the other party's, and dim_a and dim_b trade
        places, so it scores on :meth:`StateEnsemble.swapped` what this
        protocol scores on the ensemble.
        """
        return LoccProtocol(self.dim_b, self.dim_a, _map_node(self.root, _same_leaf, _SWAPPED_ACTORS))


def _check_node(node, da, db, prev_actor, k_max, tol) -> None:
    """:meth:`LoccProtocol.validate`'s walk from ``node`` on a (da, db) input; each node compares its POVM's kept defect.

    Module-level, as is :func:`_map_node`: a recursive closure would be a reference cycle left to the collector.
    """
    if isinstance(node, Leaf):
        if not 0 <= node.guess < k_max:
            raise DomainError(f"leaf guess {node.guess} out of range")
        return
    if node.actor == prev_actor:
        raise DomainError("actors must alternate along every path")
    alice = node.actor == ALICE
    cur = da if alice else db
    if node.povm.input_dim != cur:
        raise DomainError(f"{node.actor} POVM input dim {node.povm.input_dim} != current dim {cur}")
    defect = node.povm.completeness_defect()
    if defect > tol:
        raise DomainError(f"incomplete POVM (defect {defect:.3e} > {tol:g})")
    for i, child in enumerate(node.children):
        if not (isinstance(child, Leaf) and 0 <= child.guess < k_max):
            rows = node.povm.elements[i].shape[0]
            _check_node(child, rows if alice else da, db if alice else rows, node.actor, k_max, tol)


_SAME_ACTORS = {ALICE: ALICE, BOB: BOB}
_SWAPPED_ACTORS = {ALICE: BOB, BOB: ALICE}


def _same_leaf(leaf: Leaf) -> Leaf:
    return leaf


def _map_node(node, fn, actors):
    """``node`` with every Leaf below it replaced by fn(leaf), in depth-first order, and each actor by ``actors[actor]``."""
    if isinstance(node, Leaf):
        return fn(node)
    return ProtocolNode(actors[node.actor], node.povm, tuple(_map_node(c, fn, actors) for c in node.children))


@dataclass(frozen=True, eq=False)
class ProtocolEvaluation:
    """Exact outcome statistics for one protocol on one ensemble.

    ``joint`` rows are (state v, outcome path, guess, probability), leaf by
    leaf in depth-first order and states in label order within a leaf;
    mutual information between the state label and the full transcript is
    reported in bits.  Only :func:`evaluate` constructs this: it keeps the
    leaf paths, block by block, and the guesses with the kept rows' (leaf,
    state) indices and probabilities, and ``joint`` expands the paths and
    builds its tuples from them on first read (success and mutual
    information need none of them).
    """

    success_probability: float
    mutual_information_bits: float
    per_state_success: tuple
    _table: tuple = field(repr=False)

    @cached_property
    def joint(self) -> tuple:
        path_blocks, guesses, rows, states, p = self._table
        paths = [pre + suf for prefixes, suffixes in path_blocks for pre in prefixes for suf in suffixes]
        rows = rows.tolist()
        return tuple(
            zip(states.tolist(), [paths[r] for r in rows], [guesses[r] for r in rows], p.tolist())
        )


def projective_povm(basis) -> Povm:
    """Rank-1 row-vector POVM measuring in the columns of ``basis``, built by :func:`_projective_rounds`."""
    return _projective_rounds(as_matrix(basis)[None])[0]


def identity_round(dim: int) -> Povm:
    dim = as_int(dim, "dim")
    if dim < 1:
        raise DomainError("need dimension >= 1")
    return Povm((np.eye(dim, dtype=complex),))


def _completed_bases(rows, counts) -> np.ndarray:
    """Per block x of the (blocks, width, dim) stack ``rows``, an orthonormal basis of C^dim, column-wise.

    Block x holds counts[x] near-orthonormal vectors as its first rows, then
    zero rows.  One batched complete QR tightens them, each phase fixed so
    the columns track the inputs, and supplies the complement, so each basis
    is orthonormal to machine precision.  A zero row adds an identity
    reflector, so the padding does not change a block's basis, and an empty
    block gives exactly the identity.
    """
    width = rows.shape[1]
    q, r = np.linalg.qr(rows.transpose(0, 2, 1), mode="complete")
    d = np.diagonal(r, axis1=1, axis2=2)
    real = np.arange(width) < np.asarray(counts)[:, None]
    if np.any(real & (np.abs(d) < 1e-6)):
        raise DomainError("vectors are numerically dependent")
    phase = d / np.where(real, np.abs(d), 1.0)
    np.multiply(q[:, :, :width], phase[:, None, :], out=q[:, :, :width], where=real[:, None, :])
    return q


@dataclass(frozen=True, eq=False)
class OneWayProtocolSpec:
    """Alice's measurement basis plus, per outcome, Bob's labeled discriminators.

    ``alice_basis`` columns are the vectors Alice projects onto;
    ``labels[x]`` is the tuple of state labels Bob separates after outcome
    x.  ``vectors`` is one read-only (number of labels, dim_b) array of
    Bob's unit vectors, outcome by outcome in ``labels`` order, pairwise
    orthogonal within an outcome to the synthesis tolerance.  They are
    also kept in the read-only (outcomes, largest group, dim_b) array
    ``_bob``: group x fills its first rows and zeros the rest.  dim_b is the
    vectors' common length (dim_a when there are none), and no group has
    more than dim_b vectors.
    """

    alice_basis: np.ndarray
    labels: tuple
    vectors: np.ndarray
    _bob: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = frozen_array(as_matrix(self.alice_basis))
        if not is_unitary(ab, 1e-10):
            raise DomainError("Alice basis is not orthonormal")
        if len(self.labels) != ab.shape[1]:
            raise DomainError("need one Bob group per Alice outcome")
        labels = tuple(map(tuple, self.labels))
        if not {*map(type, chain.from_iterable(labels))} <= {int}:  # Python ints, as one_way_protocol's, are labels
            labels = tuple(tuple(as_int(lab, "label") for lab in group) for group in labels)
        sizes = np.array([len(group) for group in labels])
        vecs = self.vectors
        if len(vecs) != sizes.sum():
            raise DomainError("need one Bob vector per label")
        width, db = sizes.max(), np.size(vecs[0]) if len(vecs) else ab.shape[0]
        if width > db:
            raise DomainError("more vectors than the dimension allows")
        try:
            vecs = frozen_array(vecs).reshape(len(vecs), db)
        except ValueError:  # a ragged block
            raise DomainError("vector length does not match dimension") from None
        if not np.all(np.isfinite(vecs)):
            raise DomainError("Bob vectors contain non-finite entries")
        bob = np.zeros((len(labels), width, db), dtype=complex)
        bob[np.arange(width) < sizes[:, None]] = vecs
        bob.setflags(write=False)
        object.__setattr__(self, "alice_basis", ab)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "_bob", bob)

    @property
    def dim_a(self) -> int:
        return self.alice_basis.shape[0]

    @property
    def dim_b(self) -> int:
        return self._bob.shape[2]

    def max_bob_overlap(self) -> float:
        """Largest |<v_i|v_j>| over distinct labeled vectors of one outcome.

        Every pair's inner product comes from one product of vector-shaped
        operands and its magnitude from ``np.hypot``: bit for bit
        ``abs(np.vdot(v_i, v_j))``, which ``np.abs`` on an array is not.
        Pairs with a padding row give 0.
        """
        x = np.arange(self._bob.shape[1])
        i, j = np.nonzero(x[:, None] < x)  # np.triu_indices(width, 1), at a fraction of its cost
        dots = self._bob[:, i, None].conj() @ self._bob[:, j, :, None]
        return float(np.hypot(dots.real, dots.imag).max(initial=0.0))

    def as_protocol(self) -> LoccProtocol:
        """Expand into an explicit two-round protocol tree.

        Each outcome's Bob vectors are completed to a full basis by
        :func:`_completed_bases`; completion outcomes guess
        ``COMPLETION_GUESS``.  The Bob rounds come from one call of
        :func:`_projective_rounds`, views of one checked stack, each bit for
        bit the :class:`Povm` of its outcome's basis; equal labels share one
        :class:`Leaf`.
        """
        labels, db = self.labels, self.dim_b
        q = _completed_bases(self._bob, [len(labs) for labs in labels])
        leaf = {lab: Leaf(lab) for lab in {COMPLETION_GUESS}.union(*labels)}
        children = tuple(
            ProtocolNode(BOB, povm, tuple(map(leaf.get, labs)) + (leaf[COMPLETION_GUESS],) * (db - len(labs)))
            for povm, labs in zip(_projective_rounds(q), labels)
        )
        root = ProtocolNode(ALICE, projective_povm(self.alice_basis), children)
        return LoccProtocol(self.dim_a, db, root)


def one_way_protocol(amplitudes, alice_basis) -> OneWayProtocolSpec:
    """One-way spec in which Alice measures the columns of ``alice_basis``.

    ``amplitudes`` is the (k, dim_a, dim_b) stack of the states' amplitude
    matrices S_i.  When Alice projects onto column c_x, state i leaves Bob
    holding B_i conj(c_x) (unnormalized; B_i = sqrt(dim_a) S_i^T).  Each such
    vector is normalized and labeled i, or dropped when its norm is at most
    1e-12 because state i cannot produce outcome x.  The spec separates the
    states perfectly exactly when every outcome's vectors are orthogonal.
    All vectors come from one matrix-vector product and all norms from
    ``_row_norms``: bit for bit each B_i's own ``B_i @ conj(c_x)`` and
    ``np.linalg.norm``.
    """
    ab = as_matrix(alice_basis)
    b = np.sqrt(amplitudes.shape[1]) * amplitudes.transpose(0, 2, 1)  # laid out as tests/conftest.py's b_matrix(psi)
    v = (b @ ab.conj().T.copy()[:, None, :, None])[..., 0]  # (outcomes, states, dim_b): B_i conj(c_x)
    nrm = _row_norms(v.reshape(-1, v.shape[2])).reshape(v.shape[:2])
    keep = nrm > 1e-12
    v = np.divide(v, nrm[..., None], out=np.zeros(v.shape, dtype=complex), where=keep[..., None])
    return OneWayProtocolSpec(ab, tuple(tuple(np.flatnonzero(kx).tolist()) for kx in keep), v[keep])


def _leaf_weights(protocol: LoccProtocol, ensemble: StateEnsemble, tol: float = 1e-10):
    """Leaf path blocks and guesses in depth-first order, and their (leaves, k) weights.

    The one place a tree meets an ensemble: ``DomainError`` unless their
    dimensions agree and :meth:`LoccProtocol.validate` passes the tree for
    the ensemble's k at ``tol``, so :func:`evaluate` and :func:`simulate`
    refuse a fault with one message.

    The whole ensemble travels down the tree as one stacked array Y of
    matrices E B_i X^T, and each step of :func:`_collect_leaves` applies
    its nodes' stacked POVMs S in one matmul: Alice maps Y to Y S^T, Bob to
    S Y.  Outcome x's block of the product is the child's Y; a leaf's
    weight for state i is ||Y_i||_F^2 / dim_a.  A step with leaf children
    weighs all its outcomes at once: for a projective POVM (one row per
    outcome) the squared row norms are the weights, otherwise one
    ``np.add.reduceat`` over the POVM's row offsets sums them; each run of
    consecutive leaf children takes its rows as one block, and a tree with
    one block takes it as the weights with no concatenation.  Each path
    block is a pair (prefixes, suffixes) standing for the leaf paths
    prefix + suffix, prefixes outer.
    """
    if (protocol.dim_a, protocol.dim_b) != (ensemble.dim_a, ensemble.dim_b):
        raise DomainError("protocol and ensemble dimensions disagree")
    protocol.validate(k=ensemble.k, tol=tol)
    b = ensemble.b_matrices()
    if isinstance(protocol.root, Leaf):
        w = np.einsum("kij,kij->k", b.conj(), b).real[None] / protocol.dim_a
        return [([()], ((),))], [protocol.root.guess], w
    paths, guesses, blocks = [], [], []
    _collect_leaves((protocol.root,), b, [()], paths, guesses, blocks)
    w = np.concatenate(blocks) if len(blocks) > 1 else np.ascontiguousarray(blocks[0])
    w /= protocol.dim_a
    return paths, guesses, w


def _run_key(pair):
    """Equal for the (child, parent operator) pairs that one walk step may take together.

    Every leaf has one key, so a node's consecutive leaves form one group.
    Run nodes have leaf children only, one POVM shape and offsets, and
    parent operators of one row count, so their inputs are equal blocks.
    A node with internal children gets a fresh key equal to no other, so
    it is a group of its own even beside the same node object.
    """
    child, op = pair
    if isinstance(child, Leaf):
        return Leaf
    if not all(map(isinstance, child.children, repeat(Leaf))):
        return object()
    return op.shape[0], child.povm.stacked.shape, child.povm.offsets.tobytes()


def _child_groups(node):
    """(first outcome, children, product rows) of each group of ``node``'s children.

    The groups are those of :func:`_run_key`, in outcome order:
    consecutive leaves, a run of sibling nodes whose children are all
    leaves, or a lone node with internal children.  The rows are the slice
    of the node's stacked POVM, and so of its product, that belongs to the
    group's outcomes.
    """
    povm, lo = node.povm, 0
    starts = povm.offsets.tolist()
    ends = [*starts[1:], povm.stacked.shape[0]]
    for _, pairs in groupby(zip(node.children, povm.elements), _run_key):
        group = [child for child, _ in pairs]
        hi = lo + len(group)
        yield lo, group, slice(starts[lo], ends[hi - 1])
        lo = hi


def _run_stack(run):
    """A step's operators, (nodes, rows, input dim): the run's one shared stacked POVM, or the nodes' POVMs stacked."""
    first = run[0].povm
    if all(node.povm is first for node in run):
        return first.stacked
    return np.stack([node.povm.stacked for node in run])


def _collect_leaves(run, y, prefixes, paths, guesses, blocks):
    """Depth-first walk of :func:`_leaf_weights` from one step on ``run``, whose joint input is Y.

    ``run`` is one node, or a run of sibling nodes whose children are all
    leaves, and ``prefixes`` are its nodes' paths.  Y is the parent
    product's slice feeding the run (the B matrices at the root),
    (k, r, m e) below Alice and (k, m e, c) below Bob; node j's input is
    its j-th block of e.  One matmul applies :func:`_run_stack`, and each
    node's slice of the product has the shapes and layout of a one-node
    product, so numpy computes it the same way (one 2-D product over the
    run would not: BLAS rounding depends on the matrix sizes); the sums
    over e and over POVM rows also run along the same axes, so a run's
    weights are bitwise those of its nodes stepped one by one.  The product
    is viewed with the states leading (:func:`_squared_norms`).

    A run whose every POVM is the identity takes the reshaped Y itself as
    its product, but for Alice with one coordinate (c = 1); the module
    docstring says why the bits hold.

    Of the :func:`_child_groups`, each group of leaves gives one block,
    sliced from the weights of the step's whole product (a squared slice
    would sum in another order, so other last bits), and each group of
    nodes is the next step.  Appends to the three lists in place.  A
    module-level function rather than a recursive closure: a closure that
    calls itself is a reference cycle, which would keep every weight block
    alive until the next garbage collection.
    """
    m, k, node = len(run), y.shape[0], run[0]
    children, alice = node.children, node.actor == ALICE
    view = all(member.povm.is_identity for member in run) and not (alice and y.shape[2] == 1)
    stack = None if view else _run_stack(run)
    if alice:  # Y_j S_j^T on each (k e, c) block: (k, m, e, rows) over memory (m, k, e, rows)
        e = y.shape[1] // m
        z = y.reshape(k, m, e, -1)
        if not view:
            z = z.transpose(1, 0, 2, 3).reshape(m, k * e, -1) @ np.swapaxes(stack, -1, -2)
            z = z.reshape(m, k, e, -1).transpose(1, 0, 2, 3)
    else:  # S_j Y_j on each (r, k e) block, as a 3-D matmul over the k matrices would loop: (k, m, rows, e)
        e = y.shape[2] // m
        z = y.reshape(k, -1, m, e)
        if view:
            z = z.transpose(0, 2, 1, 3)
        else:
            z = stack @ z.transpose(2, 1, 0, 3).reshape(m, -1, k * e)
            z = z.reshape(m, -1, k, e).transpose(2, 0, 1, 3)
    is_leaf = [isinstance(child, Leaf) for child in children]
    if any(is_leaf):
        w = _squared_norms(z, 2 if alice else 3, in_place=all(is_leaf) and not view).transpose(1, 2, 0)
        if w.shape[1] != len(children):
            w = np.add.reduceat(w, node.povm.offsets, axis=1)
    runs = []
    for lo, group, rows in _child_groups(node):
        hi = lo + len(group)
        if isinstance(group[0], Leaf):
            blocks.append(w[:, lo:hi].reshape(-1, k))
            paths.append((prefixes, tuple((i,) for i in range(lo, hi))))
            guesses.extend([leaf.guess for member in run for leaf in member.children[lo:hi]])
        else:  # only a run of one has children that are nodes
            if len(group) > 1:
                runs.append(len(blocks))
            group_paths = [prefixes[0] + (i,) for i in range(lo, hi)]
            _collect_leaves(group, z[:, 0, :, rows] if alice else z[:, 0, rows], group_paths, paths, guesses, blocks)
    # a run's weights may still view its complex product: copied out only once Z is
    # released, so no run product, Z and the copy are held at once (peak memory)
    del z
    for j in runs:
        blocks[j] = np.ascontiguousarray(blocks[j])


def _squared_norms(z, axis, in_place):
    """Sums of |z|^2 along ``axis`` (not 0), bitwise those of ``(z.real**2 + z.imag**2).sum(axis)``.

    The squares are taken on z's float view, in place when the caller has no
    further use for z, and added in (real, imaginary) pairs; the sum runs
    along the same axis, contiguous or not, so in the same order.  Out of
    place, a z larger than ``_SQUARES_BLOCK_BYTES`` is squared in blocks of
    its leading axis, each a copy squared in place, so no buffer the size
    of z is allocated.  A length-1 axis is dropped without a pass, so the
    result may view z.  Out of place over a length-1 axis nothing is summed,
    so the layout is free: the blocks are copied with the leading (states)
    axis moved last, as the walk's weight blocks lie, and their pair sums
    written into one array, which the result views with the states leading
    again; so a leaf block sliced from it needs no transposing copy.
    """
    if not in_place and z.shape[axis] == 1:
        x = z.squeeze(axis)
        x = x.transpose(*range(1, x.ndim), 0)
        out = np.empty(x.shape)
        step = max(1, _SQUARES_BLOCK_BYTES * len(x) // max(x.nbytes, 1))
        for i in range(0, len(x), step):
            v = np.array(x[i : i + step], order="C").view(float)
            np.multiply(v, v, out=v)
            np.add(v[..., 0::2], v[..., 1::2], out=out[i : i + step])
        return out.transpose(-1, *range(out.ndim - 1))
    step = max(1, _SQUARES_BLOCK_BYTES * z.shape[0] // max(z.nbytes, 1))
    if not in_place and step < z.shape[0]:
        return np.concatenate([_squared_norms(z[i : i + step].copy(), axis, True) for i in range(0, z.shape[0], step)])
    v = z.view(float)
    # np.multiply rather than np.square: the same products, but on an AVX-512
    # host the sum below ran up to 7x slower after np.square following a BLAS product
    v = np.multiply(v, v, out=v if in_place else None)
    sq = np.add(v[..., 0::2], v[..., 1::2], out=v[..., 0::2])
    return sq.sum(axis=axis) if sq.shape[axis] > 1 else sq.squeeze(axis)


def evaluate(protocol: LoccProtocol, ensemble: StateEnsemble, tol: float = 1e-10) -> ProtocolEvaluation:
    """Exact branch-sum evaluation of a protocol on an ensemble.

    Computes the full joint distribution over (state, outcome path), the
    success probability P(guess = state), and the mutual information between
    state label and transcript in bits.  Weights come from
    :func:`_leaf_weights` (one matmul per node or per run of sibling nodes
    of leaves, leaf weights in blocks); success, per-state
    success and mutual information are array reductions over the kept
    (leaf, state) entries, found as flat indices into the weights.  A row is
    kept when its probability is at least ``PRUNE_TOL``, so zero-probability
    rows are never listed.  The joint table's rows are built only when
    ``joint`` is first read.  What :func:`_leaf_weights` refuses at ``tol``
    (dimensions that disagree, a tree ``validate`` refuses) raises its error.
    """
    paths, guesses, w = _leaf_weights(protocol, ensemble, tol)

    dev = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    if dev > 1e-9:
        raise ToleranceError(f"branch weights do not conserve probability (max dev {dev:.3e})")

    pw = ensemble.priors * w
    kept = np.flatnonzero(pw >= PRUNE_TOL)
    rows, states = np.divmod(kept, ensemble.k)
    w_kept = w.ravel()[kept]
    p = pw.ravel()[kept]
    hit = np.array(guesses)[rows] == states
    # rounding can push pure-probability sums a few ulp past 1
    success = float(min(1.0, p[hit].sum()))
    per_state = np.bincount(states[hit], weights=w_kept[hit], minlength=ensemble.k)

    pv = np.bincount(states, weights=p, minlength=ensemble.k)
    py = np.bincount(rows, weights=p, minlength=w.shape[0])
    mi = max(float(np.sum(p * np.log2(p / (pv[states] * py[rows])))), 0.0)

    return ProtocolEvaluation(
        success_probability=success,
        mutual_information_bits=mi,
        per_state_success=tuple(np.clip(per_state, 0.0, 1.0).tolist()),
        _table=(paths, guesses, rows, states, p),
    )


def simulate(protocol: LoccProtocol, ensemble: StateEnsemble, trials: int, seed: int) -> float:
    """Empirical success rate over seeded Monte-Carlo runs.

    Per-state trial counts n_i are drawn from the priors; state i's correct
    trials are then one binomial draw with its exact success s_i, which is
    distribution-identical to sampling every trial down the tree by the
    Born rule.  s_i is the weight of the leaves guessing i in column i of
    :func:`_leaf_weights`, over that column's sum, clipped to [0, 1]: a POVM
    complete only to ``validate``'s tolerance can give a column sum above 1,
    and numpy's binomial refuses p > 1.  Unlike
    :attr:`ProtocolEvaluation.per_state_success` no row is pruned, so a rare
    state keeps its success.  A column whose weight all sits on hits gives
    s_i = 1 exactly (the two sums add the same terms in the same order), and
    a binomial draw with p = 0 or 1 consumes no randomness.  The numerators
    are one gather: ``np.bincount`` adds each leaf's weight in its guess's
    column in leaf order, as numpy's axis-0 sum of the dense (leaves, k)
    hit mask does for k > 1, so bit for bit.  With k = 1 every leaf is a
    hit and that column is contiguous, which numpy sums pairwise, so the
    numerator is the column sum itself.  ``trials`` and ``seed`` are
    checked first, then the tree and ensemble by :func:`_leaf_weights` at
    its default ``tol``; the walk draws nothing, so the stream is the seed's.
    """
    trials = as_int(trials, "trials")
    if not 1 <= trials <= 2**63 - 1:
        raise DomainError("trials must be between 1 and 2**63 - 1")
    seed = as_int(seed, "seed")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    _, guesses, w = _leaf_weights(protocol, ensemble)
    rng = np.random.default_rng(seed)
    per_state = rng.multinomial(trials, ensemble.priors)
    g = np.array(guesses)
    hits = w.sum(axis=0) if ensemble.k == 1 else np.bincount(g, weights=w[np.arange(len(g)), g], minlength=ensemble.k)
    s = np.clip(hits / w.sum(axis=0), 0.0, 1.0)
    return int(rng.binomial(per_state, s).sum()) / trials


def standard_bell_protocol(n: int, subset=None) -> LoccProtocol:
    """Both parties measure the computational basis; guess from the shift.

    For a Bell state labelled (m, l) the outcome pair (a, b) always satisfies
    a - b = m (mod n), so the shift m is learned exactly and l not at all.
    The guess is the subset member with that shift and the smallest l; a
    shift no member has falls back to the first member.  ``subset`` lists
    (m, l) pairs under the rule of :func:`loccdisc.ensembles.bell_subset` and
    defaults to the full n^2 Bell basis, matching the state order of the
    corresponding ensemble.
    """
    n = _bell_dimension(n)
    if subset is None:
        subset = [(m, l) for m in range(n) for l in range(n)]
    labels = _bell_labels(n, subset)
    best = {}  # shift m -> index of the member with that shift and the smallest l
    for idx, (m, l) in enumerate(labels):
        if m not in best or l < labels[best[m]][1]:
            best[m] = idx
    comp = projective_povm(np.eye(n, dtype=complex))
    children = [
        ProtocolNode(BOB, comp, tuple(Leaf(best.get((a - b) % n, 0)) for b in range(n)))
        for a in range(n)
    ]
    root = ProtocolNode(ALICE, comp, tuple(children))
    return LoccProtocol(n, n, root)


def discard_protocol(inner: LoccProtocol, kept, k: int) -> LoccProtocol:
    """Lift a protocol for the ``kept`` sub-ensemble to a k-state label space.

    The inner tree is reused unchanged; leaf guesses (indices into ``kept``)
    are relabelled to the enclosing ensemble.  States outside ``kept`` are
    never guessed, so on a uniform ensemble the overall success is
    (len(kept)/k) times the inner success on the kept states.
    """
    kept, k = [as_int(x, "kept label") for x in kept], as_int(k, "k")
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


def _zero_diagonal_residual(products, basis) -> np.ndarray:
    """Per P of the (pairs, n, n) stack ``products``, the largest |<b|P|b>| over the columns b of ``basis``."""
    return np.abs(np.einsum("ax,pax->px", basis.conj(), products @ basis)).max(axis=1, initial=0.0)


def _solve_compression(b2, scale):
    """Unit (c0, c1), c0 = cos t real, with [c0,c1]^dag B [c0,c1] = 0 for a 2x2 B with real p = b00 > 0 > n = b11.

    At c1 = sin t e^{i phi}, x = tan t, the value is cos^2 t (p + 2 r x + n x^2 + i Im(e^{i phi} g) x) with
    r = Re(e^{i phi} h), h = (b01 + conj(b10))/2 and g = b01 - conj(b10): e^{i phi} = -conj(g)/|g| makes it
    real, and x is the positive root (r + s)/(-n) = p/(s - r), s^2 = r^2 - p n.  A g within ``ROUNDING_ZERO``
    of ``scale`` is a Hermitian B's rounding; every phase solves a Hermitian B, so c1 is then real.  Python
    scalars, as numpy's per-call overhead would dominate at this size.
    """
    (p, b01), (b10, n) = b2.tolist()
    g = b01 - b10.conjugate()
    phase = -g.conjugate() / abs(g) if abs(g) > ROUNDING_ZERO * scale else 1.0
    r = (phase * (b01 + b10.conjugate())).real / 2.0
    s = math.sqrt(r * r - p.real * n.real)
    t = math.atan(p.real / (s - r) if r < 0.0 else (r + s) / -n.real)  # the form free of cancellation
    return math.cos(t), math.sin(t) * phase


def _zero_diagonal_basis(mat) -> np.ndarray:
    """Orthonormal basis in which the traceless, finite matrix ``mat`` has zero diagonal.

    First the diagonal is made real: with K = (M - M^dag)/2i Hermitian, E its
    eigenbasis and F the Fourier matrix, every diagonal entry of K in the
    basis E F is Tr K / m = Im Tr M / m = 0, so M's diagonal there is real.
    One real up to rounding (``ROUNDING_ZERO`` of M's largest entry) keeps
    the computational basis.  Then deflation over live vectors u, each a row
    of one (m, 2m) array beside the row (M u)^T, M in that basis, with the
    real diagonal kept as Python floats.  It sums to Tr M = 0, so unless an
    entry is zero (its u is peeled off as it is), the smallest positive entry
    p and the negative entry n closest to zero bracket it (ties go to the
    first u; pairing the extremes lets rounding grow over the steps).  The
    2x2 compression onto the two, its off-diagonal entries two dot products,
    reaches zero in closed form (:func:`_solve_compression`) at a unit x; one
    product on the two rows rotates them by [[c0, -conj(c1)], [c1, c0]] into
    x, peeled off, and the vector orthogonal to x in their plane, of value
    p + n.  The basis is formed once from the rows in peeling order.
    """
    m = mat.shape[0]
    if not np.all(np.isfinite(mat)):
        raise DomainError("matrix contains non-finite entries")
    if abs(np.trace(mat)) > 1e-9:
        raise DomainError("matrix must be traceless")
    mk = np.array(mat, dtype=complex)  # M in the first stage's basis
    iso = None  # that basis, column-wise, when it is not the computational one
    scale = float(np.max(np.abs(mk)))
    if np.max(np.abs(np.diag(mk).imag)) > ROUNDING_ZERO * scale:
        iso = np.linalg.eigh((mk - mk.conj().T) / 2j)[1] @ fourier_matrix(m)
        mk = iso.conj().T @ mk @ iso
    rows = np.concatenate([np.eye(m, dtype=complex), mk.T], axis=1)  # row i: u_i, then (M u_i)^T
    d = mk.diagonal().real.tolist()
    live, order = list(range(m)), []
    for _ in range(m - 1):
        q = n = min(live, key=lambda i: abs(d[i]))
        if abs(d[q]) > ZERO_DIAGONAL_TOL:  # with one sign left there is no pair: q is peeled, the final gate fails
            q = min((i for i in live if d[i] > 0.0), key=d.__getitem__, default=q)
            n = max((i for i in live if d[i] < 0.0), key=d.__getitem__, default=q)
        if n != q:
            b01, b10 = np.vdot(rows[q, :m], rows[n, m:]), np.vdot(rows[n, :m], rows[q, m:])
            c0, c1 = _solve_compression(np.array([[d[q], b01], [b10, d[n]]]), scale)
            rows[[q, n]] = np.array([[c0, c1], [-c1.conjugate(), c0]]) @ rows[[q, n]]
            d[n] += d[q]
        order.append(q)
        live.remove(q)
    w = rows[order + live, :m].T
    w = w if iso is None else iso @ w
    if not (_zero_diagonal_residual(mat[None], w)[0] <= ZERO_DIAGONAL_TOL and is_unitary(w, ZERO_DIAGONAL_TOL)):
        raise ToleranceError("zero-diagonal basis construction failed tolerance")
    return w


def two_state_protocol(ensemble: StateEnsemble) -> OneWayProtocolSpec:
    """Perfect one-way spec for an ensemble of two orthogonal bipartite pure states.

    Alice measures in a basis chosen so Bob's conditional states are
    orthogonal for every outcome: with amplitude matrices S1, S2 the matrix
    M = conj(S1) S2^T is traceless, and any basis W giving M a zero diagonal
    works.  Alice measures the columns of conj(W); outcome x leaves Bob with
    states proportional to S_i^T w_x, whose overlap is <w_x|M|w_x> = 0, and
    Bob separates them projectively.  ``DomainError`` unless the ensemble
    holds exactly two states, orthogonal within 1e-10.
    """
    if ensemble.k != 2:
        raise DomainError(f"need exactly 2 states, got {ensemble.k}")
    amps = ensemble.amplitude_matrices()
    overlap = abs(np.vdot(amps[0], amps[1]))
    if overlap > 1e-10:
        raise DomainError(f"states are not orthogonal (|<1|2>| = {overlap:.3e})")
    return one_way_protocol(amps, _zero_diagonal_basis(amps[0].conj() @ amps[1].T).conj())


def blind_guess_protocol(dim_a: int, dim_b: int, guess: int = 0) -> LoccProtocol:
    """Measure nothing (trivial rounds) and always output ``guess``."""
    dim_a, dim_b = as_int(dim_a, "dim_a"), as_int(dim_b, "dim_b")
    root = ProtocolNode(
        ALICE,
        identity_round(dim_a),
        (ProtocolNode(BOB, identity_round(dim_b), (Leaf(guess),)),),
    )
    return LoccProtocol(dim_a, dim_b, root)


def product_basis_protocol(ensemble: StateEnsemble) -> OneWayProtocolSpec:
    """Perfect one-way spec for a locally clustered orthogonal product set.

    Requires every state to be a product a_i (x) b_i whose Alice factors form
    groups of pairwise-equal rays, distinct groups orthogonal, with the Bob
    factors orthogonal inside each group (true for any basis of the form
    {|a> (x) |b>}).  Alice measures the group rays, Bob the group's local
    vectors.  One batched SVD gives every state's factors and, squared, its
    leading singular value for the product test (``DomainError`` names the
    first state that fails it), and one Gram matrix of the Alice factors
    gives the groups (each state joins its first state with the same ray)
    and the equal-or-orthogonal check.
    """
    u, s, vh = np.linalg.svd(ensemble.amplitude_matrices(), full_matrices=False)
    bad = np.flatnonzero(s[:, 0] * s[:, 0] < 1.0 - 1e-10)
    if bad.size:
        raise DomainError(f"state {bad[0]} is not a product state")
    a = u[:, :, 0]  # Alice factors, one row per state
    ov = np.abs(a.conj() @ a.T)
    same = ov > 1.0 - 1e-8
    if np.any(~same & (ov > 1e-8)):
        raise DomainError("Alice factors are neither equal nor orthogonal")
    first = same.argmax(axis=0)
    order = np.argsort(first, kind="stable")  # the states group by group, each in label order
    reps, sizes = np.unique(first, return_counts=True)
    labels = [tuple(g.tolist()) for g in np.split(order, np.cumsum(sizes)[:-1])]
    labels += [()] * (ensemble.dim_a - len(reps))
    alice_basis = _completed_bases(a[reps][None], [len(reps)])[0]
    spec = OneWayProtocolSpec(alice_basis, tuple(labels), vh[order, 0])
    if spec.max_bob_overlap() > 1e-8:
        raise DomainError("Bob factors within a group are not orthogonal")
    return spec
