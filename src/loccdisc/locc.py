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

Computational-basis measurements and identity rounds stack the identity
(:attr:`Povm.is_identity`).  A step whose run shares one such POVM takes
its input as the product, a view with no copy and no matmul.  The bits are
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
squared out of place.  Dense POVMs, and runs that stack distinct POVM
objects, keep the product.

Every synthesized protocol is one-way: Alice measures a basis, then Bob
separates his conditional states.  :class:`OneWayProtocolSpec` is the single
representation of such a protocol; it stores Bob's vectors once, as one
zero-padded array.  :func:`one_way_protocol` derives all of them from the
states in one product, and :meth:`OneWayProtocolSpec.as_protocol` expands a
spec into a tree, each round's :class:`Povm` built from one stacked array.
One batched complete QR, :func:`_completed_bases`, completes every basis.
The two-state separator makes a traceless matrix's diagonal real with one
Hermitian eigensystem and the Fourier matrix, then deflates it one
zero-value vector at a time: each step pairs a positive diagonal entry with
a negative one and rotates those two coordinates in closed form.
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby

import numpy as np

from .ensembles import StateEnsemble, _bell_labels, fourier_matrix
from .errors import DomainError, ToleranceError
from .qstate import BipartiteState, as_int, as_matrix, frozen_array, is_unitary

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


@dataclass(frozen=True, eq=False)
class Povm:
    """One measurement round: operators M_i with sum_i M_i^dag M_i = I.

    The operators are stored once, stacked row-wise into the read-only
    (sum of output dims, input dim) array ``stacked``; element i is the row
    block starting at ``offsets[i]``, and ``elements`` holds read-only views
    of those blocks.  ``elements`` may be a sequence of matrices or one
    (outcomes, rows, input dim) array, which is checked and copied in one
    piece rather than element by element; both forms give the same
    ``stacked``, ``offsets`` and ``elements``.
    """

    elements: tuple
    stacked: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        elements = self.elements
        if isinstance(elements, np.ndarray) and elements.ndim == 3:
            # an (outcomes, rows, input dim) stack, taken in one piece
            count, rows, dim = elements.shape
            if rows == 0 or dim == 0:
                raise DomainError(f"expected a nonempty 2-D matrix, got shape {(rows, dim)}")
            if not count:
                raise DomainError("POVM needs at least one element")
            stacked = frozen_array(elements.reshape(-1, dim))
            starts = range(0, count * rows, rows)
            elements = tuple(stacked.reshape(count, rows, dim))
        else:
            blocks = [np.asarray(m, dtype=complex) for m in elements]
            for m in blocks:
                if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
                    raise DomainError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
            if not blocks:
                raise DomainError("POVM needs at least one element")
            if len({m.shape[1] for m in blocks}) != 1:
                raise DomainError("POVM elements disagree on input dimension")
            stacked = frozen_array(np.concatenate(blocks))
            ends = list(accumulate(m.shape[0] for m in blocks))
            starts = [0, *ends[:-1]]
            elements = tuple(stacked[a:b] for a, b in zip(starts, ends))
        if not np.all(np.isfinite(stacked)):
            raise DomainError("matrix contains non-finite entries")
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "offsets", frozen_array(starts, dtype=np.intp))
        object.__setattr__(self, "elements", elements)

    @property
    def input_dim(self) -> int:
        return self.stacked.shape[1]

    @cached_property
    def is_identity(self) -> bool:
        """Whether ``stacked`` is the identity, so a walk step may take its input as the product.

        Found on first use, so a POVM that no walk steps on pays nothing.
        """
        return np.array_equal(self.stacked, np.eye(self.input_dim))

    def completeness_defect(self) -> float:
        gram = self.stacked.conj().T @ self.stacked
        return float(np.max(np.abs(gram - np.eye(self.input_dim))))


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
        """Check alternation, operator shape chaining, completeness, leaf labels.

        One depth-first walk visits nodes and leaves alike, children in
        outcome order, so the first fault on that order is the one reported.
        """
        complete = set()  # ids of Povm objects already checked; nodes may share one

        def walk(node, da, db, prev_actor):
            if isinstance(node, Leaf):
                if node.guess < 0 or (k is not None and node.guess >= k):
                    raise DomainError(f"leaf guess {node.guess} out of range")
                return
            if node.actor == prev_actor:
                raise DomainError("actors must alternate along every path")
            alice = node.actor == ALICE
            cur = da if alice else db
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
                walk(child, m.shape[0] if alice else da, db if alice else m.shape[0], node.actor)

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
    """Rank-1 row-vector POVM measuring in the columns of ``basis``."""
    b = as_matrix(basis)
    return Povm(b.conj().T[:, None, :])


def identity_round(dim: int) -> Povm:
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
    ``bob_discriminators[x]`` holds (label, unit vector) pairs that are
    pairwise orthogonal within the synthesis tolerance.  The vectors are
    stored once, in the read-only (outcomes, largest group, dim_b) array
    ``_bob``: group x fills its first rows and zeros the rest, and the pairs
    hold views of those rows.  dim_b is the vectors' common length (dim_a
    when every group is empty), and no group has more than dim_b vectors.
    """

    alice_basis: np.ndarray
    bob_discriminators: tuple
    _bob: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = frozen_array(as_matrix(self.alice_basis))
        if not is_unitary(ab, 1e-10):
            raise DomainError("Alice basis is not orthonormal")
        groups = self.bob_discriminators
        if len(groups) != ab.shape[1]:
            raise DomainError("need one Bob group per Alice outcome")
        labels = [[as_int(lab, "label") for lab, _ in group] for group in groups]
        vecs = [np.asarray(v, dtype=complex).reshape(-1) for group in groups for _, v in group]
        sizes = [len(group) for group in groups]
        width = max(sizes)
        db = vecs[0].size if vecs else ab.shape[0]
        if width > db:
            raise DomainError("more vectors than the dimension allows")
        if any(v.size != db for v in vecs):
            raise DomainError("vector length does not match dimension")
        bob = np.zeros((len(groups), width, db), dtype=complex)
        if vecs:
            bob[np.arange(width) < np.array(sizes)[:, None]] = vecs
        bob.setflags(write=False)
        object.__setattr__(self, "alice_basis", ab)
        object.__setattr__(self, "bob_discriminators", tuple(tuple(zip(labs, rows)) for labs, rows in zip(labels, bob)))
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
        ``COMPLETION_GUESS``.  Each Bob round is a :class:`Povm` built from
        its outcome's conjugated basis in one piece, and equal labels share
        one :class:`Leaf`.
        """
        groups, db = self.bob_discriminators, self.dim_b
        q = _completed_bases(self._bob, [len(group) for group in groups])
        labels = [next(zip(*group), ()) for group in groups]  # each group's labels, one tuple
        leaf = {lab: Leaf(lab) for lab in {COMPLETION_GUESS}.union(*labels)}
        children = tuple(
            ProtocolNode(BOB, Povm(rows), tuple(map(leaf.get, labs)) + (leaf[COMPLETION_GUESS],) * (db - len(labs)))
            for rows, labs in zip(q.conj().transpose(0, 2, 1)[:, :, None, :], labels)
        )
        root = ProtocolNode(ALICE, projective_povm(self.alice_basis), children)
        return LoccProtocol(self.dim_a, db, root)


def one_way_protocol(states, alice_basis) -> OneWayProtocolSpec:
    """One-way spec in which Alice measures the columns of ``alice_basis``.

    When Alice projects onto column c_x, state i leaves Bob holding
    B_i conj(c_x) (unnormalized; B_i is its matrix picture).  Each such
    vector is normalized and labeled i, or dropped when its norm is at most
    1e-12 because state i cannot produce outcome x.  The spec separates the
    states perfectly exactly when every outcome's vectors are orthogonal.
    All vectors come from one matrix-vector product and all norms from one
    product of vector-shaped operands on the real and imaginary parts: bit
    for bit each B_i's own ``B_i @ conj(c_x)`` and ``np.linalg.norm``.
    """
    ab = as_matrix(alice_basis)
    amps = np.array([psi.amplitude_matrix for psi in states])
    b = np.sqrt(amps.shape[1]) * amps.transpose(0, 2, 1)  # laid out as each psi.b_matrix
    v = b @ ab.conj().T.copy()[:, None, :, None]  # (outcomes, states, dim_b, 1): B_i conj(c_x)
    re, im = v.real, v.imag
    nrm = np.sqrt(re.swapaxes(2, 3) @ re + im.swapaxes(2, 3) @ im)[..., 0]  # (outcomes, states, 1)
    keep = nrm[..., 0] > 1e-12
    v = np.divide(v[..., 0], nrm, out=np.zeros(v.shape[:3], dtype=complex), where=keep[..., None])
    groups = tuple(tuple(zip(np.flatnonzero(kx).tolist(), vx[kx])) for vx, kx in zip(v, keep))
    return OneWayProtocolSpec(ab, groups)


def _leaf_weights(protocol: LoccProtocol, ensemble: StateEnsemble):
    """Leaf path blocks and guesses in depth-first order, and their (leaves, k) weights.

    The whole ensemble travels down the tree as one stacked array Y of
    matrices E B_i X^T, and each step of :func:`_collect_leaves` applies
    its nodes' stacked POVMs S in one matmul: Alice maps Y to Y S^T, Bob to
    S Y.  Outcome x's block of the product is the child's Y; a leaf's
    weight for state i is ||Y_i||_F^2 / dim_a.  A step with leaf children
    weighs all its outcomes at once: for a projective POVM (one row per
    outcome) the squared row norms are the weights, otherwise one
    ``np.add.reduceat`` over the POVM's row offsets sums them; each run of
    consecutive leaf children takes its rows as one block.  Each path block
    is a pair (prefixes, suffixes) standing for the leaf paths
    prefix + suffix, prefixes outer.
    """
    b = ensemble.b_matrices()
    if isinstance(protocol.root, Leaf):
        w = np.einsum("kij,kij->k", b.conj(), b).real[None] / protocol.dim_a
        return [([()], ((),))], [protocol.root.guess], w
    paths, guesses, blocks = [], [], []
    _collect_leaves((protocol.root,), b, [()], paths, guesses, blocks)
    w = np.concatenate(blocks)
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
    if not all(isinstance(leaf, Leaf) for leaf in child.children):
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
    """A step's operators: the run's one shared stacked POVM, or its nodes' POVMs stacked, (nodes, rows, input dim)."""
    first = run[0].povm
    if any(node.povm is not first for node in run):
        return np.stack([node.povm.stacked for node in run])
    return first.stacked


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
    is viewed with the states leading, so squares that must leave it
    intact go in blocks of states (:func:`_squared_norms`).

    A run that shares an identity POVM takes the reshaped Y itself as its
    product, but for Alice with one coordinate (c = 1); the module
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
    stack, children = _run_stack(run), node.children
    alice = node.actor == ALICE
    view = stack is node.povm.stacked and node.povm.is_identity and not (alice and y.shape[2] == 1)
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
    result may view z.
    """
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
    ``joint`` is first read.
    """
    if (protocol.dim_a, protocol.dim_b) != (ensemble.dim_a, ensemble.dim_b):
        raise DomainError("protocol and ensemble dimensions disagree")
    protocol.validate(k=ensemble.k, tol=tol)
    paths, guesses, w = _leaf_weights(protocol, ensemble)

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
    a binomial draw with p = 0 or 1 consumes no randomness.
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
    _, guesses, w = _leaf_weights(protocol, ensemble)
    hit = np.array(guesses)[:, None] == np.arange(ensemble.k)
    s = np.clip((w * hit).sum(axis=0) / w.sum(axis=0), 0.0, 1.0)
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
    if n < 2:
        raise DomainError("need dimension >= 2")
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
    kept = [as_int(x, "kept label") for x in kept]
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


def _solve_compression(b2):
    """Unit coefficients (c0, c1), c0 = cos t real, with [c0,c1]^dag B [c0,c1] = 0.

    Requires the 2x2 compression ``b2`` to have a real diagonal, its first
    entry above zero and its second below: zero then lies on the segment
    between them, and a closed-form solution exists.  Scalar math on Python
    complex numbers: at this size numpy's per-call overhead would dominate.
    """
    (b00, b01), (b10, b11) = b2.tolist()
    z = b11 - b00
    mu = -(b00 / z).real
    rot = cmath.exp(-1j * cmath.phase(z))
    xp, yp = b01 * rot, b10 * rot
    phi = math.atan2(-(xp.imag + yp.imag), xp.real - yp.real)
    rho = ((b01 * cmath.exp(1j * phi) + b10 * cmath.exp(-1j * phi)) * rot).real
    az = abs(z)
    quad = (1.0 - mu) * az
    x = (-rho + math.sqrt(rho * rho + 4.0 * quad * mu * az)) / (2.0 * quad)
    t = math.atan(x)
    return math.cos(t), math.sin(t) * cmath.exp(1j * phi)


def _zero_diagonal_basis(mat) -> np.ndarray:
    """Orthonormal basis in which the traceless matrix ``mat`` has zero diagonal.

    First the diagonal is made real: with K = (M - M^dag)/2i Hermitian, E its
    eigenbasis and F the Fourier matrix, every diagonal entry of K in the
    basis E F is Tr K / m = Im Tr M / m = 0, so M's diagonal there is real.
    A diagonal that is already exactly real keeps the computational basis.
    Then deflation: the real diagonal sums to Tr M = 0, so unless an entry is
    zero (that basis vector is peeled off as it is), the smallest positive
    entry and the negative entry closest to zero bracket it (pairing the two
    extremes instead lets rounding grow over the steps).  The 2x2
    compression onto those two vectors reaches zero in closed form
    (:func:`_solve_compression`) at a unit x; the rotation
    [[c0, -conj(c1)], [c1, c0]] of the two coordinates puts x in the
    first and, in the second, the vector orthogonal to x in that plane,
    whose value is the compression's trace, real again.  x is peeled off and
    the compression to the rest, traceless and real on its diagonal, goes on.
    """
    m = mat.shape[0]
    if abs(np.trace(mat)) > 1e-9:
        raise DomainError("matrix must be traceless")
    mk = np.array(mat, dtype=complex)  # compression to the working basis
    iso = np.eye(m, dtype=complex)  # the working basis, column-wise
    if np.any(np.diag(mk).imag):
        iso = np.linalg.eigh((mk - mk.conj().T) / 2j)[1] @ fourier_matrix(m)
        mk = iso.conj().T @ mk @ iso
    cols = []
    for _ in range(m - 1):
        d = np.diag(mk).real
        q = int(np.argmin(np.abs(d)))
        if abs(d[q]) > ZERO_DIAGONAL_TOL:
            q = int(np.argmin(np.where(d > 0.0, d, np.inf)))
            pair = [q, int(np.argmax(np.where(d < 0.0, d, -np.inf)))]
            c0, c1 = _solve_compression(mk[np.ix_(pair, pair)])
            rot = np.array([[c0, -c1.conjugate()], [c1, c0]])
            mk[:, pair] = mk[:, pair] @ rot
            mk[pair] = rot.conj().T @ mk[pair]
            iso[:, pair] = iso[:, pair] @ rot
        cols.append(iso[:, q])
        keep = np.arange(mk.shape[0]) != q
        mk = mk[keep][:, keep]
        iso = iso[:, keep]
    cols.append(iso[:, 0])
    w = np.column_stack(cols)
    diag = np.abs(np.diag(w.conj().T @ mat @ w))
    if float(np.max(diag)) > ZERO_DIAGONAL_TOL or float(np.max(np.abs(w.conj().T @ w - np.eye(m)))) > ZERO_DIAGONAL_TOL:
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
    alice_basis = _completed_bases(np.array(reps)[None], [len(reps)])[0]
    spec = OneWayProtocolSpec(alice_basis, tuple(bob_groups))
    if spec.max_bob_overlap() > 1e-8:
        raise DomainError("Bob factors within a group are not orthogonal")
    return spec.as_protocol()
