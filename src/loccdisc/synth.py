"""Perfect-protocol synthesis, and the table of every shipped construction.

``RUNGS`` lists the constructions behind a ``PerfectPossible`` verdict in
the order ``bounds.verdict`` tries them: a blind guess for one state, the
two-state separator of ``locc``, the three-qutrit and common-unbiased-basis
(CUB) constructions built here, and the product-basis measurement of
``locc``, each with Alice measuring first.  Then the same rungs again as
``<rung>/bob-first`` rows, each built on the swapped ensemble and its
protocol swapped back, so they run only after every Alice-first row has
failed.  ``synthesize --method`` and the library build from the same
table.

The two constructions of this module are one-way.  For any three
orthogonal maximally entangled states of C^3 (x) C^3, Alice measures the
conjugated Fourier mix E D F of the eigenbasis E of B2^dag B1, with a
diagonal of phases D read in closed form off one cyclic diagonal of
E^dag B3^dag B2 E (D = I if it is rounding), and Bob is left three
orthogonal states on every outcome.  For k orthogonal states whose
pairwise products share a common unbiased basis, Alice measuring that
(conjugated) basis does the same, because
<b|B_i^dag B_j|b> = Tr(B_i^dag B_j)/n = 0 for every unbiased |b>.
``synthesize_cub_protocol`` is the one entry point for the latter; given no
basis it scans the default candidates itself.  It keeps a candidate whose
``locc._zero_diagonal_residual`` vanishes on the stack of all k(k-1)/2
pairwise products, formed by one stacked product.  No eigensystem is taken
(the prime-n candidates are closed-form MUBs); a cheap normality test on
the same stack keeps the products orthogonally diagonalizable.
``pairwise_product_eigenbases`` and ``find_cub`` state the construction in
terms of eigenbases and stay as its reference; a family of eigenbases is a
plain read-only (pairs, n, n) array.

Both only choose Alice's basis.  ``locc.one_way_protocol`` derives Bob's
vectors (B_i conj(c_x) for Alice column c_x) and returns a
:class:`~loccdisc.locc.OneWayProtocolSpec`, which lives in ``locc`` and is
re-exported here.

Synthesis outputs are validated at 1e-8, looser than the 1e-12 used for plain
algebraic identities.
"""

from collections.abc import Iterator

import numpy as np

from . import locc
from .ensembles import (
    StateEnsemble,
    common_unbiased_basis_check,
    fourier_matrix,
    is_prime,
    mub_prime_bases,
)
from .errors import DomainError, ToleranceError
from .locc import OneWayProtocolSpec
from .qstate import EIGEN_TOL, ROUNDING_ZERO, as_matrix, frozen_array, is_unitary, normal_eigensystem

def _checked_one_way(ensemble: StateEnsemble, alice_basis) -> OneWayProtocolSpec:
    """The one-way spec for ``alice_basis``, refused unless Bob's vectors are orthogonal to EIGEN_TOL."""
    spec = locc.one_way_protocol(ensemble.amplitude_matrices(), alice_basis)
    worst = spec.max_bob_overlap()
    if worst > EIGEN_TOL:
        raise ToleranceError(f"Bob discriminators not orthogonal (max overlap {worst:.3e})")
    return spec


def synthesize_three_qutrit_protocol(ensemble: StateEnsemble) -> OneWayProtocolSpec:
    """Perfect one-way protocol for three orthogonal ME states of C^3 (x) C^3.

    With M1 = B2^dag B1 = E diag(l) E^dag (one eigensystem, any order) and
    A = E^dag M2 E for M2 = B3^dag B2, Alice measures the conjugated columns
    u_x = E D f_x of E D F, F the 3x3 Fourier matrix and D = diag(d) phases.
    Up to 1/3, u_x^dag M u_x is the DFT over shifts s of the sums
    sum_i conj(d_i) (E^dag M E)[i, i+s] d_{i+s}, so Bob's states B_i u_x are
    orthogonal on every outcome when these vanish for M1, M2 and
    B3^dag B1 = M2 M1.  For M1 they do for any D (E^dag M1 E is diagonal and
    traceless); for shift 0 of the others, Tr M2 = Tr M2 M1 = 0.  For a
    shift s with cyclic diagonal a_i = A[i, i+s], the sums of
    z_i = a_i d_{i+s} / d_i and of l_{i+s} z_i both vanish exactly when z is
    parallel to (1, 1, 1) x (l_{i+s}), whose entry i is l_{i+s+2} - l_{i+s+1}.
    The phases are read off the shift whose smallest |a_i| is larger: the
    error in each z_i scales with |a_i|, so nearly commuting products are
    handled too.  Commuting ones accept any D and take D = I once that |a_i|
    is rounding (within ``ROUNDING_ZERO`` of A's largest entry).  The other
    shift follows by the theorem, and ``_checked_one_way`` verifies Bob's states.
    """
    if ensemble.k != 3:
        raise DomainError(f"need exactly 3 states, got {ensemble.k}")
    if (ensemble.dim_a, ensemble.dim_b) != (3, 3):
        raise DomainError("states must live in C^3 (x) C^3")
    if not ensemble.is_maximally_entangled(1e-10):
        raise DomainError("states must be maximally entangled")
    if not ensemble.is_orthogonal(1e-10):
        raise DomainError("states must be pairwise orthogonal")

    b = ensemble.b_matrices()
    l, e = normal_eigensystem(b[1].conj().T @ b[0])
    a = e.conj().T @ b[2].conj().T @ b[1] @ e
    i = np.arange(3)
    s = max((1, 2), key=lambda s: np.abs(a[i, (i + s) % 3]).min())
    a_s = a[i, (i + s) % 3]
    d = np.ones(3, dtype=complex)
    if np.abs(a_s).min() > ROUNDING_ZERO * np.abs(a).max():
        w = (l[(i + s + 2) % 3] - l[(i + s + 1) % 3]) * a_s.conj()
        w /= np.abs(w)
        w /= np.prod(w) ** (1 / 3)
        d[s], d[2 * s % 3] = w[0], w[0] * w[s]
    return _checked_one_way(ensemble, (e * d @ fourier_matrix(3)).conj())


def _pairwise_products(ensemble: StateEnsemble):
    """The index pairs i < j and the matching (pairs, n, n) stack of B_i^dag B_j, one stacked product."""
    b = ensemble.b_matrices()
    first, second = np.triu_indices(ensemble.k, 1)
    pairs = list(zip(first.tolist(), second.tolist()))
    return pairs, b[first].conj().transpose(0, 2, 1) @ b[second]


def pairwise_product_eigenbases(ensemble: StateEnsemble):
    """Orthonormal eigenbases of every pairwise product B_i^dag B_j, i < j.

    Returns (pairs, vecs): the index pairs and the matching read-only
    (pairs, n, n) stack of eigenbases, eigenvectors as columns.  All
    k(k-1)/2 products are formed by one stacked product and diagonalized
    one by one by :func:`~loccdisc.qstate.normal_eigensystem`; the first
    product that is not normal (orthogonally diagonalizable) is named in
    the error.  Products are normal for maximally entangled ensembles (they
    are unitary) and for simultaneously diagonal ones.  A reference for
    :func:`synthesize_cub_protocol`, which takes no eigensystem and tests
    its candidates on the products themselves.
    """
    pairs, products = _pairwise_products(ensemble)
    vecs = []
    for pair, product in zip(pairs, products):
        try:
            vecs.append(normal_eigensystem(product)[1])
        except DomainError as exc:
            raise DomainError(f"pairwise product {pair} is not orthogonally diagonalizable: {exc}") from exc
    return pairs, frozen_array(vecs)


def synthesize_cub_protocol(ensemble: StateEnsemble, cub=None) -> OneWayProtocolSpec:
    """One-way protocol from a common unbiased basis of the pairwise products.

    Alice measures the conjugated columns of ``cub``; after outcome b Bob's
    states are pairwise orthogonal iff <b|B_i^dag B_j|b> = 0 for all i < j.
    That zero-diagonal condition, ``locc._zero_diagonal_residual``, is the
    test, for all pairs and columns in one stacked product.  Every product
    must be normal (max |M M^dag - M^dag M| within 1e-8).  With ``cub=None``
    the first of :func:`default_cub_candidates` that passes is used; an
    explicit ``cub`` that fails names the first failing pair.
    """
    if ensemble.dim_a != ensemble.dim_b:
        raise DomainError("construction needs equal local dimensions")
    if not ensemble.is_orthogonal(1e-10):
        raise DomainError("states must be pairwise orthogonal")

    pairs, products = _pairwise_products(ensemble)
    adjoints = products.conj().transpose(0, 2, 1)
    skew = np.abs(products @ adjoints - adjoints @ products).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(skew > EIGEN_TOL)
    if bad.size:
        raise DomainError(
            f"pairwise product {pairs[bad[0]]} is not orthogonally diagonalizable: "
            f"max |M M^dag - M^dag M| = {skew[bad[0]]:.3e}"
        )

    if cub is None:
        candidates = default_cub_candidates(ensemble.dim_a)
        cub = next((c for c in candidates if locc._zero_diagonal_residual(products, c).max(initial=0.0) <= EIGEN_TOL), None)
        if cub is None:
            raise DomainError("no common unbiased basis among the default candidates")
    else:
        cub = as_matrix(cub)
        if cub.shape != (ensemble.dim_a, ensemble.dim_a):
            raise DomainError("basis dimension does not match the ensemble")
        if not is_unitary(cub):
            raise DomainError("candidate basis is not orthonormal")
        bad = np.flatnonzero(locc._zero_diagonal_residual(products, cub) > EIGEN_TOL)
        if bad.size:
            raise DomainError(f"basis leaves Bob's states of pair {pairs[bad[0]]} non-orthogonal")

    return _checked_one_way(ensemble, cub.conj())


def default_cub_candidates(n: int) -> Iterator[np.ndarray]:
    """Candidate bases tried by :func:`synthesize_cub_protocol`, built lazily.

    The closed-form MUB set for prime n (so a scan that stops early never
    builds the rest), else the Fourier basis alone.
    """
    if is_prime(n):
        return mub_prime_bases(n)
    return iter([fourier_matrix(n)])


def find_cub(family, candidates):
    """First candidate basis unbiased to every basis of the (members, n, n) stack ``family``, or None.

    No general search is attempted; existence of a common unbiased basis for
    an arbitrary family is an open problem, so only the supplied candidate
    list is scanned.
    """
    for cand in candidates:
        if common_unbiased_basis_check(cand, family):
            return as_matrix(cand)
    return None


def _single_state(ensemble: StateEnsemble) -> locc.LoccProtocol:
    if ensemble.k != 1:
        raise DomainError(f"need exactly 1 state, got {ensemble.k}")
    return locc.blind_guess_protocol(ensemble.dim_a, ensemble.dim_b, 0)


# Rung name -> builder, in verdict's order.  A builder takes an ensemble and
# returns a LoccProtocol or a OneWayProtocolSpec, or raises DomainError where
# its rung does not apply; the CUB rung's also takes an explicit ``basis``.
# Builders look their construction up when called, so a patched module
# attribute is the function that runs.  Every rung has Alice measure first;
# the "<rung>/bob-first" rows appended below run the same rung on the
# swapped ensemble and swap its protocol back, so they are tried only after
# every Alice-first row has failed.
RUNGS = {
    "single-state": _single_state,
    "two-state": lambda ensemble: locc.two_state_protocol(ensemble),
    "three-qutrit": lambda ensemble: synthesize_three_qutrit_protocol(ensemble),
    "cub": lambda ensemble, basis=None: synthesize_cub_protocol(ensemble, basis),
    "product-basis": lambda ensemble: locc.product_basis_protocol(ensemble),
}


def rung_protocol(built) -> tuple:
    """(protocol, one-way spec or None) from what a rung builder returned."""
    if isinstance(built, OneWayProtocolSpec):
        return built.as_protocol(), built
    return built, None


def _bob_first(rung: str):
    """The builder of ``rung`` with Bob measuring first: that rung's protocol for the swapped ensemble, swapped back."""
    return lambda ensemble: rung_protocol(RUNGS[rung](ensemble.swapped()))[0].swapped()


RUNGS |= {f"{rung}/bob-first": _bob_first(rung) for rung in RUNGS}
