"""One-way protocol synthesis for maximally entangled ensembles.

Two constructions are provided.  For any three orthogonal maximally
entangled states of C^3 (x) C^3 the pairwise matrices B2^dag B1 and
B3^dag B2 are traceless unitaries; after aligning eigenvector phases so the
eigenbasis overlap matrix is circulant, Alice measuring the conjugated
Fourier mix of that eigenbasis leaves Bob three orthogonal states on every
outcome.  For k orthogonal states whose pairwise products share a common
unbiased basis, Alice measuring that (conjugated) basis does the same,
because <b|B_i^dag B_j|b> = Tr(B_i^dag B_j)/n = 0 for every unbiased |b>.
``synthesize_cub_protocol`` is the one entry point for the latter; given no
basis it scans the default candidates itself.  It tests each candidate by
that condition directly: all k(k-1)/2 pairwise products are formed by one
stacked product, and a candidate is kept when every <b|B_i^dag B_j|b> over
its columns and all pairs, computed in one stacked product, vanishes.  No
eigensystem is taken (the prime-n candidates are closed-form MUBs); a cheap
normality test on the same stack keeps the products orthogonally diagonalizable.
``pairwise_product_eigenbases`` and ``find_cub`` state the construction in
terms of eigenbases and stay as its reference; a family of eigenbases is a
plain read-only (pairs, n, n) array.  Likewise the three-qutrit phase solve,
``overlap_phase_normalize``, returns its four angles and the adjusted
overlap matrix as plain values.

Both constructions only choose Alice's basis.  ``locc.one_way_protocol``
derives Bob's vectors (B_i conj(c_x) for Alice column c_x) and returns a
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
from .qstate import EIGEN_TOL, as_matrix, frozen_array, is_unitary, normal_eigensystem

OMEGA = np.exp(2j * np.pi / 3)


def _circulant_defect(v: np.ndarray) -> float:
    worst = 0.0
    for s in range(3):
        vals = [v[i, (i + s) % 3] for i in range(3)]
        for i in range(3):
            worst = max(worst, abs(vals[i] - vals[(i + 1) % 3]))
    return worst


def traceless_unitary_eigensystem(matrix) -> tuple[complex, np.ndarray]:
    """Orthonormal eigenvectors of a traceless 3x3 unitary, labeled by phase.

    A traceless 3x3 unitary has spectrum c * {1, w, w^2} for some unit c
    (w = exp(2 pi i/3)); c is only determined up to a factor of w, so the
    eigenvalue closest to the positive real axis is chosen.  The input must be
    unitary within 1e-10; eigenvalues are projected onto the unit circle.
    Returns (c, E) with E's column i the eigenvector for c w^i, satisfying
    ``M = c sum_i w^i |e_i><e_i|`` to 1e-9.
    """
    m = as_matrix(matrix)
    if m.shape != (3, 3):
        raise DomainError("expected a 3x3 matrix")
    if abs(np.trace(m)) > 1e-8:
        raise DomainError(f"matrix is not traceless (|tr| = {abs(np.trace(m)):.3e})")
    if not is_unitary(m):
        raise DomainError("matrix is not unitary within tolerance")
    vals, vecs = normal_eigensystem(m)
    vals = vals / np.abs(vals)

    angles = np.angle(vals)
    for i in range(3):
        for j in range(i + 1, 3):
            gap = abs((angles[i] - angles[j] + np.pi) % (2 * np.pi) - np.pi)
            if gap < 1e-6:
                raise ToleranceError("near-degenerate eigenvalues; input is not a valid traceless unitary")

    c_idx = max(range(3), key=lambda i: (vals[i].real, vals[i].imag))
    c = vals[c_idx]
    labels = np.round(3.0 * np.angle(vals / c) / (2.0 * np.pi)).astype(int) % 3
    if sorted(labels.tolist()) != [0, 1, 2]:
        raise ToleranceError("eigenvalues are not in equilateral configuration")
    order = np.argsort(labels)
    vecs = vecs[:, order]

    recon = c * sum(OMEGA**i * np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(3))
    if float(np.max(np.abs(m - recon))) > 1e-9:
        raise ToleranceError("eigensystem reconstruction missed 1e-9")
    return complex(c), vecs


def overlap_phase_normalize(e_basis, f_basis) -> tuple[tuple[float, float, float, float], np.ndarray]:
    """Phase-align two labeled eigenbases so their overlap matrix is circulant.

    Returns ``((gamma, alpha, beta, delta), adjusted)``: with
    U1 = diag(1, e^{i alpha}, e^{i beta}) and U2 = diag(1, e^{i gamma},
    e^{i delta}), the read-only ``adjusted = U1 V U2^dag`` is a circulant
    unitary.

    The overlap V[i, j] = <e_i|f_j> of valid inputs has |V[i, j]| depending
    only on (j - i) mod 3.  Phases are then fixed by a linear solve on the
    first two columns (with the remaining entries forced by unitarity); the
    column-difference average determining gamma is only meaningful mod
    2 pi/3, so all three branches are tried and the one yielding a circulant
    result is kept.  Overlap patterns concentrated on a single cyclic
    diagonal (commuting pairwise products) are aligned directly.
    """
    e = as_matrix(e_basis)
    f = as_matrix(f_basis)
    if e.shape != (3, 3) or f.shape != (3, 3):
        raise DomainError("expected 3x3 bases")
    if not (is_unitary(e, 1e-10) and is_unitary(f, 1e-10)):
        raise DomainError("bases must be orthonormal")
    v = e.conj().T @ f

    mods = np.abs(v)
    radii = []
    for s in range(3):
        vals = [mods[i, (i + s) % 3] for i in range(3)]
        if max(vals) - min(vals) > EIGEN_TOL:
            raise DomainError(
                "overlap magnitudes are not circulant; upstream states are not a valid orthogonal triple"
            )
        radii.append(float(np.mean(vals)))

    m = np.angle(v)
    nonzero = [s for s in range(3) if radii[s] > 1e-6]
    if len(nonzero) == 1:
        s = nonzero[0]
        if s == 0:
            alpha, beta = 0.0, 0.0
            gamma = m[1, 1] - m[0, 0]
            delta = m[2, 2] - m[0, 0]
        elif s == 1:
            alpha, gamma = 0.0, 0.0
            delta = m[1, 2] - m[0, 1]
            beta = m[0, 1] - m[2, 0]
        else:
            alpha, gamma = 0.0, 0.0
            delta = m[0, 2] - m[1, 0]
            beta = m[1, 0] - m[2, 1]
        candidates = [(gamma, alpha, beta, delta)]
    else:
        gamma_base = float(np.sum(m[:, 1] - m[:, 0]) / 3.0)
        candidates = []
        for branch in (0.0, 2 * np.pi / 3, -2 * np.pi / 3):
            gamma = gamma_base + branch
            alpha = m[0, 0] - m[1, 1] + gamma
            beta = m[0, 1] - m[2, 0] - gamma
            delta = m[0, 2] - alpha - m[1, 0]
            candidates.append((gamma, alpha, beta, delta))

    best = None
    for gamma, alpha, beta, delta in candidates:
        u1 = np.diag([1.0, np.exp(1j * alpha), np.exp(1j * beta)])
        u2 = np.diag([1.0, np.exp(1j * gamma), np.exp(1j * delta)])
        vp = u1 @ v @ u2.conj().T
        defect = _circulant_defect(vp)
        if best is None or defect < best[0]:
            best = (defect, gamma, alpha, beta, delta, vp)

    defect, gamma, alpha, beta, delta, vp = best
    if defect > 1e-9:
        raise ToleranceError(f"phase solve left a circulant defect of {defect:.3e}")
    if not is_unitary(vp, 1e-9):
        raise ToleranceError("adjusted overlap matrix is not unitary within 1e-9")
    return (float(gamma), float(alpha), float(beta), float(delta)), frozen_array(vp)


def _checked_one_way(ensemble: StateEnsemble, alice_basis) -> OneWayProtocolSpec:
    """The one-way spec for ``alice_basis``, refused unless Bob's vectors are orthogonal to EIGEN_TOL."""
    spec = locc.one_way_protocol(ensemble.states, alice_basis)
    worst = spec.max_bob_overlap()
    if worst > EIGEN_TOL:
        raise ToleranceError(f"Bob discriminators not orthogonal (max overlap {worst:.3e})")
    return spec


def synthesize_three_qutrit_protocol(ensemble: StateEnsemble) -> OneWayProtocolSpec:
    """Perfect one-way protocol for three orthogonal ME states of C^3 (x) C^3.

    Alice measures the conjugated basis U|x> = (1/sqrt(3)) sum_i w^{ix}|e_i>
    built from the phase-aligned eigenbasis of B2^dag B1; conditioned on any
    outcome, Bob's three states B_i U|x> are pairwise orthogonal and a
    projective measurement finishes the job.
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
    _, e_vecs = traceless_unitary_eigensystem(b[1].conj().T @ b[0])
    _, f_vecs = traceless_unitary_eigensystem(b[2].conj().T @ b[1])
    (_, alpha, beta, _), _ = overlap_phase_normalize(e_vecs, f_vecs)
    e_hat = e_vecs @ np.diag([1.0, np.exp(1j * alpha), np.exp(1j * beta)]).conj()

    fourier = np.array([[OMEGA ** (i * x) for x in range(3)] for i in range(3)]) / np.sqrt(3)
    u = e_hat @ fourier
    return _checked_one_way(ensemble, u.conj())


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
    That zero-diagonal condition is the test, for all pairs and columns in
    one stacked product.  Every product must be normal (max |M M^dag -
    M^dag M| within 1e-8).  With ``cub=None`` the first of
    :func:`default_cub_candidates` that passes is used; an explicit ``cub``
    that fails names the first failing pair.
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

    def defects(c):
        """Per pair, the largest |<b|B_i^dag B_j|b>| over the columns b of ``c``."""
        return np.abs(np.einsum("ax,pax->px", c.conj(), products @ c)).max(axis=1, initial=0.0)

    if cub is None:
        fits = (c for c in default_cub_candidates(ensemble.dim_a) if defects(c).max(initial=0.0) <= EIGEN_TOL)
        cub = next(fits, None)
        if cub is None:
            raise DomainError("no common unbiased basis among the default candidates")
    else:
        cub = as_matrix(cub)
        if cub.shape != (ensemble.dim_a, ensemble.dim_a):
            raise DomainError("basis dimension does not match the ensemble")
        if not is_unitary(cub):
            raise DomainError("candidate basis is not orthonormal")
        bad = np.flatnonzero(defects(cub) > EIGEN_TOL)
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
