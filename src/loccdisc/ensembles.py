"""Named state families: generalized Bell bases, MUBs, and seeded test ensembles.

Every ensemble holds its states as one read-only (k, dim_a, dim_b) stack of
amplitude matrices, and its states, made on first read, are views of the
stack's rows.  The named families make that stack in one piece and check it
once (:func:`loccdisc.qstate.normalized_amplitudes`), an explicit
descriptor's states are checked as one stack, and an ensemble of given
states stacks their checked amplitudes.  Either way the ensemble adopts the
stack without a copy.  The largest pairwise overlap, uniformity, the witnesses' one
spectral pass and the swap (:meth:`StateEnsemble.swapped`, the same states
with the parties exchanged, whose Alice side is Bob's side here) are
cached on first use.

A family of bases of C^n is a plain read-only (members, n, n) array, each
basis stored column-wise: :func:`mub_prime` returns one and
:func:`common_unbiased_basis_check` takes one.
"""

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .qstate import (
    ALGEBRAIC_TOL,
    EIGEN_TOL,
    STRUCTURAL_TOL,
    BipartiteState,
    as_int,
    as_matrix,
    as_tol,
    frozen_array,
    generalized_pauli,
    is_unitary,
    normalized_amplitudes,
    reduced_spectrum,
    reduced_state,
    schmidt_coefficients,
)


@dataclass(frozen=True, eq=False, init=False)
class StateEnsemble:
    """States with prior probabilities, all sharing the same bipartite space.

    The sizes are read off the stack's shape, and the per-state objects in
    ``states`` are made the first time they are read.
    """

    priors: np.ndarray
    _amps: np.ndarray = field(repr=False)

    def __init__(self, states, priors=None):
        states = tuple(states)
        if not states:
            raise DomainError("ensemble needs at least one state")
        dims = {(s.dim_a, s.dim_b) for s in states}
        if len(dims) != 1:
            raise DomainError(f"states live in different spaces: {sorted(dims)}")
        self._adopt(frozen_array([s.amplitude_matrix for s in states]), priors)

    @classmethod
    def _from_unit_stack(cls, amps: np.ndarray, priors=None) -> "StateEnsemble":
        """An ensemble around ``amps``, a read-only C-ordered (k, dim_a, dim_b) stack of checked unit amplitudes."""
        ens = object.__new__(cls)
        ens._adopt(amps, priors)
        return ens

    def _adopt(self, amps: np.ndarray, priors) -> None:
        """Check ``priors`` (uniform when None) against the k states of ``amps`` and set the stacks.

        The stack is adopted, not copied, and the B stack is built from it.
        """
        k = amps.shape[0]
        priors = np.full(k, 1.0 / k) if priors is None else np.asarray(priors, dtype=float).reshape(-1)
        if priors.size != k:
            raise DomainError("priors length must match number of states")
        if not np.all(np.isfinite(priors)):
            raise DomainError("priors must be finite")
        if np.any(priors < -1e-15):
            raise DomainError("priors must be nonnegative")
        if abs(float(priors.sum()) - 1.0) > ALGEBRAIC_TOL:
            raise DomainError(f"priors must sum to 1 within {ALGEBRAIC_TOL:g}")
        priors = frozen_array(np.clip(priors, 0.0, None), dtype=float)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "_amps", amps)
        self.b_matrices()  # built now, so the first evaluate finds it built

    @cached_property
    def states(self) -> tuple:
        """The states, each a view of its row of the stack, made on first read."""
        k, dim_a, dim_b = self._amps.shape
        return tuple(BipartiteState._from_unit_amplitudes(dim_a, dim_b, row) for row in self._amps.reshape(k, -1))

    @property
    def k(self) -> int:
        return self._amps.shape[0]

    @property
    def dim_a(self) -> int:
        return self._amps.shape[1]

    @property
    def dim_b(self) -> int:
        return self._amps.shape[2]

    def swapped(self) -> "StateEnsemble":
        """The same states and priors with the parties exchanged, built once.

        Its stack is the C-ordered copy of the S_i^T, and it shares the
        checked, read-only priors.  It holds no reference back to this
        ensemble, so its own swap is a new object.  Its B stack is built on
        first use, by a Bob-first rung that reads it.
        """
        return self._swapped

    @cached_property
    def _swapped(self) -> "StateEnsemble":
        swap = object.__new__(StateEnsemble)
        object.__setattr__(swap, "priors", self.priors)
        object.__setattr__(swap, "_amps", frozen_array(self._amps.transpose(0, 2, 1)))
        return swap

    def amplitude_matrices(self) -> np.ndarray:
        """Read-only (k, dim_a, dim_b) stack of the states' amplitude matrices S_i, built once."""
        return self._amps

    def b_matrices(self) -> np.ndarray:
        """Read-only (k, dim_b, dim_a) stack of the states' matrices B_i, built with the ensemble (a swap's on first use)."""
        return self._b_stack

    @cached_property
    def _b_stack(self) -> np.ndarray:
        return frozen_array(np.sqrt(self.dim_a) * self._amps.transpose(0, 2, 1))

    @cached_property
    def reduced_states(self) -> np.ndarray:
        """Read-only (k, dim_a, dim_a) stack of Alice's reduced states rho_A^i = S_i S_i^dag, built on first use."""
        rho = reduced_state(self._amps)
        rho.setflags(write=False)
        return rho

    @cached_property
    def _witness_pass(self) -> tuple:
        """``(spectra, mean rho_B spectrum, lambda_max)``, read-only, built on first use.

        ``spectra`` is one ``eigvalsh`` of the rho_A^i, their prior mean and,
        when dim_a == dim_b, the prior mean of the rho_B^i (the swap's
        :attr:`reduced_states`), one row each;
        otherwise that mean takes a second call.  LAPACK runs per matrix, so
        each row has the bits of a call of its own.  lambda_max is the largest
        Schmidt coefficient of one batched SVD, cross-checked against the rho_A^i rows.
        """
        k, m, n = self.k, self.dim_a, self.dim_b
        rho_a = self.reduced_states
        mean_a = (self.priors @ rho_a.reshape(k, -1)).reshape(1, m, m)
        mean_b = (self.priors @ self.swapped().reduced_states.reshape(k, -1)).reshape(1, n, n)
        vals = reduced_spectrum(np.concatenate((rho_a, mean_a, mean_b) if m == n else (rho_a, mean_a)))
        mean_b_vals = vals[k + 1] if m == n else reduced_spectrum(mean_b)[0]
        coeffs = schmidt_coefficients(self._amps, vals[:k])
        for a in (vals, mean_b_vals):
            a.setflags(write=False)
        return vals, mean_b_vals, float(coeffs[:, 0].max())

    def gram(self) -> np.ndarray:
        """Gram matrix of amplitude inner products <psi_i|psi_j>."""
        amps = self._amps.reshape(self.k, -1)
        return amps.conj() @ amps.T

    @cached_property
    def _max_overlap(self) -> float:
        """Largest |<psi_i|psi_j>| over i != j (0.0 for one state), from one Gram product on first use."""
        overlaps = np.abs(self.gram())
        np.fill_diagonal(overlaps, 0.0)
        return float(overlaps.max())

    def is_orthogonal(self, tol: float = STRUCTURAL_TOL) -> bool:
        """Every |<psi_i|psi_j>|, i != j, within ``tol``; the largest is cached on first use."""
        return self._max_overlap <= as_tol(tol, "tol")

    def is_maximally_entangled(self, tol: float = STRUCTURAL_TOL) -> bool:
        """Square, with every dim_a rho_A^i the identity within ``tol``; read from :attr:`reduced_states` on each call."""
        tol = as_tol(tol, "tol")
        if self.dim_a != self.dim_b:
            return False
        dev = self.dim_a * self.reduced_states - np.eye(self.dim_a)
        return float(np.abs(dev).max()) <= tol

    @cached_property
    def _uniform(self) -> bool:
        return bool(np.abs(self.priors - 1.0 / self.k).max() <= ALGEBRAIC_TOL)

    def is_uniform(self) -> bool:
        return self._uniform


def uniform_ensemble(states) -> StateEnsemble:
    return StateEnsemble(tuple(states), None)


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix F[j, k] = w^{jk}/sqrt(n), w = exp(2 pi i/n)."""
    n = as_int(n, "n")
    if n < 1:
        raise DomainError("need dimension >= 1")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def _bell_unitaries(n: int, ms, ls) -> np.ndarray:
    """X^m Z^l for label arrays ``ms`` and ``ls`` (entries in range(n), shapes broadcast), as one product.

    X^m is the exact permutation matrix, each Z^l comes from ``matrix_power``
    once per distinct l, and the stacked product runs the same BLAS product
    per member as ``X^m @ Z^l`` with both powers from ``matrix_power``, so
    every member equals that product bit for bit, signed zeros included.
    """
    _, z = generalized_pauli(n)
    j = np.arange(n)
    x_pow = np.eye(n, dtype=complex)[(j[:, None] + j) % n]  # x_pow[m] = X^m
    z_pow = np.empty((n, n, n), dtype=complex)  # only the rows for the l in ls are filled
    for l in set(np.ravel(ls).tolist()):
        z_pow[l] = np.linalg.matrix_power(z, l)
    return x_pow[ms] @ z_pow[ls]


def _bell_dimension(n) -> int:
    """The local dimension ``n`` of a Bell construction as an int, refused below 2."""
    n = as_int(n, "n")
    if n < 2:
        raise DomainError("need dimension >= 2")
    return n


def bell_basis(n: int) -> StateEnsemble:
    """All n^2 generalized Bell states (I (x) X^m Z^l)|ME_n>, uniform priors.

    States are ordered with m major, l minor, so label m*n + l is the (m, l)
    state.  Pairwise orthogonal and maximally entangled by construction.
    """
    n = _bell_dimension(n)
    j = np.arange(n)
    stack = _bell_unitaries(n, j[:, None], j[None, :])  # (m, l, n, n), broadcast without copies
    return StateEnsemble._from_unit_stack(normalized_amplitudes(stack.reshape(-1, n, n)))


def _bell_labels(n: int, labels) -> list[tuple[int, int]]:
    """The (m, l) labels as integer pairs, refused unless nonempty, distinct and in range(n)."""
    labels = [(as_int(m, "Bell label"), as_int(l, "Bell label")) for m, l in labels]
    if not labels:
        raise DomainError("empty Bell subset")
    if len(set(labels)) != len(labels):
        raise DomainError("duplicate Bell labels")
    for m, l in labels:
        if not (0 <= m < n and 0 <= l < n):
            raise DomainError(f"Bell label {(m, l)} out of range for n = {n}")
    return labels


def bell_subset(n: int, labels) -> StateEnsemble:
    """Uniform ensemble of the generalized Bell states with the given (m, l) labels."""
    n = _bell_dimension(n)
    ms, ls = np.array(_bell_labels(n, labels)).T
    return StateEnsemble._from_unit_stack(normalized_amplitudes(_bell_unitaries(n, ms, ls)))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def mub_prime_bases(n: int) -> Iterator[np.ndarray]:
    """Yield the n+1 mutually unbiased bases of C^n for prime n, one at a time.

    The computational basis, then the eigenbases of X Z^t for t = 0, ..., n-1
    in closed form (Wootters and Fields 1989): column m is v[j] = l^j
    w^(-t j(j+1)/2) / sqrt(n), l the m-th n-th root of w^s, s = t n(n+1)/2 mod
    n.  Phases stay integer counts of 1/n^2 turns until one ``exp``.  Each
    basis is built only when requested.
    """
    if not is_prime(n):
        raise DomainError(f"{n} is not prime; this construction needs a prime dimension")
    yield np.eye(n, dtype=complex)
    j = np.arange(n)[:, None]
    m = np.arange(n)
    for t in range(n):
        s = t * n * (n + 1) // 2 % n
        # t j(j+1)/2 is reduced mod n first, so no int64 term grows past n^3
        turns = (j * (s + n * m) - n * (t * (j * (j + 1) // 2) % n)) % (n * n)
        yield np.exp(2j * np.pi * turns / (n * n)) / np.sqrt(n)


def mub_prime(n: int) -> np.ndarray:
    """Read-only (n+1, n, n) stack of the MUBs of C^n for prime n, in :func:`mub_prime_bases` order."""
    return frozen_array(list(mub_prime_bases(n)))


def common_unbiased_basis_check(candidate, family) -> bool:
    """True iff every candidate column is unbiased to every vector of every member of ``family``.

    ``family`` is a (members, n, n) stack of bases stored column-wise; an
    empty stack passes.  Unbiased means |<b|a>|^2 = 1/n within ``EIGEN_TOL``,
    tested by one product of the candidate against the whole stack.
    """
    cand = as_matrix(candidate)
    if not is_unitary(cand):
        raise DomainError("candidate basis is not orthonormal")
    n = cand.shape[0]
    family = np.asarray(family, dtype=complex)
    if family.shape[1:] != (n, n):
        raise DomainError("family member dimension does not match candidate")
    overlaps = np.abs(cand.conj().T @ family) ** 2
    return bool(np.all(np.abs(overlaps - 1.0 / n) <= EIGEN_TOL))


def haar_unitary(n: int, rng: "np.random.Generator") -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, R-diagonal phases absorbed."""
    n = as_int(n, "n")
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_orthogonal_me_triple(n: int, seed: int) -> StateEnsemble:
    """Three orthogonal maximally entangled states of C^n (x) C^n, seeded.

    Built as B_i = U A_i W with Haar-random U, W and three distinct Bell
    unitaries A_i, so trace orthogonality Tr(B_i^dag B_j) = n delta_ij holds
    by construction while the pairwise products B_i^dag B_j stay generic.
    """
    n, seed = _bell_dimension(n), as_int(seed, "seed")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    labels = rng.choice(n * n, size=3, replace=False)
    u = haar_unitary(n, rng)
    w = haar_unitary(n, rng)
    return StateEnsemble._from_unit_stack(normalized_amplitudes(u @ _bell_unitaries(n, labels // n, labels % n) @ w))


def simultaneously_diagonal_ensemble(u) -> StateEnsemble:
    """The n orthogonal states phi_i = sum_j u[i, j] |j>|j> for a unitary u.

    Their matrices are B_i = sqrt(n) diag(u[i, :]), all diagonal in the same
    basis, hence every pairwise product is diagonal too.  The stack fills a
    zero array's diagonals, as ``np.diag`` does, so its zeros keep their sign.
    """
    mat = as_matrix(u)
    if mat.shape[0] != mat.shape[1]:
        raise DomainError("coefficient matrix must be square")
    if not is_unitary(mat):
        raise DomainError(f"coefficient matrix must be unitary within {STRUCTURAL_TOL:g}")
    n = mat.shape[0]
    j = np.arange(n)
    diags = np.zeros((n, n, n), dtype=complex)
    diags[:, j, j] = mat
    return StateEnsemble._from_unit_stack(normalized_amplitudes(np.sqrt(n) * diags))


# The fields each descriptor kind reads beside "kind".  An explicit descriptor also takes
# the fields that ``serial.ensemble_to_json`` and the ``ensemble`` report write, so a report reads back.
_DESCRIPTOR_FIELDS = {
    "bell": {"n"},
    "bell_subset": {"n", "labels"},
    "random_me_triple": {"n", "seed"},
    "simdiag": {"u"},
    "explicit": {"states", "priors", "dim_a", "dim_b", "k", "is_orthogonal", "is_maximally_entangled"},
}


def from_descriptor(descriptor: dict) -> StateEnsemble:
    """Build an ensemble from a JSON-style descriptor.

    Supported kinds:
      {"kind": "bell", "n": 3}
      {"kind": "bell_subset", "n": 3, "labels": [[0, 0], [1, 0]]}
      {"kind": "random_me_triple", "n": 3, "seed": 7}
      {"kind": "simdiag", "u": <matrix>}
      {"kind": "explicit", "states": [<state>...], "priors": [...]}
    A descriptor with "states" but no "kind" is read as "explicit".  Priors
    are optional and numbers only.  A field its kind does not read is
    refused; an explicit descriptor may also carry the fields its report
    echoes (``_DESCRIPTOR_FIELDS``), which are not read.
    Matrix/state payload encodings live in :mod:`loccdisc.serial`.
    """
    from . import serial  # deferred: serial imports this module's types

    if not isinstance(descriptor, dict):
        raise DomainError("ensemble payload must be a JSON object")
    if "kind" not in descriptor and "states" not in descriptor:
        raise DomainError("ensemble payload needs a 'kind' or a 'states' field")
    kind = descriptor.get("kind", "explicit")
    fields = _DESCRIPTOR_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise DomainError(f"unknown ensemble kind: {kind!r}")
    extra = [name for name in descriptor if name != "kind" and name not in fields]
    if extra:
        raise DomainError(f"malformed ensemble descriptor: kind {kind!r} takes no field {extra[0]!r}")
    try:
        if kind == "bell":
            return bell_basis(descriptor["n"])
        if kind == "bell_subset":
            return bell_subset(descriptor["n"], descriptor["labels"])
        if kind == "random_me_triple":
            return random_orthogonal_me_triple(descriptor["n"], descriptor["seed"])
        if kind == "simdiag":
            return simultaneously_diagonal_ensemble(serial.matrix_from_json(descriptor["u"]))
        states = serial.states_from_json(descriptor["states"])
        priors = descriptor.get("priors")
        if priors is not None:
            bad = [p for p in priors if isinstance(p, bool) or not isinstance(p, (int, float))]
            if bad:
                raise TypeError(f"priors must be JSON numbers, got {bad[0]!r}")
            priors = np.asarray(priors, float)
        return StateEnsemble(states, priors) if isinstance(states, tuple) else StateEnsemble._from_unit_stack(states, priors)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed ensemble descriptor: {exc}") from exc
