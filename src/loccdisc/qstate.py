"""Complex linear algebra core and the bipartite state <-> matrix correspondence.

A pure state |psi> in C^m (x) C^n (Alice m, Bob n, Alice index major) is
identified with the n x m matrix B through

    |psi> = (I (x) B) |ME_m>,        |ME_m> = (1/sqrt(m)) sum_j |j>|j>,

normalized so that Tr B^dag B = m.  Under this convention the amplitude
matrix S (shape m x n, S[a, b] = amplitude of |a>|b>) is S = B^T / sqrt(m),
inner products become <psi1|psi2> = Tr(B1^dag B2)/m, and |psi> is maximally
entangled iff B is unitary (requires m = n).

Each kind of input has one rule: :class:`BipartiteState` checks its one
given unit amplitude vector, and :func:`normalized_amplitudes` checks and
normalizes a (k, dim_b, dim_a) stack of matrices B_i with one finite scan and
one norm product (:func:`state_from_matrix` is its k = 1 case).  Both rules,
``locc.one_way_protocol`` and ``serial``'s one-way payload gate take their
norms from one kernel, ``_row_norms``, bit for bit ``np.linalg.norm`` per row.

Schmidt data are plain read-only arrays: :func:`schmidt` returns
``(coefficients, left, right)`` for one state, and
:func:`schmidt_coefficients` gives the coefficients of a whole stack.  Both
cross-check the SVD against the spectrum of the reduced state
rho_A = S S^dag (:func:`reduced_state`, :func:`reduced_spectrum`).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceError

# Default tolerances: algebraic identities should hold to 1e-12, structural
# predicates (unitarity, orthogonality, ...) to 1e-10.  Quantities sitting
# downstream of an eigensolve use the looser 1e-8 (here and in synth).
ALGEBRAIC_TOL = 1e-12
STRUCTURAL_TOL = 1e-10
EIGEN_TOL = 1e-8

# Where a closed form branches on an exact zero, a value within this share of its matrix's scale is that zero (no gate).
ROUNDING_ZERO = 1e-14


def frozen_array(values, dtype=complex) -> np.ndarray:
    """Copy ``values`` into a read-only C-ordered array."""
    out = np.array(values, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DomainError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix contains non-finite entries")
    return m


def as_int(value, name: str) -> int:
    """Coerce an integer-valued number to int; bools, fractions and other types raise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _positive_dims(dim_a, dim_b) -> tuple[int, int]:
    """A bipartite space's local dimensions as ints, each refused below 1."""
    dims = as_int(dim_a, "dim_a"), as_int(dim_b, "dim_b")
    if min(dims) < 1:
        raise DomainError("dimensions must be positive")
    return dims


def as_tol(value, name: str) -> float:
    """``value`` as a tolerance: a real number (no bool), finite and >= 0, as a NaN would pass every ``x > tol`` test."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def is_unitary(matrix, tol: float = STRUCTURAL_TOL) -> bool:
    """True when ``M^dag M = I`` entrywise within ``tol`` (square input only); ``tol`` must be finite and >= 0."""
    tol = as_tol(tol, "tol")
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    dev = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(dev))) <= tol


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Normalized pure state of C^dim_a (x) C^dim_b, amplitudes Alice-major."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim_a, dim_b = _positive_dims(self.dim_a, self.dim_b)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        amps = np.array(self.amplitudes, dtype=complex, order="C").reshape(-1)
        if amps.size != self.dim_a * self.dim_b:
            raise DomainError(
                f"amplitude count {amps.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        if not np.all(np.isfinite(amps)):
            raise DomainError("amplitudes contain non-finite entries")
        nrm = _row_norms(amps[None])[0]
        if nrm == np.inf:
            raise DomainError("state norm overflows; amplitudes too large for a state")
        if abs(nrm - 1.0) > ALGEBRAIC_TOL:
            raise DomainError(f"state norm {float(nrm)} deviates from 1 by more than {ALGEBRAIC_TOL:g}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _from_unit_amplitudes(cls, dim_a: int, dim_b: int, amps: np.ndarray) -> "BipartiteState":
        """A state around ``amps``: read-only, C-ordered, dim_a*dim_b finite entries, unit norm, all already checked."""
        state = object.__new__(cls)
        object.__setattr__(state, "dim_a", dim_a)
        object.__setattr__(state, "dim_b", dim_b)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @property
    def amplitude_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (dim_a, dim_b)."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)


def me_state(n: int) -> BipartiteState:
    """Canonical maximally entangled state (1/sqrt(n)) sum_j |j>|j> of C^n (x) C^n."""
    n = as_int(n, "n")
    if n < 1:
        raise DomainError("dimension must be >= 1")
    amps = (np.eye(n, dtype=complex) / np.sqrt(n)).reshape(-1)
    return BipartiteState(n, n, amps)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Norms of the rows of a (k, d) complex array, each bit for bit ``np.linalg.norm`` of its row.

    One product of vector-shaped operands on the real and imaginary parts
    runs the same dot per row as the norm does.
    """
    re, im = rows.real[:, None, :], rows.imag[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # a faulty norm is reported by the caller, not warned about
        return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def normalized_amplitudes(b: np.ndarray) -> np.ndarray:
    """Read-only (k, dim_a, dim_b) amplitudes of the states (I (x) B_i)|ME_dim_a> for a (k, dim_b, dim_a) stack of B_i.

    Each B_i is divided by its norm, bit for bit :func:`state_from_matrix`,
    which sums a C- or F-ordered matrix in memory order.  One finite scan and
    one norm product cover the stack.  A non-finite, zero or overflowing B_i
    is refused, the first in stack order, with the message of its first
    failed check, the one :func:`state_from_matrix` gives it alone.
    """
    k, rows, cols = b.shape
    flat = b.reshape(k, -1, order="A")
    finite = np.isfinite(flat).all(axis=1)
    nrm = _row_norms(flat)
    ok = finite & (nrm > 1e-15) & (nrm < np.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        if not finite[i]:
            raise DomainError("matrix contains non-finite entries")
        if nrm[i] <= 1e-15:
            raise DomainError("zero matrix does not correspond to a state")
        raise DomainError("matrix norm overflows; entries too large for a state")
    amps = np.divide(b.transpose(0, 2, 1), nrm[:, None, None], out=np.empty((k, cols, rows), dtype=complex))
    amps.setflags(write=False)
    return amps


def state_from_matrix(b, dim_a: int) -> BipartiteState:
    """Build the normalized state (I (x) B)|ME_dim_a> from a matrix with dim_a columns.

    The k = 1 case of :func:`normalized_amplitudes`, whose one norm
    normalizes the matrix; the normalized amplitudes are not checked again.
    """
    mat = as_matrix(b)
    if dim_a < 1:
        raise DomainError("dim_a must be positive")
    if mat.shape[1] != dim_a:
        raise DomainError(f"matrix has {mat.shape[1]} columns, expected dim_a = {dim_a}")
    return BipartiteState._from_unit_amplitudes(dim_a, mat.shape[0], normalized_amplitudes(mat[None]).reshape(-1))


def transpose_identity_check(a) -> float:
    """Max-abs deviation between sqrt(n)(I (x) A)|ME_n> and sqrt(m)(A^T (x) I)|ME_m>.

    The two vectors agree identically for every m x n matrix A; the returned
    value is therefore a pure floating-point residual (1e-12 scale).
    """
    mat = as_matrix(a)
    m, n = mat.shape
    lhs = np.sqrt(n) * (np.kron(np.eye(n), mat) @ me_state(n).amplitudes)
    rhs = np.sqrt(m) * (np.kron(mat.T, np.eye(m)) @ me_state(m).amplitudes)
    return float(np.max(np.abs(lhs - rhs)))


def _check_coefficients(coeffs) -> None:
    """Each row of ``coeffs`` must be nonnegative, sum to one and be nonincreasing."""
    if (coeffs < -1e-14).any():
        raise DomainError("negative Schmidt coefficient")
    if (np.abs(coeffs.sum(axis=-1) - 1.0) > ALGEBRAIC_TOL).any():
        raise DomainError("Schmidt coefficients must sum to 1")
    if (coeffs[..., 1:] - coeffs[..., :-1] > 1e-14).any():
        raise DomainError("Schmidt coefficients must be nonincreasing")


def reduced_state(amplitudes) -> np.ndarray:
    """rho_A = S S^dag for one amplitude matrix S or a stack of them."""
    return amplitudes @ np.swapaxes(amplitudes.conj(), -1, -2)


def reduced_spectrum(rho) -> np.ndarray:
    """Eigenvalues, ascending, of a density matrix or a stack of them: one ``eigvalsh`` of (rho + rho^dag)/2."""
    return np.linalg.eigvalsh((rho + np.swapaxes(rho.conj(), -1, -2)) / 2.0)


def _check_operator_norm(spectrum, coeffs) -> None:
    """Cross-check ||rho_A||_inf = lambda_max to 1e-10, eigvalsh against SVD, for one state or a stack.

    ``spectrum`` is :func:`reduced_spectrum` of rho_A; since B^dag B = dim_a
    conj(rho_A), this is the identity ||B^dag B||_inf = dim_a * lambda_max.
    """
    opnorm = spectrum[..., -1]
    dev = np.abs(opnorm - coeffs[..., 0])
    if dev.max() > STRUCTURAL_TOL:
        w = np.unravel_index(np.argmax(dev), dev.shape)
        raise ToleranceError(f"operator-norm identity violated: |{opnorm[w]} - {coeffs[..., 0][w]}| > {STRUCTURAL_TOL:g}")


def schmidt(psi: BipartiteState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition via SVD of the amplitude matrix, as read-only arrays.

    Returns ``(coefficients, left, right)`` with |psi> = sum_i
    sqrt(coefficients[i]) left[:, i] (x) right[:, i]: the coefficients are
    probability weights (squared singular values), nonincreasing and summing
    to one, and the columns of ``left`` and ``right`` are orthonormal.
    Cross-checks the identity ||B^dag B||_inf = dim_a * lambda_max to 1e-10
    before returning.
    """
    u, s, vh = np.linalg.svd(psi.amplitude_matrix, full_matrices=False)
    coeffs = s * s
    _check_operator_norm(reduced_spectrum(reduced_state(psi.amplitude_matrix)), coeffs)
    _check_coefficients(coeffs)
    return frozen_array(coeffs, dtype=float), frozen_array(u), frozen_array(vh.T)


def schmidt_coefficients(amplitudes, spectrum) -> np.ndarray:
    """Schmidt coefficients of a (k, dim_a, dim_b) stack of amplitude matrices, one row per state.

    The batched counterpart of :func:`schmidt`: one SVD of the whole stack,
    singular values only, with the same operator-norm cross-check against
    ``spectrum``, the stack's reduced-state spectra, and the same
    coefficient checks.
    """
    s = np.linalg.svd(amplitudes, compute_uv=False)
    coeffs = s * s
    _check_operator_norm(spectrum, coeffs)
    _check_coefficients(coeffs)
    return coeffs


def generalized_pauli(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift and clock matrices X = sum_j |j><j+1| and Z = sum_j w^j |j><j|.

    Both are unitary, X^n = Z^n = I, and X Z = w Z X with w = exp(2 pi i/n).
    """
    n = as_int(n, "n")
    if n < 2:
        raise DomainError("generalized Pauli matrices need dimension >= 2")
    x = np.eye(n, dtype=complex)[(np.arange(n) + 1) % n]
    z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return x, z


def normal_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a normal matrix, numpy only.

    A normal matrix's eigenvectors for distinct eigenvalues are orthogonal, so
    QR of the eigenvector matrix only orthonormalizes within eigenspaces.  An
    off-diagonal part of T = Q^dag M Q above ``EIGEN_TOL`` signals a
    non-normal input and raises.  Returns ``(eigenvalues, vectors)``,
    eigenvectors as columns.
    """
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise DomainError("eigensystem requires a square matrix")
    q, _ = np.linalg.qr(np.linalg.eig(m)[1])
    t = q.conj().T @ m @ q
    vals = np.diagonal(t).copy()
    if np.max(np.abs(t - np.diag(vals))) > EIGEN_TOL:
        raise DomainError("matrix is not normal within tolerance; no orthonormal eigenbasis")
    return vals, q

