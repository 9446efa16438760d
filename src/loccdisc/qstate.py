"""Complex linear algebra core and the bipartite state <-> matrix correspondence.

A pure state |psi> in C^m (x) C^n (Alice m, Bob n, Alice index major) is
identified with the n x m matrix B through

    |psi> = (I (x) B) |ME_m>,        |ME_m> = (1/sqrt(m)) sum_j |j>|j>,

normalized so that Tr B^dag B = m.  Under this convention the amplitude
matrix S (shape m x n, S[a, b] = amplitude of |a>|b>) is S = B^T / sqrt(m),
inner products become <psi1|psi2> = Tr(B1^dag B2)/m, and |psi> is maximally
entangled iff B is unitary (requires m = n).

Schmidt data are plain read-only arrays: :func:`schmidt` returns
``(coefficients, left, right)`` for one state, and
:func:`schmidt_coefficients` gives the coefficients of a whole stack.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceError

# Default tolerances: algebraic identities should hold to 1e-12, structural
# predicates (unitarity, orthogonality, ...) to 1e-10.  Quantities sitting
# downstream of an eigensolve use the looser 1e-8 (here and in synth).
ALGEBRAIC_TOL = 1e-12
STRUCTURAL_TOL = 1e-10
EIGEN_TOL = 1e-8


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


def is_unitary(matrix, tol: float = STRUCTURAL_TOL) -> bool:
    """True when ``M^dag M = I`` entrywise within ``tol`` (square input only)."""
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
        if self.dim_a < 1 or self.dim_b < 1:
            raise DomainError("dimensions must be positive")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.dim_a * self.dim_b:
            raise DomainError(
                f"amplitude count {amps.size} != dim_a*dim_b = {self.dim_a * self.dim_b}"
            )
        if not np.all(np.isfinite(amps)):
            raise DomainError("amplitudes contain non-finite entries")
        with np.errstate(over="ignore"):  # an overflowing norm is reported below, not warned about
            nrm = float(np.linalg.norm(amps))
        if nrm == np.inf:
            raise DomainError("state norm overflows; amplitudes too large for a state")
        if abs(nrm - 1.0) > 1e-12:
            raise DomainError(f"state norm {nrm} deviates from 1 by more than 1e-12")
        object.__setattr__(self, "amplitudes", frozen_array(amps))

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

    @property
    def b_matrix(self) -> np.ndarray:
        """The dim_b x dim_a matrix B with |psi> = (I (x) B)|ME_dim_a>."""
        return np.sqrt(self.dim_a) * self.amplitude_matrix.T


def me_state(n: int) -> BipartiteState:
    """Canonical maximally entangled state (1/sqrt(n)) sum_j |j>|j> of C^n (x) C^n."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    amps = (np.eye(n, dtype=complex) / np.sqrt(n)).reshape(-1)
    return BipartiteState(n, n, amps)


def state_from_matrix(b, dim_a: int) -> BipartiteState:
    """Build the normalized state (I (x) B)|ME_dim_a> from a matrix with dim_a columns.

    The matrix is scanned for non-finite entries and its norm taken once; the
    normalized amplitudes are not checked again.
    """
    mat = as_matrix(b)
    if dim_a < 1:
        raise DomainError("dim_a must be positive")
    if mat.shape[1] != dim_a:
        raise DomainError(f"matrix has {mat.shape[1]} columns, expected dim_a = {dim_a}")
    with np.errstate(over="ignore"):  # an overflowing norm is reported below, not warned about
        nrm = float(np.linalg.norm(mat))
    if nrm <= 1e-15:
        raise DomainError("zero matrix does not correspond to a state")
    if nrm == np.inf:
        raise DomainError("matrix norm overflows; entries too large for a state")
    amps = (mat.T / nrm).reshape(-1)
    amps.setflags(write=False)
    return BipartiteState._from_unit_amplitudes(dim_a, mat.shape[0], amps)


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
    if np.any(coeffs < -1e-14):
        raise DomainError("negative Schmidt coefficient")
    if np.any(np.abs(coeffs.sum(axis=-1) - 1.0) > 1e-12):
        raise DomainError("Schmidt coefficients must sum to 1")
    if np.any(np.diff(coeffs, axis=-1) > 1e-14):
        raise DomainError("Schmidt coefficients must be nonincreasing")


def _check_operator_norm(b, coeffs) -> None:
    """Cross-check ||B^dag B||_inf = dim_a * lambda_max to 1e-10 for one B or a stack of them."""
    opnorm = np.linalg.eigvalsh(np.swapaxes(b.conj(), -1, -2) @ b)[..., -1] / b.shape[-1]
    dev = np.abs(opnorm - coeffs[..., 0])
    w = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[w] > 1e-10:
        raise ToleranceError(f"operator-norm identity violated: |{opnorm[w]} - {coeffs[..., 0][w]}| > 1e-10")


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
    _check_operator_norm(psi.b_matrix, coeffs)
    _check_coefficients(coeffs)
    return frozen_array(coeffs, dtype=float), frozen_array(u), frozen_array(vh.T)


def schmidt_coefficients(amplitudes) -> np.ndarray:
    """Schmidt coefficients of a (k, dim_a, dim_b) stack of amplitude matrices, one row per state.

    The batched counterpart of :func:`schmidt`: one SVD of the whole stack,
    singular values only, with the same operator-norm cross-check and
    coefficient checks.
    """
    s = np.linalg.svd(amplitudes, compute_uv=False)
    coeffs = s * s
    _check_operator_norm(np.sqrt(amplitudes.shape[-2]) * np.swapaxes(amplitudes, -1, -2), coeffs)
    _check_coefficients(coeffs)
    return coeffs


def generalized_pauli(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift and clock matrices X = sum_j |j><j+1| and Z = sum_j w^j |j><j|.

    Both are unitary, X^n = Z^n = I, and X Z = w Z X with w = exp(2 pi i/n).
    """
    if n < 2:
        raise DomainError("generalized Pauli matrices need dimension >= 2")
    x = np.zeros((n, n), dtype=complex)
    for j in range(n):
        x[j, (j + 1) % n] = 1.0
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

