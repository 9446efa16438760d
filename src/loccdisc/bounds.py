"""Closed-form bounds on LOCC discrimination and the distinguishability verdict.

Conventions for worst-case quantities over uniform orthogonal k-state
ensembles of C^n (x) C^n: ``f(k, n)`` is the optimal success probability
minimized over all such ensembles, ``f_me`` restricts to maximally
entangled ones, and ``g(k, n)`` is the analogous worst-case mutual
information (bits).  Upper bounds on a *specific* ensemble's achievable
success come from two hypotheses: states related by one party's unitaries
are capped at (that party's dimension)/k, and any uniform ensemble is
capped by lambda_max * m * n / k, lambda_max the largest Schmidt
coefficient present.

The witnesses share one spectral pass over the ensemble's stacked matrices:
one batched SVD (cached on the ensemble) for the Schmidt coefficients, and
batched Gram products and ``eigvalsh`` for the unilateral and entropy tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import StateEnsemble
from .errors import DomainError, ToleranceError

VERDICT_POSSIBLE = "PerfectPossible"
VERDICT_IMPOSSIBLE = "PerfectImpossible"
VERDICT_UNKNOWN = "Unknown"

# Density-matrix eigenvalues below this count as zero in entropies.
EIGENVALUE_CLIP = 1e-15
# How closely the Gram matrices S_i^dag S_i (or B_i^dag B_i) must agree for
# one party to map every state to every other unilaterally.
UNILATERAL_TOL = 1e-8


@dataclass(frozen=True)
class Witness:
    """A named inequality applicable to an ensemble.

    ``kind`` is "success" (bounds P(guess = state)) or "information_bits"
    (bounds the transcript mutual information); ``requirement`` is the value
    perfect discrimination would need, so ``violated`` means the bound rules
    perfect discrimination out.
    """

    name: str
    kind: str
    value: float
    requirement: float
    violated: bool


@dataclass(frozen=True, eq=False)
class BoundsReport:
    k: int
    m: int
    n: int
    lambda_max: float
    f_lower: float | None
    f_upper: float | None
    fme_lower: float | None
    fme_upper: float | None
    schmidt_upper: float | None
    entropy_upper_bits: float
    g_lower_bits: float | None
    g_upper_bits: float | None
    verdict: str
    witnesses: tuple
    possible_via: str | None

    def __post_init__(self):
        for lo, hi in ((self.f_lower, self.f_upper), (self.fme_lower, self.fme_upper), (self.g_lower_bits, self.g_upper_bits)):
            if lo is not None and hi is not None and lo > hi + 1e-12:
                raise ToleranceError(f"lower bound {lo} exceeds upper bound {hi}")
        if self.verdict == VERDICT_IMPOSSIBLE and not any(w.violated for w in self.witnesses):
            raise ToleranceError("impossibility verdict without a violated witness")


def fme_bounds(k: int, n: int) -> tuple[float, float]:
    """Bounds on the worst-case success for k maximally entangled states in C^n (x) C^n.

    Exact values: 1 for k = 2 (any two orthogonal states), and 3/k for n = 3
    with 3 <= k <= 9 (discard down to a perfectly distinguishable triple).
    Otherwise (2/k, n/k) for n <= k, widening to an upper bound of 1 when
    k < n where no better general value is known.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if k < 2 or k > n * n:
        raise DomainError(f"need 2 <= k <= n^2, got k = {k}, n = {n}")
    if k == 2:
        return (1.0, 1.0)
    if n == 3:
        return (3.0 / k, 3.0 / k)
    if k < n:
        return (2.0 / k, 1.0)
    return (2.0 / k, n / k)


def f_bounds(k: int, n: int) -> tuple[float, float]:
    """Bounds (2/k, ceil(sqrt(k))/k) on the worst case over all orthogonal k-sets.

    The two coincide for k in {2, 3, 4}, giving the exact values 1, 2/3, 1/2:
    the worst case squeezes the states into the smallest space that holds
    them, independent of n.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if k < 2 or k > n * n:
        raise DomainError(f"need 2 <= k <= n^2, got k = {k}, n = {n}")
    return (2.0 / k, math.ceil(math.sqrt(k)) / k)


def f_mixed_dims_bounds(k: int, m: int, n: int) -> tuple[float, float]:
    """Inclusion bounds for k orthogonal states of C^m (x) C^n, m <= n.

    Nothing sharper than inclusion is available: the lower bound is the
    square-case lower bound at dimension n; the upper bound is the
    square-case upper bound at dimension m when k <= m^2 and n/k when
    m^2 < k <= mn.
    """
    if m < 2 or n < m:
        raise DomainError("need 2 <= m <= n")
    if k < 2 or k > m * n:
        raise DomainError(f"need 2 <= k <= m*n, got k = {k}")
    lower = f_bounds(k, n)[0]
    if k <= m * m:
        upper = f_bounds(k, m)[1]
    else:
        upper = n / k
    return (lower, upper)


def lambda_max(ensemble: StateEnsemble) -> float:
    """Largest Schmidt coefficient over all states of the ensemble."""
    return float(ensemble.schmidt_coefficients[:, 0].max())


def _schmidt_cap(ensemble: StateEnsemble, lam) -> float:
    return min(1.0, float(lam * ensemble.dim_a * ensemble.dim_b / ensemble.k))


def schmidt_bound(ensemble: StateEnsemble) -> float:
    """Success cap lambda_max * m * n / k for equally probable states (clipped at 1)."""
    if not ensemble.is_uniform():
        raise DomainError("this bound assumes equally probable states; priors are not uniform")
    return _schmidt_cap(ensemble, ensemble.schmidt_coefficients[:, 0].max())


def von_neumann_entropy_bits(rho):
    """S(rho) = -Tr rho log2 rho, with eigenvalues up to ``EIGENVALUE_CLIP`` dropped.

    A (..., d, d) stack of matrices gives one entropy per matrix.
    """
    rho = np.asarray(rho)
    vals = np.linalg.eigvalsh((rho + np.swapaxes(rho.conj(), -1, -2)) / 2.0)
    vals = np.where(vals > EIGENVALUE_CLIP, vals, 1.0)  # log2(1) = 0: dropped eigenvalues add nothing
    ent = -np.sum(vals * np.log2(vals), axis=-1)
    return float(ent) if ent.ndim == 0 else ent


def entropy_bound_bits(ensemble: StateEnsemble) -> float:
    """Accessible-information cap S(rho_A) + S(rho_B) - sum_i p_i S(rho_A^i), in bits."""
    s = ensemble.amplitude_matrices()
    rho_a = s @ s.conj().transpose(0, 2, 1)  # rho_A^i = S_i S_i^dag
    rho_b = s.transpose(0, 2, 1) @ s.conj()  # rho_B^i = S_i^T conj(S_i)
    p = ensemble.priors
    cond = float(p @ von_neumann_entropy_bits(rho_a))
    return von_neumann_entropy_bits(np.tensordot(p, rho_a, 1)) + von_neumann_entropy_bits(np.tensordot(p, rho_b, 1)) - cond


def g_bounds_bits(k: int, n: int) -> tuple[float, float]:
    """Bounds ((2/k) bits, log2 ceil(sqrt(k))) on worst-case mutual information."""
    if n < 2:
        raise DomainError("need n >= 2")
    if k < 2 or k > n * n:
        raise DomainError(f"need 1 < k <= n^2, got k = {k}, n = {n}")
    return (2.0 / k, math.log2(math.ceil(math.sqrt(k))))


def _unilateral_sides(ensemble: StateEnsemble):
    """Which parties can unilaterally map state 1 to every other state.

    Bob can iff all B_i^dag B_i agree; Alice can iff all S_i^dag S_i agree
    (S the amplitude matrices).  Maximally entangled ensembles satisfy both.
    """

    def agree(x):
        g = x.conj().transpose(0, 2, 1) @ x
        return float(np.max(np.abs(g - g[0]))) <= UNILATERAL_TOL

    return agree(ensemble.amplitude_matrices()), agree(ensemble.b_matrices())


def success_upper_bounds(ensemble: StateEnsemble) -> list[Witness]:
    """All success-probability caps whose hypotheses this ensemble satisfies."""
    k, m, n = ensemble.k, ensemble.dim_a, ensemble.dim_b
    if not (ensemble.is_uniform() and k >= 2):
        return []
    caps = [("schmidt-weight", schmidt_bound(ensemble))]
    alice, bob = _unilateral_sides(ensemble)
    if bob and n <= k <= m * n:
        caps.append(("unilateral-bob", n / k))
    if alice and m <= k <= m * n:
        caps.append(("unilateral-alice", m / k))
    return [Witness(name, "success", cap, 1.0, cap < 1.0 - 1e-12) for name, cap in caps]


def _try_synthesizers(ensemble: StateEnsemble):
    """Attempt every shipped perfect-protocol construction; return (name, protocol)."""
    from . import locc, synth  # deferred to avoid import cycles

    attempts = []
    if ensemble.k == 1:
        attempts.append(("single-state", lambda: locc.blind_guess_protocol(ensemble.dim_a, ensemble.dim_b, 0)))
    if ensemble.k == 2:
        attempts.append(("two-state", lambda: locc.two_state_protocol(*ensemble.states)))
    if ensemble.k == 3 and (ensemble.dim_a, ensemble.dim_b) == (3, 3):
        attempts.append(("three-qutrit", lambda: synth.synthesize_three_qutrit_protocol(ensemble).as_protocol()))
    if ensemble.dim_a == ensemble.dim_b and ensemble.k >= 2:
        attempts.append(("cub", lambda: synth.synthesize_cub_protocol(ensemble).as_protocol()))
    attempts.append(("product-basis", lambda: locc.product_basis_protocol(ensemble)))

    for name, build in attempts:
        try:
            protocol = build()
            result = locc.evaluate(protocol, ensemble)
        except (DomainError, ToleranceError):
            continue
        if result.success_probability >= 1.0 - 1e-9:
            return name, protocol
    return None, None


def verdict(ensemble: StateEnsemble) -> BoundsReport:
    """Bounds report plus a three-valued distinguishability verdict.

    PerfectImpossible requires a violated witness inequality;
    PerfectPossible requires a shipped synthesizer to produce a protocol
    that verifiably succeeds.  Failed synthesis alone never proves
    impossibility, so everything else stays Unknown.
    """
    if not ensemble.is_orthogonal(1e-10):
        raise DomainError("verdict is defined for orthogonal ensembles")
    k, m, n = ensemble.k, ensemble.dim_a, ensemble.dim_b
    lam = lambda_max(ensemble)
    me = ensemble.is_maximally_entangled(1e-10)

    witnesses = list(success_upper_bounds(ensemble))
    entropy_bits = entropy_bound_bits(ensemble)
    if ensemble.is_uniform() and k >= 2:
        req = math.log2(k)
        witnesses.append(
            Witness("entropy-ceiling", "information_bits", entropy_bits, req, entropy_bits < req - 1e-9)
        )

    square = m == n
    f_lo = f_hi = None
    if 2 <= k:
        if square and k <= n * n:
            f_lo, f_hi = f_bounds(k, n)
        elif m <= n and k <= m * n and m >= 2:
            f_lo, f_hi = f_mixed_dims_bounds(k, m, n)
    fme_lo = fme_hi = None
    if me and 2 <= k <= n * n:
        fme_lo, fme_hi = fme_bounds(k, n)
    g_lo = g_hi = None
    if square and 2 <= k <= n * n:
        g_lo, g_hi = g_bounds_bits(k, n)
    schmidt_up = _schmidt_cap(ensemble, lam) if ensemble.is_uniform() else None

    impossible = any(w.violated for w in witnesses)
    possible_via = None
    if not impossible:
        possible_via, _ = _try_synthesizers(ensemble)
    result = (
        VERDICT_IMPOSSIBLE
        if impossible
        else (VERDICT_POSSIBLE if possible_via else VERDICT_UNKNOWN)
    )

    return BoundsReport(
        k=k,
        m=m,
        n=n,
        lambda_max=float(lam),
        f_lower=f_lo,
        f_upper=f_hi,
        fme_lower=fme_lo,
        fme_upper=fme_hi,
        schmidt_upper=schmidt_up,
        entropy_upper_bits=float(entropy_bits),
        g_lower_bits=g_lo,
        g_upper_bits=g_hi,
        verdict=result,
        witnesses=tuple(witnesses),
        possible_via=possible_via,
    )
