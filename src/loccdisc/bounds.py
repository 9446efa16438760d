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

The witnesses read the spectral pass each ensemble caches: one ``eigvalsh``
of the reduced states rho_A^i and the prior means of the rho_A^i and rho_B^i
(the ``reduced_states`` of the ensemble and of its swap), and one batched
SVD for the Schmidt coefficients, cross-checked against it.  Bob's side of
an ensemble is Alice's side of ``ensemble.swapped()``.  The unilateral caps
and ``is_maximally_entangled`` read the two stacks.  ``verdict`` asks
``is_orthogonal`` first, so no SVD or ``eigvalsh`` runs on a non-orthogonal
ensemble.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import locc, synth
from .ensembles import StateEnsemble
from .errors import DomainError, ToleranceError
from .qstate import as_int

VERDICT_POSSIBLE = "PerfectPossible"
VERDICT_IMPOSSIBLE = "PerfectImpossible"
VERDICT_UNKNOWN = "Unknown"

# Density-matrix eigenvalues below this count as zero in entropies.
EIGENVALUE_CLIP = 1e-15
# How closely the other party's reduced states, each on the scale dim rho
# (the identity for maximally entangled states), must agree for one party to
# map every state to every other unilaterally.
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


def _check_square(k: int, n: int) -> tuple[int, int]:
    """(k, n) as integers, in the domain of the square-case windows: n >= 2 and 2 <= k <= n^2."""
    k, n = as_int(k, "k"), as_int(n, "n")
    if n < 2:
        raise DomainError("need n >= 2")
    if k < 2 or k > n * n:
        raise DomainError(f"need 2 <= k <= n^2, got k = {k}, n = {n}")
    return k, n


def fme_bounds(k: int, n: int) -> tuple[float, float]:
    """Bounds on the worst-case success for k maximally entangled states in C^n (x) C^n.

    Exact values: 1 for k = 2 (any two orthogonal states), and 3/k for n = 3
    with 3 <= k <= 9 (discard down to a perfectly distinguishable triple).
    Otherwise (2/k, n/k) for n <= k, widening to an upper bound of 1 when
    k < n where no better general value is known.
    """
    k, n = _check_square(k, n)
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
    k, n = _check_square(k, n)
    return (2.0 / k, math.ceil(math.sqrt(k)) / k)


def f_mixed_dims_bounds(k: int, m: int, n: int) -> tuple[float, float]:
    """Inclusion bounds for k orthogonal states of C^m (x) C^n, m <= n; :func:`f_bounds` when m = n.

    Nothing sharper than inclusion is available: the lower bound is the
    square-case lower bound at dimension n; the upper bound is the
    square-case upper bound at dimension m when k <= m^2 and n/k when
    m^2 < k <= mn.
    """
    k, m, n = as_int(k, "k"), as_int(m, "m"), as_int(n, "n")
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
    """Largest Schmidt coefficient over all states of the ensemble, read from its witness pass."""
    return ensemble._witness_pass[2]


def schmidt_bound(ensemble: StateEnsemble) -> float:
    """Success cap lambda_max * m * n / k for equally probable states (clipped at 1)."""
    if not ensemble.is_uniform():
        raise DomainError("this bound assumes equally probable states; priors are not uniform")
    return min(1.0, lambda_max(ensemble) * ensemble.dim_a * ensemble.dim_b / ensemble.k)


def _spectrum_entropy_bits(vals):
    """-sum v log2 v over the last axis, with eigenvalues up to ``EIGENVALUE_CLIP`` dropped."""
    vals = np.where(vals > EIGENVALUE_CLIP, vals, 1.0)  # log2(1) = 0: dropped eigenvalues add nothing
    ent = 0.0 - (vals * np.log2(vals)).sum(axis=-1)  # 0.0 - x, not -x: a pure state gives +0.0
    return float(ent) if ent.ndim == 0 else ent


def entropy_bound_bits(ensemble: StateEnsemble) -> float:
    """Accessible-information cap S(rho_A) + S(rho_B) - sum_i p_i S(rho_A^i), in bits.

    rho_A and rho_B are the prior means.  Every spectrum is read from the
    ensemble's witness pass, and one entropy call covers its rows: the
    rho_A^i, mean rho_A and, when it has the same size, mean rho_B.
    """
    spectra, mean_b, _ = ensemble._witness_pass
    k = ensemble.k
    ent = _spectrum_entropy_bits(spectra)
    s_b = ent[k + 1] if ent.size > k + 1 else _spectrum_entropy_bits(mean_b)
    return float(ent[k] + s_b - float(ensemble.priors @ ent[:k]))


def g_bounds_bits(k: int, n: int) -> tuple[float, float]:
    """Bounds ((2/k) bits, log2 ceil(sqrt(k))) on worst-case mutual information."""
    k, n = _check_square(k, n)
    return (2.0 / k, math.log2(math.ceil(math.sqrt(k))))


def _unilateral_sides(ensemble: StateEnsemble):
    """Which parties can unilaterally map state 1 to every other state.

    A party can iff the other party's reduced states all agree: Alice iff
    the rho_B^i do, Bob iff the rho_A^i do.  Each side is one test of the
    rho_A^i on the scale dim_a rho_A^i (the identity for maximally
    entangled states, which satisfy both), Alice's on the swapped ensemble.
    """

    def agree(ens):
        rho = ens.dim_a * ens.reduced_states
        return float(np.abs(rho - rho[0]).max()) <= UNILATERAL_TOL

    return agree(ensemble.swapped()), agree(ensemble)


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
    """The first rung of ``synth.RUNGS`` whose protocol verifiably succeeds: (name, protocol), else (None, None).

    A rung that raises ``DomainError`` (it does not apply) or
    ``ToleranceError`` is passed over, as is one whose protocol ``evaluate``
    scores below 1 - 1e-9 on ``ensemble``.  The ``<rung>/bob-first`` rows
    come last, so they run only after every Alice-first row has failed, and
    their swapped-back protocols face the same gate on the original
    ensemble.
    """
    for name, build in synth.RUNGS.items():
        try:
            protocol = synth.rung_protocol(build(ensemble))[0]
            result = locc.evaluate(protocol, ensemble)
        except (DomainError, ToleranceError):
            continue
        if result.success_probability >= 1.0 - 1e-9:
            return name, protocol
    return None, None


def _window(bounds, *args):
    """``bounds(*args)``, or (None, None) outside its domain."""
    try:
        return bounds(*args)
    except DomainError:
        return (None, None)


def verdict(ensemble: StateEnsemble) -> BoundsReport:
    """Bounds report plus a three-valued distinguishability verdict.

    PerfectImpossible requires a violated witness inequality;
    PerfectPossible requires a shipped synthesizer to produce a protocol
    that verifiably succeeds: a row of ``synth.RUNGS`` with Alice measuring
    first or, only after every such row has failed, a ``<rung>/bob-first``
    row.  Failed synthesis alone never proves impossibility, so everything
    else stays Unknown.  The f window holds for C^m (x) C^n in either
    order, so it takes the smaller of the two local dimensions as
    :func:`f_mixed_dims_bounds`' m.
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

    f_lo, f_hi = _window(f_mixed_dims_bounds, k, min(m, n), max(m, n))
    fme_lo, fme_hi = _window(fme_bounds, k, n) if me else (None, None)
    g_lo, g_hi = _window(g_bounds_bits, k, n) if m == n else (None, None)
    schmidt_up = schmidt_bound(ensemble) if ensemble.is_uniform() else None

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
