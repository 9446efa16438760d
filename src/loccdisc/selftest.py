"""Acceptance checks runnable from pytest and from the CLI ``selftest`` command.

Each criterion is a function returning ``(passed, detail)``; tolerances
are stated inline and are part of the contract.  :data:`CRITERIA` names
the criteria, and :func:`run_all` runs and times them.  The discard cases
and the product basis come from the builders of :mod:`loccdisc.library`,
so a criterion checks the very pairs the library ships.
"""

import itertools
import math
import time

import numpy as np

from . import bounds, locc, synth
from .ensembles import (
    bell_basis,
    bell_subset,
    mub_prime_bases,
    random_orthogonal_me_triple,
)
from .errors import DomainError
from .library import build_library, discard_bell2_entry, discard_bell3_entry, product_basis_ensemble
from .qstate import transpose_identity_check


def criterion_three_qutrit_end_to_end() -> tuple[bool, str]:
    """200 seeded random orthogonal ME qutrit triples: synthesized success >= 1 - 1e-9."""
    worst = 1.0
    for seed in range(200):
        ens = random_orthogonal_me_triple(3, seed)
        spec = synth.synthesize_three_qutrit_protocol(ens)
        res = locc.evaluate(spec.as_protocol(), ens)
        worst = min(worst, res.success_probability)
    return worst >= bounds.PERFECT_SUCCESS, f"min success over 200 seeds = {worst:.12f}"


def criterion_unbiased_bell_subsets() -> tuple[bool, str]:
    """Bell subsets with k(k-1)/2 <= n for prime n in {3,5,7}: CUB synthesis succeeds.

    50 sampled subsets per dimension, every evaluated success >= 1 - 1e-9.
    """
    rng = np.random.default_rng(7)
    worst = 1.0
    count = 0
    for n in (3, 5, 7):
        k_max = max(k for k in range(2, n + 2) if k * (k - 1) // 2 <= n)
        labels_all = [(m, l) for m in range(n) for l in range(n)]
        for _ in range(50):
            k = int(rng.integers(2, k_max + 1))
            pick = rng.choice(len(labels_all), size=k, replace=False)
            ens = bell_subset(n, [labels_all[i] for i in pick])
            try:
                spec = synth.synthesize_cub_protocol(ens)
            except DomainError as exc:
                return False, f"n={n}, subset={pick}: {exc}"
            res = locc.evaluate(spec.as_protocol(), ens)
            worst = min(worst, res.success_probability)
            count += 1
    return worst >= bounds.PERFECT_SUCCESS, f"min success over {count} subsets = {worst:.12f}"


def criterion_bell_saturation() -> tuple[bool, str]:
    """Standard measurement on the full Bell basis: success n/n^2 (1e-12), info log2 n (1e-10)."""
    worst_p = 0.0
    worst_i = 0.0
    for n in (2, 3, 4, 5):
        res = locc.evaluate(locc.standard_bell_protocol(n), bell_basis(n))
        worst_p = max(worst_p, abs(res.success_probability - 1.0 / n))
        worst_i = max(worst_i, abs(res.mutual_information_bits - math.log2(n)))
    detail = f"max |success - n/n^2| = {worst_p:.2e}, max |I - log2 n| = {worst_i:.2e}"
    return worst_p <= 1e-12 and worst_i <= 1e-10, detail


def criterion_exact_discard_values() -> tuple[bool, str]:
    """Discard constructions achieve the exact worst-case values to 1e-12.

    2/3 on three and 1/2 on four Bell states of C^2 (x) C^2; 3/k on k Bell
    states of C^3 (x) C^3 for k = 4..9.
    """
    cases = [
        (discard_bell2_entry("discard-bell2-keep2of3", [(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)]), 2.0 / 3.0),
        (discard_bell2_entry("discard-bell2-keep2of4", [(0, 0), (0, 1)], [(0, 0), (0, 1), (1, 0), (1, 1)]), 0.5),
    ]
    cases += [(discard_bell3_entry(f"discard-bell3-keep3of{k}", k), 3.0 / k) for k in range(4, 10)]
    worst = max(abs(locc.evaluate(entry.protocol, entry.ensemble).success_probability - exact) for entry, exact in cases)
    return worst <= 1e-12, f"max deviation = {worst:.2e}"


def criterion_bound_consistency() -> tuple[bool, str]:
    """Library sweep: no evaluated success beats an applicable cap by > 1e-9.

    Also checks every transcript mutual information against the entropy cap.
    """
    entries = build_library()
    if len(entries) < 30:
        return False, f"library too small: {len(entries)}"
    worst = -1.0
    for entry in entries:
        res = locc.evaluate(entry.protocol, entry.ensemble)
        for witness in bounds.success_upper_bounds(entry.ensemble):
            worst = max(worst, res.success_probability - witness.value)
        cap = bounds.entropy_bound_bits(entry.ensemble)
        worst = max(worst, res.mutual_information_bits - cap)
    return worst <= 1e-9, f"{len(entries)} pairs, max excess over any cap = {worst:.2e}"


def criterion_transpose_identity() -> tuple[bool, str]:
    """1000 random matrices (dims <= 5): transpose-identity residual <= 1e-12."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        worst = max(worst, transpose_identity_check(a))
    return worst <= 1e-12, f"max residual = {worst:.2e}"


def criterion_mub_unbiasedness() -> tuple[bool, str]:
    """Brute-force unbiasedness of the prime-dimension MUB sets for n in {2,3,5,7}."""
    worst = 0.0
    for n in (2, 3, 5, 7):
        for b1, b2 in itertools.combinations(mub_prime_bases(n), 2):
            overlaps = np.abs(b1.conj().T @ b2) ** 2
            worst = max(worst, float(np.max(np.abs(overlaps - 1.0 / n))))
    return worst <= 1e-10, f"max | |<b|a>|^2 - 1/n | = {worst:.2e}"


def criterion_verdicts() -> tuple[bool, str]:
    """Verdicts: full Bell basis impossible, product basis and ME triples possible."""
    checks = []

    rep = bounds.verdict(bell_basis(2))
    checks.append(("bell2-full", rep.verdict == bounds.VERDICT_IMPOSSIBLE))

    rep = bounds.verdict(product_basis_ensemble(2, 2))
    checks.append(("product-basis", rep.verdict == bounds.VERDICT_POSSIBLE))

    rep = bounds.verdict(random_orthogonal_me_triple(3, 42))
    checks.append(("me-triple", rep.verdict == bounds.VERDICT_POSSIBLE))

    four_me = bell_subset(3, [(0, 0), (0, 1), (1, 0), (2, 2)])
    rep = bounds.verdict(four_me)
    checks.append(("four-me-qutrits", rep.verdict == bounds.VERDICT_IMPOSSIBLE))

    bad = [name for name, ok in checks if not ok]
    return not bad, "all four cases correct" if not bad else f"wrong: {bad}"


def criterion_monte_carlo() -> tuple[bool, str]:
    """simulate vs evaluate within 5 sigma at 1e5 trials for every library pair.

    ``simulate`` draws from the exact leaf weights (per-state counts from the
    priors, then one binomial per state), so this checks that sampling step,
    not the weights; the exact cross-check of ``evaluate`` is the per-leaf,
    per-state reference of the test suite's ``TestBatchedEvaluator``.
    """
    trials = 100_000
    worst_ratio = 0.0
    for idx, entry in enumerate(build_library()):
        res = locc.evaluate(entry.protocol, entry.ensemble)
        rate = locc.simulate(entry.protocol, entry.ensemble, trials, seed=1000 + idx)
        p = res.success_probability
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        dev = abs(rate - p)
        allowed = 5.0 * sigma if sigma > 0 else 0.0
        if sigma > 0:
            worst_ratio = max(worst_ratio, dev / sigma)
            if dev > allowed:
                return False, f"{entry.name}: |{rate} - {p}| = {dev:.3e} > 5 sigma = {allowed:.3e}"
        elif dev > 0:
            return False, f"{entry.name}: deterministic protocol missed ({rate} vs {p})"
    return True, f"max deviation = {worst_ratio:.2f} sigma at {trials} trials"


# report name -> criterion, in run order
CRITERIA = {
    "three-qutrit-end-to-end": criterion_three_qutrit_end_to_end,
    "unbiased-bell-subsets": criterion_unbiased_bell_subsets,
    "bell-saturation": criterion_bell_saturation,
    "exact-discard-values": criterion_exact_discard_values,
    "bound-consistency": criterion_bound_consistency,
    "transpose-identity": criterion_transpose_identity,
    "mub-unbiasedness": criterion_mub_unbiasedness,
    "verdict-cases": criterion_verdicts,
    "monte-carlo-agreement": criterion_monte_carlo,
}


def run_all(stream) -> list[dict]:
    """Run every criterion; one ``{name, passed, detail}`` dict each.

    Each criterion's line ``[PASS] name: detail (x.xxs)`` goes to
    ``stream``, the only place its run time is reported, so the results
    are the same on every run.
    """
    results = []
    for name, fn in CRITERIA.items():
        start = time.perf_counter()
        passed, detail = fn()
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail} ({time.perf_counter() - start:.2f}s)", file=stream)
        results.append({"name": name, "passed": passed, "detail": detail})
    return results
