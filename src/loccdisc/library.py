"""Shipped library of (ensemble, protocol) pairs used for consistency sweeps.

Every entry couples one ensemble with one concrete protocol; the collection
spans the constructions in this package (standard Bell measurements,
three-qutrit and common-unbiased-basis synthesis, discard wrappers,
two-state separations, product-basis measurements, and blind guessing) so
bound-consistency and Monte-Carlo checks exercise the whole surface.
An entry named after a rung of ``synth.RUNGS`` (``three-qutrit-seed0``,
``cub-5-k3``, ``single-state``) holds the protocol that rung's builder makes.
The product-basis and discard builders are public: :mod:`loccdisc.selftest`
builds its exact-value and verdict cases with them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import locc, synth
from .ensembles import (
    StateEnsemble,
    bell_basis,
    bell_subset,
    fourier_matrix,
    haar_unitary,
    random_orthogonal_me_triple,
    simultaneously_diagonal_ensemble,
    uniform_ensemble,
)
from .qstate import BipartiteState, me_state


@dataclass(frozen=True, eq=False)
class LibraryEntry:
    name: str
    ensemble: StateEnsemble
    protocol: locc.LoccProtocol


def _product_state(dim_a, dim_b, a_idx, b_idx) -> BipartiteState:
    amps = np.zeros(dim_a * dim_b, dtype=complex)
    amps[a_idx * dim_b + b_idx] = 1.0
    return BipartiteState(dim_a, dim_b, amps)


def product_basis_ensemble(dim_a, dim_b) -> StateEnsemble:
    return uniform_ensemble(
        [_product_state(dim_a, dim_b, a, b) for a in range(dim_a) for b in range(dim_b)]
    )


def _random_orthogonal_pair(dim_a, dim_b, seed) -> StateEnsemble:
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v2 -= np.vdot(v1, v2) * v1
    v2 /= np.linalg.norm(v2)
    return uniform_ensemble(
        [BipartiteState(dim_a, dim_b, v1), BipartiteState(dim_a, dim_b, v2)]
    )


def _rung_entry(name, ens) -> LibraryEntry:
    """An entry whose protocol is built by the rung of ``synth.RUNGS`` that ``name`` starts with."""
    build = next(build for rung, build in synth.RUNGS.items() if name.startswith(rung))
    return LibraryEntry(name, ens, synth.rung_protocol(build(ens))[0])


def discard_bell2_entry(name, keep_labels, all_labels) -> LibraryEntry:
    ens = bell_subset(2, all_labels)
    kept_idx = [all_labels.index(lab) for lab in keep_labels]
    inner = locc.two_state_protocol(uniform_ensemble([ens.states[i] for i in kept_idx])).as_protocol()
    return LibraryEntry(name, ens, locc.discard_protocol(inner, kept_idx, ens.k))


def discard_bell3_entry(name, k) -> LibraryEntry:
    labels = [(m, l) for m in range(3) for l in range(3)][:k]
    ens = bell_subset(3, labels)
    triple = uniform_ensemble(ens.states[:3])
    inner = synth.synthesize_three_qutrit_protocol(triple).as_protocol()
    return LibraryEntry(name, ens, locc.discard_protocol(inner, [0, 1, 2], ens.k))


@lru_cache(maxsize=1)
def build_library() -> tuple:
    """Construct the full library (cached; everything is deterministic)."""
    entries: list[LibraryEntry] = []

    for n in (2, 3, 4, 5):
        entries.append(
            LibraryEntry(f"bell-standard-full-{n}", bell_basis(n), locc.standard_bell_protocol(n))
        )

    for name, n, labels in (
        ("bell-standard-sub-3-k4", 3, [(0, 0), (1, 0), (2, 0), (0, 1)]),
        ("bell-standard-sub-3-k6", 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]),
        ("bell-standard-sub-4-k5", 4, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]),
    ):
        entries.append(
            LibraryEntry(name, bell_subset(n, labels), locc.standard_bell_protocol(n, labels))
        )

    for seed in range(5):
        entries.append(_rung_entry(f"three-qutrit-seed{seed}", random_orthogonal_me_triple(3, seed)))
    entries.append(_rung_entry("three-qutrit-bell-triple", bell_subset(3, [(0, 0), (1, 0), (1, 1)])))

    for name, n, labels in (
        ("cub-3-k3", 3, [(0, 0), (1, 0), (1, 1)]),
        ("cub-3-k2", 3, [(0, 0), (2, 1)]),
        ("cub-5-k3", 5, [(0, 0), (1, 0), (0, 1)]),
        ("cub-5-k2", 5, [(1, 2), (3, 4)]),
        ("cub-7-k4", 7, [(0, 0), (1, 0), (0, 1), (1, 1)]),
        ("cub-7-k3", 7, [(2, 1), (4, 0), (6, 5)]),
    ):
        entries.append(_rung_entry(name, bell_subset(n, labels)))

    entries.append(discard_bell2_entry("discard-bell2-keep2of3", [(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)]))
    entries.append(discard_bell2_entry("discard-bell2-keep2of4", [(0, 0), (0, 1)], [(0, 0), (0, 1), (1, 0), (1, 1)]))
    for k in (4, 5, 7, 9):
        entries.append(discard_bell3_entry(f"discard-bell3-keep3of{k}", k))

    entries.append(_rung_entry("two-state-bell2", bell_subset(2, [(0, 0), (1, 1)])))
    entries.append(
        _rung_entry("two-state-product", uniform_ensemble([_product_state(2, 2, 0, 0), _product_state(2, 2, 1, 1)]))
    )
    entries.append(_rung_entry("two-state-random-2x3", _random_orthogonal_pair(2, 3, seed=11)))

    bb2 = bell_basis(2)
    entries.append(LibraryEntry("blind-guess-bell2", bb2, locc.blind_guess_protocol(2, 2, 0)))
    prod23 = product_basis_ensemble(2, 3)
    entries.append(LibraryEntry("blind-guess-prod23", prod23, locc.blind_guess_protocol(2, 3, 0)))

    entries.append(_rung_entry("product-basis-2x2", product_basis_ensemble(2, 2)))
    entries.append(_rung_entry("product-basis-2x3", prod23))

    for name, u in (("simdiag-fourier3", fourier_matrix(3)), ("simdiag-haar4", haar_unitary(4, np.random.default_rng(5)))):
        ens = simultaneously_diagonal_ensemble(u)
        entries.append(LibraryEntry(name, ens, synth.synthesize_cub_protocol(ens, fourier_matrix(len(u))).as_protocol()))

    entries.append(_rung_entry("single-state", uniform_ensemble([me_state(2)])))

    return tuple(entries)
