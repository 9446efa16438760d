import math

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(202401)


def random_state(rng, dim_a, dim_b):
    """Haar-ish random pure state of C^dim_a (x) C^dim_b."""
    from loccdisc import BipartiteState

    v = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return BipartiteState(dim_a, dim_b, v / np.linalg.norm(v))


def b_matrix(psi) -> np.ndarray:
    """The dim_b x dim_a matrix B = sqrt(dim_a) S^T with |psi> = (I (x) B)|ME_dim_a>, S the amplitude matrix."""
    return np.sqrt(psi.dim_a) * psi.amplitude_matrix.T


def von_neumann_entropy_bits(rho):
    """S(rho) = -Tr rho log2 rho, with eigenvalues up to ``bounds.EIGENVALUE_CLIP`` dropped.

    The per-matrix reference for the entropies ``entropy_bound_bits`` reads from the witness pass.
    """
    from loccdisc.bounds import _spectrum_entropy_bits
    from loccdisc.qstate import reduced_spectrum

    return _spectrum_entropy_bits(reduced_spectrum(np.asarray(rho)))


def random_orthogonal_pair(rng, dim_a, dim_b):
    from loccdisc import BipartiteState

    v1 = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v2 -= np.vdot(v1, v2) * v1
    v2 /= np.linalg.norm(v2)
    return BipartiteState(dim_a, dim_b, v1), BipartiteState(dim_a, dim_b, v2)


def orthonormal_completion(vectors, dim: int) -> np.ndarray:
    """Extend near-orthonormal vectors to an exactly orthonormal basis of C^dim, one complete QR.

    The per-outcome reference for ``OneWayProtocolSpec.as_protocol``'s batched completion.
    """
    from loccdisc import DomainError

    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        return np.eye(dim, dtype=complex)
    v = np.column_stack(vecs)
    if v.shape[0] != dim:
        raise DomainError("vector length does not match dimension")
    if v.shape[1] > dim:
        raise DomainError("more vectors than the dimension allows")
    q, r = np.linalg.qr(v, mode="complete")
    d = np.diag(r)
    if np.any(np.abs(d) < 1e-6):
        raise DomainError("vectors are numerically dependent")
    q[:, : d.size] *= d / np.abs(d)
    return q


def one_way_groups_per_vector(states, alice_basis):
    """Bob's labeled vectors per Alice outcome, one state and one outcome at a time.

    The reference for ``one_way_protocol``'s batched products.
    """
    ab = np.asarray(alice_basis, dtype=complex)
    b = [b_matrix(psi) for psi in states]  # one_way_protocol lays out its B stack the same way
    groups = []
    for col in ab.conj().T.copy():  # row x is conj(c_x)
        group = []
        for label, bi in enumerate(b):
            v = bi @ col
            nrm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))  # np.linalg.norm(v) bit for bit
            if nrm > 1e-12:
                group.append((label, v / nrm))
        groups.append(tuple(group))
    return tuple(groups)


def max_overlap_per_pair(groups) -> float:
    """Largest |<v_i|v_j>| over distinct vectors of one group, one pair at a time.

    The reference for ``OneWayProtocolSpec.max_bob_overlap``.
    """
    worst = 0.0
    for group in groups:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                worst = max(worst, abs(np.vdot(group[i][1], group[j][1])))
    return worst


def product_basis_per_state(ensemble):
    """``product_basis_protocol``'s spec, one state at a time: an SVD per state, then grouping against representatives.

    The reference for the batched factoring and grouping.  Each state joins
    the first representative whose Alice ray it shares, or becomes one.
    """
    from loccdisc import DomainError, OneWayProtocolSpec

    factors = []
    for idx, psi in enumerate(ensemble.states):
        u, s, vh = np.linalg.svd(psi.amplitude_matrix, full_matrices=False)
        if s[0] ** 2 < 1.0 - 1e-10:
            raise DomainError(f"state {idx} is not a product state")
        factors.append((u[:, 0], vh[0, :]))
    groups, reps = [], []
    for idx, (a_vec, _) in enumerate(factors):
        for g, rep in enumerate(reps):
            ov = abs(np.vdot(rep, a_vec))
            if ov > 1.0 - 1e-8:
                groups[g].append(idx)
                break
            if ov > 1e-8:
                raise DomainError("Alice factors are neither equal nor orthogonal")
        else:
            groups.append([idx])
            reps.append(a_vec)
    labels = tuple(map(tuple, groups)) + ((),) * (ensemble.dim_a - len(reps))
    vectors = [factors[idx][1] for members in groups for idx in members]
    spec = OneWayProtocolSpec(orthonormal_completion(reps, ensemble.dim_a), labels, vectors)
    if spec.max_bob_overlap() > 1e-8:
        raise DomainError("Bob factors within a group are not orthogonal")
    return spec


def _isometry_povm(rng, dim_in):
    """Kraus operators of random output dimensions, cut row-wise from one random isometry."""
    from loccdisc import Povm

    outs = [int(d) for d in rng.integers(1, 4, size=int(rng.integers(2, 4)))]
    outs[-1] = max(outs[-1], dim_in - sum(outs[:-1]))
    z = rng.standard_normal((sum(outs), dim_in)) + 1j * rng.standard_normal((sum(outs), dim_in))
    return Povm(tuple(np.split(np.linalg.qr(z)[0], np.cumsum(outs)[:-1])))


def _random_tree(rng, dim_a, dim_b, k, rounds):
    """Alternating tree of isometry-cut rounds that enlarge or shrink either party's space."""
    from loccdisc import Leaf, LoccProtocol, ProtocolNode
    from loccdisc.locc import ALICE, BOB

    def node(actor, da, db, depth):
        if depth == rounds:
            return Leaf(int(rng.integers(k)))
        povm = _isometry_povm(rng, da if actor == ALICE else db)
        nxt = BOB if actor == ALICE else ALICE
        children = []
        for m in povm.elements:
            nda, ndb = (m.shape[0], db) if actor == ALICE else (da, m.shape[0])
            children.append(node(nxt, nda, ndb, depth + 1))
        return ProtocolNode(actor, povm, tuple(children))

    return LoccProtocol(dim_a, dim_b, node((ALICE, BOB)[int(rng.integers(2))], dim_a, dim_b, 0))


def random_kraus_case(seed):
    """Seeded three- or four-round random Kraus tree and a k-state ensemble with Dirichlet priors."""
    from loccdisc import StateEnsemble

    rng = np.random.default_rng(seed)
    da, db, k = (int(x) for x in rng.integers(2, 5, size=3))
    states = tuple(random_state(rng, da, db) for _ in range(k))
    ens = StateEnsemble(states, rng.dirichlet(np.ones(k)))
    return _random_tree(rng, da, db, k, rounds=3 + seed % 2), ens


def overweight_perfect_case():
    """A perfect protocol for two Bell states whose root POVM is scaled by 1 + 4e-11, and their ensemble.

    Every leaf weight grows by about 8e-11, which ``validate``'s 1e-10
    completeness check still accepts, so each state's exact success is
    slightly above 1 before it is normalized.
    """
    from loccdisc import LoccProtocol, Povm, ProtocolNode, bell_basis, two_state_protocol, uniform_ensemble

    ens = uniform_ensemble(bell_basis(2).states[:2])
    root = two_state_protocol(ens).as_protocol().root
    scaled = Povm(tuple(m * (1 + 4e-11) for m in root.povm.elements))
    return LoccProtocol(2, 2, ProtocolNode(root.actor, scaled, root.children)), ens


def refined_bell_protocol(n):
    """Four-round refinement of ``standard_bell_protocol(n)``, for any n >= 2.

    Alice and Bob first each learn which half of the computational basis
    they hold (halves of sizes n // 2 and n - n // 2), then Alice and Bob
    measure finely inside that half.  The guess is the state (m, 0) with the
    observed shift m, as in the two-round protocol.
    """
    from loccdisc import Leaf, LoccProtocol, Povm, ProtocolNode
    from loccdisc.locc import ALICE, BOB

    eye = np.eye(n, dtype=complex)
    starts, sizes = (0, n // 2), (n // 2, n - n // 2)
    coarse = Povm((eye[: n // 2], eye[n // 2 :]))
    fine = [Povm(tuple(np.eye(h, dtype=complex)[i : i + 1] for i in range(h))) for h in sizes]

    def bob_fine(a, half_b):
        guesses = (((a - starts[half_b] - j) % n) * n for j in range(sizes[half_b]))
        return ProtocolNode(BOB, fine[half_b], tuple(Leaf(g) for g in guesses))

    def alice_fine(half_a, half_b):
        children = tuple(bob_fine(starts[half_a] + i, half_b) for i in range(sizes[half_a]))
        return ProtocolNode(ALICE, fine[half_a], children)

    def bob_coarse(half_a):
        return ProtocolNode(BOB, coarse, tuple(alice_fine(half_a, hb) for hb in range(2)))

    return LoccProtocol(n, n, ProtocolNode(ALICE, coarse, tuple(bob_coarse(ha) for ha in range(2))))


def near_commuting_triple(delta, seed):
    """Three orthogonal maximally entangled states of C^3 (x) C^3 whose pairwise products nearly commute.

    With L = diag(1, w, w^2), C = F diag(exp(2 pi i delta theta)) F^dag (F the 3x3 Fourier matrix, theta
    seeded in [0, 1)^3) and A = L C, the states' matrices are U_B B U_A for B in (I, L^dag, L^dag A^dag),
    U_A and U_B Haar.  Before the local unitaries B2^dag B1 = L and B3^dag B2 = A, so as delta -> 0
    both off-diagonal cyclic diagonals of A shrink with delta; at delta = 1 both are nonzero, which no
    Weyl-like triple (Bell or ``random_me_triple``) has.
    """
    from loccdisc import state_from_matrix, uniform_ensemble

    rng = np.random.default_rng(seed)
    j = np.arange(3)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / 3) / np.sqrt(3)
    lam = np.diag(np.exp(2j * np.pi * j / 3))
    c = fourier @ np.diag(np.exp(2j * np.pi * delta * rng.random(3))) @ fourier.conj().T
    a = lam @ c

    def haar():
        q, r = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u_a, u_b = haar(), haar()
    mats = (np.eye(3), lam.conj().T, lam.conj().T @ a.conj().T)
    return uniform_ensemble([state_from_matrix(u_b @ m @ u_a, 3) for m in mats])


def bob_first_product_set():
    """{|00>, |10>, |+1>, |-1>}: Bob's factors are equal or orthogonal, Alice's are not.

    So a product-basis measurement separates the states with Bob first, and
    not with Alice first.
    """
    from loccdisc import BipartiteState, uniform_ensemble

    s = 2**-0.5
    kets = ([1, 0, 0, 0], [0, 0, 1, 0], [0, s, 0, s], [0, s, 0, -s])
    return uniform_ensemble([BipartiteState(2, 2, np.array(ket, dtype=complex)) for ket in kets])
