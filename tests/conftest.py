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


def random_orthogonal_pair(rng, dim_a, dim_b):
    from loccdisc import BipartiteState

    v1 = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v2 -= np.vdot(v1, v2) * v1
    v2 /= np.linalg.norm(v2)
    return BipartiteState(dim_a, dim_b, v1), BipartiteState(dim_a, dim_b, v2)


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
