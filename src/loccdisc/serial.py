"""JSON interchange formats.

Complex matrices are nested arrays of [re, im] pairs (row major); states are
{"dim_a", "dim_b", "amplitudes"}; protocol trees mirror the node structure
with {"actor", "povm", "children"} objects and {"guess"} leaves.  Every
loader validates shape and rejects malformed payloads with DomainError.
"""

import dataclasses

import numpy as np

from . import bounds as bounds_mod
from . import locc
from .ensembles import StateEnsemble, from_descriptor
from .errors import DomainError
from .qstate import EIGEN_TOL, BipartiteState, _row_norms, as_int


def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def vector_to_json(v) -> list:
    return [_pair(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def _not_a_number(re, im):
    raise TypeError(f"[re, im] entries must be JSON numbers, got {[re, im]!r}")


def vector_from_json(data) -> np.ndarray:
    try:
        # complex() accepts booleans, which JSON does not count as numbers
        out = np.array(
            [complex(re, im) if re.__class__ is not bool and im.__class__ is not bool else _not_a_number(re, im) for re, im in data],
            dtype=complex,
        )
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed complex vector: {exc}") from exc
    if out.size == 0:
        raise DomainError("empty complex vector")
    return out


def matrix_to_json(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[_pair(z) for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise DomainError("matrix payload must be a nonempty nested list")
    rows = []
    width = None
    for row in data:
        vec = vector_from_json(row)
        if width is None:
            width = vec.size
        elif vec.size != width:
            raise DomainError("matrix rows have inconsistent lengths")
        rows.append(vec)
    return np.vstack(rows)


def state_to_json(state: BipartiteState) -> dict:
    return {
        "dim_a": state.dim_a,
        "dim_b": state.dim_b,
        "amplitudes": vector_to_json(state.amplitudes),
    }


def _read_state(data) -> tuple:
    """``(dim_a, dim_b, amplitudes)`` of a state payload, parsed but not checked as a state."""
    try:
        return as_int(data["dim_a"], "dim_a"), as_int(data["dim_b"], "dim_b"), vector_from_json(data["amplitudes"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed state payload: {exc}") from exc


def states_from_json(data):
    """The states of an explicit descriptor, each payload parsed as ``BipartiteState(*_read_state(payload))``.

    States of one shape come back as one read-only (k, dim_a, dim_b) stack of
    checked unit amplitudes: one finite scan and one ``_row_norms``.
    Otherwise, or on a fault, each state is built alone in order, so the first
    faulty one raises its own message, and states of different shapes come
    back as a tuple for the ensemble to refuse.
    """
    read = []
    for payload in data:
        try:
            read.append(_read_state(payload))
        except DomainError:
            tuple(BipartiteState(*r) for r in read)  # an earlier faulty state is refused first
            raise
    if len({(a, b, v.size) for a, b, v in read}) == 1:
        dim_a, dim_b, _ = read[0]
        amps = np.array([v for _, _, v in read])
        if dim_a >= 1 and amps.shape[1] == dim_a * dim_b and np.isfinite(amps).all() and (np.abs(_row_norms(amps) - 1.0) <= 1e-12).all():
            amps.setflags(write=False)
            return amps.reshape(-1, dim_a, dim_b)
    return tuple(BipartiteState(*r) for r in read)


def ensemble_to_json(ensemble: StateEnsemble) -> dict:
    return {
        "dim_a": ensemble.dim_a,
        "dim_b": ensemble.dim_b,
        "priors": [float(p) for p in ensemble.priors],
        "states": [state_to_json(s) for s in ensemble.states],
    }


def ensemble_from_json(data) -> StateEnsemble:
    """Accepts a constructor descriptor, as :func:`~loccdisc.ensembles.from_descriptor` reads it."""
    return from_descriptor(data)


def povm_to_json(povm: locc.Povm) -> list:
    return [matrix_to_json(m) for m in povm.elements]


def _node_to_json(node) -> dict:
    if isinstance(node, locc.Leaf):
        return {"guess": node.guess}
    return {
        "actor": node.actor,
        "povm": povm_to_json(node.povm),
        "children": [_node_to_json(c) for c in node.children],
    }


def protocol_to_json(protocol: locc.LoccProtocol) -> dict:
    return {
        "dim_a": protocol.dim_a,
        "dim_b": protocol.dim_b,
        "root": _node_to_json(protocol.root),
    }


def _node_from_json(data):
    if not isinstance(data, dict):
        raise DomainError("protocol node must be a JSON object")
    if "guess" in data:
        return locc.Leaf(data["guess"])
    try:
        povm = locc.Povm(tuple(matrix_from_json(m) for m in data["povm"]))
        children = tuple(_node_from_json(c) for c in data["children"])
        return locc.ProtocolNode(str(data["actor"]), povm, children)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed protocol node: {exc}") from exc


def protocol_from_json(data) -> locc.LoccProtocol:
    """Accepts a protocol tree or a one-way spec payload (alice_basis + bob_discriminators)."""
    if not isinstance(data, dict):
        raise DomainError("protocol payload must be a JSON object")
    if "alice_basis" in data:
        return one_way_spec_from_json(data).as_protocol()
    try:
        return locc.LoccProtocol(data["dim_a"], data["dim_b"], _node_from_json(data["root"]))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed protocol payload: {exc}") from exc


def one_way_spec_to_json(spec) -> dict:
    rows = iter(spec.vectors)
    return {
        "alice_basis": matrix_to_json(spec.alice_basis),
        "bob_discriminators": [[{"label": lab, "vector": vector_to_json(next(rows))} for lab in labs] for labs in spec.labels],
    }


def one_way_spec_from_json(data):
    """A one-way spec, refused unless Bob's vectors are unit and per outcome orthogonal within
    ``EIGEN_TOL``: ``as_protocol`` would orthonormalize them quietly into another protocol.

    The payload keeps its per-outcome lists of {"label", "vector"} entries; they are read
    into the spec's ``labels`` and its one ``vectors`` block, in the same order."""
    try:
        groups = data["bob_discriminators"]
        labels = tuple(tuple(entry["label"] for entry in group) for group in groups)
        vectors = [vector_from_json(entry["vector"]) for group in groups for entry in group]
        spec = locc.OneWayProtocolSpec(matrix_from_json(data["alice_basis"]), labels, vectors)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed one-way spec payload: {exc}") from exc
    if not np.all(np.abs(_row_norms(spec.vectors) - 1.0) <= EIGEN_TOL):
        raise DomainError("Bob vector is not a unit vector")
    worst = spec.max_bob_overlap()
    if worst > EIGEN_TOL:
        raise DomainError(f"Bob vectors of one outcome are not orthogonal (max overlap {worst:.3e})")
    return spec


def evaluation_to_json(result: locc.ProtocolEvaluation) -> dict:
    return {
        "success_probability": result.success_probability,
        "mutual_information_bits": result.mutual_information_bits,
        "per_state_success": list(result.per_state_success),
        "joint_table": [
            {"v": v, "path": list(path), "guess": guess, "p": p}
            for v, path, guess, p in result.joint
        ],
    }


def bounds_report_to_json(report: bounds_mod.BoundsReport) -> dict:
    return dataclasses.asdict(report)
