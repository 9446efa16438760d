import numpy as np
import pytest

from loccdisc import (
    DomainError,
    bell_basis,
    bell_subset,
    evaluate,
    me_state,
    random_orthogonal_me_triple,
    standard_bell_protocol,
    synthesize_three_qutrit_protocol,
    verdict,
)
from loccdisc import locc, serial
from loccdisc.ensembles import fourier_matrix
from loccdisc.library import build_library
from loccdisc.synth import synthesize_cub_protocol


def _library_spec(entry):
    """The one-way spec behind a CUB, prop1 or two-state library entry, built as the library builds it."""
    ens = entry.ensemble
    if entry.name.startswith("cub-"):
        return synthesize_cub_protocol(ens)
    if entry.name.startswith("simdiag-"):
        return synthesize_cub_protocol(ens, fourier_matrix(ens.dim_a))
    if entry.name.startswith("three-qutrit-"):
        return synthesize_three_qutrit_protocol(ens)
    s1, s2 = ens.states
    return locc.one_way_protocol(ens.states, locc._zero_diagonal_basis(s1.amplitude_matrix.conj() @ s2.amplitude_matrix.T).conj())


_SPEC_ENTRIES = [e for e in build_library() if e.name.startswith(("cub-", "simdiag-", "three-qutrit-", "two-state-"))]


class TestMatrixJson:
    def test_roundtrip(self, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        back = serial.matrix_from_json(serial.matrix_to_json(m))
        np.testing.assert_allclose(back, m, atol=0)

    def test_ragged_rejected(self):
        with pytest.raises(DomainError):
            serial.matrix_from_json([[[0, 0], [1, 0]], [[0, 0]]])

    def test_garbage_rejected(self):
        with pytest.raises(DomainError):
            serial.matrix_from_json("nope")
        with pytest.raises(DomainError):
            serial.matrix_from_json([[["a", "b"]]])


class TestStateAndEnsembleJson:
    def test_state_roundtrip(self):
        psi = me_state(3)
        back = serial.state_from_json(serial.state_to_json(psi))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=0)

    def test_ensemble_roundtrip(self):
        ens = bell_basis(2)
        back = serial.ensemble_from_json(serial.ensemble_to_json(ens))
        assert back.k == 4
        for a, b in zip(back.states, ens.states):
            np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=0)

    def test_descriptor_accepted(self):
        ens = serial.ensemble_from_json({"kind": "bell", "n": 2})
        assert ens.k == 4

    def test_bad_payload(self):
        with pytest.raises(DomainError):
            serial.ensemble_from_json({"nothing": True})


class TestProtocolJson:
    def test_tree_roundtrip_evaluates_identically(self):
        ens = bell_basis(3)
        proto = standard_bell_protocol(3)
        back = serial.protocol_from_json(serial.protocol_to_json(proto))
        r1 = evaluate(proto, ens)
        r2 = evaluate(back, ens)
        assert r1.success_probability == r2.success_probability
        assert r1.mutual_information_bits == r2.mutual_information_bits

    def test_one_way_spec_accepted(self):
        ens = random_orthogonal_me_triple(3, 2)
        spec = synthesize_three_qutrit_protocol(ens)
        doc = serial.one_way_spec_to_json(spec)
        proto = serial.protocol_from_json(doc)
        assert evaluate(proto, ens).success_probability > 1 - 1e-9

    @pytest.mark.parametrize("entry", _SPEC_ENTRIES, ids=lambda e: e.name)
    def test_library_specs_pass_the_payload_checks(self, entry):
        """Synthesized specs keep Bob's vectors within the bound the loader refuses beyond."""
        back = serial.protocol_from_json(serial.one_way_spec_to_json(_library_spec(entry)))
        assert evaluate(back, entry.ensemble).success_probability == evaluate(entry.protocol, entry.ensemble).success_probability

    def test_malformed_node(self):
        with pytest.raises(DomainError):
            serial.protocol_from_json({"dim_a": 2, "dim_b": 2, "root": {"actor": "alice"}})

    @pytest.mark.parametrize("field, value", [("guess", 1.7), ("guess", True), ("dim_a", 2.5), ("dim_b", False)])
    def test_non_integer_fields_rejected(self, field, value):
        doc = serial.protocol_to_json(standard_bell_protocol(2))
        if field == "guess":
            doc["root"]["children"][0]["children"][0]["guess"] = value
        else:
            doc[field] = value
        with pytest.raises(DomainError, match="must be an integer"):
            serial.protocol_from_json(doc)


class TestReportJson:
    def test_evaluation_json(self):
        res = evaluate(standard_bell_protocol(2), bell_basis(2))
        doc = serial.evaluation_to_json(res)
        assert doc["success_probability"] == res.success_probability
        assert len(doc["joint_table"]) == len(res.joint)

    def test_bounds_report_json(self):
        doc = serial.bounds_report_to_json(verdict(bell_subset(3, [(0, 0), (1, 0), (1, 1)])))
        assert doc["verdict"] in ("PerfectPossible", "PerfectImpossible", "Unknown")
        assert {w["name"] for w in doc["witnesses"]}
        assert set(doc) == {
            "k", "m", "n", "lambda_max", "f_lower", "f_upper", "fme_lower", "fme_upper", "schmidt_upper",
            "entropy_upper_bits", "g_lower_bits", "g_upper_bits", "verdict", "witnesses", "possible_via",
        }
        for w in doc["witnesses"]:
            assert set(w) == {"name", "kind", "value", "requirement", "violated"}
