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
from loccdisc import serial


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
