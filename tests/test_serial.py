import hashlib
import json

import numpy as np
import pytest

from loccdisc import (
    BipartiteState,
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
from loccdisc import serial, synth
from loccdisc.ensembles import fourier_matrix
from loccdisc.library import build_library
from loccdisc.synth import synthesize_cub_protocol


def _library_spec(entry):
    """The one-way spec behind a library entry of a one-way construction, built as the library builds it."""
    ens = entry.ensemble
    if entry.name.startswith("simdiag-"):
        return synthesize_cub_protocol(ens, fourier_matrix(ens.dim_a))
    build = next(build for rung, build in synth.RUNGS.items() if entry.name.startswith(rung))
    return synth.rung_protocol(build(ens))[1]


_SPEC_ENTRIES = [
    e for e in build_library() if e.name.startswith(("cub-", "simdiag-", "three-qutrit-", "two-state-", "product-basis-"))
]


# sha256 of each library entry's protocol tree, serialized as the CLI prints it.  Recorded while
# the two-state and product-basis constructions still returned trees; the digests pin the
# floating-point output of one numpy/BLAS build.
LIBRARY_PROTOCOL_PINS = {
    "bell-standard-full-2": "10af5e5090c2e145e7161cc3d7d189ea54555f432c896b78b937d65cbe3a4da7",
    "bell-standard-full-3": "86bc81b2837a12d86e083be6e330820f8e5e803a6601d20ac0fc4f62cab89891",
    "bell-standard-full-4": "4ddcc302f0d6659f8f9bb2ed1d023c56e87d8c7642c234ef465392662e163e0c",
    "bell-standard-full-5": "e5828fc99957fa57252485c4b5e31289276e4181c90d9c7c0b98eaffa208c84b",
    "bell-standard-sub-3-k4": "84585effd7d3c6a8f6c9fffa50310bd6a345e01b15212219f83ce09d810ffa6c",
    "bell-standard-sub-3-k6": "0b25fd529b0bb82597d5e764062e324a29cb796d284612c2a7636da707d58a27",
    "bell-standard-sub-4-k5": "431b74a28d0203c53043493d178b582b32ad1ad6d3cf4b8dd4e02cde0ad03c6d",
    "three-qutrit-seed0": "bebd162cf51876750bb14774abf94bfcc02bd468ea73b8a8d4d8180638e10344",
    "three-qutrit-seed1": "d1a554671b0cc6902502f7179f7ebd59fe0e579f1806146a013330b474443369",
    "three-qutrit-seed2": "15e388cedd4963b410a81978f0110d80037d66901ef740b0b16ed5c2e7c6d089",
    "three-qutrit-seed3": "2d20a0958959cd9275a555fba7d0bee63b9a97ca52f74466580a34bf757a1a62",
    "three-qutrit-seed4": "034aaf6c040429854a1b47c29d4f78b091e0d97335ab44e50032a1aa6c9101be",
    "three-qutrit-bell-triple": "4943a8282e6fb3ed2476d81b84feb34f938ae524aaf1bd7cc09d0b2ef3871353",
    "cub-3-k3": "029788dbd0106218b98afd474366be5ffea98208873cc60c4bd4cfa746cfec24",
    "cub-3-k2": "575db2c5554f602102cdf52824f2b7168fbe4b6b999c53cb5b2c66966833b537",
    "cub-5-k3": "933f8478e2b98332f301ea72d317b11a0726e158b231462816fc60c6b68a02d7",
    "cub-5-k2": "31599ba7016ce31f161a8554cdd1ee6a57924da56a7e2d6e34bd3a191005c317",
    "cub-7-k4": "9326b58840fe0ae9b1311419c376be1f0a544b65c55b5717d1219969050bd6ad",
    "cub-7-k3": "10d04f70838290fc1d2ce2003b0c93d5e4ea354bbbd9aaa5ff6ea59c17ace19b",
    "discard-bell2-keep2of3": "efc43b52bff94891c86c6bf27e75735506f13e50e34f082d2210e5028342c337",
    "discard-bell2-keep2of4": "a3be5ceebfe2d999ac7bc66168c3bb625d4bc74010fa6dd37d258773fffeccbc",
    "discard-bell3-keep3of4": "03e18ea9b42e4268174538d931adc18d59571164a705799c87d315af8678756b",
    "discard-bell3-keep3of5": "03e18ea9b42e4268174538d931adc18d59571164a705799c87d315af8678756b",
    "discard-bell3-keep3of7": "03e18ea9b42e4268174538d931adc18d59571164a705799c87d315af8678756b",
    "discard-bell3-keep3of9": "03e18ea9b42e4268174538d931adc18d59571164a705799c87d315af8678756b",
    "two-state-bell2": "f7744ea8c34603f199108ebfe0ca0a42769a3defe9f7fe803d9a5103580da8a4",
    "two-state-product": "a5d65fdbcf572d0f837d09f1348f5c167c165d5b52994a85d390279788a568d4",
    "two-state-random-2x3": "a2ae39df15b6362d7f63be5327eb97a594638b1b25b832dce1a202d35599f490",
    "blind-guess-bell2": "6275ec0b8485e726305e65367fa854bc653844b2697997ed9cad8e4736ea1eb6",
    "blind-guess-prod23": "878fa2ed487f68c987208e8eac85a21f0835ffde48c4b8a2c3ba44cf25f184e7",
    "product-basis-2x2": "7a4513ec3e43633401f7716ce88388ff0556643af0dd5575a6ff8b3c162a1980",
    "product-basis-2x3": "6346cea40936a0ea07e17f66a8ceb2aa0d267f14a7c16039bcc0b807c9bc0f69",
    "simdiag-fourier3": "aa17bb24dd8449e970fd45dc141b36d175b2aa55243e41fac2261f02c393c96c",
    "simdiag-haar4": "b82a3cf30d7ef1861a2f9206ed119b8d5ea26b30a1b493a33033be01a17f3148",
    "single-state": "6275ec0b8485e726305e65367fa854bc653844b2697997ed9cad8e4736ea1eb6",
}


class TestLibraryProtocolBytes:
    def test_every_entry_pinned(self):
        assert sorted(LIBRARY_PROTOCOL_PINS) == sorted(entry.name for entry in build_library())

    @pytest.mark.parametrize("entry", build_library(), ids=lambda e: e.name)
    def test_protocol_bytes(self, entry):
        text = json.dumps(serial.protocol_to_json(entry.protocol), sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert hashlib.sha256(text.encode()).hexdigest() == LIBRARY_PROTOCOL_PINS[entry.name]


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
        back = BipartiteState(*serial._read_state(serial.state_to_json(psi)))
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
