import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loccdisc import bell_subset, evaluate, standard_bell_protocol, synthesize_three_qutrit_protocol, verdict
from loccdisc.cli import build_parser, main
from loccdisc.ensembles import fourier_matrix, haar_unitary
from loccdisc.library import build_library
from loccdisc.serial import ensemble_to_json, matrix_to_json, one_way_spec_to_json, protocol_from_json, protocol_to_json

from conftest import bob_first_product_set, near_commuting_triple, overweight_perfect_case, refined_bell_protocol


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnsembleCommand:
    def test_bell_two(self, capsys):
        code, out, _ = _run(capsys, "ensemble", '{"kind":"bell","n":2}')
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "loccdisc"
        assert doc["command"] == "ensemble"
        assert doc["report"]["k"] == 4
        assert doc["report"]["is_orthogonal"] is True
        assert doc["report"]["is_maximally_entangled"] is True

    def test_bad_dimension_exits_2(self, capsys):
        code, _, err = _run(capsys, "ensemble", '{"kind":"bell","n":1}')
        assert code == 2
        assert "error" in err

    def test_invalid_json_exits_2(self, capsys):
        code, _, _ = _run(capsys, "ensemble", "{not json")
        assert code == 2

    def test_random_triple(self, capsys):
        code, out, _ = _run(capsys, "ensemble", '{"kind":"random_me_triple","n":3,"seed":7}')
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["k"] == 3
        assert doc["report"]["is_maximally_entangled"] is True


class TestSynthesizeCommand:
    def test_prop1(self, capsys):
        code, out, _ = _run(
            capsys,
            "synthesize",
            "--ensemble", '{"kind":"random_me_triple","n":3,"seed":1}',
            "--method", "prop1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["success_probability"] > 1 - 1e-9
        assert doc["report"]["max_bob_overlap"] < 1e-8

    def test_cub_auto(self, capsys):
        code, out, _ = _run(
            capsys,
            "synthesize",
            "--ensemble", '{"kind":"bell_subset","n":5,"labels":[[0,0],[1,0],[0,1]]}',
            "--method", "cub",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["success_probability"] > 1 - 1e-9

    def test_cub_explicit_source(self, capsys):
        from loccdisc import fourier_matrix

        code, out, _ = _run(
            capsys,
            "synthesize",
            "--ensemble", '{"kind":"simdiag","u":' + json.dumps(matrix_to_json(fourier_matrix(3))) + "}",
            "--method", "cub",
            "--cub-source", json.dumps(matrix_to_json(fourier_matrix(3))),
        )
        assert code == 0
        assert json.loads(out)["report"]["success_probability"] > 1 - 1e-9

    def test_cub_without_common_basis_exits_2(self, capsys):
        code, out, err = _run(
            capsys,
            "synthesize",
            "--ensemble", '{"kind":"bell_subset","n":4,"labels":[[0,0],[1,0],[0,1]]}',
            "--method", "cub",
        )
        assert code == 2
        assert out == ""
        assert "no common unbiased basis" in err

    def test_prop1_wrong_count_exits_2(self, capsys):
        code, _, _ = _run(
            capsys,
            "synthesize",
            "--ensemble", '{"kind":"bell","n":2}',
            "--method", "prop1",
        )
        assert code == 2


def _synthesize_methods():
    """The ``--method`` choices of the ``synthesize`` parser."""
    commands = next(action for action in build_parser()._actions if action.dest == "command")
    return next(action.choices for action in commands.choices["synthesize"]._actions if action.dest == "method")


SYNTHESIZE_METHODS = _synthesize_methods()
# (entry, possible_via) for every library entry whose verdict is PerfectPossible
_PERFECT_ENTRIES = [
    (entry, report.possible_via)
    for entry in build_library()
    if (report := verdict(entry.ensemble)).verdict == "PerfectPossible"
]


class TestSynthesizeRungs:
    def test_every_rung_has_a_perfect_library_entry(self):
        counts = Counter(via for _, via in _PERFECT_ENTRIES)
        assert counts == {"three-qutrit": 8, "two-state": 5, "cub": 4, "product-basis": 3, "single-state": 1}
        # one Bob-first row per rung; no library entry needs one, TestBobFirstThroughCli reaches one
        assert set(SYNTHESIZE_METHODS) == set(counts) | {"prop1"} | {f"{rung}/bob-first" for rung in counts}

    @pytest.mark.parametrize(("entry", "via"), _PERFECT_ENTRIES, ids=[entry.name for entry, _ in _PERFECT_ENTRIES])
    def test_possible_via_reproduced(self, capsys, entry, via):
        """``synthesize --method <possible_via>`` prints a protocol that ``evaluate`` scores perfect."""
        code, out, err = _run(capsys, "synthesize", "--method", via, "--ensemble", json.dumps(ensemble_to_json(entry.ensemble)))
        _assert_clean_exit(code, out, err, 0)
        report = json.loads(out)["report"]
        assert evaluate(protocol_from_json(report["protocol"]), entry.ensemble).success_probability >= 1 - 1e-9
        assert report["success_probability"] >= 1 - 1e-9
        # every Alice-first one-way rung prints its spec; the blind guess has none
        one_way = via != "single-state"
        assert ("one_way" in report) is one_way and ("max_bob_overlap" in report) is one_way
        if one_way:
            assert report["max_bob_overlap"] <= 1e-8
            assert evaluate(protocol_from_json(report["one_way"]), entry.ensemble).success_probability >= 1 - 1e-9

    @pytest.mark.parametrize(("entry", "via"), _PERFECT_ENTRIES, ids=[entry.name for entry, _ in _PERFECT_ENTRIES])
    def test_bob_first_rows_print_no_spec(self, capsys, entry, via):
        """A ``/bob-first`` row prints its swapped-back tree, which no one-way spec (Alice first) represents."""
        code, out, err = _run(capsys, "synthesize", "--method", f"{via}/bob-first", "--ensemble", json.dumps(ensemble_to_json(entry.ensemble)))
        _assert_clean_exit(code, out, err, 0)
        report = json.loads(out)["report"]
        assert "one_way" not in report and "max_bob_overlap" not in report
        assert report["success_probability"] >= 1 - 1e-9

    def test_prop1_is_three_qutrit(self, capsys):
        ensemble = '{"kind":"random_me_triple","n":3,"seed":4}'
        docs = [json.loads(_run(capsys, "synthesize", "--method", m, "--ensemble", ensemble)[1]) for m in ("prop1", "three-qutrit")]
        assert [doc["input"].pop("method") for doc in docs] == ["prop1", "three-qutrit"]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("method", sorted(set(SYNTHESIZE_METHODS) - {"cub"}))
    def test_cub_source_with_other_method_exits_2(self, capsys, method):
        code, out, err = _run(
            capsys,
            "synthesize",
            "--method", method,
            "--ensemble", '{"kind":"random_me_triple","n":3,"seed":4}',
            "--cub-source", json.dumps(matrix_to_json(fourier_matrix(3))),
        )
        _assert_clean_exit(code, out, err, 2)
        assert f"--cub-source does not apply to --method {method}" in err


class TestBobFirstThroughCli:
    """{|00>, |10>, |+1>, |-1>}: only the Bob-first product-basis row settles it."""

    def test_bounds_names_the_bob_first_row(self, capsys):
        code, out, err = _run(capsys, "bounds", "--ensemble", json.dumps(ensemble_to_json(bob_first_product_set())))
        _assert_clean_exit(code, out, err, 0)
        report = json.loads(out)["report"]
        assert (report["verdict"], report["possible_via"]) == ("PerfectPossible", "product-basis/bob-first")

    def test_synthesize_bob_first_is_perfect(self, capsys):
        ens = bob_first_product_set()
        code, out, err = _run(capsys, "synthesize", "--method", "product-basis/bob-first", "--ensemble", json.dumps(ensemble_to_json(ens)))
        _assert_clean_exit(code, out, err, 0)
        report = json.loads(out)["report"]
        assert report["protocol"]["root"]["actor"] == "bob" and "one_way" not in report
        assert evaluate(protocol_from_json(report["protocol"]), ens).success_probability >= 1 - 1e-9


class TestEvaluateAndSimulate:
    @pytest.fixture
    def protocol_file(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys,
            "synthesize",
            "--ensemble", '{"kind":"random_me_triple","n":3,"seed":4}',
            "--method", "prop1",
        )
        assert code == 0
        doc = json.loads(out)
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(doc["report"]["protocol"]))
        return str(path)

    def test_roundtrip_evaluate(self, capsys, protocol_file):
        code, out, _ = _run(
            capsys,
            "evaluate",
            "--protocol", protocol_file,
            "--ensemble", '{"kind":"random_me_triple","n":3,"seed":4}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["success_probability"] > 1 - 1e-9

    def test_simulate(self, capsys, protocol_file):
        code, out, _ = _run(
            capsys,
            "simulate",
            "--protocol", protocol_file,
            "--ensemble", '{"kind":"random_me_triple","n":3,"seed":4}',
            "--trials", "2000",
            "--seed", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["empirical_success_rate"] == 1.0

    def test_zero_trials_exits_2(self, capsys, protocol_file):
        code, _, _ = _run(
            capsys,
            "simulate",
            "--protocol", protocol_file,
            "--ensemble", '{"kind":"random_me_triple","n":3,"seed":4}',
            "--trials", "0",
        )
        assert code == 2

    def test_byte_identical_reports(self, capsys, protocol_file):
        args = (
            "simulate",
            "--protocol", protocol_file,
            "--ensemble", '{"kind":"random_me_triple","n":3,"seed":4}',
            "--trials", "500",
            "--seed", "3",
        )
        _, out1, _ = _run(capsys, *args)
        _, out2, _ = _run(capsys, *args)
        assert out1 == out2


class TestSelftestCommand:
    def test_report_exit_code_and_times(self, capsys, monkeypatch):
        from loccdisc import selftest

        checks = {"cheap-pass": lambda: (True, "ok"), "cheap-fail": lambda: (False, "off by one")}
        monkeypatch.setattr(selftest, "CRITERIA", checks)
        first, second = _run(capsys, "selftest"), _run(capsys, "selftest")
        assert first[0] == 1 and first[1] == second[1]
        assert json.loads(first[1])["report"] == {
            "criteria": [
                {"name": "cheap-pass", "passed": True, "detail": "ok"},
                {"name": "cheap-fail", "passed": False, "detail": "off by one"},
            ],
            "passed": False,
        }
        assert re.fullmatch(r"\[PASS\] cheap-pass: ok \(\d+\.\d\ds\)\n\[FAIL\] cheap-fail: off by one \(\d+\.\d\ds\)\n", first[2])

        monkeypatch.setattr(selftest, "CRITERIA", {"cheap-pass": checks["cheap-pass"]})
        code, out, _ = _run(capsys, "selftest")
        assert code == 0 and json.loads(out)["report"]["passed"] is True


class TestRoundTrips:
    def test_ensemble_report_accepted_downstream(self, capsys, tmp_path):
        # the ensemble command's report must itself parse as an ensemble input
        code, out, _ = _run(capsys, "ensemble", '{"kind":"random_me_triple","n":3,"seed":2}')
        assert code == 0
        report = json.loads(out)["report"]
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(report))
        code, out, _ = _run(capsys, "synthesize", "--ensemble", str(path), "--method", "prop1")
        assert code == 0
        assert json.loads(out)["report"]["success_probability"] > 1 - 1e-9


class TestBoundsCommand:
    def test_full_bell2(self, capsys):
        code, out, _ = _run(capsys, "bounds", "--ensemble", '{"kind":"bell","n":2}')
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["verdict"] == "PerfectImpossible"
        schmidt = [w for w in doc["report"]["witnesses"] if w["name"] == "schmidt-weight"]
        assert schmidt and abs(schmidt[0]["value"] - 0.5) < 1e-12

    def test_triple_possible(self, capsys):
        code, out, _ = _run(
            capsys, "bounds", "--ensemble", '{"kind":"random_me_triple","n":3,"seed":0}'
        )
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "PerfectPossible"

    def test_near_commuting_triple_possible(self, capsys):
        # a valid qutrit triple whose pairwise products nearly commute: the three-qutrit rung builds it
        payload = json.dumps(ensemble_to_json(near_commuting_triple(1e-7, 0)))
        code, out, err = _run(capsys, "bounds", "--ensemble", payload)
        _assert_clean_exit(code, out, err, 0)
        report = json.loads(out)["report"]
        assert (report["verdict"], report["possible_via"]) == ("PerfectPossible", "three-qutrit")

    def test_single_product_state(self, capsys):
        # a pure state has zero entropy, printed as 0.0 and never as -0.0
        state = {"dim_a": 2, "dim_b": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}
        code, out, err = _run(capsys, "bounds", "--ensemble", json.dumps({"states": [state]}))
        _assert_clean_exit(code, out, err, 0)
        assert '"entropy_upper_bits":0.0,' in out
        assert json.loads(out)["report"]["possible_via"] == "single-state"

    def test_nonorthogonal_exits_2(self, capsys):
        from loccdisc import me_state, uniform_ensemble
        from loccdisc.serial import ensemble_to_json

        payload = json.dumps(ensemble_to_json(uniform_ensemble([me_state(2), me_state(2)])))
        code, _, _ = _run(capsys, "bounds", "--ensemble", payload)
        assert code == 2


# stdout digests of `synthesize --method cub` and `bounds` captured from the
# eigenbasis-screen implementation the zero-diagonal screen replaced: the
# screen must pick the same basis bit for bit.  The digests also pin the
# floating-point output of one numpy/BLAS build.
BYTE_PINS = {
    "bell-subset-n5": (
        lambda: {"kind": "bell_subset", "n": 5, "labels": [[0, 0], [1, 0], [0, 1]]},
        "e3947035ef2b3ce3b28329699b100565a912bef76548289ea0a3b2b3f95715fb",
        "01d8b6c501124fb8e9d4d5c3eeb7d067823806b4cdb7ab8cf8797c4e12494ed7",
    ),
    "bell-subset-n17": (
        lambda: {"kind": "bell_subset", "n": 17, "labels": [[0, 0], [1, 0], [0, 1], [2, 3], [5, 7], [11, 13]]},
        "51cd6565257018865f185f40aee34040fd8cdabb3e4ec2faad18669568b23781",
        "24cbe3805f8cbb52526f58d3125472f353deb7c9ec6f0ce6770b4491a6ea80ef",
    ),
    "simdiag-n8": (
        lambda: {"kind": "simdiag", "u": matrix_to_json(haar_unitary(8, np.random.default_rng(8)))},
        "66b8f076e6ad3158dcb78af9828bf886f56ee8c44d9e4ebb69b30b3517538f89",
        "4d196ebf7041c2123272226b74bc70a5bf30c4ddcb75d0ece19dc101513a7a96",
    ),
}


# sha256 of `synthesize --method prop1` stdout, recorded from the three-qutrit construction that
# takes one eigensystem and reads its phases off one matrix.
PROP1_PINS = {
    "random-me-triple-n3-seed7": (
        {"kind": "random_me_triple", "n": 3, "seed": 7},
        "c6646d18777f321d5bd0e9b69162f596b46a8ddf75e068604cba44172fd47966",
    ),
    "bell-subset-n3": (
        {"kind": "bell_subset", "n": 3, "labels": [[0, 0], [0, 1], [1, 0]]},
        "b8579cd3b0a92265779596d03e73a243bf075f429ddb7d7bc931cd64f319875d",
    ),
}


# The pair CI's "Bounds twice" step calls EXPLICIT, and the sha256 of `synthesize --method two-state`
# stdout on it, recorded when the report held only the tree and its success: without the spec's
# two fields the report must print those bytes.
EXPLICIT_PAIR = (
    '{"kind":"explicit","priors":[0.25,0.75],"states":['
    '{"dim_a":2,"dim_b":2,"amplitudes":[[0.7071067811865476,0],[0,0],[0,0],[0.7071067811865476,0]]},'
    '{"dim_a":2,"dim_b":2,"amplitudes":[[0,0],[0.7071067811865476,0],[0,-0.7071067811865476],[0,0]]}]}'
)
TWO_STATE_TREE_PIN = "a91c0ad1cbfaecaef352e8488c02d66a0c9d29ca349e0bfa3cd60aad79dc0f9b"


def _library_case(name):
    entry = next(entry for entry in build_library() if entry.name == name)
    return protocol_to_json(entry.protocol), ensemble_to_json(entry.ensemble)


# sha256 of stdout of `evaluate` and of `simulate --trials 10000 --seed 7`, recorded
# from the walks that multiplied every POVM in: a parsed tree gives each node its own
# POVM, so the identity roots take the view of their input and the Bob runs (distinct
# POVM objects) the product.  ``cub-5-k3`` measures dense bases throughout.
WALK_PINS = {
    "std-4": (
        lambda: (protocol_to_json(standard_bell_protocol(4)), {"kind": "bell", "n": 4}),
        "f805234be47b19a4c7a60f29303399b445cabb1543692f75265ba3306e23039c",
        "c449576acbdebae2a5672632cd70ec3bbea6ed2f03f0fc951cb4d1e5209e2215",
    ),
    "refined-4": (
        lambda: (protocol_to_json(refined_bell_protocol(4)), {"kind": "bell", "n": 4}),
        "386b7c0fe845cc8a6328fce157f41b5caa2fc85d8fcd24de2819612521dcdf77",
        "f057e43c22b91f46832eaf8aec3ca00f94a891fb67fcd46e1f905ea5a2d35adf",
    ),
    "cub-5-k3": (
        lambda: _library_case("cub-5-k3"),
        "742d7b6115a301fc357c303afb50a9e5f8f72cfdda5080a3857f049e8ea147a3",
        "df93d567386c64cb696dcae174d28a69082e687870db73a21dbaf8e61dfd7644",
    ),
}


class TestBytePins:
    @pytest.mark.parametrize("name", sorted(BYTE_PINS))
    def test_synthesize_and_bounds_stdout(self, capsys, name):
        descriptor, synth_digest, bounds_digest = BYTE_PINS[name]
        ensemble = json.dumps(descriptor())
        for argv, digest in (
            (("synthesize", "--method", "cub"), synth_digest),
            (("bounds",), bounds_digest),
        ):
            code, out, err = _run(capsys, *argv, "--ensemble", ensemble)
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PROP1_PINS))
    def test_synthesize_prop1_stdout(self, capsys, name):
        descriptor, digest = PROP1_PINS[name]
        code, out, err = _run(capsys, "synthesize", "--method", "prop1", "--ensemble", json.dumps(descriptor))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_synthesize_two_state_tree_stdout(self, capsys):
        code, out, err = _run(capsys, "synthesize", "--method", "two-state", "--ensemble", EXPLICIT_PAIR)
        assert code == 0, err
        doc = json.loads(out)
        del doc["report"]["one_way"], doc["report"]["max_bob_overlap"]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == TWO_STATE_TREE_PIN

    @pytest.mark.parametrize("name", sorted(WALK_PINS))
    def test_evaluate_and_simulate_stdout(self, capsys, name):
        case, eval_digest, sim_digest = WALK_PINS[name]
        protocol, ensemble = (json.dumps(doc) for doc in case())
        for argv, digest in (
            (("evaluate",), eval_digest),
            (("simulate", "--trials", "10000", "--seed", "7"), sim_digest),
        ):
            code, out, err = _run(capsys, *argv, "--protocol", protocol, "--ensemble", ensemble)
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _assert_clean_exit(code, out, err, expected):
    """Exit code as expected, no traceback, stdout strict JSON on success and empty otherwise."""
    assert code == expected, err
    assert "Traceback" not in err
    if expected == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""


# n = 10**30 overflows numpy's index type in random_me_triple before anything is allocated
OVERFLOW_DESCRIPTOR = '{"kind":"random_me_triple","n":1000000000000000000000000000000,"seed":1}'

# Fuzzed inputs: valid payloads of every kind with up to two fields replaced
# by junk or deleted.  Every dimension stays at 8 or below.
_DIM = st.integers(1, 5)
_JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-2, 8),
    st.sampled_from(['0.5', '2.5', '"2"', '"alice"', "[]", "{}", "[[0, 0]]"]).map(json.loads),
)


def _explicit(dim_a, dim_b, k, with_priors):
    """The first k product basis states of C^dim_a (x) C^dim_b, with uniform priors spelled out or left implicit."""
    k = min(k, dim_a * dim_b)
    states = [
        {"dim_a": dim_a, "dim_b": dim_b, "amplitudes": [[float(i == j), 0.0] for j in range(dim_a * dim_b)]}
        for i in range(k)
    ]
    return {"kind": "explicit", "states": states, **({"priors": [1.0 / k] * k} if with_priors else {})}


_DESCRIPTORS = st.one_of(
    st.builds(lambda n: {"kind": "bell", "n": n}, _DIM),
    st.builds(
        lambda n, labels: {"kind": "bell_subset", "n": n, "labels": labels},
        _DIM,
        st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), min_size=1, max_size=4, unique_by=tuple),
    ),
    st.builds(lambda n, seed: {"kind": "random_me_triple", "n": n, "seed": seed}, _DIM, st.integers(0, 3)),
    st.builds(lambda n: {"kind": "simdiag", "u": matrix_to_json(fourier_matrix(n))}, _DIM),
    st.builds(_explicit, st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.booleans()),
)
_TRIPLE3 = [(0, 0), (1, 0), (1, 1)]
# (protocol, ensemble) pairs that evaluate cleanly before mutation: a tree, a bare leaf, a one-way spec
_PROTOCOL_PAIRS = [
    json.dumps(pair)
    for pair in (
        (protocol_to_json(standard_bell_protocol(2)), {"kind": "bell", "n": 2}),
        ({"dim_a": 3, "dim_b": 3, "root": {"guess": 1}}, {"kind": "bell_subset", "n": 3, "labels": _TRIPLE3}),
        (
            one_way_spec_to_json(synthesize_three_qutrit_protocol(bell_subset(3, _TRIPLE3))),
            {"kind": "bell_subset", "n": 3, "labels": _TRIPLE3},
        ),
    )
]


def _slots(node):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


@st.composite
def _mutated(draw, doc):
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JUNK)
    return doc


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["ensemble", "bounds", "synthesize", "evaluate", "simulate"]))
    if command in ("evaluate", "simulate"):
        protocol, ensemble = draw(_mutated(json.loads(draw(st.sampled_from(_PROTOCOL_PAIRS)))))
        argv = [command, "--protocol", json.dumps(protocol), "--ensemble", json.dumps(ensemble)]
        return argv + (["--trials", "20", "--seed", "0"] if command == "simulate" else [])
    ensemble = json.dumps(draw(_mutated(draw(_DESCRIPTORS))))
    if command == "ensemble":
        return ["ensemble", ensemble]
    if command == "bounds":
        return ["bounds", "--ensemble", ensemble]
    return ["synthesize", "--method", draw(st.sampled_from(SYNTHESIZE_METHODS)), "--ensemble", ensemble]


class TestFuzzedInputs:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=_cli_argv())
    @example(argv=["ensemble", OVERFLOW_DESCRIPTOR])
    def test_exit_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        _assert_clean_exit(code, out.getvalue(), err.getvalue(), code)


_BELL2_DOC = '{"kind":"bell","n":2}'


def _tree(povm, children):
    """Protocol JSON for a 2x2 tree whose root is an Alice node on ``povm``."""
    return json.dumps({"dim_a": 2, "dim_b": 2, "root": {"actor": "alice", "povm": [matrix_to_json(m) for m in povm], "children": children}})


# (argv, start of the error line) for refusals the other tests do not reach; stdin reads "not json"
_REFUSALS = {
    "child-count": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", _tree([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [{"guess": 0}])),
        "one child per POVM outcome required",
    ),
    "povm-input-dim": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", _tree([np.eye(3)], [{"guess": 0}])),
        "alice POVM input dim 3 != current dim 2",
    ),
    "one-way-basis": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", json.dumps(
            {"alice_basis": matrix_to_json(np.ones((2, 2))), "bob_discriminators": [[], []]})),
        "Alice basis is not orthonormal",
    ),
    "one-way-groups": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", json.dumps({"alice_basis": matrix_to_json(np.eye(2)), "bob_discriminators": [[]]})),
        "need one Bob group per Alice outcome",
    ),
    "one-way-vector-lengths": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", json.dumps({"alice_basis": matrix_to_json(np.eye(2)), "bob_discriminators": [
            [{"label": 0, "vector": [[1, 0], [0, 0]]}], [{"label": 1, "vector": [[1, 0], [0, 0], [0, 0]]}]]})),
        "vector length does not match dimension",
    ),
    "one-way-vector-count": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", json.dumps({"alice_basis": matrix_to_json(np.eye(2)), "bob_discriminators": [
            [{"label": lab, "vector": [[float(lab == j), 0] for j in range(2)]} for lab in range(3)], []]})),
        "more vectors than the dimension allows",
    ),
    "one-way-nonorthogonal": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", json.dumps({"alice_basis": matrix_to_json(np.eye(2)), "bob_discriminators": [
            [{"label": 0, "vector": [[1, 0], [0, 0]]}, {"label": 1, "vector": [[0.6, 0], [0.8, 0]]}], []]})),
        "Bob vectors of one outcome are not orthogonal (max overlap 6.000e-01)",
    ),
    "one-way-non-unit": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", json.dumps({"alice_basis": matrix_to_json(np.eye(2)), "bob_discriminators": [
            [{"label": 0, "vector": [[5, 0], [0, 0]]}], []]})),
        "Bob vector is not a unit vector",
    ),
    "ensemble-not-object": (("ensemble", "[1]"), "ensemble payload must be a JSON object"),
    "protocol-not-object": (("evaluate", "--ensemble", _BELL2_DOC, "--protocol", "[1]"), "protocol payload must be a JSON object"),
    "node-not-object": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", '{"dim_a":2,"dim_b":2,"root":[1]}'),
        "protocol node must be a JSON object",
    ),
    "bell-subset-dim": (("ensemble", '{"kind":"bell_subset","n":1,"labels":[[0,0]]}'), "need dimension >= 2"),
    "simulate-dims": (
        ("simulate", "--ensemble", '{"kind":"bell","n":3}', "--trials", "10",
         "--protocol", json.dumps(protocol_to_json(standard_bell_protocol(2)))),
        "protocol and ensemble dimensions disagree",
    ),
    "cub-unequal-dims": (
        ("synthesize", "--method", "cub", "--ensemble", json.dumps(_explicit(2, 3, 2, False))),
        "construction needs equal local dimensions",
    ),
    "cub-source-shape": (
        ("synthesize", "--method", "cub", "--ensemble", '{"kind":"bell_subset","n":3,"labels":[[0,0],[1,0]]}',
         "--cub-source", json.dumps(matrix_to_json(np.eye(2)))),
        "basis dimension does not match the ensemble",
    ),
    "explicit-no-states": (("ensemble", '{"kind":"explicit","states":[]}'), "ensemble needs at least one state"),
    "priors-length": (
        ("ensemble", json.dumps({**_explicit(2, 2, 2, False), "priors": [0.5, 0.25, 0.25]})),
        "priors length must match number of states",
    ),
    "stdin": (("ensemble", "-"), "invalid JSON: "),
    # a kind takes its own fields only: a misspelt "priors" or a seed on a kind that has none is refused, not dropped
    "explicit-prior": (
        ("ensemble", json.dumps({"kind": "explicit", "prior": [0.9, 0.1], "states": _explicit(1, 2, 2, False)["states"]})),
        "malformed ensemble descriptor: kind 'explicit' takes no field 'prior'",
    ),
    "bell-seed": (("ensemble", '{"kind":"bell","n":2,"seed":5}'), "malformed ensemble descriptor: kind 'bell' takes no field 'seed'"),
    "kind-not-string": (("ensemble", '{"kind":[]}'), "unknown ensemble kind: []"),
    # a node is a leaf or a round, never both: the round is not dropped for the guess
    "node-guess-and-round": (
        ("evaluate", "--ensemble", _BELL2_DOC, "--protocol", json.dumps({"dim_a": 2, "dim_b": 2, "root": {
            "guess": 1, "actor": "alice", "povm": [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))],
            "children": [{"guess": 0}, {"guess": 1}]}})),
        "malformed protocol node: fields ['actor', 'children', 'guess', 'povm']",
    ),
}


class TestOutputBoundary:
    @pytest.fixture
    def bell2_protocol(self):
        from loccdisc import standard_bell_protocol
        from loccdisc.serial import protocol_to_json

        return json.dumps(protocol_to_json(standard_bell_protocol(2)))

    @pytest.mark.parametrize(
        "descriptor",
        [
            '{"kind":"explicit","states":[{"dim_a":1,"dim_b":1,"amplitudes":[[1,0]]}],"priors":[NaN]}',
            '{"kind":"bell","n":2.7}',
            '{"kind":"bell","n":1e400}',
            '{"kind":"bell_subset","n":3,"labels":[[0,0.5]]}',
            '{"kind":"bell_subset","n":3,"labels":[[true,0]]}',
            '{"states":5}',
            '{"states":[{"dim_a":1,"dim_b":1,"amplitudes":[[1,0]]}],"priors":{"a":1}}',
            # priors and [re, im] entries must be JSON numbers, and priors belong to "explicit" only
            '{"kind":"explicit","states":[{"dim_a":1,"dim_b":1,"amplitudes":[[1,0]]}],"priors":"1"}',
            '{"kind":"explicit","states":[{"dim_a":1,"dim_b":1,"amplitudes":[[1,0]]}],"priors":["1"]}',
            '{"kind":"explicit","states":[{"dim_a":1,"dim_b":1,"amplitudes":[[1,0]]}],"priors":[true]}',
            '{"kind":"explicit","states":[{"dim_a":1,"dim_b":1,"amplitudes":[[true,0]]}]}',
            '{"kind":"bell","n":2,"priors":[0.7,0.1,0.1,0.1]}',
            OVERFLOW_DESCRIPTOR,
            # numpy refuses each first allocation (over a PiB) at once, before touching memory
            '{"kind":"bell","n":10000000}',
            '{"kind":"bell_subset","n":10000000,"labels":[[0,0]]}',
            '{"kind":"random_me_triple","n":10000000,"seed":1}',
        ],
    )
    def test_bad_descriptors_exit_2(self, capsys, descriptor):
        _assert_clean_exit(*_run(capsys, "ensemble", descriptor), 2)

    @pytest.mark.parametrize("argv, message", _REFUSALS.values(), ids=list(_REFUSALS))
    def test_refusals_exit_2(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
        code, out, err = _run(capsys, *argv)
        _assert_clean_exit(code, out, err, 2)
        assert err.startswith(f"error: {message}"), err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ensemble", '{"kind":"explicit","k":1e400,"states":[{"dim_a":1,"dim_b":1,"amplitudes":[[1,0]]}]}'),
            ("ensemble", '{"kind":"bell","n":2}', "--tol", "nan"),
        ],
    )
    def test_non_finite_output_refused(self, capsys, argv):
        _assert_clean_exit(*_run(capsys, *argv), 2)

    @pytest.mark.parametrize("tol", ["-1", "inf"])
    def test_bad_tol_exits_2(self, capsys, bell2_protocol, tol):
        bell2 = '{"kind":"bell","n":2}'
        for argv in (("ensemble", bell2), ("evaluate", "--protocol", bell2_protocol, "--ensemble", bell2)):
            code, out, err = _run(capsys, *argv, "--tol", tol)
            _assert_clean_exit(code, out, err, 2)
            assert "--tol must be finite and >= 0" in err

    def test_deep_nesting_exits_2(self, capsys):
        _assert_clean_exit(*_run(capsys, "ensemble", "[" * 100_000), 2)

    def test_negative_seed_exits_2(self, capsys, bell2_protocol):
        argv = ("simulate", "--protocol", bell2_protocol, "--ensemble", '{"kind":"bell","n":2}')
        _assert_clean_exit(*_run(capsys, *argv, "--trials", "10", "--seed", "-1"), 2)
        _assert_clean_exit(*_run(capsys, *argv, "--trials", "10", "--seed", "0"), 0)

    @pytest.mark.parametrize("trials", ["0", "-5", str(2**63), "1" + "0" * 30])
    def test_trials_out_of_range_exit_2(self, capsys, bell2_protocol, trials):
        argv = ("simulate", "--protocol", bell2_protocol, "--ensemble", '{"kind":"bell","n":2}')
        _assert_clean_exit(*_run(capsys, *argv, "--trials", trials), 2)

    def test_simulate_is_byte_deterministic(self, capsys):
        # a multi-round Kraus tree with random guesses: the rate depends on every draw
        from loccdisc.serial import ensemble_to_json, protocol_to_json

        from conftest import random_kraus_case

        protocol, ens = random_kraus_case(4)
        argv = (
            "simulate",
            "--protocol", json.dumps(protocol_to_json(protocol)),
            "--ensemble", json.dumps(ensemble_to_json(ens)),
            "--trials", "20000",
            "--seed", "11",
        )
        first = _run(capsys, *argv)
        _assert_clean_exit(*first, 0)
        assert 0.0 < json.loads(first[1])["report"]["empirical_success_rate"] < 1.0
        assert _run(capsys, *argv)[1] == first[1]

    def test_simulate_overweight_povm_exits_0(self, capsys):
        protocol, ens = overweight_perfect_case()
        argv = ("simulate", "--protocol", json.dumps(protocol_to_json(protocol)), "--ensemble", json.dumps(ensemble_to_json(ens)))
        code, out, err = _run(capsys, *argv, "--trials", "100000", "--seed", "0")
        _assert_clean_exit(code, out, err, 0)
        assert json.loads(out)["report"]["empirical_success_rate"] == 1.0

    def test_evaluate_is_byte_deterministic(self, capsys, bell2_protocol):
        argv = ("evaluate", "--protocol", bell2_protocol, "--ensemble", '{"kind":"bell","n":2}')
        first = _run(capsys, *argv)
        _assert_clean_exit(*first, 0)
        assert _run(capsys, *argv)[1] == first[1]

    def test_evaluate_leaf_root(self, capsys):
        tree = json.dumps({"dim_a": 3, "dim_b": 3, "root": {"guess": 1}})
        code, out, err = _run(capsys, "evaluate", "--protocol", tree, "--ensemble", '{"kind":"bell","n":3}')
        _assert_clean_exit(code, out, err, 0)
        report = json.loads(out)["report"]
        assert report["success_probability"] == pytest.approx(1 / 9, abs=1e-15)
        assert report["mutual_information_bits"] == 0.0
        assert len(report["joint_table"]) == 9

    def test_conservation_failure_exits_3(self, capsys):
        # completeness within the loosened --tol, but probability leaks past 1e-9
        ops = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9999995, 0.0]]]]
        tree = {
            "dim_a": 2,
            "dim_b": 2,
            "root": {"actor": "alice", "povm": ops, "children": [{"guess": 0}]},
        }
        argv = ("evaluate", "--protocol", json.dumps(tree), "--ensemble", '{"kind":"bell","n":2}')
        _assert_clean_exit(*_run(capsys, *argv, "--tol", "1e-3"), 3)

    def test_closed_stdout_exits_quietly(self):
        # the report (about 0.3 MB) overflows the pipe buffer, so writing outlives the reader
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "loccdisc.cli", "ensemble", '{"kind":"bell","n":12}'],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""

    def test_overflowing_norm_exits_2_without_warning(self):
        # numpy's default filter would print an overflow RuntimeWarning before the error line
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        desc = '{"kind":"explicit","states":[{"dim_a":1,"dim_b":2,"amplitudes":[[1e200,0],[0,0]]}]}'
        done = subprocess.run(
            [sys.executable, "-m", "loccdisc.cli", "ensemble", desc], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == ["error: state norm overflows; amplitudes too large for a state"]
        assert "RuntimeWarning" not in done.stderr

    def test_non_finite_bob_vector_exits_2_without_warning(self):
        # a NaN must be refused before the completion's division could print a RuntimeWarning
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        payload = '{"alice_basis":[[[1,0],[0,0]],[[0,0],[1,0]]],"bob_discriminators":[[{"label":0,"vector":[[NaN,0],[0,0]]}],[]]}'
        done = subprocess.run(
            [sys.executable, "-m", "loccdisc.cli", "evaluate", "--ensemble", _BELL2_DOC, "--protocol", payload],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and "Warning" not in done.stderr


def _readme_cli_commands():
    """The command lines of README's fenced block under ``## CLI``: continuations joined, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0].split("```\n")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def test_readme_cli_walkthrough_runs(capsys, monkeypatch, tmp_path):
    """Each ``loccdisc`` line runs through ``main`` (its ``> file`` written), the ``python3 -c`` line as written."""
    monkeypatch.chdir(tmp_path)
    reports = {}
    for argv in _readme_cli_commands():
        if argv[0] != "loccdisc":
            assert argv[:2] == ["python3", "-c"]
            subprocess.run([sys.executable, *argv[1:]], check=True, timeout=60)
            continue
        target = argv[argv.index(">") + 1] if ">" in argv else None
        argv = argv[1 : argv.index(">")] if target else argv[1:]
        code, out, err = _run(capsys, *argv)
        _assert_clean_exit(code, out, err, 0)
        if target:
            Path(target).write_text(out, encoding="utf-8")
        reports[argv[0]] = json.loads(out)["report"]
    assert set(reports) == {"ensemble", "synthesize", "evaluate", "simulate", "bounds"}
    assert reports["bounds"]["verdict"] == "PerfectImpossible"
    p, sim = reports["evaluate"]["success_probability"], reports["simulate"]
    assert abs(sim["empirical_success_rate"] - p) <= 5 * math.sqrt(p * (1 - p) / sim["trials"])


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, loccdisc.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
