"""The benchmark's four workloads: stratified case lists, input builders and oracles.

Every workload is a fixed list of cases (one *cycle*).  A run repeats whole
cycles; the seed only shuffles the order inside each cycle and draws the
Haar or random inputs, so a fresh seed gives the same mix.  Each case has

* ``build(rng)``: fresh input objects for one operation, made before its
  timer starts, so no result can be reused by object identity;
* ``run(inp)``: the timed operation, calling the program's public API;
* ``check(inp, out)``: the correctness oracle, ``None`` when the output is
  right, else a short reason.

Why each workload exists (which layer does most of its work) is recorded in
``BENCHMARK.json`` and ``bench/layers.json``.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from loccdisc import bounds, ensembles, locc, serial
from loccdisc.locc import ALICE, BOB, Leaf, LoccProtocol, Povm, ProtocolNode

SIZES = (8, 12, 16)
SIZE_COPIES = {8: 1, 12: 3, 16: 1}
MC_TRIALS = 100_000
CLI_SIM_TRIALS = 10_000


@dataclass(frozen=True)
class Case:
    name: str
    build: object
    run: object
    check: object


def refined_bell_protocol(n: int) -> LoccProtocol:
    """Four-round refinement of ``standard_bell_protocol(n)`` for even n.

    Alice and Bob first each learn which half of the computational basis
    they hold (two rectangular n/2 x n block isometries), then Alice and Bob
    measure finely inside that half.  Outcomes and guesses match the
    two-round protocol, so success stays 1/n and the transcript still holds
    log2 n bits about the state.
    """
    h = n // 2
    eye = np.eye(n, dtype=complex)
    coarse = Povm((eye[:h], eye[h:]))
    fine = Povm(tuple(np.eye(h, dtype=complex)[i : i + 1] for i in range(h)))

    def bob_fine(half_a, i, half_b):
        a = half_a * h + i
        return ProtocolNode(BOB, fine, tuple(Leaf(((a - half_b * h - j) % n) * n) for j in range(h)))

    def alice_fine(half_a, half_b):
        return ProtocolNode(ALICE, fine, tuple(bob_fine(half_a, i, half_b) for i in range(h)))

    def bob_coarse(half_a):
        return ProtocolNode(BOB, coarse, tuple(alice_fine(half_a, hb) for hb in range(2)))

    return LoccProtocol(n, n, ProtocolNode(ALICE, coarse, tuple(bob_coarse(ha) for ha in range(2))))


# Looked up on each call so the traced run sees the wrapped function.
PROTOCOLS = {"std": lambda n: locc.standard_bell_protocol(n), "refined": refined_bell_protocol}


def _tree_cases(kind: str) -> list:
    """Per size and copy: three standard two-round trees and one four-round refinement.

    n=12 gets three copies, so as many cases cost less than the n=12 cluster
    as more (p50 sits in its middle) and n=16 is a fifth of the cycle (p90
    sits in the middle of its cluster).
    """
    cases = []
    for n in SIZES:
        for proto in ("std", "std", "std", "refined") * SIZE_COPIES[n]:
            def build(rng, n=n, proto=proto):
                ens = ensembles.bell_basis(n)
                protocol = PROTOCOLS[proto](n)
                if kind == "evaluate":
                    return protocol, ens
                return protocol, ens, int(rng.integers(2**31))

            if kind == "evaluate":
                def run(inp):
                    return locc.evaluate(inp[0], inp[1])

                def check(inp, out, n=n):
                    if abs(out.success_probability - 1.0 / n) > 1e-12:
                        return f"success {out.success_probability!r} != 1/{n}"
                    if abs(out.mutual_information_bits - math.log2(n)) > 1e-10:
                        return f"mutual information {out.mutual_information_bits!r} != log2 {n}"
                    return None
            else:
                def run(inp):
                    return locc.simulate(inp[0], inp[1], MC_TRIALS, inp[2])

                def check(inp, out, n=n):
                    p = 1.0 / n
                    sigma = math.sqrt(p * (1.0 - p) / MC_TRIALS)
                    if abs(out - p) > 5.0 * sigma:
                        return f"rate {out!r} more than 5 sigma from 1/{n}"
                    return None

            cases.append(Case(f"{proto}-n{n}", build, run, check))
    return cases


# --- verdict-mix -------------------------------------------------------------

POSSIBLE = bounds.VERDICT_POSSIBLE
IMPOSSIBLE = bounds.VERDICT_IMPOSSIBLE
UNKNOWN = bounds.VERDICT_UNKNOWN


def _state_json(v, dim_a, dim_b) -> dict:
    return {"dim_a": dim_a, "dim_b": dim_b, "amplitudes": serial.vector_to_json(v)}


def _random_pair(rng, dim_a, dim_b) -> dict:
    d = dim_a * dim_b
    v1 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v2 -= np.vdot(v1, v2) * v1
    v2 /= np.linalg.norm(v2)
    return {"kind": "explicit", "states": [_state_json(v, dim_a, dim_b) for v in (v1, v2)]}


def _rotated_product_basis(rng, dim_a, dim_b) -> dict:
    u = ensembles.haar_unitary(dim_a, rng)
    w = ensembles.haar_unitary(dim_b, rng)
    states = [
        _state_json(np.kron(u[:, a], w[:, b]), dim_a, dim_b) for a in range(dim_a) for b in range(dim_b)
    ]
    return {"kind": "explicit", "states": states}


def _bell_subset(rng, n, k) -> dict:
    labels = rng.choice(n * n, size=k, replace=False)
    return {"kind": "bell_subset", "n": n, "labels": [[int(x) // n, int(x) % n] for x in labels]}


def _me_triple(rng, n) -> dict:
    return {"kind": "random_me_triple", "n": n, "seed": int(rng.integers(2**31))}


def _fixed(descriptor):
    return lambda rng: json.loads(json.dumps(descriptor))


# (name, descriptor builder, expected verdict).  Bell subsets at prime n use
# k(k-1)/2 <= n states, so at most n of the n+1 MUB directions are taken and
# the CUB search always finds a free basis.
VERDICT_CASES = [
    ("me-triple-n3", lambda rng: _me_triple(rng, 3), POSSIBLE),
    ("bell-subset-n5-k3", lambda rng: _bell_subset(rng, 5, 3), POSSIBLE),
    ("bell-subset-n11-k5", lambda rng: _bell_subset(rng, 11, 5), POSSIBLE),
    ("bell-subset-n17-k6", lambda rng: _bell_subset(rng, 17, 6), POSSIBLE),
    ("simdiag-n7", lambda rng: {"kind": "simdiag", "u": serial.matrix_to_json(ensembles.haar_unitary(7, rng))}, POSSIBLE),
    ("simdiag-n8", lambda rng: {"kind": "simdiag", "u": serial.matrix_to_json(ensembles.haar_unitary(8, rng))}, POSSIBLE),
    ("pair-8x8", lambda rng: _random_pair(rng, 8, 8), POSSIBLE),
    ("pair-16x16", lambda rng: _random_pair(rng, 16, 16), POSSIBLE),
    ("pair-24x24", lambda rng: _random_pair(rng, 24, 24), POSSIBLE),
    ("pair-3x12", lambda rng: _random_pair(rng, 3, 12), POSSIBLE),
    ("product-basis-3x4", lambda rng: _rotated_product_basis(rng, 3, 4), POSSIBLE),
    ("me-triple-n4", lambda rng: _me_triple(rng, 4), UNKNOWN),
    ("me-triple-n8", lambda rng: _me_triple(rng, 8), UNKNOWN),
    ("bell-subset-n4-k3", _fixed({"kind": "bell_subset", "n": 4, "labels": [[0, 0], [1, 0], [0, 1]]}), UNKNOWN),
    ("bell-n4", _fixed({"kind": "bell", "n": 4}), IMPOSSIBLE),
    ("bell-n8", _fixed({"kind": "bell", "n": 8}), IMPOSSIBLE),
    ("bell-subset-n3-k4", _fixed({"kind": "bell_subset", "n": 3, "labels": [[0, 0], [0, 1], [1, 0], [2, 2]]}), IMPOSSIBLE),
]


# Copies per cycle.  Sorted by cost, the cases form clusters of similar op
# time with gaps between them; these weights put p50 in the middle of the
# product-basis cluster (ten copies cost less, ten cost more) and p90 in the
# middle of the bell-subset-n17-k6 pair, so neither quantile sits on a gap
# where a small shift in a neighbouring case would make it jump.
VERDICT_COPIES = {"bell-n4": 4, "bell-subset-n17-k6": 2}


def _verdict_run(descriptor):
    return bounds.verdict(serial.ensemble_from_json(descriptor))


def _verdict_check(expected):
    def check(inp, report):
        got = report.verdict
        # A better synthesizer may settle an Unknown case, never refute it.
        if got != expected and not (expected == UNKNOWN and got == POSSIBLE):
            return f"verdict {got} != expected {expected}"
        if got == IMPOSSIBLE and not any(w.violated for w in report.witnesses):
            return "PerfectImpossible without a violated witness"
        return None

    return check


# --- cli-oneshot -------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(raw: bytes):
    return json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)


def _report_check(kind: str, expect):
    """Oracle on the parsed ``report`` of one CLI command."""

    def check(report):
        if kind == "verdict":
            return None if report["verdict"] == expect else f"verdict {report['verdict']} != {expect}"
        if kind == "synthesize":
            p = report["success_probability"]
            return None if p >= 1.0 - 1e-9 else f"synthesized success {p!r} < 1 - 1e-9"
        if kind == "evaluate":
            p = report["success_probability"]
            return None if abs(p - expect) <= 1e-12 else f"success {p!r} != {expect!r}"
        if kind == "simulate":
            rate = report["empirical_success_rate"]
            sigma = math.sqrt(expect * (1.0 - expect) / CLI_SIM_TRIALS)
            return None if abs(rate - expect) <= 5.0 * sigma else f"rate {rate!r} more than 5 sigma off"
        ok = report["k"] == expect and report["is_orthogonal"] and report["is_maximally_entangled"]
        return None if ok else "ensemble predicates wrong"

    return check


def cli_commands(rng, protocol_file: Path) -> list:
    """The stratified CLI command mix as (name, argv, report oracle); writes the protocol files.

    Six commands cost about one interpreter start plus imports.  evaluate runs
    on the n=12 Bell basis, a clearly heavier seventh of the mix that p90 lands
    in: without it every command costs the same and p90 would measure only the
    host's timing noise, not a property of the CLI.
    """
    protocol_file.parent.mkdir(parents=True, exist_ok=True)
    protocols = {n: protocol_file.with_name(f"{protocol_file.stem}-n{n}.json") for n in (4, 12)}
    for n, path in protocols.items():
        path.write_text(json.dumps(serial.protocol_to_json(locc.standard_bell_protocol(n))))
    triple = json.dumps(_me_triple(rng, 3))
    subset = json.dumps(_bell_subset(rng, 5, 3))
    bell4 = json.dumps({"kind": "bell", "n": 4})
    bell12 = json.dumps({"kind": "bell", "n": 12})
    return [
        ("bounds-me-triple", ["bounds", "--ensemble", triple], _report_check("verdict", POSSIBLE)),
        ("bounds-bell-n3", ["bounds", "--ensemble", '{"kind":"bell","n":3}'], _report_check("verdict", IMPOSSIBLE)),
        ("synthesize-prop1", ["synthesize", "--method", "prop1", "--ensemble", triple], _report_check("synthesize", None)),
        ("synthesize-cub", ["synthesize", "--method", "cub", "--ensemble", subset], _report_check("synthesize", None)),
        (
            "evaluate-bell-n12",
            ["evaluate", "--protocol", str(protocols[12]), "--ensemble", bell12],
            _report_check("evaluate", 1 / 12),
        ),
        (
            "simulate-bell-n4",
            ["simulate", "--trials", str(CLI_SIM_TRIALS), "--seed", str(int(rng.integers(2**31))),
             "--protocol", str(protocols[4]), "--ensemble", bell4],
            _report_check("simulate", 1 / 4),
        ),
        ("ensemble-bell-n4", ["ensemble", bell4], _report_check("ensemble", 16)),
    ]


@dataclass
class CliResult:
    code: int
    stdout: bytes
    maxrss_kib: int


def run_cli_process(argv, env) -> CliResult:
    """One fresh ``python -m loccdisc.cli`` process; returns its exit code, stdout and peak RSS."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "loccdisc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, usage.ru_maxrss)


def run_cli_inprocess(argv) -> CliResult:
    """Replay one CLI command through ``cli.main`` with stdout captured."""
    from loccdisc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return CliResult(code, buf.getvalue().encode("utf-8"), 0)


class CliCases:
    """Builds the cli-oneshot cases; remembers first stdout per argv and the largest child."""

    def __init__(self, rng, out_dir: Path, env, in_process: bool):
        self.env = env
        self.in_process = in_process
        self.first_stdout = {}
        self.max_child_rss_kib = 0
        self.stdout_bytes = 0
        self.protocol_file = out_dir / f"bell-protocol-{os.getpid()}.json"
        self.commands = cli_commands(rng, self.protocol_file)

    def close(self):
        for path in self.protocol_file.parent.glob(f"{self.protocol_file.stem}-n*.json"):
            path.unlink()

    def cases(self) -> list:
        return [Case(name, lambda rng, argv=argv: tuple(argv), self._run, self._checker(oracle))
                for name, argv, oracle in self.commands]

    def _run(self, argv):
        if self.in_process:
            return run_cli_inprocess(argv)
        result = run_cli_process(argv, self.env)
        self.max_child_rss_kib = max(self.max_child_rss_kib, result.maxrss_kib)
        return result

    def _checker(self, oracle):
        def check(argv, result):
            self.stdout_bytes += len(result.stdout)
            if result.code != 0:
                return f"exit code {result.code}"
            first = self.first_stdout.setdefault(argv, result.stdout)
            if result.stdout != first:
                return "stdout differs from the first call of the same argv"
            try:
                doc = strict_json(result.stdout)
            except ValueError as exc:
                return f"stdout is not strict JSON: {exc}"
            return oracle(doc["report"])

        return check


# --- registry ----------------------------------------------------------------

WORKLOADS = ("exact-eval", "monte-carlo", "verdict-mix", "cli-oneshot")


def make_cases(name: str, rng, out_dir: Path, env, traced: bool):
    """(cases, cli) for a workload; ``cli`` is the CliCases helper or None."""
    if name == "exact-eval":
        return _tree_cases("evaluate"), None
    if name == "monte-carlo":
        return _tree_cases("simulate"), None
    if name == "verdict-mix":
        return [
            Case(n, b, _verdict_run, _verdict_check(e))
            for n, b, e in VERDICT_CASES
            for _ in range(VERDICT_COPIES.get(n, 1))
        ], None
    if name == "cli-oneshot":
        cli = CliCases(rng, out_dir, env, in_process=traced)
        return cli.cases(), cli
    raise ValueError(f"unknown workload {name!r}")
