"""Command-line interface.

Reports are strict JSON documents on stdout (sorted keys, so identical inputs
and seeds give byte-identical output; NaN and infinities are refused);
diagnostics go to stderr.  Exit codes: 0 success, 2 domain/precondition error,
3 numerical-tolerance failure.  A reader that closes stdout early ends the run
quietly with 0.
"""

import argparse
import json
import math
import os
import sys

from . import __version__, bounds, locc, serial, synth
from .errors import DomainError, ToleranceError
from .qstate import STRUCTURAL_TOL, as_tol


def _load_json_arg(text: str):
    """Parse an argument that is inline JSON, '-' for stdin, or a file path."""
    if text == "-":
        raw = sys.stdin.read()
    elif text.lstrip().startswith(("{", "[")):
        raw = text
    else:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read {text!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc


def _emit(command: str, inputs: dict, report: dict) -> None:
    doc = {
        "tool": "loccdisc",
        "version": __version__,
        "command": command,
        "input": inputs,
        "report": report,
    }
    # serialize fully first, so a refused value leaves stdout empty
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def _cmd_ensemble(args) -> int:
    tol = as_tol(args.tol, "--tol")
    descriptor = _load_json_arg(args.descriptor)
    ens = serial.ensemble_from_json(descriptor)
    report = serial.ensemble_to_json(ens)
    report["k"] = ens.k
    report["is_orthogonal"] = ens.is_orthogonal(tol)
    report["is_maximally_entangled"] = ens.is_maximally_entangled(tol)
    _emit("ensemble", {"descriptor": descriptor, "tol": tol}, report)
    return 0


# Old ``synthesize --method`` names, kept so their outputs keep their bytes.
METHOD_ALIASES = {"prop1": "three-qutrit"}


def _cmd_synthesize(args) -> int:
    rung = METHOD_ALIASES.get(args.method, args.method)
    takes_basis, explicit = rung == "cub", args.cub_source not in ("", "auto")
    if explicit and not takes_basis:
        raise DomainError(f"--cub-source does not apply to --method {args.method}")
    descriptor = _load_json_arg(args.ensemble)
    ens = serial.ensemble_from_json(descriptor)
    inputs = {"ensemble": descriptor, "method": args.method}
    if takes_basis:
        inputs["cub_source"] = "explicit" if explicit else "auto"
    basis = (serial.matrix_from_json(_load_json_arg(args.cub_source)),) if explicit else ()
    protocol, spec = synth.rung_protocol(synth.RUNGS[rung](ens, *basis))
    evaluation = locc.evaluate(protocol, ens)
    report = {"protocol": serial.protocol_to_json(protocol), "success_probability": evaluation.success_probability}
    note = ""
    if spec is not None:
        report["one_way"] = serial.one_way_spec_to_json(spec)
        report["max_bob_overlap"] = spec.max_bob_overlap()
        note = f", max Bob overlap {report['max_bob_overlap']:.3e}"
    _emit("synthesize", inputs, report)
    print(f"synthesized {args.method} protocol: success {evaluation.success_probability:.12f}{note}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    tol = as_tol(args.tol, "--tol")
    proto_doc = _load_json_arg(args.protocol)
    ens_doc = _load_json_arg(args.ensemble)
    protocol = serial.protocol_from_json(proto_doc)
    ens = serial.ensemble_from_json(ens_doc)
    result = locc.evaluate(protocol, ens, tol=tol)
    _emit(
        "evaluate",
        {"protocol": proto_doc, "ensemble": ens_doc, "tol": tol},
        serial.evaluation_to_json(result),
    )
    return 0


def _cmd_simulate(args) -> int:
    proto_doc = _load_json_arg(args.protocol)
    ens_doc = _load_json_arg(args.ensemble)
    protocol = serial.protocol_from_json(proto_doc)
    ens = serial.ensemble_from_json(ens_doc)
    rate = locc.simulate(protocol, ens, args.trials, args.seed)
    stderr_est = math.sqrt(max(rate * (1.0 - rate), 0.0) / args.trials)
    report = {
        "empirical_success_rate": rate,
        "trials": args.trials,
        "seed": args.seed,
        "stderr_estimate": stderr_est,
        "confidence_interval_95": [
            max(0.0, rate - 1.96 * stderr_est),
            min(1.0, rate + 1.96 * stderr_est),
        ],
    }
    _emit(
        "simulate",
        {"protocol": proto_doc, "ensemble": ens_doc, "trials": args.trials, "seed": args.seed},
        report,
    )
    return 0


def _cmd_bounds(args) -> int:
    ens_doc = _load_json_arg(args.ensemble)
    ens = serial.ensemble_from_json(ens_doc)
    report = bounds.verdict(ens)
    _emit("bounds", {"ensemble": ens_doc}, serial.bounds_report_to_json(report))
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all(sys.stderr)
    report = {"criteria": results, "passed": all(r["passed"] for r in results)}
    _emit("selftest", {}, report)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccdisc",
        description="LOCC discrimination toolkit: ensembles, protocol synthesis, evaluation, bounds.",
    )
    parser.add_argument("--version", action="version", version=f"loccdisc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ensemble", help="build an ensemble and report its predicates")
    p.add_argument("descriptor", help="descriptor JSON (inline, path, or '-')")
    p.add_argument("--tol", type=float, default=STRUCTURAL_TOL, help=f"predicate tolerance (default {STRUCTURAL_TOL:g})")
    p.set_defaults(fn=_cmd_ensemble)

    p = sub.add_parser("synthesize", help="build the perfect protocol of one rung of the verdict ladder")
    p.add_argument("--ensemble", required=True, help="ensemble descriptor or payload")
    p.add_argument("--method", choices=[*synth.RUNGS, *METHOD_ALIASES], required=True)
    p.add_argument(
        "--cub-source",
        default="auto",
        help="'auto' (default candidates) or an explicit basis matrix (JSON/path), CUB rung only",
    )
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("evaluate", help="exact evaluation of a protocol on an ensemble")
    p.add_argument("--protocol", required=True, help="protocol tree or one-way spec (JSON/path)")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--tol", type=float, default=STRUCTURAL_TOL, help=f"POVM completeness tolerance (default {STRUCTURAL_TOL:g})")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte-Carlo runs of a protocol")
    p.add_argument("--protocol", required=True)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("bounds", help="bounds report and distinguishability verdict")
    p.add_argument("--ensemble", required=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, RecursionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
