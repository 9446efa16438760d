"""loccdisc benchmark: one closed-loop workload, one client, one process.

Usage, from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: exact-eval, monte-carlo, verdict-mix, cli-oneshot (see
``BENCHMARK.json`` for why each exists).  A run repeats whole stratified
cycles of the workload's cases until ``--seconds`` have passed and at least
``--min-ops`` operations were made, so p90 always has ten samples beyond it.
Every operation is checked by an oracle.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it (``meta {...}``) records versions, environment and counts.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``throughput_ops_s``: correct operations per second of time spent inside
  operations (input building and oracle checks between them excluded);
* ``latency_p50_ms``, ``latency_p90_ms``: per-operation quantiles;
* ``setup_s``: import, input generation and one untimed warm-up operation,
  the median of this process and two fresh probe processes;
* ``peak_rss_mib``: peak RSS of this process, or of the largest CLI child
  for cli-oneshot.

Failed operations over attempted ones are in the result's ``failed`` and
``attempted`` fields and in the meta line's ``failed_ops_frac``.  ``--trace 1``
alternates untraced and traced cycles and reports the per-layer metrics of
``bench/layers.json``, normalised per traced cycle; spans go to ``bench/out``.
The exit code is 0 only when every oracle passed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"

# One client on small matrices: BLAS threads would only add scheduling noise.
# Set before numpy loads; CLI children and set-up probes inherit the same
# environment, and the values are recorded in the run metadata.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

MIN_OPS = 100
SETUP_REPS = 3
CLI_PROBE_REPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS, help="fewest operations a run makes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit():
    """Commit of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, np, extra) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": git_commit(),
        **extra,
    }


def setup_probe(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(case, rng):
    """Build fresh inputs, time one operation, then check it; returns (seconds, failure or None).

    A full collection runs before the timer starts, so a cycle-collector pause
    never lands inside an operation by chance and peak memory does not depend
    on the order the seed shuffled the cases into.
    """
    inp = case.build(rng)
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = case.run(inp)
    except Exception as exc:  # an operation that raises is a failed operation, not a crash
        return time.perf_counter() - t0, f"{case.name}: raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    reason = case.check(inp, out)
    return elapsed, (f"{case.name}: {reason}" if reason else None)


def run_cycle(cases, rng, latencies, failures, tracer=None, by_case=None):
    for idx in rng.permutation(len(cases)):
        if tracer:
            tracer.op = len(latencies)
        elapsed, failure = run_op(cases[idx], rng)
        latencies.append(elapsed)
        if by_case is not None:
            by_case.setdefault(cases[idx].name, []).append(elapsed)
        if failure:
            failures.append(failure)


def measure(cases, rng, seconds, min_ops):
    """Closed loop over whole cycles; returns (latencies, per-case latencies, failures, cycles)."""
    latencies, by_case, failures, cycles = [], {}, [], 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds or len(latencies) < min_ops:
        run_cycle(cases, rng, latencies, failures, by_case=by_case)
        cycles += 1
    return latencies, by_case, failures, cycles


def measure_traced(cases, rng, seconds, tracer):
    """Alternate untraced and traced cycles; returns (untraced, traced latencies, failures, traced cycles)."""
    plain, traced, failures, cycles = [], [], [], 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        run_cycle(cases, rng, plain, failures)
        tracer.install()
        try:
            run_cycle(cases, rng, traced, failures, tracer)
        finally:
            tracer.uninstall()
        cycles += 1
    return plain, traced, failures, cycles


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of every scipy module not imported by another scipy module.

    ``-X importtime`` prints ``import time: <self us> | <cumulative us> | <module>``
    after each import, children before their parent and indented deeper.
    """
    rows = []
    for line in importtime.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            rows.append((len(parts[2]) - len(parts[2].lstrip()), parts[2].strip(), int(parts[1])))
    total, ancestors = 0, []
    for indent, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        if name.split(".")[0] == "scipy" and not any(a[1].split(".")[0] == "scipy" for a in ancestors):
            total += cumulative
        ancestors.append((indent, name))
    return 1e-6 * total


def cli_probes() -> dict:
    """Fresh-process import costs of the CLI: medians of a few processes each."""
    env = os.environ.copy()

    def run(*argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=True, env=env)

    timer = "import time; t = time.perf_counter(); import loccdisc.cli; print(time.perf_counter() - t)"
    import_s = [float(run("-c", timer).stdout) for _ in range(CLI_PROBE_REPS)]
    scipy_s = [scipy_import_s(run("-X", "importtime", "-c", "import loccdisc.cli").stderr) for _ in range(CLI_PROBE_REPS)]
    floor = []
    for _ in range(CLI_PROBE_REPS):
        t0 = time.perf_counter()
        run("-c", "pass")
        floor.append(time.perf_counter() - t0)
    return {
        "cli.import_s": statistics.median(import_s),
        "cli.import_scipy_s": statistics.median(scipy_s),
        "cli.interpreter_floor_s": statistics.median(floor),
    }


def end_to_end(args, cases, cli, rng, setup_s):
    """Untraced run: the end-to-end metrics; returns (metrics, latencies, failures, cycles, meta)."""
    setup_samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_REPS - 1)]
    latencies, by_case, failures, cycles = measure(cases, rng, args.seconds, args.min_ops)
    ms = sorted(1e3 * t for t in latencies)
    if cli:
        rss_kib = cli.max_child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_ops_s": ((len(latencies) - len(failures)) / sum(latencies), "ops/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }
    meta = {
        "setup_samples_s": setup_samples,
        "case_p50_ms": {name: 1e3 * statistics.median(t) for name, t in by_case.items()},
    }
    return metrics, latencies, failures, cycles, meta


def per_layer(args, cases, cli, rng):
    """Traced run: the per-layer metrics of bench/layers.json; same return shape as end_to_end."""
    import spans

    tracer = spans.Tracer()
    plain, traced, failures, cycles = measure_traced(cases, rng, args.seconds, tracer)
    values = spans.layer_metrics(tracer.spans, cycles)
    # Both halves replay the same commands, so each cycle prints the same bytes.
    values["serial.stdout_bytes"] = cli.stdout_bytes / (2 * cycles) if cli else 0.0
    probes = ("cli.import_s", "cli.import_scipy_s", "cli.interpreter_floor_s")
    values.update(cli_probes() if cli else dict.fromkeys(probes, 0.0))
    values["trace.op_s"] = sum(traced) / cycles
    values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
    tracer.dump(span_file)
    layers = json.loads((BENCH / "layers.json").read_text())["metrics"]
    metrics = {name: (values[name], spec["unit"]) for name, spec in layers.items()}
    meta = {"span_file": str(span_file.relative_to(ROOT)), "span_count": len(tracer.spans)}
    return metrics, plain + traced, failures, cycles, meta


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loccdisc" / "__init__.py").is_file():
        print(f"error: no loccdisc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    cases, cli = workloads.make_cases(args.workload, rng, OUT, os.environ.copy(), traced=args.trace == 1)
    try:
        # The untimed warm-up operation: always the first case of the cycle.
        _, warm_failure = run_op(cases[0], rng)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if cli:
            cli.stdout_bytes = 0
        if args.trace == 0:
            metrics, latencies, failures, cycles, extra = end_to_end(args, cases, cli, rng, setup_s)
        else:
            metrics, latencies, failures, cycles, extra = per_layer(args, cases, cli, rng)
    finally:
        if cli:
            cli.close()

    attempted = len(latencies)
    failed = len(failures)
    if warm_failure:
        failures.insert(0, f"warm-up {warm_failure}")
    meta = metadata(args, np, {
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "cycles": cycles,
        "cycle_cases": [c.name for c in cases],
        "seconds": args.seconds,
        "min_ops": args.min_ops,
        "failures": failures[:5],
        **extra,
    })
    for failure in failures[:5]:
        print(f"oracle miss: {failure}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
