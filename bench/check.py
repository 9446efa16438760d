"""Short-length check of the benchmark: every workload, tracing off and on.

Usage, from the repository root:

    python3 bench/check.py                              # brief: about a minute
    python3 bench/check.py --seconds 10 --min-ops 100   # full length, as measured

Runs ``bench/run.py`` on each workload with ``--trace 0`` and ``--trace 1``,
prints every metric by name and unit, and exits 1 unless every run exited 0
with every oracle passing and emitted exactly the metric names (and units)
that ``BENCHMARK.json`` lists: ``end_to_end`` with tracing off, ``per_layer``
with it on.  It also checks that ``bench/layers.json`` describes the same
per-layer metrics, and that the benchmark refuses to run, printing no result,
in a directory that holds only ``BENCHMARK.json`` and ``bench/``.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def run_workload(name, seed, seconds, min_ops, trace):
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--min-ops", str(min_ops)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    meta = next((json.loads(x[5:]) for x in lines if x.startswith("meta ")), {})
    return done.returncode, result, meta, done.stderr


def bare_directory_refuses() -> bool:
    """In a directory holding only BENCHMARK.json and bench/, the run must fail without a result."""
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = [sys.executable, "bench/run.py", "--workload", "verdict-mix", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=180)
        return done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "bench" / "layers.json").read_text())["metrics"]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {name: m["unit"] for name, m in layers.items()} != expected[1]:
        problems.append("bench/layers.json and BENCHMARK.json per_layer disagree")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, meta, stderr = run_workload(workload, args.seed, args.seconds, args.min_ops, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, result {'missing' if result is None else 'present'}")
                print(stderr, file=sys.stderr)
                if result is None:
                    continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: oracle misses {meta.get('failures')}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"failed_ops_frac {meta.get('failed_ops_frac')}")
            for name, m in result["metrics"].items():
                print(f"  {name:58s} {m['value']:.6g} {m['unit']}")

    if not bare_directory_refuses():
        problems.append("bench/run.py printed a result or exited 0 without the program's sources")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("check passed" if not problems else f"check failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
