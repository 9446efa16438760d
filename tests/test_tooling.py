"""Names that other code looks up: the benchmark's span tracer patches functions by name, so every
name it lists must still resolve, the package's ``__all__`` must list exactly what it exports, and the
README must name every public call that takes a tolerance.  The benchmark's refined Bell trees must be
the ones the evaluator and ``simulate`` pins in ``test_locc.py`` cover.  Loading the CLI must not load
``numpy.random``, which only seeded commands need, and loading the package must not load scipy.  Every code name the README cites must exist,
and every public function the package defines must be reached by its own code, its exports or the tracer.
Each documented tolerance and the PerfectPossible threshold must be written once, as a named constant."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import loccdisc
from loccdisc.locc import Leaf

from conftest import refined_bell_protocol

ROOT = Path(__file__).resolve().parents[1]


def _load_bench(name):
    """Run ``bench/<name>.py``'s source in a fresh module (read only: no bytecode is cached next to it)."""
    path = ROOT / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


spans = _load_bench("spans")
workloads = _load_bench("workloads")


@pytest.mark.parametrize("target", spans.TARGETS)
def test_trace_target_resolves(target):
    module_name, _, attr = target.partition(".")
    module = importlib.import_module(f"loccdisc.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__[meth])
    else:
        assert callable(getattr(module, attr))


def test_span_tables_name_only_targets():
    named = set(spans.BUILDER_ENTRIES) | set(spans.PRE_NOTES) | set(spans.POST_NOTES) | set(spans.TO_JSON)
    assert named <= set(spans.TARGETS)


def test_all_lists_the_public_names():
    public = {
        name for name, value in vars(loccdisc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(loccdisc.__all__) == len(set(loccdisc.__all__))
    assert set(loccdisc.__all__) == public


def _takes_tol(fn) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins without a signature
        return False
    return any(name == "tol" or name.endswith("_tol") for name in params)


def test_tolerance_options_are_documented():
    """The calls reachable from ``__all__`` (methods of exported classes too) with a ``tol`` or
    ``*_tol`` parameter are exactly those the README's Conventions section lists."""
    found = set()
    for name in loccdisc.__all__:
        obj = getattr(loccdisc, name)
        if _takes_tol(obj):
            found.add(name)
        if inspect.isclass(obj):
            found |= {f"{name}.{attr}" for attr in dir(obj) if not attr.startswith("_") and _takes_tol(getattr(obj, attr))}
    conventions = (ROOT / "README.md").read_text(encoding="utf-8").split("## Conventions", 1)[1].split("\n## ", 1)[0]
    listed = " ".join(conventions.split()).split("take a `tol` parameter:", 1)[1].split("Every other tolerance", 1)[0]
    assert found == set(re.findall(r"`([\w.]+)`", listed))


def _tree_signature(node):
    """Actors, stacked POVM bytes and offsets, and guesses of a tree, in depth-first order."""
    if isinstance(node, Leaf):
        return ("leaf", node.guess)
    povm = node.povm
    return (node.actor, povm.stacked.shape, povm.stacked.tobytes(), povm.offsets.tolist(),
            tuple(_tree_signature(child) for child in node.children))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_benchmark_refined_trees_are_the_pinned_ones(n):
    bench_tree = workloads.refined_bell_protocol(n)
    tree = refined_bell_protocol(n)
    assert (bench_tree.dim_a, bench_tree.dim_b) == (tree.dim_a, tree.dim_b)
    assert _tree_signature(bench_tree.root) == _tree_signature(tree.root)


def test_cli_import_leaves_numpy_random_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    code = "import sys, loccdisc.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_package_loads_no_scipy():
    """The core is numpy-only: importing every ``loccdisc`` module loads no ``scipy`` module, though
    scipy may be installed beside it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    code = (
        "import importlib, pkgutil, sys, loccdisc; "
        "[importlib.import_module(f'loccdisc.{m.name}') for m in pkgutil.iter_modules(loccdisc.__path__)]; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# README names that are notation, not code (the Bell basis BB_n, the bound f_me); ``numpy.*`` names are numpy's
README_NOTATION = {"BB_n", "f_me"}


def _readme_code_names():
    """Backticked spans outside fenced blocks that are a dotted name (a call's arguments dropped) with ``_`` or ``.``."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        match = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", " ".join(span.split()))
        if match and ("_" in match[1] or "." in match[1]):
            names.add(match[1])
    return sorted(names)


def _loccdisc_namespace():
    """Roots a dotted name may start from (the package, its modules, their module-level names) and member names."""
    modules = {"loccdisc": loccdisc}
    modules |= {info.name: importlib.import_module(f"loccdisc.{info.name}") for info in pkgutil.iter_modules(loccdisc.__path__)}
    roots = dict(modules)
    for module in modules.values():
        roots |= {name: value for name, value in vars(module).items() if not name.startswith("__")}
    members = set()
    for value in roots.values():
        if inspect.isclass(value) and value.__module__.startswith("loccdisc"):
            members |= {attr for attr in dir(value) if not attr.startswith("__")}
            if dataclasses.is_dataclass(value):
                members |= {field.name for field in dataclasses.fields(value)}
    return roots, members


def _resolves(name, roots, members):
    """A dotted path from a root, or a member (class attribute or dataclass field) reached through an instance."""
    head, *rest = name.split(".")
    if head in roots:
        obj = roots[head]
        try:
            for attr in rest:
                obj = getattr(obj, attr)
            return True
        except AttributeError:
            pass
    return name.rsplit(".", 1)[-1] in members


def test_readme_names_resolve():
    roots, members = _loccdisc_namespace()
    cited = [name for name in _readme_code_names() if name not in README_NOTATION and not name.startswith("numpy.")]
    assert cited
    assert [name for name in cited if not _resolves(name, roots, members)] == []


def _named(tree) -> Counter:
    """How often each identifier appears in ``tree``: ``Name`` ids, ``Attribute`` attrs and import aliases."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name] += 1
    return names


def test_every_public_function_is_reached():
    """Each public function and method defined under ``src/loccdisc`` is named by the package's own code
    outside its own ``def``, exported by ``loccdisc.__all__``, or traced by ``bench/spans.py``.

    Names are matched by identifier alone, so a method that shares its name with a function the package
    calls counts as reached: a property ``StateEnsemble.schmidt_coefficients`` read only by tests would
    pass, because ``qstate.schmidt_coefficients`` is called under the same name."""
    package = ROOT / "src" / "loccdisc"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    unreached = []
    for module, tree in trees.items():
        defs = [(f"{module}.{node.name}", node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [(f"{module}.{cls.name}.{node.name}", node) for node in cls.body if isinstance(node, ast.FunctionDef)]
        for target, node in defs:
            if node.name.startswith("_") or node.name in loccdisc.__all__ or target in spans.TARGETS:
                continue
            if named[node.name] <= _named(node)[node.name]:
                unreached.append(target)
    assert unreached == []


# The documented tolerances, each written once, as ``qstate``'s constant of that name
DOCUMENTED_TOLERANCES = {"ALGEBRAIC_TOL": 1e-12, "STRUCTURAL_TOL": 1e-10, "EIGEN_TOL": 1e-8}


def test_documented_tolerances_are_written_once():
    """Under ``src/loccdisc``, outside ``selftest`` (whose criteria state their tolerances inline), a float
    literal equal to a documented tolerance appears only as the value of ``qstate``'s constant of that name."""
    package = ROOT / "src" / "loccdisc"
    definitions = {}
    sites = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "selftest":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "qstate":
            for node in tree.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in DOCUMENTED_TOLERANCES:
                    definitions[node.targets[0].id] = node.value
        defined = {id(value) for value in definitions.values()}
        sites += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and node.value in DOCUMENTED_TOLERANCES.values() and id(node) not in defined
        ]
    assert {name: getattr(value, "value", None) for name, value in definitions.items()} == DOCUMENTED_TOLERANCES
    assert not sites, f"documented tolerances written as literals at {', '.join(sites)}"


def test_perfect_possible_threshold_is_one_constant():
    """The verdict's gate and both selftest criteria that check synthesized protocols read ``bounds.PERFECT_SUCCESS``."""
    from loccdisc import bounds, selftest

    assert bounds.PERFECT_SUCCESS == 1.0 - 1e-9
    for fn in (bounds._try_synthesizers, selftest.criterion_three_qutrit_end_to_end, selftest.criterion_unbiased_bell_subsets):
        tree = ast.parse(inspect.getsource(fn).lstrip())
        assert _named(tree)["PERFECT_SUCCESS"] == 1, fn.__name__
        assert 1e-9 not in {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}, fn.__name__
