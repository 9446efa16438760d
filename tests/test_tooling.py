"""The benchmark's span tracer patches functions by name; every name it lists must still resolve."""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    """Run the file's source in a fresh module (read only: no bytecode is cached next to it)."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()


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
