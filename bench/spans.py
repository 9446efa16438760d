"""Span recorder around the program's public functions, and the per-layer metrics.

The traced run replaces each function in ``TARGETS`` by a wrapper that
records a span: name, start, end, parent span, operation id, and whether the
call raised ``DomainError``/``ToleranceError``.  Every module attribute
bound to the same function object is replaced, so names rebound by
``from ... import`` (``bounds.schmidt``, ``synth.normal_eigensystem``) are
caught too, and calls from one layer into another nest under their caller.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children (one
thread, so children never overlap).
"""

import bisect
import importlib
import json
import sys
import time

from loccdisc.errors import DomainError, ToleranceError

TARGETS = (
    "qstate.schmidt",
    "qstate.normal_eigensystem",
    "qstate.state_from_matrix",
    "ensembles.from_descriptor",
    "ensembles.mub_prime",
    "ensembles.common_unbiased_basis_check",
    "ensembles.StateEnsemble.is_orthogonal",
    "synth.pairwise_product_eigenbases",
    "synth.default_cub_candidates",
    "synth.find_cub",
    "synth.synthesize_cub_protocol",
    "synth.synthesize_three_qutrit_protocol",
    "synth.OneWayProtocolSpec.as_protocol",
    "locc.evaluate",
    "locc.simulate",
    "locc.LoccProtocol.validate",
    "locc.two_state_protocol",
    "locc.one_way_protocol",
    "locc.standard_bell_protocol",
    "locc.product_basis_protocol",
    "locc.blind_guess_protocol",
    "bounds.verdict",
    "bounds.success_upper_bounds",
    "bounds.entropy_bound_bits",
    "bounds.lambda_max",
    "bounds._try_synthesizers",
    "serial.ensemble_from_json",
    "serial.protocol_from_json",
    "serial.ensemble_to_json",
    "serial.protocol_to_json",
    "serial.one_way_spec_to_json",
    "serial.evaluation_to_json",
    "serial.bounds_report_to_json",
    "cli.main",
)

# The first call each builder of bounds._try_synthesizers makes; a direct
# child span of _try_synthesizers with one of these names opens an attempt.
BUILDER_ENTRIES = {
    "locc.blind_guess_protocol",
    "locc.two_state_protocol",
    "synth.synthesize_three_qutrit_protocol",
    "synth.pairwise_product_eigenbases",
    "locc.product_basis_protocol",
}

TO_JSON = tuple(t for t in TARGETS if t.startswith("serial.") and t.endswith("_to_json"))


def _count_leaves(protocol) -> int:
    count, stack = 0, [protocol.root]
    while stack:
        node = stack.pop()
        children = getattr(node, "children", None)
        if children is None:
            count += 1
        else:
            stack.extend(children)
    return count


# Values kept on a span: computed from the arguments before the span starts
# (``pre``) or from the result (``post``).  Results themselves are dropped.
PRE_NOTES = {"locc.evaluate": lambda args: _count_leaves(args[0]) * args[1].k}
POST_NOTES = {
    "synth.find_cub": lambda result: result is not None,
    "ensembles.common_unbiased_basis_check": bool,
    "bounds._try_synthesizers": lambda result: result[0],
}

NAME, START, END, PARENT, OP, FAILED, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None

    def _wrap(self, name, fn):
        pre = PRE_NOTES.get(name)
        post = POST_NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            note = pre(args) if pre else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, note]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except (DomainError, ToleranceError):
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if post:
                span[NOTE] = post(result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "loccdisc" or n.startswith("loccdisc.")]
        for target in TARGETS:
            module_name, _, attr = target.partition(".")
            module = importlib.import_module(f"loccdisc.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patches.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(target, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "failed", "note"], "spans": self.spans}, fh)


def self_times(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _builder_attempts(spans):
    """Builder attempts inside every bounds._try_synthesizers span: (entry, start, end, succeeded).

    An attempt runs from its entry call to the next attempt's entry, or to the
    end of _try_synthesizers; only the last attempt of a verdict that found a
    protocol succeeded.
    """
    kids = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "bounds._try_synthesizers":
            kids.setdefault(s[PARENT], []).append(i)
    attempts = []
    for parent, children in kids.items():
        entries = [i for i in children if spans[i][NAME] in BUILDER_ENTRIES]
        found = spans[parent][NOTE] is not None
        for pos, i in enumerate(entries):
            start = spans[i][START]
            end = spans[entries[pos + 1]][START] if pos + 1 < len(entries) else spans[parent][END]
            succeeded = found and pos == len(entries) - 1
            attempts.append((spans[i][NAME], start, end, succeeded))
    return attempts


def layer_metrics(spans, cycles: int) -> dict:
    """Per-layer values per traced cycle (one stratified pass over every case)."""
    selfs = self_times(spans)
    calls, busy, failed = {}, {}, {}
    for s, t in zip(spans, selfs):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        busy[s[NAME]] = busy.get(s[NAME], 0.0) + t
        failed[s[NAME]] = failed.get(s[NAME], 0) + int(s[FAILED])

    def per_cycle(x):
        return x / cycles

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(name):
        return per_cycle(busy.get(name, 0.0))

    def n_calls(name):
        return per_cycle(calls.get(name, 0))

    pairs = sum(s[NOTE] for s in spans if s[NAME] == "locc.evaluate")
    cub_hits = sum(1 for s in spans if s[NAME] == "ensembles.common_unbiased_basis_check" and s[NOTE])

    attempts = _builder_attempts(spans)
    pairwise_starts = sorted(s[START] for s in spans if s[NAME] == "synth.pairwise_product_eigenbases")
    find_hits = sorted(s[START] for s in spans if s[NAME] == "synth.find_cub" and s[NOTE])
    per_hit, per_miss = [], []
    for entry, start, end, _ in attempts:
        if entry != "synth.pairwise_product_eigenbases":
            continue
        n_pairwise = bisect.bisect_left(pairwise_starts, end) - bisect.bisect_left(pairwise_starts, start)
        hit = bisect.bisect_left(find_hits, end) > bisect.bisect_left(find_hits, start)
        (per_hit if hit else per_miss).append(n_pairwise)

    useful = sum(1 for s in spans if s[NAME] == "bounds._try_synthesizers" and s[NOTE] is not None)
    return {
        "locc.evaluate.self_s": self_s("locc.evaluate"),
        "locc.evaluate.calls": n_calls("locc.evaluate"),
        "locc.leaf_state_pairs": per_cycle(pairs),
        "locc.evaluate.ns_per_leaf_state": 1e9 * ratio(busy.get("locc.evaluate", 0.0), pairs),
        "locc.simulate.self_s": self_s("locc.simulate"),
        "locc.simulate.calls": n_calls("locc.simulate"),
        "locc.LoccProtocol.validate.self_s": self_s("locc.LoccProtocol.validate"),
        "locc.two_state_protocol.self_s": self_s("locc.two_state_protocol"),
        "locc.two_state_protocol.calls": n_calls("locc.two_state_protocol"),
        "locc.two_state_protocol.failed": per_cycle(failed.get("locc.two_state_protocol", 0)),
        "locc.one_way_protocol.self_s": self_s("locc.one_way_protocol"),
        "locc.standard_bell_protocol.self_s": self_s("locc.standard_bell_protocol"),
        "qstate.state_from_matrix.self_s": self_s("qstate.state_from_matrix"),
        "bounds.verdict.self_s": self_s("bounds.verdict"),
        "bounds.success_upper_bounds.self_s": self_s("bounds.success_upper_bounds"),
        "bounds.entropy_bound_bits.self_s": self_s("bounds.entropy_bound_bits"),
        "bounds.lambda_max.calls_per_verdict": ratio(calls.get("bounds.lambda_max", 0), calls.get("bounds.verdict", 0)),
        "qstate.schmidt.calls": n_calls("qstate.schmidt"),
        "qstate.schmidt.self_s": self_s("qstate.schmidt"),
        "bounds.synth_builder.calls": per_cycle(len(attempts)),
        "bounds.synth_builder.failed": per_cycle(sum(1 for a in attempts if not a[3])),
        "bounds.synth_builder.failed_s": per_cycle(sum(a[2] - a[1] for a in attempts if not a[3])),
        "bounds.synth_useful_ratio": ratio(useful, len(attempts)),
        "synth.pairwise_product_eigenbases.self_s": self_s("synth.pairwise_product_eigenbases"),
        "synth.pairwise_product_eigenbases.calls_per_cub_attempt": ratio(sum(per_hit), len(per_hit)),
        "synth.pairwise_product_eigenbases.calls_per_cub_miss": ratio(sum(per_miss), len(per_miss)),
        "synth.default_cub_candidates.self_s": self_s("synth.default_cub_candidates"),
        "ensembles.mub_prime.calls": n_calls("ensembles.mub_prime"),
        "ensembles.mub_prime.self_s": self_s("ensembles.mub_prime"),
        "synth.find_cub.self_s": self_s("synth.find_cub"),
        "ensembles.common_unbiased_basis_check.calls": n_calls("ensembles.common_unbiased_basis_check"),
        "ensembles.common_unbiased_basis_check.hit_ratio": ratio(cub_hits, calls.get("ensembles.common_unbiased_basis_check", 0)),
        "synth.synthesize_cub_protocol.self_s": self_s("synth.synthesize_cub_protocol"),
        "synth.synthesize_three_qutrit_protocol.self_s": self_s("synth.synthesize_three_qutrit_protocol"),
        "synth.OneWayProtocolSpec.as_protocol.self_s": self_s("synth.OneWayProtocolSpec.as_protocol"),
        "qstate.normal_eigensystem.calls": n_calls("qstate.normal_eigensystem"),
        "qstate.normal_eigensystem.self_s": self_s("qstate.normal_eigensystem"),
        "ensembles.from_descriptor.self_s": self_s("ensembles.from_descriptor"),
        "ensembles.StateEnsemble.is_orthogonal.self_s": self_s("ensembles.StateEnsemble.is_orthogonal"),
        "serial.ensemble_from_json.self_s": self_s("serial.ensemble_from_json"),
        "serial.protocol_from_json.self_s": self_s("serial.protocol_from_json"),
        "serial.to_json.self_s": sum(self_s(n) for n in TO_JSON),
        "cli.main.self_s": self_s("cli.main"),
    }
