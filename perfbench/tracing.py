"""Spans around torsionlab's public functions, recorded by wrappers that
the benchmark installs; the program itself is not changed.

A function is wrapped in every `torsionlab` module namespace that binds it,
because modules import each other's functions by name: wrapping
`steenrod.adem_normalize` alone would miss the calls made from `modules`.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _oracle_name(args, kwargs) -> str:
    return "oracle.p2" if args[0].prime == 2 else "oracle.odd"


def _count_terms(result) -> int:
    return len(result.terms)


def _count_items(result) -> int:
    return len(result)


def _total_dim(result) -> int:
    return result.total_dim


def _certified(result) -> int:
    return int(result.certified)


# module -> {function: (span name or name function, output measure or None)}
TRACED = {
    "torsionlab.steenrod": {
        "parse_expression": ("steenrod.parse_expression", None),
        "adem_normalize": ("steenrod.adem_normalize", _count_terms),
        "admissible_basis": ("steenrod.admissible_basis", _count_items),
    },
    "torsionlab.oracle": {
        "oracle_equal": (_oracle_name, None),
    },
    "torsionlab.modules": {
        "tensor": ("modules.tensor", _total_dim),
        "direct_sum": ("modules.direct_sum", None),
        "consistency_check": ("modules.consistency_check", _count_items),
        "act_element": ("modules.act_element", None),
        "is_decomposable": ("modules.is_decomposable", _certified),
    },
    "torsionlab.stems": {
        name: ("stems", None)
        for name in ("stems", "moore_homotopy", "moore_endomorphisms",
                     "associator_obstruction")
    },
    "torsionlab.exotic": {
        name: (f"exotic.{name}", None)
        for name in ("verify_axioms", "in_distinguished_class", "is_isomorphic",
                     "general_linear", "check_TR1_cone",
                     "two_order_zero_certificate")
    },
    "torsionlab.scenarios": {
        name: ("scenarios", None)
        for name in ("run_all", "scenario_prop2", "scenario_prop3",
                     "scenario_prop5", "scenario_prop6", "scenario_exotic")
    },
}


class Tracer:
    """Records (name, start, end, parent id, output measure) per span while
    enabled; spans nest strictly because the benchmark runs one thread."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._replaced: list[tuple] = []

    def install(self) -> int:
        """Wrap every traced function wherever a torsionlab module binds it;
        returns the number of bindings replaced."""
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[module_name]
            for fn_name, (name, measure) in functions.items():
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrap(original, name, measure))
        for module_name, module in list(sys.modules.items()):
            if module_name != "torsionlab" and not module_name.startswith("torsionlab."):
                continue
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attr, found[1])
                    self._replaced.append((module, attr, value))
        return len(self._replaced)

    def uninstall(self) -> None:
        for module, attr, original in self._replaced:
            setattr(module, attr, original)
        self._replaced.clear()

    def _wrap(self, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            return tracer.call(span_name, measure, fn, *args, **kwargs)

        return wrapper

    def call(self, name, measure, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[sid] = (name, start, end, parent, None)
        if measure is not None:
            spans[sid] = (name, start, end, parent, measure(result))
        return result

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and the sum of its output
        measure.  Self time is duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, value), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "out": 0})
            row["calls"] += 1
            row["self_s"] += (end - start) - inner
            if value is not None:
                row["out"] += value
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: id, name, start, end, parent id."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(start, 9), round(end, 9), parent]))
                fh.write("\n")
