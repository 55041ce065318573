"""In-memory spans around the public functions of each alliancekit module.

A ``Tracer`` swaps every module attribute that holds a traced function for
a wrapper, so calls made inside the package (``audit`` calling
``phi_value``, ``phi`` calling ``enumerate_minimal_alliances``) cross a
span as well as calls from the benchmark.  ``restore`` puts the original
objects back.  Spans are recorded only while an enclosing span is open,
so verification code that runs between jobs leaves no trace.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "alliancekit"


def _family_size(args, result) -> dict:
    g = args[0]
    return {"masks": 1 << g.n, "members": len(result)}


def _audit_checks(args, result) -> dict:
    return {"theorem": args[0], "checks": result.checks}


#: (module, function, annotate(args, result) -> span attributes or None)
TARGETS = (
    ("graph", "cartesian_product", None),
    ("graph", "independence_number", None),
    ("graph", "read_edge_list", None),
    ("freesets", "is_free_set", None),
    ("freesets", "enumerate_minimal_alliances", _family_size),
    ("phi", "phi", None),
    ("phi", "phi_value", None),
    ("products", "build_witness", None),
    ("audit", "audit", _audit_checks),
    ("cli", "main", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Open a span; the yielded dict collects its attributes."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += record.duration

    def _wrap(self, name: str, fn, annotate):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(args, result))
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every package-level reference to each traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, func_name, annotate in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name)
            wrappers[id(original)] = self._wrap(f"{module_name}.{func_name}", original, annotate)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds: a wrapped no-op under an open span,
    minus the bare no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop, None)
    with tracer.span("root"):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    return max(traced - bare, 0.0) / calls


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.self_time
    return out


def layer_report(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts from one traced round.

    Every ``_s`` value is a self time (span minus its traced children)
    except ``audit.<theorem>_s`` and ``job.*_s``, which are whole spans.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1

    enum = [s for s in spans if s.name == "freesets.enumerate_minimal_alliances"]
    masks = sum(s.attrs.get("masks", 0) for s in enum)
    enum_s = own.get("freesets.enumerate_minimal_alliances", 0.0)
    value_spans = [i for i, s in enumerate(spans) if s.name == "phi.phi_value"]
    missed = {s.parent for s in enum if s.parent is not None}
    misses = sum(1 for i in value_spans if i in missed)
    hits = len(value_spans) - misses

    report = {
        "freesets.enumerate_s": enum_s,
        "freesets.enumerate_calls": len(enum),
        "freesets.masks_swept": masks,
        "freesets.ns_per_mask": enum_s * 1e9 / masks if masks else 0.0,
        "freesets.family_members": sum(s.attrs.get("members", 0) for s in enum),
        "freesets.is_free_set_s": own.get("freesets.is_free_set", 0.0),
        "freesets.is_free_set_calls": calls.get("freesets.is_free_set", 0),
        "phi.solve_s": own.get("phi.phi", 0.0) + own.get("phi.phi_value", 0.0),
        "phi.phi_calls": calls.get("phi.phi", 0),
        "phi.phi_value_calls": len(value_spans),
        "phi.cache_hits": hits,
        "phi.cache_misses": misses,
        "phi.cache_hit_ratio": hits / len(value_spans) if value_spans else 0.0,
        "products.build_witness_s": own.get("products.build_witness", 0.0),
        "products.build_witness_calls": calls.get("products.build_witness", 0),
        "audit.self_s": own.get("audit.audit", 0.0),
        "audit.checks": sum(s.attrs.get("checks", 0) for s in spans if s.name == "audit.audit"),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.calls": calls.get("cli.main", 0),
    }
    for fn in ("cartesian_product", "independence_number", "read_edge_list"):
        report[f"graph.{fn}_s"] = own.get(f"graph.{fn}", 0.0)
        report[f"graph.{fn}_calls"] = calls.get(f"graph.{fn}", 0)
    for s in spans:
        if s.name == "audit.audit":
            key = f"audit.{s.attrs.get('theorem', 'failed')}_s"
            report[key] = report.get(key, 0.0) + s.duration
        elif s.parent is None:
            report[f"{s.name}_s"] = report.get(f"{s.name}_s", 0.0) + s.duration
    return report
