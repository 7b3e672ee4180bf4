"""Spans recorded from outside the program, around calls into its layers.

The starwaves modules import each other with ``from .x import y``, so a
call from ``harness`` to ``direct_solve`` looks the name up in the
``harness`` namespace.  A wrapper therefore replaces the name in every
*calling* module's namespace, and ``installed()`` puts the original
functions back afterwards, so untraced iterations run the program as it is.

Spans live in memory until the run ends.  Every wrapped call runs on the
one thread of the worker, so the spans of one iteration nest strictly and
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, attribute, modules that call it by that name)
TARGETS = (
    ("cli.main", "cli", "main", ("cli",)),
    ("harness.convergence_sweep", "harness", "convergence_sweep",
     ("harness", "cli")),
    ("expansion.build_expansion", "expansion", "build_expansion",
     ("expansion", "harness", "cli")),
    ("direct.direct_solve", "direct", "direct_solve", ("harness", "cli")),
    ("expansion.assemble_partial_sum", "expansion", "assemble_partial_sum",
     ("harness",)),
    ("expansion.residuals", "expansion", "residuals", ("harness",)),
    ("harness.norms", "harness", "norms", ("harness",)),
    ("layers.sample_physical", "layers", "sample_physical", ("expansion",)),
    ("layers.qp_solve", "layers", "qp_solve", ("expansion",)),
    ("limit.solve_g0", "limit", "solve_g0", ("expansion",)),
    ("limit.solve_degenerate_edge", "limit", "solve_degenerate_edge",
     ("expansion",)),
    ("limit.solve_cauchy_recursive", "limit", "solve_cauchy_recursive",
     ("expansion",)),
)

ROOT = "bench"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    iteration: int
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def record(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name,
                "start": self.start - t0, "end": self.end - t0,
                "parent": self.parent, "workload": self.workload,
                "iteration": self.iteration, "attrs": self.attrs}


def _direct_attrs(sp, args, kwargs, fld) -> dict:
    g = fld.grid
    return {"nodes": sum((n + 1) * (g.steps + 1) for n in g.n_cells),
            "field_bytes": sum(u.nbytes for u in fld.edges) + fld.sigma.nbytes}


def _qp_attrs(sp, args, kwargs, fld) -> dict:
    return {"label": args[0].label, "nodes": int(fld.values.size),
            "bytes": int(fld.values.nbytes)}


def _build_attrs(sp, args, kwargs, es) -> dict:
    terms = term_records(es, sp)
    inside, total = support_counts(es)
    return {"order": es.order, "terms": terms,
            "term_bytes": sum(t["bytes"] for t in terms),
            "support_inside": inside, "support_total": total}


_ATTRS = {
    "direct.direct_solve": _direct_attrs,
    "layers.qp_solve": _qp_attrs,
    "expansion.build_expansion": _build_attrs,
}


class Tracer:
    """In-memory span recorder for the traced iterations of one run."""

    def __init__(self, workload: str):
        self.modules = {m: importlib.import_module(f"starwaves.{m}")
                        for _, home, _, callers in TARGETS
                        for m in (home, *callers)}
        self.workload = workload
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.iteration = -1
        self.missing: list[str] = []

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0,
                  parent.id if parent else None, self.workload,
                  self.iteration)
        self.spans.append(sp)
        if parent is not None:
            parent.children.append(sp)
        self.stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if attrs is not None:
                sp.attrs.update(attrs(sp, args, kwargs, out))
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, home, attr, callers in TARGETS:
                fn = getattr(self.modules[home], attr, None)
                if fn is None:
                    self._missing(f"{home}.{attr}")
                    continue
                wrapper = self._wrap(name, fn)
                for c in callers:
                    mod = self.modules[c]
                    if getattr(mod, attr, None) is not fn:
                        self._missing(f"{c}.{attr}")
                        continue
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _missing(self, where: str) -> None:
        if where not in self.missing:
            self.missing.append(where)
            print(f"trace: {where} is not the expected function; "
                  f"calls through it are not traced", file=sys.stderr)

    @contextlib.contextmanager
    def iteration_span(self, iteration: int):
        """Root span of one traced iteration; the timed region of it."""
        self.iteration = iteration
        sp = self._open(ROOT)
        try:
            yield sp
        finally:
            self._close(sp)

    def spans_of(self, iteration: int) -> list[Span]:
        return [s for s in self.spans if s.iteration == iteration]


def accounting(spans: list[Span]) -> dict:
    """Self time per span name; the self times sum to the root's duration."""
    root = next(s for s in spans if s.name == ROOT)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time
        total_s[s.name] = total_s.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    return {"wall_s": root.duration, "sum_self_s": sum(self_s.values()),
            "self_s": self_s, "total_s": total_s, "calls": calls}


# -- per-term record ---------------------------------------------------------

_LABEL = re.compile(r"^([vw])\[(?:P|s)=(\d+),e=(\d+)\]$")


def term_arrays(es) -> dict:
    """build_log key -> the arrays the ExpansionSet holds for that term."""
    out = {("U", 0, 0): [*es.g0_base.edges, es.g0_base.sigma]}
    for (r, l), fld in es.g0_corr.items():
        out[("U", r, l)] = [*fld.edges, fld.sigma]
    for (s, e), term in es.edge_terms.items():
        out[("u", s, e)] = [term.values]
    for (P, e), fld in es.vertex_layers.items():
        out[("v", P, e)] = [fld.values]
    for (s, e), fld in es.boundary_layers.items():
        out[("w", s, e)] = [fld.values]
    return out


def term_records(es, build: Span) -> list[dict]:
    """One entry per build_log key: dependencies, array bytes and seconds.

    Seconds are known where one public call builds one term: ``qp_solve``
    names its term in the problem label, and ``solve_g0``,
    ``solve_degenerate_edge`` and ``solve_cauchy_recursive`` run in
    build_log order for the U terms, the order-0 u terms and the even
    order >= 2 u terms.  Odd u terms are zero arrays built without a call.
    """
    arrays = term_arrays(es)
    seconds: dict[tuple, float] = {}
    for c in build.children:
        if c.name == "layers.qp_solve":
            m = _LABEL.match(c.attrs.get("label", ""))
            if m:
                seconds[(m.group(1), int(m.group(2)), int(m.group(3)))] = c.duration
    keys = [k for k, _ in es.build_log]
    families = (
        ("limit.solve_g0", [k for k in keys if k[0] == "U"]),
        ("limit.solve_degenerate_edge",
         [k for k in keys if k[0] == "u" and k[1] == 0]),
        ("limit.solve_cauchy_recursive",
         [k for k in keys if k[0] == "u" and k[1] >= 2 and k[1] % 2 == 0]),
    )
    for name, fam_keys in families:
        calls = [c for c in build.children if c.name == name]
        if len(calls) == len(fam_keys):
            seconds.update(zip(fam_keys, (c.duration for c in calls)))
    seen: set[int] = set()
    out = []
    for key, deps in es.build_log:
        nbytes = 0
        for a in arrays.get(key, []):
            if id(a) not in seen:
                seen.add(id(a))
                nbytes += a.nbytes
        out.append({"key": list(key), "deps": [list(d) for d in deps],
                    "bytes": nbytes, "seconds": seconds.get(key)})
    return out


def support_counts(es) -> tuple[int, int]:
    """Stored layer entries with xi <= t + 2h, and all stored layer entries.

    On the layer grid h = dt, so entry (i, j) lies in that band when
    i <= j + 2.  Counts come from the stored array shapes.
    """
    inside = total = 0
    for fld in (*es.vertex_layers.values(), *es.boundary_layers.values()):
        rows, cols = fld.values.shape
        total += rows * cols
        # columns j < k hold j + 3 band entries, the rest are all inside
        k = min(cols, max(0, rows - 2))
        inside += k * (k - 1) // 2 + 3 * k + (cols - k) * rows
    return inside, total


# -- per-layer metrics -------------------------------------------------------

# name -> unit; every name is emitted by every traced run, zero where the
# workload never enters that layer
LAYER_UNITS = {
    "layers.sample_physical.s": "s",
    "layers.sample_physical.calls": "count",
    "expansion.assemble_partial_sum.self_s": "s",
    "expansion.assemble_partial_sum.calls": "count",
    "layers.qp_solve.s": "s",
    "layers.qp_solve.calls": "count",
    "layers.qp_solve.nodes": "count",
    "limit.solve_g0.s": "s",
    "limit.solve_g0.calls": "count",
    "limit.solve_degenerate_edge.s": "s",
    "limit.solve_cauchy_recursive.s": "s",
    "limit.solve_cauchy_recursive.calls": "count",
    "expansion.build_expansion.self_s": "s",
    "expansion.terms": "count",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "direct.direct_solve.s": "s",
    "direct.direct_solve.calls": "count",
    "direct.nodes": "count",
    "direct.field_mb": "MB",
    "expansion.residuals.s": "s",
    "expansion.residuals.calls": "count",
    "harness.norms.s": "s",
    "harness.norms.calls": "count",
    "harness.convergence_sweep.self_s": "s",
    "expansion.term_mb": "MB",
    "layers.support_frac": "fraction",
    "harness.solve_cache_hit_frac": "fraction",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

MB = 1024.0 * 1024.0


def layer_metrics(spans: list[Span], cache, bytes_written: int) -> dict:
    """Per-layer metrics of one traced iteration (all but trace.overhead_s).

    ``.s`` is time inside calls and ``.self_s`` that time minus child
    spans.  Byte counts are computed from array sizes.  ``expansion.terms``
    counts every term built in the iteration and ``expansion.term_mb`` is
    the largest single ExpansionSet it held.
    """
    acc = accounting(spans)
    total, own, calls = acc["total_s"], acc["self_s"], acc["calls"]
    out = {}
    for name in LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = total.get(layer, 0.0)
        elif kind == "self_s":
            out[name] = own.get(layer, 0.0)
        elif kind == "calls":
            out[name] = calls.get(layer, 0)
    builds = [s.attrs for s in spans
              if s.name == "expansion.build_expansion" and s.attrs]
    solves = [s.attrs for s in spans
              if s.name == "direct.direct_solve" and s.attrs]
    inside = sum(b["support_inside"] for b in builds)
    stored = sum(b["support_total"] for b in builds)
    requests = cache.requests if cache is not None else 0
    out.update({
        "layers.qp_solve.nodes": sum(s.attrs.get("nodes", 0) for s in spans
                                     if s.name == "layers.qp_solve"),
        "expansion.terms": sum(len(b["terms"]) for b in builds),
        "expansion.term_mb": max((b["term_bytes"] for b in builds),
                                 default=0) / MB,
        "layers.support_frac": inside / stored if stored else 0.0,
        "cli.bytes_written": bytes_written,
        "direct.nodes": sum(s["nodes"] for s in solves),
        "direct.field_mb": sum(s["field_bytes"] for s in solves) / MB,
        "harness.solve_cache_hit_frac": (cache.hits / requests
                                         if requests else 0.0),
        "trace.wall_s": acc["wall_s"],
    })
    return out
