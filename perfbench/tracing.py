"""Spans and counters around gtdkit's layer entry points, for the traced run.

The tracer replaces public functions of `fundeq`, `geometry`, `analysis` and
`cli` (module attributes, or class attributes for methods) with wrappers that
record a span per call: name, start, end, thread, parent span and run id.
Nothing under `src/` is changed; the wrappers are installed only while a
traced scan runs and are removed afterwards, so untraced runs pay nothing.

- The span stack is thread-local, because `grid_scan` evaluates points on a
  thread pool. A span that opens on an empty stack in another thread takes
  as parent the innermost open span of the thread that started the run.
- `fundeq.eval_jet` is recursive; only its outermost call is recorded.
- `Jet` constructions and multiplications are counted by wrapping the class.
- The report writer is timed around `cli._emit`; the CLI has no public one.
- A wrapped name that no longer exists raises at install time, so a refactor
  never reports a silent zero.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass

# (owner path, attribute, span name, outermost call only)
ENTRY_POINTS = (
    ("cli", "main", "cli.main", False),
    ("cli", "_emit", "cli.report", False),
    ("analysis", "grid_scan", "analysis.grid_scan", False),
    ("analysis", "find_singular_locus", "analysis.find_singular_locus", False),
    ("analysis", "fit_divergence_exponent", "analysis.fit", False),
    ("geometry", "scalar_curvature", "geometry.scalar_curvature", False),
    ("geometry", "metric_determinant", "geometry.metric_determinant", False),
    ("geometry.HessianMetricField", "component_jets", "geometry.component_jets", False),
    ("geometry.DirectMetricField", "component_jets", "geometry.component_jets", False),
    ("fundeq", "evaluate", "fundeq.evaluate", False),
    ("fundeq", "eval_jet", "fundeq.eval_jet", True),
)

# spans whose return value the metrics read; other results are not kept alive
KEEP_RESULT = {"analysis.grid_scan", "analysis.find_singular_locus", "analysis.fit"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    result: object = None
    args: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._anchor: list[Span] = []  # span stack of the thread that started the run
        self._counters: list[list[int]] = []  # per thread: [jet allocs, jet muls]
        self._counters_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- thread-local state ----------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.outermost = set()
            return self._local.stack

    def _thread_counters(self) -> list[int]:
        try:
            return self._local.counters
        except AttributeError:
            counters = [0, 0]
            with self._counters_lock:
                self._counters.append(counters)
            self._local.counters = counters
            return counters

    def jet_counts(self) -> tuple[int, int]:
        with self._counters_lock:
            return sum(c[0] for c in self._counters), sum(c[1] for c in self._counters)

    # -- wrapping --------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, outermost_only: bool):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if outermost_only:
                active = tracer._local.outermost
                if name in active:
                    return fn(*args, **kwargs)
                active.add(name)
            if stack:
                parent = stack[-1].id
            elif tracer._anchor:
                parent = tracer._anchor[-1].id
            else:
                parent = None
            span = Span(next(tracer._ids), parent, name, threading.get_ident(), 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if outermost_only:
                    active.discard(name)
                tracer.spans.append(span)
            if name in KEEP_RESULT:
                span.result = result
            elif name == "cli.report":
                span.args = args
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every entry point; call from the thread that runs the scan."""
        import gtdkit.analysis
        import gtdkit.cli
        import gtdkit.fundeq
        import gtdkit.geometry
        from gtdkit.jets import Jet

        modules = {
            "cli": gtdkit.cli,
            "analysis": gtdkit.analysis,
            "geometry": gtdkit.geometry,
            "fundeq": gtdkit.fundeq,
        }
        try:
            for path, attr, name, outermost in ENTRY_POINTS:
                owner = modules[path.split(".")[0]]
                for part in path.split(".")[1:]:
                    owner = _lookup(owner, part, path)
                fn = _lookup(owner, attr, path)
                self._replace(owner, attr, self._span_wrapper(fn, name, outermost))
            self._count_jets(Jet)
            self._anchor = self._stack()
        except BaseException:
            self.uninstall()
            raise

    def _count_jets(self, jet_cls) -> None:
        tracer = self
        init = _lookup(jet_cls, "__init__", "jets.Jet")

        def counted_init(self, *args, **kwargs):
            tracer._thread_counters()[0] += 1
            init(self, *args, **kwargs)

        self._replace(jet_cls, "__init__", counted_init)
        for attr in ("__mul__", "__rmul__"):
            mul = _lookup(jet_cls, attr, "jets.Jet")

            def counted_mul(self, other, _mul=mul):
                tracer._thread_counters()[1] += 1
                return _mul(self, other)

            self._replace(jet_cls, attr, counted_mul)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _lookup(owner, attr: str, path: str):
    # own attributes only: a method inherited from a base class would be
    # wrapped on the wrong class
    try:
        return vars(owner)[attr]
    except KeyError:
        raise RuntimeError(
            f"traced entry point {path}.{attr} no longer exists; update perfbench/tracing.py"
        ) from None


# -- per-layer metrics -----------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced scan run."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.seconds for s in named(name))

    def self_time(name: str) -> float:
        return sum(
            s.seconds - sum(c.seconds for c in children.get(s.id, ())) for s in named(name)
        )

    def under(span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    (scan,) = named("analysis.grid_scan")
    points = len(scan.result.status)
    point_spans = children.get(scan.id, [])
    threads = len({s.thread for s in point_spans}) or 1
    dets = named("geometry.metric_determinant")
    fits = named("analysis.fit")
    jet_allocs, jet_muls = tracer.jet_counts()
    return {
        "jets.jet_allocs": jet_allocs,
        "jets.mul_calls": jet_muls,
        "fundeq.evaluate.calls": len(named("fundeq.evaluate")),
        "fundeq.evaluate.s": total("fundeq.evaluate"),
        "fundeq.eval_jet.calls": len(named("fundeq.eval_jet")),
        "fundeq.eval_jet.s": total("fundeq.eval_jet"),
        "geometry.component_jets.calls": len(named("geometry.component_jets")),
        "geometry.component_jets.s": total("geometry.component_jets"),
        "geometry.component_jets.self_s": self_time("geometry.component_jets"),
        "geometry.metric_determinant.calls": len(dets),
        "geometry.metric_determinant.s": total("geometry.metric_determinant"),
        "geometry.scalar_curvature.calls": len(named("geometry.scalar_curvature")),
        "geometry.scalar_curvature.s": total("geometry.scalar_curvature"),
        "geometry.scalar_curvature.self_s": self_time("geometry.scalar_curvature"),
        "analysis.grid_scan.s": scan.seconds,
        "analysis.grid_scan.points": points,
        "analysis.grid_scan.marked": sum(1 for s in scan.result.status if s != "ok"),
        "analysis.grid_scan.threads": threads,
        "analysis.find_singular_locus.s": total("analysis.find_singular_locus"),
        "analysis.find_singular_locus.det_evals": sum(
            1 for s in dets if under(s, "analysis.find_singular_locus")
        ),
        "analysis.roots": sum(len(s.result) for s in named("analysis.find_singular_locus")),
        "analysis.det_evals_per_point": len(dets) / points,
        "analysis.fit.s": total("analysis.fit"),
        "analysis.fit.samples": sum(s.result.samples for s in fits),
        "cli.report.s": total("cli.report"),
        "cli.report.bytes": sum(_output_bytes(s.args) for s in named("cli.report")),
    }


def _output_bytes(emit_args: tuple) -> int:
    output = emit_args[0].output
    return os.path.getsize(output) if output else 0


SPAN_COLUMNS = ("id", "parent", "name", "thread", "start", "end")


def span_rows(tracer: Tracer) -> list[list]:
    """Spans as rows of SPAN_COLUMNS, in start order, for writing out after the run."""
    return [
        [s.id, s.parent, s.name, s.thread, s.start, s.end]
        for s in sorted(tracer.spans, key=lambda s: s.start)
    ]
