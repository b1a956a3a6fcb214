"""Shared pieces of the benchmark: paths, the span tracer, the environment
record, process-level measurements and small statistics helpers.

Nothing here imports coverkit; :func:`load_coverkit` puts the checkout's
``src`` directory on ``sys.path`` and fails loudly when it is missing, so
the benchmark never measures an installed copy by accident.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources)."""


def load_coverkit() -> None:
    """Make ``import coverkit`` resolve to this checkout's sources."""
    if not (SRC / "coverkit" / "__init__.py").is_file():
        raise SetupError(f"no coverkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def seconds_since_process_start() -> float:
    """Elapsed time since this process was created, interpreter start-up
    included. Linux exposes the start time in clock ticks since boot; where
    that is unavailable, fall back to the time since the interpreter began.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])  # field 22 of stat(5), after pid and comm
        ticks = os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / ticks
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _INTERPRETER_T0


_INTERPRETER_T0 = time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of the whole machine from /proc/stat.

    Steal is time the hypervisor gave the machine's virtual CPUs to
    someone else; a run that saw much of it ran slow for reasons outside
    the program, which the run record makes visible.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


# -- tracing ------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    trace: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans: name, start, end, the span that caused it, and the
    round (trace id) it belongs to. Spans are written out once, at the end.

    A disabled tracer records nothing; the untraced run uses one, so the
    code paths of the two runs are the same.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.trace_id = 0

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs)

    def wrap(self, module, attr: str, name: str):
        """Replace ``module.attr`` by a spanned wrapper; returns an undo."""
        original = getattr(module, attr)
        if not self.enabled:
            return lambda: None

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        return lambda: setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name and s.end is not None]

    def self_times(self, name: str) -> list[float]:
        """Duration of each ``name`` span minus the time its children cover."""
        out = []
        for span in self.spans:
            if span.name != name or span.end is None:
                continue
            covered = sum(
                c.duration for c in self.spans
                if c.parent == span.span_id and c.end is not None
            )
            out.append(span.duration - covered)
        return out

    def dump(self, path: Path) -> None:
        payload = [
            {
                "id": s.span_id, "name": s.name, "trace": s.trace,
                "parent": s.parent, "start": s.start, "end": s.end,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs
        self.t0 = 0.0
        self.span = None

    def __enter__(self):
        tracer = self.tracer
        if tracer.enabled:
            parent = tracer._stack[-1].span_id if tracer._stack else None
            self.span = Span(
                len(tracer.spans), self.name, time.perf_counter(), None,
                parent, tracer.trace_id, dict(self.attrs),
            )
            tracer.spans.append(self.span)
            tracer._stack.append(self.span)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if self.span is not None:
            self.span.end = time.perf_counter()
            self.tracer._stack.pop()
        return False


# -- environment ----------------------------------------------------------------


def environment(workers: int | None) -> dict:
    """How a number was made: interpreter, libraries, BLAS, threads, cores."""
    import numpy as np
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {
            "name": info.get("name"),
            "version": info.get("version"),
            "openblas_configuration": info.get("openblas configuration"),
        }
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "machine": platform.machine(),
    }
