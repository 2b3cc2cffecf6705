"""In-memory spans around the calls into each engellab module.

A span records its name, start, end, parent span, thread and experiment id;
spans stay in memory and are written when the run ends.  A layer's self time
is its duration minus the part of that interval its child spans cover.

`install` wraps the public functions by rebinding their names in every
engellab module namespace that holds them: `dispersion` and `wavepacket`
import `solve_lowest`, `spectral_data` and `reduced_resolvent_solve` by
value, so wrapping `spectral.*` alone would miss their calls.  The library
files are not changed.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    exp: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of the process.

    A thread with no open span (a worker of the dispersion sweep's pool)
    parents its spans to the innermost span open in the thread that began
    the current experiment.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._exp_id: str | None = None
        self._exp_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._exp_stack[-1] if self._exp_stack else None
        span = Span(name, parent=parent, thread=threading.get_ident(),
                    exp=self._exp_id, attrs=attrs or {})
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    @contextmanager
    def experiment(self, exp_id: str, name: str):
        """Span of one experiment; spans of any thread inside carry its id."""
        self._exp_id = exp_id
        self._exp_stack = self._stack()
        try:
            with self.span(name):
                yield
        finally:
            self._exp_id = None
            self._exp_stack = []

    def wrap(self, name: str, fn: Callable,
             attrs: Callable[[tuple, dict], dict] | None = None,
             result: Callable[[object], dict] | None = None) -> Callable:
        """fn inside a span; `attrs` labels it from the arguments, `result`
        from the return value."""

        def label(args, kwargs) -> dict | None:
            try:
                return attrs(args, kwargs) if attrs else None
            except (AttributeError, IndexError, KeyError, TypeError):
                return None  # the call itself reports a bad signature

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name, label(args, kwargs))
            try:
                out = fn(*args, **kwargs)
                if result:
                    self.spans[idx].attrs.update(result(out))
                return out
            finally:
                self.end(idx)

        return wrapper

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a scratch tracer."""
        scratch = Tracer()
        wrapped = scratch.wrap("calibration", _identity)
        costs = []
        for _ in range(5):
            t = time.perf_counter()
            for i in range(calls):
                _identity(i)
            bare = time.perf_counter() - t
            t = time.perf_counter()
            for i in range(calls):
                wrapped(i)
            costs.append((time.perf_counter() - t - bare) / calls)
            scratch.spans.clear()
        return min(costs)

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for a, b in sorted(
                (max(self.spans[c].start, s.start), min(self.spans[c].end, s.end))
                for c in children[i]
            ):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(s.duration - covered)
        return out


def _identity(x):
    return x


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every engellab layer the workloads reach."""
    import numpy as np

    from engellab import algebra, cli, dispersion, fourier, spectral, wavepacket

    modules = (algebra, cli, dispersion, fourier, spectral, wavepacket)

    # a layer the library no longer has reports zero calls
    def rebind(module, name: str, attrs=None, result=None) -> None:
        orig = getattr(module, name, None)
        if orig is None:
            return
        wrapped = tracer.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{name}", orig,
                              attrs, result)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    def eigen_attrs(args, kwargs):
        op = args[0] if args else kwargs["op"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        return {"k": int(k), "N": int(op.grid.N)}

    rebind(spectral, "eigen_lowest", eigen_attrs)
    for name in ("solve_lowest", "spectral_data", "choose_box", "reduced_resolvent_solve"):
        rebind(spectral, name)
    rebind(dispersion, "critical_points",
           lambda args, kwargs: {"n": int(args[0] if args else kwargs["n"])},
           lambda reports: {"roots": len(reports)})
    rebind(dispersion, "curvature_consistency")
    for name in ("ansatz_values", "residual", "transport_demo",
                 "second_microlocal_profile_demo"):
        rebind(wavepacket, name)
    for name in ("matrix_coefficient", "rep_apply", "plancherel_calibrate"):
        rebind(fourier, name)
    for name in ("pbw_normal_form", "multiply", "bracket"):
        rebind(algebra, name)
    rebind(cli, "run")

    for cls, method, name, attrs in (
        (getattr(fourier, "Factor1D", None), "transform", "fourier.Factor1D.transform",
         lambda args, kwargs: {"frequencies": int(np.size(args[1]))}),
        (getattr(algebra, "PBWPolynomial", None), "__mul__", "algebra.PBWPolynomial.mul",
         None),
    ):
        if cls is not None and hasattr(cls, method):
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), attrs))

    # coef_batch is a method of the object machinery() returns; wrap it on
    # each new object, and call a machinery() that returns a known object a hit
    built = weakref.WeakSet()
    orig_machinery = getattr(wavepacket, "machinery", None)
    if orig_machinery is None:
        return

    @functools.wraps(orig_machinery)
    def machinery(spec):
        idx = tracer.begin("wavepacket.machinery")
        try:
            m = orig_machinery(spec)
            hit = m in built
            tracer.spans[idx].attrs["hit"] = hit
            if not hit and hasattr(m, "coef_batch"):
                built.add(m)
                m.coef_batch = tracer.wrap(
                    "wavepacket.coef_batch", m.coef_batch,
                    lambda args, kwargs: {"points": len(args[0])},
                )
            return m
        finally:
            tracer.end(idx)

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig_machinery:
                setattr(mod, attr, machinery)
