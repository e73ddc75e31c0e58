"""Thread-aware spans around the package's public functions.

The wrappers are installed from the benchmark, not from the package: every
module-level binding of a wrapped function in any ``rotor_spectra`` module is
replaced, because modules import each other's functions by name (``cli``
binds ``spectrum``, ``response`` binds ``eig_dense_complex``).  A span's self
time is its duration minus the durations of its child spans on the same
thread; work a span hands to a pool thread is not subtracted, so the waiting
stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

#: modules whose public functions are wrapped, by layer name
LAYER_MODULES = ("spectra", "zero_noise", "response", "oracle", "simulate", "writers")
#: the CLI layer is its entry point only; subcommand bodies count as its self time
CLI_FUNCTIONS = ("main",)


@dataclass
class Span:
    name: str
    call_id: object
    thread: int
    span_id: int
    parent: int | None
    start: float
    end: float
    self_s: float
    counts: dict = field(default_factory=dict)


def _n3(args, kwargs, result):
    matrix = kwargs.get("matrix", args[0] if args else None)
    n = len(matrix)
    return {"n3_sum": n ** 3}


def _cells(args, kwargs, result):
    op = kwargs.get("op", args[0] if args else None)
    return {"cells": int(op.matrix.shape[0])}


def _empty_rows(args, kwargs, result):
    return {"empty_rows": len(getattr(result, "flagged_rows", ()))}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    try:
        size = os.path.getsize(path)
    except (OSError, TypeError):
        size = 0
    return {"bytes": size, "files": 1}


def _cycle_mode(name, args, kwargs):
    op = kwargs.get("op", args[0] if args else None)
    return f"{name}.{getattr(op, 'mode', 'unknown')}"


#: extra counts per wrapped function: the keys it adds, and how they are
#: computed from its arguments and result
COUNTERS = {
    "spectra.eig_dense_complex": (("n3_sum",), _n3),
    "simulate.detect_cycles": (("cells",), _cells),
    "simulate.ulam_empirical": (("empty_rows",), _empty_rows),
}
WRITER_COUNTER = (("bytes", "files"), _file_bytes)
#: span names that depend on the arguments: the suffixes they can take, and the namer
NAMERS = {"simulate.detect_cycles": (("analytic", "empirical"), _cycle_mode)}


class Tracer:
    """Collects spans in memory; aggregate after the traced calls end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.call_id = None
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        #: every span name the installed wrappers can produce, with its count keys
        self.probes: dict[str, tuple[str, ...]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None, namer=None):
        """Return ``fn`` wrapped in a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]           # [id, child time on this thread]
            stack.append(frame)
            start = self.clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = self.clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                counts = counter(args, kwargs, result) if ok and counter else {}
                self.spans.append(Span(
                    name=namer(name, args, kwargs) if namer else name,
                    call_id=self.call_id, thread=threading.get_ident(),
                    span_id=span_id, parent=parent, start=start, end=end,
                    self_s=end - start - frame[1], counts=counts))

        return traced

    def install(self, package: str = "rotor_spectra") -> None:
        """Wrap the public functions of every layer and patch every binding."""
        if self._patches:
            return
        wrappers = {}
        for layer in LAYER_MODULES + ("cli",):
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if layer == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                name = f"{layer}.{attr}"
                keys, counter = (WRITER_COUNTER if name.startswith("writers.write_")
                                 else COUNTERS.get(name, ((), None)))
                suffixes, namer = NAMERS.get(name, ((), None))
                for span_name in [f"{name}.{s}" for s in suffixes] or [name]:
                    self.probes[span_name] = keys
                wrappers[id(obj)] = (obj, self.wrap(name, obj, counter, namer))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


def per_call(spans) -> dict:
    """Aggregate spans to ``{call_id: {name: {"calls", "self_s", counts...}}}``."""
    out: dict = {}
    for sp in spans:
        entry = out.setdefault(sp.call_id, {}).setdefault(sp.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += sp.self_s
        for key, value in sp.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out


def layer_metrics(calls, probes) -> dict:
    """Per-layer metrics from per-call aggregates, given in call order.

    Counts are those of the first call, so they repeat exactly for a seed;
    self times are medians over the calls.  ``writers`` sums every writer.
    ``probes`` (``Tracer.probes``) names every span the wrappers can produce;
    one that no call produced reads 0.
    """
    if not calls:
        raise ValueError("no traced calls")
    first = calls[0]
    names = sorted(set(probes) | {name for c in calls for name in c})
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        for key in probes.get(name, ()):
            out[f"{name}.{key}"] = 0
        out[f"{name}.self_s"] = statistics.median(c.get(name, {}).get("self_s", 0.0) for c in calls)
        for key, value in first.get(name, {}).items():
            if key != "self_s":
                out[f"{name}.{key}"] = value
    writers = [n for n in names if n.startswith("writers.")]
    out["writers.self_s"] = statistics.median(
        sum(c.get(n, {}).get("self_s", 0.0) for n in writers) for c in calls)
    for key in ("bytes", "files"):
        out[f"writers.{key}"] = sum(first.get(n, {}).get(key, 0) for n in writers)
    return out
