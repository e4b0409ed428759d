"""Span tracer that wraps the program's public functions from the outside.

Every public function of a layer module (``stpnrca.<layer>``) is replaced,
in every ``stpnrca`` namespace that refers to it, by a wrapper that records
a span: name, start, end, parent span and operation id. Because each
calling module looks its callees up in its own globals, spans nest exactly
as the program makes its calls, and no program file changes. ``uninstall``
puts every original object back.

Spans stay in memory until :meth:`Tracer.write`; :func:`self_times` and
:func:`aggregate` turn them into per-layer numbers.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "synth",
    "timeseries",
    "symbolic",
    "stpn",
    "rbm",
    "switching",
    "association",
    "nodes",
    "persist",
    "pipeline",
    "cli",
)
PACKAGE = "stpnrca"


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _count_windows(c, args, kwargs, result):
    c["stpn.scan_windows.windows"] += len(result.starts)


def _count_rows(c, args, kwargs, result):
    v = _arg(args, kwargs, 1, "v")
    c["rbm.free_energy.rows"] += 1 if getattr(v, "ndim", 1) == 1 else len(v)


def _count_steps(c, args, kwargs, result):
    c["switching.s3_steps"] += len(result.trace) - 1


def _count_examples(c, args, kwargs, result):
    c["association.examples"] += result.n_examples


def _count_saved(c, args, kwargs, result):
    c["persist.bundle_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_read(c, args, kwargs, result):
    c["timeseries.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Work counters taken from a call's arguments and result, outside its span.
COUNTERS = {
    "stpn.scan_windows": _count_windows,
    "rbm.free_energy": _count_rows,
    "switching.s3_search": _count_steps,
    "association.generate_artificial_anomalies": _count_examples,
    "persist.save_stpn": _count_saved,
    "persist.save_rbm": _count_saved,
    "persist.save_mlp": _count_saved,
    "timeseries.read_csv": _count_read,
    "timeseries.read_tep_csv": _count_read,
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions in every package namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layer_modules = {f"{PACKAGE}.{layer}" for layer in LAYERS}
        wrappers: dict[int, object] = {}
        namespaces = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ in layer_modules
                    and not obj.__name__.startswith("_")
                ):
                    if id(obj) not in wrappers:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: str) -> None:
        """Gzipped tab-separated spans: index, parent, op, name, start and end
        in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\top\tname\tstart_us\tend_us\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are merged first, so no instant is subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans, counters) -> dict[str, float]:
    """`<layer>.<func>.s`, `.self_s` and `.calls` for every span name.

    Inclusive seconds count only outermost spans of a name, so a function
    reached again inside itself is not counted twice.
    """
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.s"] += end - start
    out.update(counters)
    return dict(out)
