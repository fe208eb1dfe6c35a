"""Outside-in tracer: wraps each layer's public functions from outside.

install() replaces every module-level public function of the traced
flagspec modules with a wrapper that records a span, at every binding
site: the defining module, the package namespace, and every other
flagspec module that imported the name (flagspec.reporting.canonical_form,
flagspec.cli.verify_spectrum, ...).  Methods are not wrapped, so their time
counts toward the function that called them.  uninstall() restores the
originals; untraced runs never call install().

A span is [name, layer, start, end, parent index, size], held in memory.
size is computed from the call's inputs for the functions whose counts are
reported (vertices, flags, graph6 bytes); it is 0 otherwise.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "designs", "flag_graphs", "graphs", "isomorphism", "spectra",
    "polynomials", "regularity", "reporting", "catalog", "cli",
)


def _n(args) -> int:
    return args[0].n


def _flags(args) -> int:
    return sum(len(block) for block in args[0].blocks)


def _graph6_len(n: int) -> int:
    header = 1 if n <= 62 else 4
    return header + (n * (n - 1) // 2 + 5) // 6


def _graph6_in(args) -> int:
    text = args[0]
    if isinstance(text, str):
        text = text.encode("ascii")
    text = text.strip()
    if text.startswith(b">>graph6<<"):
        text = text[len(b">>graph6<<"):]
    return len(text)


SIZES = {
    "isomorphism.canonical_form": _n,
    "spectra.char_poly": _n,
    "regularity.classify": _n,
    "flag_graphs.gamma1": _flags,
    "flag_graphs.gamma2": _flags,
    "graphs.graph_to_graph6": lambda args: _graph6_len(args[0].n),
    "graphs.graph_from_graph6": _graph6_in,
}


class TraceError(RuntimeError):
    """The trace disagrees with what the benchmark knows independently."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sz = size(args) if size else 0
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1, sz])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise TraceError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "flagspec" or key.startswith("flagspec."))
        ]
        sites: dict[int, list[tuple[object, str]]] = {}
        for m in modules:
            for attr, value in vars(m).items():
                if inspect.isfunction(value):
                    sites.setdefault(id(value), []).append((m, attr))
        originals = []
        for layer in LAYERS:
            mod = sys.modules.get(f"flagspec.{layer}")
            if mod is None:
                raise TraceError(f"flagspec.{layer} is not imported")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}", layer)
                originals.append(fn)
                for owner, site in sites[id(fn)]:
                    setattr(owner, site, wrapper)
                    self._patched.append((owner, site, fn))
        # an original still reachable from a module would drop spans silently
        ids = {id(fn) for fn in originals}
        for m in modules:
            for attr, value in vars(m).items():
                if id(value) in ids:
                    self.uninstall()
                    raise TraceError(f"{m.__name__}.{attr} still unwrapped")

    def uninstall(self) -> None:
        for owner, site, fn in reversed(self._patched):
            setattr(owner, site, fn)
        self._patched.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise TraceError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict:
    """Per-function calls, self time, total time and summed sizes, and
    per-layer self time.  Self time is a span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, size in spans:
        if parent >= 0:
            child[parent] += end - start
    funcs: dict[str, dict] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for i, (name, layer, start, end, parent, size) in enumerate(spans):
        self_s = (end - start) - child[i]
        f = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "size": 0, "max_size": 0, "top_s": 0.0})
        f["calls"] += 1
        f["self_s"] += self_s
        f["total_s"] += end - start
        f["size"] += size
        if size > f["max_size"]:
            f["max_size"], f["top_s"] = size, 0.0
        if size == f["max_size"]:
            f["top_s"] += end - start
        layers[layer] += self_s
    return {"functions": funcs, "layers": layers}
