"""Span tracing around the public functions of weylsim's modules.

The tracer wraps functions from the benchmark's side: it replaces every
public module-level function of the layer modules (and a few methods of
the value types) with a wrapper that records a span (id, name, start, end,
thread, parent).  Spans stay in memory until the pass ends.  Work a
scenario hands to its thread pool is parented to the span that submitted
it, so sweep-worker spans hang under `run_dispersion`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("fockspace", "model", "evolve", "probe", "analyze", "scenarios", "cli")

# (class, attribute, span name); methods traced besides module functions
METHODS = (
    ("LinOp", "eigh", "fockspace.LinOp.eigh"),
    ("LinOp", "hermiticity_defect", "fockspace.LinOp.hermiticity_defect"),
    ("QState", "__init__", "fockspace.QState.init"),
)

# span-name groups whose outermost spans are summed into one time
GROUPS = {
    "fockspace.operators": (
        "fockspace.mode_lowering",
        "fockspace.number_operator",
        "fockspace.quadrature",
        "fockspace.pauli",
    ),
}


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, thread, parent)
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._eigh_seen = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn, hook=None):
        """A traced stand-in for fn; hook(args, kwargs, result) adds counters."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, threading.get_ident(), parent))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def add(self, key: str, value: float):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float):
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer modules of an imported weylsim package in place."""
        import importlib

        modules = {
            short: importlib.import_module(f"{package.__name__}.{short}")
            for short in LAYERS
        }
        replaced = {}  # id(original) -> wrapper
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, self._hook(name, obj))
        # rebind every module-level reference, including names imported
        # into other modules and the scenario runner table
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
        runners = getattr(modules["scenarios"], "RUNNERS", {})
        for key, fn in list(runners.items()):
            runners[key] = replaced.get(id(fn), fn)

        # a method or pool the program no longer has is left untraced; its
        # metrics then read 0
        fockspace = modules["fockspace"]
        for cls_name, attr, name in METHODS:
            original = getattr(getattr(fockspace, cls_name, None), attr, None)
            if original is None:
                continue
            hook = None
            if attr == "eigh":
                original, hook = self._eigh_probe(original), self._eigh_hook
            setattr(getattr(fockspace, cls_name), attr, self.wrap(name, original, hook))
        if hasattr(modules["scenarios"], "ThreadPoolExecutor"):
            modules["scenarios"].ThreadPoolExecutor = self._executor_class()

    def _eigh_probe(self, eigh):
        """Counts eigendecompositions computed, not served from the memo."""

        @functools.wraps(eigh)
        def probe(op):
            if "_eigh" not in op.__dict__:
                self.add("fockspace.LinOp.eigh.computed", 1)
            return eigh(op)

        return probe

    def _eigh_hook(self, args, kwargs, result):
        op = args[0]
        with self._lock:
            if op in self._eigh_seen:
                return
            self._eigh_seen.add(op)
        self.add("fockspace.LinOp.eigh.distinct_ops", 1)
        self.add("evolve.eigh_d3_sum", op.dim**3)

    def _hook(self, name: str, fn):
        if name in ("evolve.evolve_unitary", "evolve.evolve_lindblad"):
            signature = inspect.signature(fn)

            def evolve_hook(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                h, grid = bound.get("h"), bound.get("grid")
                self.maximum("evolve.dim_max", getattr(h, "dim", 0))
                self.add("evolve.states_bytes", _payload_bytes(result))
                if name == "evolve.evolve_lindblad" and grid is not None:
                    seg = (grid.t_end - grid.t_start) / (grid.n_samples - 1)
                    n_sub = max(1, math.ceil(seg / grid.dt_max))
                    self.add("evolve.lindblad_substeps", (grid.n_samples - 1) * n_sub)

            return evolve_hook
        if name == "cli.write_tables":

            def write_hook(args, kwargs, result):
                self.add("cli.files_written", len(result))
                self.add("cli.bytes_written", sum(p.stat().st_size for p in result))

            return write_hook
        return None

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            """Runs submitted work under the submitting thread's span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def under_parent():
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(under_parent)

        return TracedExecutor

    # -- reduction -----------------------------------------------------------

    def span_dicts(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "thread", "parent")
        return [dict(zip(keys, s)) for s in self.spans]


def layer_metrics(spans: list[tuple], counters: dict) -> dict[str, float]:
    """Per-name calls, total time and self time, plus groups and counters.

    `<name>.s` sums the outermost spans of a name (a call nested in a call
    of the same name is not counted twice); `<name>.self_s` is each span's
    duration minus the part of it that its child spans cover.  Times are
    summed over threads, so they can exceed wall time.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s[5] is not None:
            children.setdefault(s[5], []).append(s)

    def has_ancestor_in(span, names) -> bool:
        parent = span[5]
        while parent is not None:
            p = by_id.get(parent)
            if p is None:
                return False
            if p[1] in names:
                return True
            parent = p[5]
        return False

    out: dict[str, float] = {}
    for s in spans:
        sid, name, start, end = s[0], s[1], s[2], s[3]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        covered = _union_length(
            [(max(c[2], start), min(c[3], end)) for c in children.get(sid, ())]
        )
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - covered)
        if not has_ancestor_in(s, (name,)):
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
    for group, names in GROUPS.items():
        out[group + ".s"] = sum(
            s[3] - s[2]
            for s in spans
            if s[1] in names and not has_ancestor_in(s, names)
        )
    out["scenarios.sweep_threads"] = len(
        {s[4] for s in spans if s[1] == "probe.measure_energy_slope"}
    )
    out.update(counters)
    return out


def _payload_bytes(obj) -> int:
    """Array bytes held by a result: an array, a state, or a list of them."""
    if hasattr(obj, "nbytes"):
        return obj.nbytes
    if hasattr(obj, "data"):
        return _payload_bytes(obj.data)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(x) for x in obj)
    return 0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total
