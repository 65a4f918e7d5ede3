"""Span tracer that wraps rfqkd's public functions from outside the package.

Every module binding that points at a traced function is replaced by a
wrapper for the duration of a traced cycle, and `PairState.__post_init__`
is wrapped on the class.  A wrapper records one span (name, start, end,
parent) in flat arrays held in memory; `write_csv` writes them out at the end
of the run.  Self time of a span is its duration minus the durations of its
direct children.

Bindings that the patch cannot reach (default arguments and functions kept
in module-level containers) are listed by `escaping_bindings`; their time
lands in the self time of the function that calls through them.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("hilbert", "channel", "protocol", "detection", "security", "harness", "cli")

TARGETS = (
    "hilbert.tag",
    "hilbert.apply_pol_unitary",
    "hilbert.project",
    "hilbert.pure_state",
    "channel.haar_sample",
    "channel.from_waveplates",
    "protocol.prepare",
    "protocol.alice_pipeline",
    "protocol.bob_pipeline",
    "protocol.coincident_split",
    "protocol.conclusive_blocks",
    "protocol.measure",
    "detection.simulate_session",
    "security.key_rate",
    "harness.run_sweep",
    "harness.emit",
    "harness.selftest",
    "cli.main",
)
PAIRSTATE_INIT = "hilbert.PairState.init"
# return values kept for the per-layer ratios
KEEP_RESULTS = ("protocol.measure", "detection.simulate_session", "harness.emit")


def _modules():
    importlib.import_module("rfqkd.cli")  # the package does not import its CLI
    return [sys.modules["rfqkd"]] + [sys.modules[f"rfqkd.{m}"] for m in MODULES]


class Tracer:
    """Records spans while installed; install/uninstall around each traced cycle."""

    def __init__(self):
        self.names: list[str] = list(TARGETS) + [PAIRSTATE_INIT]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self.stack
        keep = self.results.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def add_span(self, name: str, start: int, end: int, parent: int) -> int:
        """Record a span the wrappers cannot see (used for selftest suites)."""
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(self.name_ids[name])
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        return len(self.span_name) - 1

    def split_span(self, parent: int, parts: list[tuple[str, int, int]]) -> None:
        """Insert child spans (name, start, end) under `parent`, in time order,
        and move each direct child of `parent` that lies inside one of them
        beneath it."""
        last = len(self.span_name)
        ids = [self.add_span(name, start, end, parent) for name, start, end in parts]
        starts = [start for _, start, _ in parts]
        for i in range(parent + 1, last):
            if self.span_parent[i] != parent:
                continue
            k = bisect.bisect_right(starts, self.span_start[i]) - 1
            if k >= 0 and self.span_end[i] <= parts[k][2]:
                self.span_parent[i] = ids[k]

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        for name in TARGETS:
            module, fn_name = name.split(".")
            original = getattr(sys.modules[f"rfqkd.{module}"], fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        pair_state = sys.modules["rfqkd.hilbert"].PairState
        original = pair_state.__dict__["__post_init__"]
        self._patches.append((pair_state, "__post_init__", original))
        pair_state.__post_init__ = self._wrap(PAIRSTATE_INIT, original)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def truncate(self, count: int) -> None:
        """Drop every span recorded after the first `count`."""
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del spans[count:]

    def summarize(self, first: int, last: int) -> dict:
        """Calls, self time (ns) per name, and root-span time, over spans [first, last)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)[first:last]
        parents = np.frombuffer(self.span_parent, dtype=np.int32)[first:last]
        dur = (np.frombuffer(self.span_end, dtype=np.int64)[first:last]
               - np.frombuffer(self.span_start, dtype=np.int64)[first:last])
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent] - first, dur[has_parent])
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        self_total = np.bincount(names, weights=self_ns, minlength=n)
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "self_ns": {name: float(self_total[i]) for i, name in enumerate(self.names)},
            "root_ns": float(dur[~has_parent].sum()),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]},{self.span_end[i]}\n")


def escaping_bindings() -> list[str]:
    """Package functions held where module patching cannot reach them.

    Default arguments resolve when the function is defined and module-level
    containers keep their own references, so a call through either one runs
    the unwrapped function; its time lands in the caller's self time.
    """
    found = []

    def is_package_fn(value) -> bool:
        return inspect.isfunction(value) and value.__module__.startswith("rfqkd")

    modules = _modules()[1:]
    for mod in modules:
        for attr, value in vars(mod).items():
            if is_package_fn(value) and value.__module__ == mod.__name__:
                defaults = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
                for d in defaults:
                    if is_package_fn(d):
                        found.append(f"{mod.__name__}.{attr} default argument -> "
                                     f"{d.__module__}.{d.__name__}: lands in {mod.__name__}.{attr}")
            elif isinstance(value, (tuple, list)):
                items = [x for item in value
                         for x in (item if isinstance(item, (tuple, list)) else (item,))]
                readers = [f"{m.__name__}.{name}" for m in modules
                           for name, fn in vars(m).items()
                           if is_package_fn(fn) and fn.__module__ == m.__name__
                           and attr in fn.__code__.co_names]
                for item in items:
                    if is_package_fn(item):
                        found.append(f"{mod.__name__}.{attr} -> {item.__module__}.{item.__name__}: "
                                     f"lands in {', '.join(readers) or 'its reader'}")
    return found
