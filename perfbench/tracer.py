"""Outside-in tracer for hallq: wraps the package's public functions from the
benchmark's side, so the library itself carries no instrumentation.

Two kinds of wrapper:

* span: records (name, start, end, parent, self time) in flat in-memory
  arrays. Used for every public module-level function and a few methods that
  mark layer boundaries (count tables, `TableCache.table`, the table cache's
  loader and saver).
* leaf: the scalar arithmetic of `laurent` and `fpmat`, plus class lookups, is
  called up to millions of times per pass. Those calls are counted and timed
  per name but not stored one by one, which keeps memory bounded; their time
  is still subtracted from the self time of the enclosing span.

Generator functions are wrapped to count the items they yield; their body runs
inside whatever span consumes them.

Every binding of a wrapped object inside `hallq` is patched, including names
re-bound by `from ... import` (for example `identities.evaluate_at_sqrt_q` or
the package-level `hallq.classify`). `uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

MODULES = ("laurent", "fpmat", "ffrep", "hall", "uminus", "identities", "polyfit", "cli")
# In these modules only the listed functions are wrapped, as leaves: helpers
# such as `fpmat.mat_vec` run several hundred thousand times per pass, and
# wrapping them all would add a third to the traced run.
LEAF_FUNCTIONS = {"laurent": ("evaluate_at_sqrt_q",), "fpmat": ("mat_mul", "rref")}
# Methods that mark a layer boundary; module-level functions are found by
# inspection. Leaf methods are listed with a trailing "!".
METHODS = {
    "laurent": {"LaurentPoly": ("__mul__!", "__add__!", "exact_div!")},
    "ffrep": {"TableCache": ("table",), "ClassificationTable": ("iso_class_of!",)},
    "hall": {"HallModel": ("filtration_table", "extension_table",
                           "derive_sub_table", "derive_quot_table")},
}
CACHE_LOAD = "cli.cache.load"
CACHE_WRITE = "cli.cache.write"


class Tracer:
    """Spans and per-name counters for one traced window."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_self = array("d")
        self.leaf_calls: dict[str, int] = {}
        self.leaf_self: dict[str, float] = {}
        self.yields: dict[str, int] = {}
        self.results: dict[str, int] = {}  # name -> count from a result hook
        self._stack: list[list[float]] = []  # child time of each open call
        self._current = -1  # index of the innermost open span
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        names, starts, ends, parents, selfs = (self.span_name, self.span_start, self.span_end,
                                               self.span_parent, self.span_self)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = self._current
            names.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(parent)
            selfs.append(0.0)
            self._current = idx
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._current = parent
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                starts[idx] = t0
                ends[idx] = t1
                # children lie inside [t0, t1]; max() only absorbs float rounding
                selfs[idx] = max(0.0, dur - frame[0])
            if on_result is not None:
                on_result(self, out)
            return out

        return wrapper

    def leaf(self, name: str, fn):
        calls, self_time = self.leaf_calls, self.leaf_self
        calls.setdefault(name, 0)
        self_time.setdefault(name, 0.0)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self_time[name] += max(0.0, dur - frame[0])

        return wrapper

    def generator(self, name: str, fn):
        counts = self.yields
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def count(self, name: str, k: int = 1) -> None:
        self.results[name] = self.results.get(name, 0) + k

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = {m: importlib.import_module(f"hallq.{m}") for m in MODULES}
        owners = [mod for name, mod in sys.modules.items()
                  if (name == "hallq" or name.startswith("hallq.")) and mod is not None]
        for short, mod in modules.items():
            leaves = LEAF_FUNCTIONS.get(short)
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if leaves is not None and attr not in leaves:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapped = self.generator(name, obj)
                elif leaves is not None:
                    wrapped = self.leaf(name, obj)
                else:
                    wrapped = self.span(name, obj, _RESULT_HOOKS.get(name))
                if name == "cli.cached_table_cache":
                    wrapped = self._trace_cache_io(wrapped)
                for owner in owners:
                    self._patch_aliases(owner, obj, wrapped)
            for cls_name, meths in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for spec in meths:
                    meth = spec.rstrip("!")
                    fn = vars(cls)[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    wrapped = self.leaf(name, fn) if spec.endswith("!") else self.span(name, fn)
                    self._patch_aliases(cls, fn, wrapped)
        return self

    def _patch_aliases(self, owner, original, wrapped) -> None:
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def _trace_cache_io(self, fn):
        """The table cache reads and writes JSON through closures that
        `cli.cached_table_cache` hands to the `TableCache` it returns; wrap
        them on the returned instance."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tables = fn(*args, **kwargs)
            if getattr(tables, "_loader", None) is not None:
                tables._loader = self.span(CACHE_LOAD, tables._loader, _count_loaded)
            if getattr(tables, "_saver", None) is not None:
                tables._saver = self.span(CACHE_WRITE, tables._saver)
            return tables

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- queries ----------------------------------------------------------

    def span_names(self) -> set[str]:
        return {self.names[i] for i in set(self.span_name)}

    def hit_names(self) -> set[str]:
        """Every wrapped name that ran at least once."""
        return (self.span_names()
                | {n for n, c in self.leaf_calls.items() if c}
                | {n for n, c in self.yields.items() if c})

    def child_counts(self) -> list[int]:
        out = [0] * len(self.span_name)
        for parent in self.span_parent:
            if parent >= 0:
                out[parent] += 1
        return out


def _count_points(tracer: Tracer, table) -> None:
    tracer.count("ffrep.classify.points", sum(c.orbit_size for c in table.classes))


def _count_loaded(tracer: Tracer, table) -> None:
    if table is not None:
        tracer.count(CACHE_LOAD + ".loaded")


_RESULT_HOOKS = {"ffrep.classify": _count_points}
