"""Span recorder for the benchmark's traced runs.

The program is not changed: `install` replaces every public function of the
longedge layers (graphs, orderings, coeffs, series, polygon, severi, cli) with
a timing wrapper, in the defining module and in every module that imported
it by name.  Each call records one span (name, start, end, parent) in flat
arrays; a generator function records one span per item it produces.  Some
spans also feed work counts (templates found, reorderings produced, cache
bytes written) and distinct-argument sets.

`summary` derives each span name's self time (its duration minus the time
its child spans cover) and call count; `write_spans` writes the raw spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("graphs", "orderings", "coeffs", "series", "polygon", "severi", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    def wrap(self, name: str, fn, after=None, key=None):
        """A wrapper that records a span per call; `after(tracer, args,
        result)` adds work counts and `key(args)` names distinct arguments."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, nid, fn, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if key is not None:
                self.distinct[name].add(key(args))
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, nid, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, t0)
                if after is not None:
                    after(self, args, item)
                yield item

        return wrapper

    def summary(self) -> dict:
        """Self time and call count per span name, plus the work counts."""
        n = len(self.start)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        by_name: dict[str, float] = defaultdict(float)
        for i in range(n):
            by_name[self.names[self.name_id[i]]] += self_s[i]
        return {
            "self_s": dict(by_name),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans": n,
        }

    def write_spans(self, path: str) -> None:
        """One JSON header line (names, span count), then the name-id,
        parent, start and end arrays as raw machine words."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start)}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: str) -> tuple[list[str], list[tuple[int, int, float, float]]]:
    """Inverse of `Tracer.write_spans`: names and (name_id, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    return header["names"], list(zip(*cols))


def _count_len(metric):
    def after(tracer, args, result):
        tracer.counts[metric] += len(result)

    return after


def _count_one(metric):
    def after(tracer, args, result):
        tracer.counts[metric] += 1

    return after


def _cache_load(cli):
    def after(tracer, args, result):
        if result is not None:
            tracer.counts["cli.cache.load.hits"] += 1
        elif os.path.exists(cli._cache_path(args[0])):
            tracer.counts["cli.cache.load.rejected"] += 1

    return after


def _cache_store(cli):
    def after(tracer, args, result):
        tracer.counts["cli.cache.bytes_written"] += os.path.getsize(
            cli._cache_path(args[0].delta)
        )

    return after


def _hooks(cli) -> dict:
    """Work counts and distinct-argument keys recorded at span boundaries."""
    return {
        "graphs.enumerate_templates": (_count_len("graphs.templates"), None),
        "graphs.enumerate_graphs": (_count_len("graphs.graphs"), None),
        "polygon.reorderings": (_count_one("polygon.reorderings.count"), None),
        "orderings.p_beta": (None, lambda a: (a[0].edges, tuple(a[1]))),
        "coeffs.diffq": (None, lambda a: tuple(a)),
        "cli.load_cached": (_cache_load(cli), None),
        "cli.store_cached": (_cache_store(cli), None),
    }


def _is_public_function(obj, module_name: str) -> bool:
    plain = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
    return plain and getattr(obj, "__module__", None) == module_name


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every layer; returns how many."""
    package = importlib.import_module("longedge")
    modules = {layer: importlib.import_module(f"longedge.{layer}") for layer in LAYERS}
    hooks = _hooks(modules["cli"])
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not _is_public_function(obj, mod.__name__):
                continue
            span = f"{layer}.{name}"
            after, key = hooks.get(span, (None, None))
            wrapped[id(obj)] = tracer.wrap(span, obj, after=after, key=key)
    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    return len(wrapped)


def write_outputs(tracer: Tracer, summary_path: str, spans_path: str, extra: dict) -> None:
    summary = tracer.summary()
    summary.update(extra)
    tracer.write_spans(spans_path)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
