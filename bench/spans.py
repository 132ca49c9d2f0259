"""Span tracer for the traced run, built only from the benchmark's own files.

``Tracer.install`` rebinds every public function of the nine layer modules,
in each ``sparsemix`` namespace that holds it (the modules import one
another's functions by name), to a wrapper that records a span: name,
start, end, parent span and thread.  ``uninstall`` puts the originals back.
Nothing under ``src/`` changes, and a run that never installs pays nothing.

A span's parent is the innermost open span on its own thread; a worker
thread's outermost spans take the main thread's innermost open span (the
Monte-Carlo call that started the workers) as parent.  Spans stay in
per-thread arrays until ``report`` and ``write_jsonl`` read them.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("normal", "model", "risk", "bfdr", "procedures", "rules", "montecarlo", "experiments", "cli")
MC_CALLS = ("montecarlo.mc_run", "montecarlo.mc_conditional_k", "montecarlo.threshold_gap_study")
UNIT = "bench.unit"
HOOK = "trace.hook"
JSONL_CHUNK = 65536  # spans turned into Python objects at a time when writing
# Bytes ``model.sample`` allocates per element, from its draw order: the
# uniform block (8), the truth mask (1), the scale (8), the normal block (8)
# and their product (8).  Computed from m, not measured.
SAMPLE_BYTES_PER_ELEMENT = 33


def _count_elements(tracer, args, result):
    tracer.add("procedures.elements", np.size(args["x"]))


def _count_bh(tracer, args, result):
    pvals = np.asarray(args["pvals"], dtype=float)
    tracer.add("bh.elements", pvals.size)
    tracer.add("bh.candidates", int(np.count_nonzero(pvals <= args["alpha"])))
    tracer.add("bh.rejected", result.num_rejected)


def _count_sample(tracer, args, result):
    tracer.add("model.sample.bytes", SAMPLE_BYTES_PER_ELEMENT * args["setting"].int_m())


def _count_reps(tracer, args, result):
    estimate = result.gap if hasattr(result, "gap") else result.risk
    tracer.add("montecarlo.replicates", estimate.reps)


# Counters recorded at layer boundaries; their time is a "trace.hook" span,
# so it is not charged to the layer.
HOOKS = {
    "procedures.pvalues": _count_elements,
    "procedures.fixed_threshold_reject": _count_elements,
    "procedures.bh_reject": _count_bh,
    "model.sample": _count_sample,
    **{name: _count_reps for name in MC_CALLS},
}


class _Buffer:
    """Spans recorded by one thread, plus its stack of open span ids."""

    def __init__(self):
        self.tid = threading.get_ident()
        self.stack: list[int] = []
        self.ids, self.names, self.starts, self.ends, self.parents = (array("q") for _ in range(5))

    def add(self, sid: int, name: int, start: int, end: int, parent: int) -> None:
        self.ids.append(sid)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)


def public_functions():
    """(qualified name, function) for each layer's public functions."""
    for layer in LAYERS:
        module = importlib.import_module(f"sparsemix.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{layer}.{attr}", fn


class Tracer:
    def __init__(self):
        self.names: list[str] = [UNIT, HOOK]
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self._wrappers: dict[int, tuple[object, object]] = {}
        for name, fn in public_functions():
            self.names.append(name)
            wrapper = self._wrap(fn, len(self.names) - 1, HOOKS.get(name))
            self._wrappers[id(fn)] = (fn, wrapper)
        self._patches: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def add(self, counter: str, n) -> None:
        with self._lock:
            self.counts[counter] += int(n)

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        main = self._main.stack
        return main[-1] if main else -1

    def _wrap(self, fn, index: int, hook):
        signature = inspect.signature(fn)
        clock = time.perf_counter_ns
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            parent = self._parent(buf.stack)
            sid = next(ids)
            buf.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                buf.stack.pop()
                buf.add(sid, index, start, end, parent)
            if hook is not None:
                hook_start = clock()
                hook(self, signature.bind(*args, **kwargs).arguments, result)
                buf.add(next(ids), 1, hook_start, clock(), parent)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sparsemix" and not mod_name.startswith("sparsemix."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self):
        """A span the benchmark opens around one traced unit."""
        buf = self._buffer()
        parent = self._parent(buf.stack)
        sid = next(self._ids)
        buf.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            buf.stack.pop()
            buf.add(sid, 0, start, end, parent)  # names[0] is UNIT

    def arrays(self) -> dict[str, np.ndarray]:
        """Every recorded span, with its self time: its duration minus the
        part of it that its children (on any thread) cover."""
        cols = {"id": [], "name": [], "start": [], "end": [], "parent": [], "tid": []}
        for buf in self._buffers:
            for key, data in (("id", buf.ids), ("name", buf.names), ("start", buf.starts),
                              ("end", buf.ends), ("parent", buf.parents)):
                cols[key].append(np.frombuffer(data, dtype=np.int64) if len(data) else np.empty(0, np.int64))
            cols["tid"].append(np.full(len(buf.ids), buf.tid, dtype=np.int64))
        spans = {key: np.concatenate(parts) for key, parts in cols.items()}
        n = spans["id"].size
        row_of = np.full(int(spans["id"].max()) + 1 if n else 0, -1, dtype=np.int64)
        row_of[spans["id"]] = np.arange(n)
        spans["parent_row"] = np.where(spans["parent"] >= 0, row_of[spans["parent"]], -1)
        # Union of each parent's child intervals: sort children by (parent,
        # start); a child adds the part of it past the furthest end of the
        # children before it.  The running end is a cumulative maximum over
        # keys offset per parent, so one parent's ends never leak into the next.
        child = np.nonzero(spans["parent_row"] >= 0)[0]
        if child.size == 0:
            spans["self"] = spans["end"] - spans["start"]
            return spans
        order = child[np.lexsort((spans["start"][child], spans["parent_row"][child]))]
        t0 = spans["start"].min()
        start, end = spans["start"][order] - t0, spans["end"][order] - t0
        group = spans["parent_row"][order]
        offset = np.cumsum(np.r_[0, np.diff(group) != 0]) << 40  # runs are far shorter than 2**40 ns
        reach = np.maximum.accumulate(end + offset) - offset
        first = np.r_[True, group[1:] != group[:-1]]
        before = np.where(first, start, np.r_[0, reach[:-1]])
        added = np.clip(end - np.maximum(start, before), 0, None)
        covered = np.bincount(group, weights=added, minlength=n).astype(np.int64)
        spans["self"] = spans["end"] - spans["start"] - covered
        return spans

    def report(self, spans: dict[str, np.ndarray], untraced_wall_ns: int) -> dict[str, float]:
        """Per-layer metrics from ``arrays()``."""
        calls = np.bincount(spans["name"], minlength=len(self.names))
        self_ns = np.bincount(spans["name"], weights=spans["self"], minlength=len(self.names))
        dur = spans["end"] - spans["start"]
        wall = float(dur[spans["name"] == 0].sum())
        out: dict[str, float] = {}
        for index, name in enumerate(self.names[2:], start=2):
            out[f"{name}.calls"] = int(calls[index])
            out[f"{name}.self_ms"] = self_ns[index] / 1e6
        layer_of = np.asarray([name.split(".")[0] for name in self.names])
        layer_total = 0.0
        for layer in LAYERS:
            share = self_ns[layer_of == layer].sum() / wall if wall else 0.0
            out[f"{layer}.self_share"] = share
            layer_total += share
        out["trace.layer_sum_frac"] = layer_total

        index_of = {name: i for i, name in enumerate(self.names)}
        parent_name = np.where(spans["parent_row"] >= 0, spans["name"][spans["parent_row"]], -1)
        mc = np.isin(spans["name"], [index_of[n] for n in MC_CALLS])
        mc_children = np.isin(parent_name, [index_of[n] for n in MC_CALLS])
        mc_wall = dur[mc].sum()
        out["montecarlo.concurrency"] = float(dur[mc_children].sum() / mc_wall) if mc_wall else 0.0
        solve = index_of["bfdr.bfdr_threshold"]
        evals = np.count_nonzero((spans["name"] == index_of["bfdr.bfdr_of_threshold"]) & (parent_name == solve))
        out["bfdr.bfdr_threshold.evals_per_solve"] = evals / calls[solve] if calls[solve] else 0.0

        counts = self.counts
        bh = counts["bh.elements"]
        out["procedures.elements"] = counts["procedures.elements"]
        out["procedures.bh_reject.candidate_frac"] = counts["bh.candidates"] / bh if bh else 0.0
        out["procedures.bh_reject.rejected_frac"] = counts["bh.rejected"] / bh if bh else 0.0
        out["model.sample.bytes"] = counts["model.sample.bytes"]
        out["montecarlo.replicates"] = counts["montecarlo.replicates"]
        out["trace.overhead_frac"] = wall / untraced_wall_ns - 1.0 if untraced_wall_ns else 0.0
        out["trace.wall_s"] = wall / 1e9
        return {k: float(v) for k, v in out.items()}

    def write_jsonl(self, spans: dict[str, np.ndarray], path) -> None:
        """Every span from ``arrays()`` as one JSON line (gzip), in start order."""
        order = np.argsort(spans["start"], kind="stable")
        keys = ("id", "name", "start", "end", "self", "parent", "tid")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for lo in range(0, order.size, JSONL_CHUNK):
                rows = order[lo:lo + JSONL_CHUNK]
                for sid, name, start, end, self_ns, parent, tid in zip(*(spans[k][rows].tolist() for k in keys)):
                    fh.write(
                        f'{{"id": {sid}, "name": "{self.names[name]}", "start_ns": {start}, '
                        f'"end_ns": {end}, "self_ns": {self_ns}, "parent": {parent}, "tid": {tid}}}\n'
                    )
