"""Outside-in tracing of the estimator's layers.

Every span is recorded by a wrapper installed where the caller looks the
function up, so nothing in ``src/`` changes:

- ``repro.core.abacus.count_butterflies_with_sample`` and
  ``.discovery_probability`` (``abacus.py`` imports both by name);
- ``RandomPairing.insert`` / ``.delete`` (looked up on the class);
- the estimator instance's ``process`` / ``process_batch`` and its
  executor's ``run``;
- ``SparkContext.broadcast``, which ``RDDExecutor.run`` calls.

A span is ``(layer, parent layer, request, start_ns, end_ns, a, b)``; the
request is the element (ABACUS) or mini-batch (PARABACUS) being processed,
and ``a``/``b`` are the layer's counts for the call:

- counting: butterflies found, comparisons;
- ``rp.insert``: sample ops, deletions pending before the call (an
  insertion is admitted iff it returns ops, and compensates iff some
  deletion was pending);
- ``rp.delete``: sample ops.

Spans sit in one flat integer array in memory and are written out once,
at the end. A layer's self time is its spans' total minus the part its
child spans cover; calls are synchronous, so children nest inside their
parent. The hot wrappers are written out by hand to keep overhead low.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

LAYERS = (
    "abacus.process",
    "counting",
    "probability",
    "rp.insert",
    "rp.delete",
    "parabacus.process_batch",
    "executor.run",
    "spark.broadcast",
)
ID = {name: i for i, name in enumerate(LAYERS)}
FIELDS = ("layer", "parent", "request", "start_ns", "end_ns", "a", "b")

Patch = Tuple[object, str, Callable]


class Tracer:
    """Span store; ``reset`` clears it in place, so wrappers stay valid."""

    def __init__(self) -> None:
        self.job_args: List[tuple] = []  # executor.run arguments, one per job
        self._spans = array("q")
        self._request = [0]
        self._stack = [-1]

    def reset(self) -> None:
        del self._spans[:]
        self.job_args.clear()
        self._request[0] = 0
        del self._stack[1:]

    # -- wrappers ----------------------------------------------------------
    def _entry(self, layer: str, fn: Callable) -> Callable:
        """The estimator's entry point: one request per call.

        Its span covers the whole wrapper, storing the span included, so the
        tracer's own cost lands in this layer's self time rather than outside
        every span.
        """
        lid, spans, stack, request = ID[layer], self._spans, self._stack, self._request
        put, clock, end = spans.extend, time.perf_counter_ns, FIELDS.index("end_ns") - len(FIELDS)

        def traced(*args):
            t0 = clock()
            request[0] += 1
            stack.append(lid)
            out = fn(*args)
            stack.pop()
            put((lid, -1, request[0], t0, 0, 0, 0))
            spans[end] = clock()
            return out

        return traced

    def _plain(self, layer: str, fn: Callable, keep_args: bool = False) -> Callable:
        lid, put, stack, request = ID[layer], self._spans.extend, self._stack, self._request
        clock, job_args = time.perf_counter_ns, self.job_args

        def traced(*args, **kwargs):
            if keep_args:
                job_args.append(args)
            parent = stack[-1]
            stack.append(lid)
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            stack.pop()
            put((lid, parent, request[0], t0, t1, 0, 0))
            return out

        return traced

    def _counting(self, fn: Callable) -> Callable:
        lid, put, stack, request = ID["counting"], self._spans.extend, self._stack, self._request
        clock = time.perf_counter_ns

        def traced(adj, u, v):
            parent = stack[-1]
            stack.append(lid)
            t0 = clock()
            out = fn(adj, u, v)
            t1 = clock()
            stack.pop()
            put((lid, parent, request[0], t0, t1, out[0], out[1]))
            return out

        return traced

    def _rp(self, layer: str, fn: Callable) -> Callable:
        lid, put, stack, request = ID[layer], self._spans.extend, self._stack, self._request
        clock = time.perf_counter_ns

        def traced(rp, u, v):
            pending = rp.c_b + rp.c_g
            parent = stack[-1]
            stack.append(lid)
            t0 = clock()
            ops = fn(rp, u, v)
            t1 = clock()
            stack.pop()
            put((lid, parent, request[0], t0, t1, len(ops), pending))
            return ops

        return traced

    def shared_patches(self) -> List[Patch]:
        """Module and class attributes, installed once around traced passes."""
        import repro.core.abacus as abacus_mod
        from pyspark import SparkContext
        from repro.core.random_pairing import RandomPairing

        return [
            (abacus_mod, "count_butterflies_with_sample",
             self._counting(abacus_mod.count_butterflies_with_sample)),
            (abacus_mod, "discovery_probability",
             self._plain("probability", abacus_mod.discovery_probability)),
            (RandomPairing, "insert", self._rp("rp.insert", RandomPairing.insert)),
            (RandomPairing, "delete", self._rp("rp.delete", RandomPairing.delete)),
            (SparkContext, "broadcast", self._plain("spark.broadcast", SparkContext.broadcast)),
        ]

    def instrument(self, estimator) -> None:
        """Start a pass: clear the store and wrap the fresh estimator."""
        self.reset()
        if hasattr(estimator, "process_batch"):
            estimator.process_batch = self._entry("parabacus.process_batch",
                                                  estimator.process_batch)
            executor = estimator.executor
            executor.run = self._plain("executor.run", executor.run, keep_args=True)
        else:
            estimator.process = self._entry("abacus.process", estimator.process)

    # -- results -----------------------------------------------------------
    def columns(self) -> Dict[str, np.ndarray]:
        table = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, len(FIELDS))
        return {name: table[:, i] for i, name in enumerate(FIELDS)}

    def summary(self) -> Dict[str, np.ndarray]:
        """Per-layer arrays, indexed like ``LAYERS``: calls, total and self
        nanoseconds, sums of ``a`` and ``b``, and calls with ``a > 0`` /
        ``b > 0``."""
        c = self.columns()
        n = len(LAYERS)
        layer, parent = c["layer"], c["parent"]
        dur = (c["end_ns"] - c["start_ns"]).astype(np.float64)
        total = np.bincount(layer, weights=dur, minlength=n)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        return {
            "calls": np.bincount(layer, minlength=n),
            "total_ns": total,
            "self_ns": total - covered,
            "a": np.bincount(layer, weights=c["a"], minlength=n),
            "b": np.bincount(layer, weights=c["b"], minlength=n),
            "a_pos": np.bincount(layer, weights=c["a"] > 0, minlength=n),
            "b_pos": np.bincount(layer, weights=c["b"] > 0, minlength=n),
        }

    def save(self, path: Path) -> None:
        """Write the spans held in memory to ``path`` (NumPy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(LAYERS), **self.columns())


@contextmanager
def patched(patches: List[Patch]) -> Iterator[None]:
    """Install ``(owner, attribute, replacement)`` patches; undo on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
