"""In-memory span tracer that wraps cellevo's public functions from outside.

Each traced function is replaced, in every cellevo module that binds it
(that is, where callers look it up), by a wrapper recording a span
[name, start, end, parent, work]. `work` is a count the layer does, such
as grids convolved or bytes written (for a halting dataset: the fraction
of grids still alive). Nothing in src/ is modified on disk;
uninstall() puts the original objects back.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _grids(args, kwargs):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _frame_bytes(result):
    return sum(os.path.getsize(p) for p in result)


# (module, attribute, span name, work counter on (args, kwargs) or result).
TARGETS = (
    ("cellevo.grid", "convolve", "grid.convolve", _grids, None),
    ("cellevo.rules", "step", "rules.step", _grids, None),
    ("cellevo.rules", "evolve_batch", "rules.evolve_batch", None, None),
    ("cellevo.halting", "generate_dataset", "halting.generate_dataset", None,
     lambda ds: float(np.mean(ds.labels))),
    ("cellevo.halting", "predictor_fitness", "halting.predictor_fitness",
     None, None),
    ("cellevo.predictor", "train", "predictor.train", None, None),
    ("cellevo.predictor", "loss_and_grads", "predictor.loss_and_grads", None,
     None),
    ("cellevo.predictor", "predict_batch", "predictor.predict_batch", None,
     None),
    ("cellevo.cmaes", "CmaEs.ask", "cmaes.ask", None, None),
    ("cellevo.cmaes", "CmaEs.tell", "cmaes.tell", None, None),
    ("cellevo.patterns", "synthesize", "patterns.synthesize", None, None),
    ("cellevo.patterns", "mutate", "patterns.mutate", None, None),
    ("cellevo.patterns", "evaluate_tiles", "patterns.evaluate_tiles", None,
     None),
    ("cellevo.metrics", "compute_metrics", "metrics.compute_metrics", None,
     None),
    ("cellevo.parallel", "parallel_map", "parallel.parallel_map", None, None),
    ("cellevo.io", "write_frames", "io.write_frames", None, _frame_bytes),
    ("cellevo.io", "save_rule", "io.save", None, None),
    ("cellevo.io", "save_history", "io.save", None, None),
    ("cellevo.io", "save_pattern", "io.save", None, None),
    ("cellevo.io", "save_metrics", "io.save", None, None),
    ("cellevo.io", "save_metrics_csv", "io.save", None, None),
    ("cellevo.cli", "main", "cli", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count_args, count_result):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_args is not None:
                span[4] = count_args(args, kwargs)
            elif count_result is not None:
                span[4] = count_result(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a missing one reports zeros."""
        modules = [m for n, m in sys.modules.items()
                   if n == "cellevo" or n.startswith("cellevo.")]
        for mod_name, attr, name, count_args, count_result in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
            except ModuleNotFoundError:
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    continue
                self._set(cls, meth, self._wrap(fn, name, count_args,
                                                count_result))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, count_args, count_result)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def _set(self, obj, key, value) -> None:
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name totals over spans[lo:hi]: seconds, self seconds, calls, work."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            parent = self.spans[i][3]
            if parent >= lo:
                child[parent - lo] += self.spans[i][2] - self.spans[i][1]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            name, start, end, _, work = self.spans[i]
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i - lo]
            agg["calls"] += 1
            agg["work"] += work
        return out

    def write(self, path: Path, t0: float, extra: dict) -> None:
        """Spans as JSON lines (times relative to t0), after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(extra) + "\n")
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, work])
                         + "\n")
