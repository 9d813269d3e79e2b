"""Function-boundary tracer for the ``sda`` package, and the per-layer
summary built from its spans.

``Tracer.install`` wraps every public module-level function of every
``sda`` module and rebinds the name in every ``sda`` module that holds it.
That covers calls by imported name (``pipeline`` and ``evaluation`` import
``gbdt_fit``, ``smo_train``, ... directly) and calls through a module global
(``svm.grid_search`` calls ``smo_train``). Each call appends one span
``[function, start, end, parent, counts]`` to an in-memory list; the child
process writes the list once, when the command has finished.

Counts that need a look at a call's arguments or result (SMO sweeps, k-means
iterations, distinct leaf patterns, ...) are taken while the span clock is
paused, so their cost lands in no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np


def _distinct_rows(enc) -> int:
    enc = np.ascontiguousarray(enc)
    if enc.shape[0] == 0:
        return 0
    return int(np.unique(enc.view(np.dtype((np.void, enc.strides[0])))).shape[0])


# qualified function name -> (positional args, result) -> {counter: value}
COUNTERS = {
    "svm.smo_train": lambda a, r: {
        "rows": len(a[0]),
        "sweeps": int(r.n_sweeps),
        "unconverged": int(not r.converged),
    },
    "svm.svm_decision": lambda a, r: {"rows": len(r)},
    "svm.grid_search": lambda a, r: {"cells": len(r[2])},
    "boost.gbdt_fit": lambda a, r: {"cells": int(np.size(a[0]))},
    "boost.gbdt_leaf_encode": lambda a, r: {"rows": len(r), "distinct": _distinct_rows(r)},
    "sampling.kmeans": lambda a, r: {"iters": len(r.history) - 1},
    "sampling.assemble_feature_matrix": lambda a, r: {"bytes": int(r.nbytes)},
}


class Tracer:
    """Records one span per call of a wrapped ``sda`` function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = 0.0

    def _clock(self) -> float:
        return time.perf_counter() - self._paused

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, self._clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self._clock()
                stack.pop()
            if counter is not None:
                t0 = time.perf_counter()
                span[4] = counter(args, result)
                self._paused += time.perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap and rebind every public function of every ``sda`` module."""
        import sda

        modules = [sda] + [
            importlib.import_module(f"sda.{info.name}")
            for info in pkgutil.iter_modules(sda.__path__)
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.split(".", 1)[1]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])

    def record(self) -> dict:
        return {"names": self.names, "spans": self.spans}


# ---------------------------------------------------------------------------
# summary


def function_table(record: dict) -> dict[str, dict]:
    """Per function: calls, total (inclusive) time, self time, summed counts."""
    names, spans = record["names"], record["spans"]
    child_time = [0.0] * len(spans)
    for fid, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (fid, start, end, _, counts) in enumerate(spans):
        row = table.setdefault(
            names[fid], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def layer_table(record: dict) -> dict[str, dict]:
    """Per module: calls, time inside the module (outermost calls only, so
    nested calls into the same module count once) and self time."""
    names, spans = record["names"], record["spans"]
    module_of = [n.split(".", 1)[0] for n in names]
    table = {}
    for fid, start, end, parent, _ in spans:
        module = module_of[fid]
        row = table.setdefault(module, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        outermost = True
        while parent >= 0:
            if module_of[spans[parent][0]] == module:
                outermost = False
                break
            parent = spans[parent][3]
        if outermost:
            row["total_s"] += end - start
    for name, row in function_table(record).items():
        table[name.split(".", 1)[0]]["self_s"] += row["self_s"]
    return table


def layer_metrics(record: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced command."""
    fn = function_table(record)
    layers = layer_table(record)

    def total(*names):
        return sum(fn[n]["total_s"] for n in names if n in fn)

    def self_s(*names):
        return sum(fn[n]["self_s"] for n in names if n in fn)

    def calls(name):
        return fn[name]["calls"] if name in fn else 0

    def count(name, key):
        return fn[name]["counts"].get(key, 0) if name in fn else 0

    def layer(module, key):
        return layers[module][key] if module in layers else 0.0

    encode_rows = count("boost.gbdt_leaf_encode", "rows")
    return {
        "svm.smo_s": total("svm.smo_train"),
        "svm.smo_fits": calls("svm.smo_train"),
        "svm.smo_sweeps": count("svm.smo_train", "sweeps"),
        "svm.smo_unconverged": count("svm.smo_train", "unconverged"),
        "svm.decision_s": total("svm.svm_decision"),
        "svm.decision_rows": count("svm.svm_decision", "rows"),
        "svm.self_s": layer("svm", "self_s"),
        "boost.fit_s": total("boost.gbdt_fit"),
        "boost.fits": calls("boost.gbdt_fit"),
        "boost.fit_cells": count("boost.gbdt_fit", "cells"),
        "boost.encode_s": total("boost.gbdt_leaf_encode"),
        "boost.encode_rows": encode_rows,
        "boost.distinct_leaf_ratio": (
            count("boost.gbdt_leaf_encode", "distinct") / encode_rows
            if encode_rows else 0.0
        ),
        "sampling.kmeans_s": total("sampling.kmeans"),
        "sampling.kmeans_iters": count("sampling.kmeans", "iters"),
        "sampling.assemble_s": total("sampling.assemble_feature_matrix"),
        "sampling.assemble_mb": count("sampling.assemble_feature_matrix", "bytes") / 1e6,
        "sampling.select_s": total("sampling.select_negatives"),
        "corpus.load_s": total(
            "corpus.load_association_matrix",
            "corpus.load_feature_table",
            "corpus.load_disease_dag",
        ),
        "evaluation.run_cv_self_s": self_s("evaluation.run_cv"),
        "evaluation.metrics_s": total(
            "evaluation.roc_auc",
            "evaluation.pr_auc",
            "evaluation.threshold_metrics",
            "evaluation.roc_points",
            "evaluation.pr_points",
        ),
        "similarity.s": layer("similarity", "total_s"),
        "similarity.calls": layer("similarity", "calls"),
        "pipeline.prepare_self_s": self_s("pipeline.prepare", "pipeline.prepare_from_matrix"),
        "pipeline.self_s": layer("pipeline", "self_s"),
        "pipeline.write_s": total(
            "pipeline.write_prepared", "pipeline.write_report", "pipeline.write_rankings"
        ),
    }


def format_tables(record: dict) -> str:
    """Human-readable per-layer and per-function tables."""
    lines = [f"{'layer':<34}{'calls':>8}{'total_s':>11}{'self_s':>11}"]
    for module, row in sorted(layer_table(record).items(), key=lambda t: -t[1]["self_s"]):
        lines.append(
            f"{module:<34}{row['calls']:>8}{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
        )
    lines.append("")
    lines.append(f"{'function':<34}{'calls':>8}{'total_s':>11}{'self_s':>11}  counts")
    for name, row in sorted(function_table(record).items(), key=lambda t: -t[1]["total_s"]):
        counts = " ".join(f"{k}={v}" for k, v in sorted(row["counts"].items()))
        lines.append(
            f"{name:<34}{row['calls']:>8}{row['total_s']:>11.4f}{row['self_s']:>11.4f}  {counts}"
        )
    return "\n".join(lines)
