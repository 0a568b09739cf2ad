"""Span tracer that measures each tniso layer from outside the package.

``Tracer.install`` wraps every public function and method defined in each
layer module (``opcore``, ``channels``, ``codes``, ``analysis``,
``robustness``, ``sampling``, ``serialize``, ``cli``). ``from .x import f``
binds a second name for ``f`` in every importing module, so the wrapper is
installed on every binding of the original object, including the package
namespace. Each wrapped call records one span (name, start, end, parent
span, task id) in flat in-memory arrays; ``per_layer_metrics`` derives self
times, call counts and the layer counters from them after the run.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("opcore", "channels", "codes", "analysis", "robustness", "sampling", "serialize", "cli")

# Functions that report ``.calls`` and ``.self_s``; extra counters per name below.
REPORTED = (
    "channels.KrausChannel.apply",
    "channels.KrausChannel.superoperator",
    "channels.Superoperator.from_map",
    "channels.Superoperator.apply",
    "channels.compose",
    "channels.cesaro_projector",
    "codes.IsometricEncoding.encode",
    "codes.IsometricEncoding.decode",
    "codes.IsometricEncoding.superoperator",
    "analysis.classify",
    "analysis.detect_structure",
    "analysis.is_preserved",
    "analysis.is_fixed",
    "analysis.build_correction",
    "analysis.kraus_from_map",
    "analysis.noiseless_certificate",
    "analysis.derive_protectable_code",
    "analysis.unitary_correctability",
    "robustness.estimate_epsilon",
    "robustness.simulate_iterated",
    "opcore.trace_norm",
    "sampling.random_preserved_system",
    "serialize.load_json",
    "serialize.dump_json",
    "serialize.channel_from_dict",
    "cli.main",
)

# name -> (unit, better) for every per-layer metric, in output order.
PER_LAYER = {}
for _name in REPORTED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "channels.KrausChannel.apply.kraus_ops": ("count", "lower"),
    "channels.KrausChannel.apply.cmac_min": ("cmac", "lower"),
    "channels.KrausChannel.apply.gcmac_per_s": ("Gcmac/s", "higher"),
    "channels.compose.kraus_out": ("count", "lower"),
    "channels.superop_bytes_max": ("B", "lower"),
    "analysis.detect_structure.rejected": ("count", "lower"),
    "analysis.build_correction.fell_back": ("count", "lower"),
    "analysis.detect_structure.per_classify": ("1/classify", "lower"),
    "analysis.is_preserved.per_classify": ("1/classify", "lower"),
    "analysis.build_correction.per_classify": ("1/classify", "lower"),
    "robustness.epsilon_upper_over_witness": ("ratio", "lower"),
    "serialize.dump_json.bytes": ("B", "lower"),
    "cli.main.exit_nonzero": ("count", "lower"),
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")

# Spans of these names are harness operations, not package layers.
BENCH_PREFIX = "bench:"


def _public_callables(module):
    """(owner, attribute, qualified name, function) for a module's own API."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{layer}.{attr}", obj
        elif inspect.isclass(obj):
            for meth, member in vars(obj).items():
                # ``@`` composes superoperators, so it counts as public API
                if meth.startswith("_") and meth != "__matmul__":
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    yield obj, meth, f"{layer}.{obj.__name__}.{meth}", member


class Tracer:
    """In-memory span recorder with counters kept at the wrapped boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.task_labels: list[str] = ["untasked"]
        self.counters: dict[str, float] = defaultdict(float)
        self.superop_bytes_max = 0
        self.epsilon_ratios: list[float] = []
        self.classify_preserved: dict[int, bool] = {}
        self._stack: list[int] = []
        self._task = 0
        self._paused = 0
        self._restore: list[tuple] = []
        self._superop_cls: type | tuple = ()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self._task)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        """A harness operation: a new task id whose root span is ``bench:label``."""
        if self._paused:
            yield
            return
        self.task_labels.append(label)
        outer, self._task = self._task, len(self.task_labels) - 1
        idx = self._open(self._name_id(BENCH_PREFIX + label))
        try:
            yield
        finally:
            self._close(idx)
            self._task = outer

    @contextmanager
    def paused(self):
        """Run harness checks without recording them as layer work."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        after = _AFTER.get(qualname)
        around = _AROUND.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                if around is not None:
                    result = around(tracer, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, idx, args, kwargs, result)
            if isinstance(result, tracer._superop_cls):
                nbytes = result.dim_out**2 * result.dim_in**2 * 16
                tracer.superop_bytes_max = max(tracer.superop_bytes_max, nbytes)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public API of every layer of ``package`` on every binding."""
        modules = [sys.modules[package.__name__]] + [
            sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS
        ]
        self._superop_cls = package.channels.Superoperator
        replaced = {}
        for layer in LAYERS:
            for owner, attr, qualname, member in _public_callables(
                sys.modules[f"{package.__name__}.{layer}"]
            ):
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(self._wrap(qualname, member.__func__))
                else:
                    wrapped = self._wrap(qualname, member)
                    replaced[id(member)] = (member, wrapped)
                self._restore.append((owner, attr, member))
                setattr(owner, attr, wrapped)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derivation ------------------------------------------------------

    def _self_times(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def _count_under_preserved_classify(self, target: str) -> int:
        """Spans of ``target`` nested inside a ``classify`` that found the code preserved."""
        if target not in self._name_ids:
            return 0
        tid = self._name_ids[target]
        cid = self._name_ids.get("analysis.classify", -1)
        count = 0
        for idx, nid in enumerate(self.name):
            if nid != tid:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name[p] != cid:
                p = self.parent[p]
            if p >= 0 and self.classify_preserved.get(p, False):
                count += 1
        return count

    def per_layer_metrics(self) -> dict[str, float]:
        """Every metric of ``PER_LAYER``, in order; counters never hit read 0."""
        self_s = self._self_times()
        names = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(names, minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_s, minlength=len(self.names))
        values = dict(self.counters)  # counters are keyed by their metric names
        for nid, fn in enumerate(self.names):
            values[f"{fn}.calls"] = calls[nid]
            values[f"{fn}.self_s"] = self_by_name[nid]
            layer = fn.split(".", 1)[0]
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + self_by_name[nid]
        apply_s = values.get("channels.KrausChannel.apply.self_s", 0.0)
        if apply_s > 0:
            values["channels.KrausChannel.apply.gcmac_per_s"] = (
                values["channels.KrausChannel.apply.cmac_min"] / apply_s / 1e9
            )
        values["channels.superop_bytes_max"] = self.superop_bytes_max
        n_preserved = sum(self.classify_preserved.values())
        for fn in ("analysis.detect_structure", "analysis.is_preserved", "analysis.build_correction"):
            if n_preserved:
                values[f"{fn}.per_classify"] = self._count_under_preserved_classify(fn) / n_preserved
        if self.epsilon_ratios:
            values["robustness.epsilon_upper_over_witness"] = statistics.median(self.epsilon_ratios)
        return {name: float(values.get(name, 0.0)) for name in PER_LAYER}

    def breakdown(self, top: int = 5) -> dict[str, list]:
        """Per task label: the functions with the most self time, with their share."""
        self_s = self._self_times()
        tasks = np.frombuffer(self.task, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for task, nid, s in zip(tasks.tolist(), names.tolist(), self_s.tolist()):
            totals[self.task_labels[task]][self.names[nid]] += s
        out = {}
        for label, per_fn in totals.items():
            total = sum(per_fn.values())
            ranked = sorted(per_fn.items(), key=lambda kv: -kv[1])[:top]
            out[label] = [
                {"function": fn, "self_s": s, "share": s / total if total > 0 else 0.0}
                for fn, s in ranked
            ]
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a gzip-compressed JSON document."""
        doc = {
            "names": self.names,
            "task_labels": self.task_labels,
            "columns": ["name", "start", "end", "parent", "task"],
            "spans": [
                list(self.name), list(self.start), list(self.end),
                list(self.parent), list(self.task),
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# -- counters kept at specific boundaries ---------------------------------

def _after_apply(tr, idx, args, kwargs, result):
    ch = args[0]
    k, d_in, d_out = len(ch.kraus), ch.dim_in, ch.dim_out
    tr.counters["channels.KrausChannel.apply.kraus_ops"] += k
    tr.counters["channels.KrausChannel.apply.cmac_min"] += k * d_out * d_in * (d_in + d_out)


def _after_compose(tr, idx, args, kwargs, result):
    tr.counters["channels.compose.kraus_out"] += len(result.kraus)


def _after_detect(tr, idx, args, kwargs, result):
    tr.counters["analysis.detect_structure.rejected"] += not result.found


def _after_classify(tr, idx, args, kwargs, result):
    tr.classify_preserved[idx] = bool(result.preserved)


def _after_epsilon(tr, idx, args, kwargs, result):
    if result.epsilon > 0:
        tr.epsilon_ratios.append(result.upper_bound / result.epsilon)


def _after_dump(tr, idx, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None and os.path.exists(path):
        tr.counters["serialize.dump_json.bytes"] += os.path.getsize(path)


def _after_main(tr, idx, args, kwargs, result):
    tr.counters["cli.main.exit_nonzero"] += result != 0


def _around_build_correction(tr, fn, args, kwargs):
    # fell_back is only visible in the details, so always ask for them and
    # hand the caller the return shape it asked for
    bound = inspect.signature(fn).bind(*args, **kwargs)
    wanted = bound.arguments.get("return_details", False)
    bound.arguments["return_details"] = True
    recovery, details = fn(*bound.args, **bound.kwargs)
    tr.counters["analysis.build_correction.fell_back"] += bool(details.fell_back)
    return (recovery, details) if wanted else recovery


_AFTER = {
    "channels.KrausChannel.apply": _after_apply,
    "channels.compose": _after_compose,
    "analysis.detect_structure": _after_detect,
    "analysis.classify": _after_classify,
    "robustness.estimate_epsilon": _after_epsilon,
    "serialize.dump_json": _after_dump,
    "cli.main": _after_main,
}
_AROUND = {"analysis.build_correction": _around_build_correction}
