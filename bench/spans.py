"""Spans around spinorlab's public functions, installed from outside the library.

:class:`Tracer` replaces every public function of each layer module, and a
few named methods, with a wrapper that records a span: name, start, end,
parent span and task id.  A function is replaced at every place it is
bound, in its own module and in each ``spinorlab`` module that imported it
by name, so calls across modules are seen.  Spans stay in memory;
:func:`layer_metrics` turns them into per-layer counts and self times once
the run is over.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("blades", "linalg", "matrices", "spin", "geometry", "atlas", "poly", "cli")

# Called once per pair of blades inside every product: a span there would
# cost more than the work it times, so their time counts as the caller's.
UNTRACED = {"blades.blade_product", "blades.blade_grade", "blades.blade_indices", "blades.mask_from_indices"}

METHODS = {
    "blades.Multivector": ("__mul__", "__add__", "__sub__", "reverse", "inverse"),
    "matrices.XiMatrix": ("verify_square_identity", "evaluate"),
    "poly.Poly": ("__mul__", "__add__", "__sub__", "evaluate"),
}

# Span names that differ from "<layer>.<attribute>" (dunders lose their underscores).
RENAMES = {
    "matrices.verify_square_identity": "matrices.square_check",
    "matrices.rep_multivector": "matrices.rep",
    "spin.is_lipschitz": "spin.lipschitz",
    "spin.spin_norm": "spin.norm",
    "geometry.kernel_spinors": "geometry.kernel",
    "geometry.generator_to_spinor": "geometry.to_spinor",
    "geometry.motion_on_points": "geometry.motion",
    "geometry.motion_on_spinors": "geometry.motion",
}


def _count_term_pairs(tracer: "Tracer", args) -> None:
    left, right = args
    if hasattr(right, "items"):
        tracer.counts["blades.mul.term_pairs"] += len(left) * len(right)


def _count_mat_mul(tracer: "Tracer", args) -> None:
    a, b = args[0], args[1]
    tracer.counts["linalg.mat_mul.cells"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _count_rref(tracer: "Tracer", args) -> None:
    rows = args[0]
    tracer.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_lipschitz(tracer: "Tracer", args) -> None:
    s = args[0]
    tracer.lipschitz_seen.add((s.signature, tuple(sorted(s.items()))))


def _count_to_spinor(tracer: "Tracer", args) -> None:
    g = args[0]
    if g.row_masks != (0,) + tuple(1 << i for i in range(g.n)):
        tracer.counts["geometry.to_spinor.fallback"] += 1


HOOKS = {
    "blades.mul": _count_term_pairs,
    "linalg.mat_mul": _count_mat_mul,
    "linalg.rref": _count_rref,
    "spin.lipschitz": _count_lipschitz,
    "geometry.to_spinor": _count_to_spinor,
}


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, task]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.lipschitz_seen: set = set()
        self.patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.task]
            stack.append(len(spans))
            spans.append(record)
            if hook is not None:
                hook(self, args)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or spans[parent][0].split(".")[0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def run_task(self, task_id: int, fn):
        """Run one benchmark task as a root span named ``task``."""
        self.task = task_id
        return self.wrap("task", fn)()

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "spinorlab"]
        for layer in LAYERS:
            module = sys.modules[f"spinorlab.{layer}"]
            for attr, obj in list(vars(module).items()):
                qualified = f"{layer}.{attr}"
                if attr.startswith("_") or qualified in UNTRACED or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapper = self.wrap(RENAMES.get(qualified, qualified), obj)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is obj:
                            self._patch(owner, key, wrapper)
        for owner_name, methods in METHODS.items():
            layer, cls_name = owner_name.split(".")
            cls = getattr(sys.modules[f"spinorlab.{layer}"], cls_name)
            for attr in methods:
                name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr.strip('_')}")
                self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every binding; True when each is the original object again."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self.patches)
        self.patches.clear()
        return restored


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, task in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = [end - start for name, start, end, parent, task in spans]
    for parent, intervals in children.items():
        lo, hi = spans[parent][1], spans[parent][2]
        reach = lo
        for start, end in sorted(intervals):
            start, end = max(start, reach, lo), min(end, hi)
            if end > start:
                out[parent] -= end - start
                reach = end
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times and ratios, as ``name -> (value, unit)``."""
    calls: Counter = Counter()
    layer_calls: Counter = Counter()
    self_s: Counter = Counter()
    layer_self_s: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, layer = span[0], span[0].split(".")[0]
        calls[name] += 1
        layer_calls[layer] += 1
        self_s[name] += own
        layer_self_s[layer] += own
    counts = tracer.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {
        "blades.mul.calls": (calls["blades.mul"], "count"),
        "blades.mul.term_pairs": (counts["blades.mul.term_pairs"], "count"),
        "blades.mul.self_s": (self_s["blades.mul"], "s"),
        "blades.inverse.calls": (calls["blades.inverse"], "count"),
        "blades.inverse.self_s": (self_s["blades.inverse"], "s"),
        "blades.self_s": (layer_self_s["blades"], "s"),
        "linalg.mat_mul.calls": (calls["linalg.mat_mul"], "count"),
        "linalg.mat_mul.cells": (counts["linalg.mat_mul.cells"], "count"),
        "linalg.rref.calls": (calls["linalg.rref"], "count"),
        "linalg.rref.cells": (counts["linalg.rref.cells"], "count"),
        "linalg.self_s": (layer_self_s["linalg"], "s"),
        "matrices.build_xi.calls": (calls["matrices.build_xi"], "count"),
        "matrices.square_check.calls": (calls["matrices.square_check"], "count"),
        "matrices.rep.calls": (calls["matrices.rep"], "count"),
        "matrices.self_s": (layer_self_s["matrices"], "s"),
        "spin.lipschitz.calls": (calls["spin.lipschitz"], "count"),
        "spin.lipschitz.distinct_ratio": (ratio(len(tracer.lipschitz_seen), calls["spin.lipschitz"]), "ratio"),
        "spin.pfaffian.calls": (calls["spin.pfaffian"], "count"),
        "spin.norm.calls": (calls["spin.norm"], "count"),
        "spin.self_s": (layer_self_s["spin"], "s"),
        "geometry.kernel.calls": (calls["geometry.kernel"], "count"),
        "geometry.independent_system.calls": (calls["geometry.independent_system"], "count"),
        "geometry.to_spinor.calls": (calls["geometry.to_spinor"], "count"),
        "geometry.to_spinor.fallback_ratio": (
            ratio(counts["geometry.to_spinor.fallback"], calls["geometry.to_spinor"]), "ratio"),
        "geometry.motion.calls": (calls["geometry.motion"], "count"),
        "geometry.self_s": (layer_self_s["geometry"], "s"),
        "atlas.calls": (layer_calls["atlas"], "count"),
        "atlas.self_s": (layer_self_s["atlas"], "s"),
        "poly.mul.calls": (calls["poly.mul"], "count"),
        "poly.self_s": (layer_self_s["poly"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.self_s": (layer_self_s["cli"], "s"),
        "task.self_s": (layer_self_s["task"], "s"),
        "trace.task_s": (sum(end - start for name, start, end, _, _ in tracer.spans if name == "task"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = (tracer.errors[layer], "count")
    return out
