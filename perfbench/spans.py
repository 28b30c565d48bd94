"""Span recorder for the traced run.

Wrapping is done from outside the program: each public function named in
`TARGETS` is rebound, in every loaded `deckrecon.*` namespace that holds it, to
a wrapper that records a span (name, start, end, parent, op id). Spans stay in
memory in flat arrays and are written out once the run ends. A span's self
time is its duration minus the time covered by its child spans; calls are
single-threaded and properly nested, so the children of a span never overlap.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute) -> what to record. "span": a span per call;
# "span+distinct": also count distinct graph arguments; "count": calls only,
# for a function called too often to afford a span.
TARGETS = {
    ("graphs", "Graph.__post_init__"): "span",
    ("graphs", "from_graph6"): "span",
    ("canon", "canonical_form"): "span+distinct",
    ("canon", "canonical_code"): "span",
    ("canon", "canonical_labeling"): "span",
    ("canon", "automorphism_orbits"): "span",
    ("modular", "decompose"): "span+distinct",
    ("modular", "is_indecomposable"): "span",
    ("modular", "maximal_proper_module_masks"): "span",
    ("modular", "inflate"): "span",
    ("modular", "is_module"): "count",
    ("deck", "make_deck"): "span",
    ("deck", "skeleton_code"): "span",
    ("deck", "edge_count_from_deck"): "span",
    ("reconstruct", "reconstruct"): "span",
    ("reconstruct", "skeleton_from_deck"): "span",
    ("reconstruct", "singleton_count"): "span",
    ("reconstruct", "reconstruct_degenerate"): "span",
    ("reconstruct", "intervals_multi"): "span",
    ("reconstruct", "interval_single_large"): "span",
    ("reconstruct", "interval_single_pair"): "span",
    ("oracle", "enumerate_graphs"): "span",
}

LAYERS = ("graphs", "canon", "modular", "deck", "reconstruct", "oracle")

SETUP_OP = -1


class Recorder:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = SETUP_OP
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, label: str, fn, distinct: bool):
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack
        )
        seen = self.distinct[label] if distinct else None
        counts = self.counts
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if seen is not None:
                g = args[0]
                seen.add((g.n, g.adj))
            counts[label] += 1
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return wrapper

    def _count_wrapper(self, label: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every target in each loaded deckrecon module that imported it."""
        if self._undo:
            raise RuntimeError("recorder already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "deckrecon" or key.startswith("deckrecon."))
        ]
        for (module, attr), kind in TARGETS.items():
            label = f"{module}.{attr}"
            owner = sys.modules[f"deckrecon.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._span_wrapper(label, original, False))
                continue
            original = getattr(owner, attr)
            if kind == "count":
                wrapper = self._count_wrapper(label, original)
            else:
                wrapper = self._span_wrapper(label, original, kind == "span+distinct")
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.labels[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, distinct ratios and layer totals."""
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for (module, attr), kind in TARGETS.items():
            label = f"{module}.{attr}"
            calls = self.counts.get(label, 0)
            out[f"{label}.calls"] = (calls, "count")
            if kind == "count":
                continue
            out[f"{label}.self_s"] = (selfs.get(label, 0.0), "s")
            layer_self[module] += selfs.get(label, 0.0)
            if kind == "span+distinct":
                ratio = len(self.distinct[label]) / calls if calls else 0.0
                out[f"{label}.distinct_ratio"] = (ratio, "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip'd TSV: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.labels[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )
