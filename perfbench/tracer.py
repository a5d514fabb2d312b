"""Spans around calls into each kactails layer, installed from outside.

The library is not edited: `Tracer.install` replaces each traced function
at every module attribute that holds it (so names bound by
`from .x import f` are covered too) and each traced `sample` method on the
kernel and law classes.  A span records its name, start, end, parent span
and the work it did as counts; a layer's self time is its span minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _size(value):
    return int(getattr(value, "size", 1))


# (span name, module, attribute, counts from (bound arguments, result))
FUNCTIONS = (
    ("weights.grow_weights_batch", "weights", "grow_weights_batch",
     lambda a, r: {"leaves": r[0].size, "trees": r[1].size}),
    ("processes.sample_yule", "processes", "sample_yule",
     lambda a, r: {"paths": _size(r)}),
    ("processes.forest_statistics", "processes", "forest_statistics",
     lambda a, r: {"paths": r.nu.size}),
    ("limits.zpool_iterate", "limits", "zpool_iterate",
     lambda a, r: {"updates": a["pool"].samples.size * int(a["iterations"])}),
    ("limits.cdf_H_infinity", "limits", "cdf_H_infinity", None),
    ("deviations.tail_hit_counts", "deviations", "tail_hit_counts",
     lambda a, r: {"paths": int(a["n_paths"])}),
    ("deviations.iid_hit_counts", "deviations", "iid_hit_counts",
     lambda a, r: {"draws": int(a["n"]) * int(a["n_rows"])}),
    ("cli.parse_config", "cli", "parse_config", None),
    ("cli.run", "cli", "run", None),
    ("cli.write_csv", "cli", "write_csv", None),
)

# (span name, module, classes whose own `sample` method is traced, counts)
METHODS = (
    ("kernels.sample", "kernels", ("KacKernel", "DeterministicKernel", "DiscreteKernel"),
     lambda a, r: {"draws": _size(r[0])}),
    ("initial_data.sample", "initial_data", ("SymmetricPareto", "AsymmetricPareto"),
     lambda a, r: {"draws": _size(r)}),
)


class Tracer:
    """Collects spans as [name, start_ns, end_ns, parent_index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count):
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = count(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at each kactails import site."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "kactails" or n.startswith("kactails."))]
        for name, mod, attr, count in FUNCTIONS:
            orig = getattr(sys.modules[f"kactails.{mod}"], attr)
            wrapper = self.wrap(name, orig, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
        for name, mod, classes, count in METHODS:
            for cls_name in classes:
                cls = getattr(sys.modules[f"kactails.{mod}"], cls_name)
                setattr(cls, "sample", self.wrap(name, cls.__dict__["sample"], count))

    def summary(self):
        """Per span name: calls, total and self ns, summed counts; plus the
        counts of each span name split by its parent's name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names = {}
        by_parent = {}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[i]
            parent_name = self.spans[parent][0] if parent >= 0 else "-"
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + int(value)
                pair = f"{name}<{parent_name}"
                by_parent.setdefault(pair, {})
                by_parent[pair][key] = by_parent[pair].get(key, 0) + int(value)
        return {"names": names, "by_parent": by_parent}


def _get(summary, name, key, parent=None):
    if parent is None:
        return summary["names"].get(name, {}).get(key, 0)
    return summary["by_parent"].get(f"{name}<{parent}", {}).get(key, 0)


def count_mismatches(summary, cfg):
    """Exact cross-checks between layers' counts; each mismatch is a string.

    A traced function missed at one of its import sites shows up here: its
    work then lands under the wrong parent or is not counted at all.
    """
    leaves = _get(summary, "weights.grow_weights_batch", "leaves")
    trees = _get(summary, "weights.grow_weights_batch", "trees")
    paths = _get(summary, "processes.forest_statistics", "paths")
    law_in_forest = _get(summary, "initial_data.sample", "draws",
                         "processes.forest_statistics")
    kernel_in_growth = _get(summary, "kernels.sample", "draws",
                            "weights.grow_weights_batch")
    expect = [
        ("weights leaves == initial_data draws in forest_statistics",
         leaves, law_in_forest),
        ("kernels draws in grow_weights_batch == leaves - trees",
         kernel_in_growth, leaves - trees),
        ("grow_weights_batch trees == forest_statistics paths", trees, paths),
        ("sample_yule paths == forest_statistics paths",
         _get(summary, "processes.sample_yule", "paths", "processes.forest_statistics"),
         paths),
    ]
    if cfg.experiment in ("tail", "cdf-H"):
        expect.append(("forest_statistics paths == N per t", paths, cfg.N * len(cfg.t)))
    if cfg.experiment == "tail":
        expect.append(("tail_hit_counts paths == N per t",
                       _get(summary, "deviations.tail_hit_counts", "paths"),
                       cfg.N * len(cfg.t)))
    if cfg.experiment == "cdf-H":
        expect.append(("zpool_iterate updates == pool_size * iterations",
                       _get(summary, "limits.zpool_iterate", "updates"),
                       cfg.pool_size * cfg.iterations))
    if cfg.experiment == "baseline":
        rows = cfg.N * cfg.n[0]
        expect += [
            ("iid_hit_counts draws == N * n",
             _get(summary, "deviations.iid_hit_counts", "draws"), rows),
            ("initial_data draws in iid_hit_counts == N * n",
             _get(summary, "initial_data.sample", "draws", "deviations.iid_hit_counts"),
             rows),
        ]
    return [f"{label}: {got} != {want}" for label, got, want in expect if got != want]
