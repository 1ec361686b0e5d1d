"""In-memory spans and counts around the public functions of ``oodscan``.

A span is (name, start, end, parent). Wrappers are installed from outside
the program: each traced function is replaced by a wrapper in its home
module and in every ``oodscan`` module that imported the same object by
name (``from .forest import fit_forest`` binds ``protocol.fit_forest``), so
no call site is missed. Spans live in memory and are written out once, by
``dump``.

The span stack is not thread-aware: the traced run uses ``--threads 1``,
where ``parallel_map`` runs every item in the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> public functions wrapped in that module
TRACED = {
    "cohorts": ("generate_scan", "make_cohort"),
    "encoder": ("toy_encode",),
    "ovf": ("read_ovf", "write_ovf"),
    "manifest": ("load_manifest", "save_manifest"),
    "regions": ("tumor_crops", "deep_feature_vector"),
    "radiomics": ("radiomics_lite",),
    "scores": ("scan_score",),
    "tables": ("read_feature_table", "write_feature_table",
               "read_scores_csv", "write_scores_csv"),
    "report": ("write_per_seed_csv", "read_per_seed_csv", "write_summary_csv",
               "write_summary_text", "render_summary_text", "write_ablation_csv"),
    "forest": ("fit_forest", "fit_tree", "predict_proba_batch",
               "save_model", "load_model"),
    "selection": ("rfe",),
    "protocol": ("repeated_split_eval", "split_cohort"),
    "metrics": ("auroc", "fpr_at_tpr"),
    "treeshap": ("tree_shap",),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _tree_shape(root, max_depth):
    """(nodes, depth, leaves, leaves stopped at max_depth) of a TreeNode."""
    nodes = depth = leaves = capped = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        if node.is_leaf():
            leaves += 1
            depth = max(depth, d)
            capped += d >= max_depth
        else:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return nodes, depth, leaves, capped


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.fallback_scans: set[str] = set()
        self._stack: list[int] = []

    def _enter(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(i)
        return i

    def _exit(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._enter(name)
        try:
            yield
        finally:
            self._exit(i)

    def wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            i = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # Counts that a span alone cannot give; they run after the span closes.
    def _after_hooks(self) -> dict:
        c = self.counts

        def file_bytes(key, index, name):
            def after(args, kwargs, _result):
                c[key] += os.path.getsize(_arg(args, kwargs, index, name))
            return after

        def load_manifest(args, kwargs, _result):
            c["manifest.load_manifest.validated_calls"] += bool(
                _arg(args, kwargs, 1, "validate", True))

        def scan_score(_args, _kwargs, result):
            if result.fallback_used:
                self.fallback_scans.add(result.scan_id)

        def predict(args, kwargs, _result):
            c["forest.predict_proba_batch.rows"] += len(_arg(args, kwargs, 1, "X"))

        def fit_tree(args, kwargs, result):
            params = _arg(args, kwargs, 3, "params")
            nodes, depth, leaves, capped = _tree_shape(result, params.max_depth)
            c["forest.nodes"] += nodes
            c["forest.depth_sum"] += depth
            c["forest.leaves"] += leaves
            c["forest.leaves_at_max_depth"] += capped

        return {
            "ovf.read_ovf": file_bytes("ovf.read_ovf.bytes", 0, "path"),
            "ovf.write_ovf": file_bytes("ovf.write_ovf.bytes", 1, "path"),
            "tables.read_feature_table": file_bytes("tables.bytes", 0, "path"),
            "tables.write_feature_table": file_bytes("tables.bytes", 1, "path"),
            "manifest.load_manifest": load_manifest,
            "scores.scan_score": scan_score,
            "forest.predict_proba_batch": predict,
            "forest.fit_tree": fit_tree,
        }

    def install(self, package: str = "oodscan") -> None:
        """Wrap every function in TRACED wherever ``package`` binds it.

        Raises LookupError when a listed function no longer exists, so a
        renamed or removed layer fails the traced run instead of vanishing
        from it.
        """
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        hooks = self._after_hooks()
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"{package}.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name, None)
                if original is None:
                    raise LookupError(f"{package}.{mod_name}.{fn_name} not found")
                name = f"{mod_name}.{fn_name}"
                wrapper = self.wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, spans_path, counts_path) -> None:
        with open(spans_path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
        counts = dict(self.counts)
        counts["scores.fallback_scans"] = len(self.fallback_scans)
        with open(counts_path, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
