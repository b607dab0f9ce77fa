"""Per-layer spans timed from outside the program.

``installed(tracer)`` patches each public function of driftscope where
its caller looks it up (methods on their classes, module-level names in
the importing module) with a wrapper that counts calls and measures self
time with a span stack. Only the traced worker imports this module, so
the untimed wrappers never touch an end-to-end run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from driftscope import attribution, baseline, models, pipeline, stream, tree

# (span name, owner, attribute); the owner is a class for methods and a
# module for names a module imported from elsewhere.
PATCH_POINTS = (
    ("stream.normalize", stream.Normalizer, "normalize"),
    ("models.predict", models.OnlineLogisticRegression, "predict"),
    ("models.predict", models.GaussianNaiveBayes, "predict"),
    ("models.update", models.OnlineLogisticRegression, "update"),
    ("models.update", models.GaussianNaiveBayes, "update"),
    ("baseline.update", baseline.EwmaBaseline, "update"),
    ("tree.update", tree.AdaptiveClusterTree, "update"),
    ("tree.append", tree.ClusterNode, "append"),
    ("tree.split", tree.AdaptiveClusterTree, "split_leaf"),
    ("tree.prune", tree.AdaptiveClusterTree, "prune"),
    ("tree.local_test", tree.AdaptiveClusterTree, "test_local_change"),
    ("tree.global_test", tree.AdaptiveClusterTree, "test_global_change"),
    ("tree.find_leaf", tree.AdaptiveClusterTree, "find_leaf"),
    ("numerics.t_test", tree, "t_test_unpaired"),
    ("numerics.fisher", tree, "fisher_combine"),
    ("attribution.tracker_step", attribution.AttributionTracker, "step"),
    ("attribution.attribute", pipeline, "attribute_linear"),
    ("attribution.attribute", attribution, "attribute_linear"),
)

SPANS = tuple(dict.fromkeys(name for name, _, _ in PATCH_POINTS))
# Time inside the traced run call that no span covers: the prequential
# loop itself, and on the tracking run the inline oracle and slot loop.
PIPELINE_SELF = "pipeline.self"


class Tracer:
    """Call counts, self time and a few outcome counts per span name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.top_level_s = 0.0
        self._stack: list[float] = []  # child time of each open span
        self._open: Counter[str] = Counter()

    def _on_result(self, name: str, result) -> None:
        if name == "tree.append" and self._open["tree.split"]:
            self.counts["tree.split.replay_appends"] += 1
        elif name == "tree.local_test" and result is not None:
            self.counts["tree.local_alerts"] += 1
        elif name == "tree.global_test" and result is not None:
            self.counts["tree.global_alerts"] += 1
        elif name == "attribution.tracker_step":
            self.counts["attribution.recomputes"] += len(result)

    def wrap(self, name: str, fn):
        stack = self._stack
        opened = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            opened[name] += 1
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                opened[name] -= 1
                self.self_s[name] += elapsed - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            self._on_result(name, result)
            return result

        return span


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every span point for the duration of the block."""
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in PATCH_POINTS]
    try:
        for (name, owner, attr), (_, _, fn) in zip(PATCH_POINTS, originals):
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
