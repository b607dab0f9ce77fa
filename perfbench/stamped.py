"""A buffered stream that records when it hands each observation over.

The prequential pipeline pulls observation t+1 only after it has
finished step t, so the gap between two hand-over stamps is one full
step: scaling, prediction, detection, training and, where the run
tracks, attribution upkeep. Stamps read the thread's CPU clock, which
on a shared host leaves out the time the loop waited for a processor.
The stamp list restarts on every pass over the data, so a min-max fit
pass (``stream.scaled`` on data without declared ranges) is not counted
as steps.
"""

from __future__ import annotations

import time

import numpy as np

from driftscope.stream import BufferedStream


class StampedStream(BufferedStream):
    """``BufferedStream`` recording ``thread_time`` at every hand-over.

    After a pass, ``stamps[t]`` is the time observation t was handed over
    and a final stamp marks the pipeline asking for more after the last
    one. A pass that raised stops early and has no final stamp.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.stamps: list[float] = []

    @classmethod
    def wrap(cls, base: BufferedStream) -> "StampedStream":
        return cls(
            features=base.features,
            labels=base.labels,
            drift_positions=tuple(base.drift_positions),
            feature_names=tuple(base.feature_names),
            feature_ranges=tuple(base.feature_ranges),
        )

    def __iter__(self):
        stamps = self.stamps = []
        clock = time.thread_time
        for item in super().__iter__():
            stamps.append(clock())
            yield item
        stamps.append(clock())

    @property
    def steps_attempted(self) -> int:
        """Steps 1..length-1; step 0 only warms the model up."""
        return max(self.length - 1, 0)

    @property
    def steps_completed(self) -> int:
        """Steps t >= 1 whose next hand-over (or the final stamp) happened."""
        return max(len(self.stamps) - 2, 0)

    def step_seconds(self) -> np.ndarray:
        """Duration of each completed step t >= 1 of the latest pass."""
        return np.diff(np.asarray(self.stamps[1:], dtype=float))
