"""Streaming change detection with locality-aware explanation tracking."""

from .attribution import (
    AttributionTracker,
    AttributionVector,
    attribute_linear,
)
from .baseline import EwmaBaseline
from .config import DetectorConfig
from .evaluation import (
    DdmDetector,
    compute_recall_fdr,
    run_benchmark,
    score_alerts,
)
from .generators import AgrawalStream, DriftSchedule, SeaStream, make_generator
from .injection import permute_inject
from .models import GaussianNaiveBayes, OnlineLogisticRegression, detector_input
from .pipeline import RunResult, TrackingResult, run_detection, run_tracking
from .stream import BufferedStream, buffer_stream, read_csv
from .tree import AdaptiveClusterTree, DriftAlert

__version__ = "0.1.0"

__all__ = [
    "AdaptiveClusterTree",
    "AgrawalStream",
    "AttributionTracker",
    "AttributionVector",
    "BufferedStream",
    "DdmDetector",
    "DetectorConfig",
    "DriftAlert",
    "DriftSchedule",
    "EwmaBaseline",
    "GaussianNaiveBayes",
    "OnlineLogisticRegression",
    "RunResult",
    "SeaStream",
    "TrackingResult",
    "attribute_linear",
    "buffer_stream",
    "compute_recall_fdr",
    "detector_input",
    "make_generator",
    "permute_inject",
    "read_csv",
    "run_benchmark",
    "run_detection",
    "run_tracking",
    "score_alerts",
]
