"""Streaming change detection with locality-aware explanation tracking."""

from .attribution import (
    AttributionTracker,
    AttributionVector,
    attribute_linear,
    verify_local_accuracy,
)
from .baseline import EwmaBaseline
from .config import DetectorConfig
from .evaluation import (
    BenchmarkRow,
    DdmDetector,
    combined_score,
    compute_delay,
    compute_recall_fdr,
    run_benchmark,
    score_alerts,
)
from .generators import AgrawalStream, DriftSchedule, SeaStream, make_generator
from .injection import mi_rank_features, mutual_information, permute_inject
from .models import GaussianNaiveBayes, OnlineLogisticRegression, detector_input
from .pipeline import RunResult, TrackingResult, run_detection, run_tracking
from .stream import BufferedStream, Normalizer, buffer_stream, read_csv
from .tree import AdaptiveClusterTree, DriftAlert

__version__ = "0.1.0"

__all__ = [
    "AdaptiveClusterTree",
    "AgrawalStream",
    "AttributionTracker",
    "AttributionVector",
    "BenchmarkRow",
    "BufferedStream",
    "DdmDetector",
    "DetectorConfig",
    "DriftAlert",
    "DriftSchedule",
    "EwmaBaseline",
    "GaussianNaiveBayes",
    "Normalizer",
    "OnlineLogisticRegression",
    "RunResult",
    "SeaStream",
    "TrackingResult",
    "attribute_linear",
    "buffer_stream",
    "combined_score",
    "compute_delay",
    "compute_recall_fdr",
    "detector_input",
    "make_generator",
    "mi_rank_features",
    "mutual_information",
    "permute_inject",
    "read_csv",
    "run_benchmark",
    "run_detection",
    "run_tracking",
    "score_alerts",
    "verify_local_accuracy",
]
