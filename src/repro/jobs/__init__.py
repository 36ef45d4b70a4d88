"""The MapReduce formulation of every BAYWATCH phase (Section VII)."""

from repro.jobs.records import DetectionCase, detection_case_to_beaconing_case
from repro.jobs.checkpoint import CheckpointMismatch, CheckpointStore
from repro.jobs.extraction import DataExtractionJob
from repro.jobs.rescaling import RescaleMergeJob
from repro.jobs.popularity import DestinationPopularityJob, popularity_table
from repro.jobs.detection import BeaconingDetectionJob
from repro.jobs.runner import BaywatchRunner, IncompleteRunError
from repro.jobs.summary_store import (
    SummaryPacker,
    SummaryStore,
    pack_summaries,
    unpack_summaries,
)

__all__ = [
    "SummaryPacker",
    "SummaryStore",
    "pack_summaries",
    "unpack_summaries",
    "CheckpointMismatch",
    "CheckpointStore",
    "DetectionCase",
    "detection_case_to_beaconing_case",
    "DataExtractionJob",
    "RescaleMergeJob",
    "DestinationPopularityJob",
    "popularity_table",
    "BeaconingDetectionJob",
    "BaywatchRunner",
    "IncompleteRunError",
]
