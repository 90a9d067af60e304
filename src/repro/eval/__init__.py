"""Evaluation harness: the shared protocol and efficiency profiling."""

from .efficiency import EfficiencyProfile, profile_detector
from .protocol import EvaluationResult, evaluate_detector, format_results_table

__all__ = [
    "EvaluationResult",
    "evaluate_detector",
    "format_results_table",
    "EfficiencyProfile",
    "profile_detector",
]
