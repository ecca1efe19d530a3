"""Reporting: ASCII tables/series and experiment reproduction records."""

from .experiment import ExperimentRecord, render_markdown
from .report import render_busy_bars, run_report
from .tables import format_kv, format_series, format_table

__all__ = [
    "render_busy_bars",
    "run_report",
    "ExperimentRecord",
    "render_markdown",
    "format_kv",
    "format_series",
    "format_table",
]
