"""Reporting: ASCII tables/series and experiment reproduction records."""

from .experiment import ExperimentRecord, render_markdown
from .gantt import render_busy_bars, render_gantt
from .report import run_report
from .tables import format_kv, format_series, format_table
from .trace_io import save_chrome_trace, timeline_to_trace_events

__all__ = [
    "render_busy_bars",
    "render_gantt",
    "run_report",
    "save_chrome_trace",
    "timeline_to_trace_events",
    "ExperimentRecord",
    "render_markdown",
    "format_kv",
    "format_series",
    "format_table",
]
