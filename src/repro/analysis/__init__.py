"""Measurement and reporting helpers."""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".tables": ("Table", "format_bytes", "ratio"),
    ".logstats": ("failure_summary", "fault_summary", "obs_summary"),
})
