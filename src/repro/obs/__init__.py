"""Unified observability: one registry, spans, exportable telemetry.

``repro.obs`` is the telemetry layer the rest of the system reports
into.  A :class:`MetricsRegistry` holds counters, gauges and
bounded-bucket histograms; a :class:`Span` times a (possibly nested)
phase and lands its duration in a histogram keyed by the span name;
*collectors* absorb the pre-existing counter ledgers (``IOStats``,
engine ``stats()``) behind compatibility accessors; *sinks*
(:class:`repro.analysis.trace.Tracer`) subscribe to the registry's
event stream instead of being wired as a parallel mechanism.

The whole layer follows the null-object pattern: every instrumented
component holds :data:`NULL_OBS` by default, whose ``enabled`` flag is
False and whose methods do nothing — the hot paths guard their timing
work behind ``if obs.enabled`` so an un-instrumented system pays ~one
attribute check (asserted by the E10 overhead lane).

Exporters: :func:`render_prometheus` (text exposition format) and
:func:`dump_jsonl` / :func:`load_jsonl` (span events + final snapshot,
round-trippable), surfaced as ``python -m repro metrics`` and the
``--metrics-out`` flags on ``torture`` and the E10/E11 benchmarks.

Distributed tracing rides on the same span machinery:
:class:`TraceContext` (``repro.obs.tracing``) crosses process
boundaries as a ``"trace"`` wire field, traced spans carry
``trace``/``span``/``parent_span`` tags, and ``repro.obs.tracetree``
(``python -m repro trace``) reconstructs the causal tree from the
JSONL exports of every process involved.  :class:`FlightRecorder`
(``repro.obs.flightrec``) taps the registry's event stream into a
bounded ring persisted as ``flightrec.jsonl`` for crash post-mortems.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".metrics": (
        "COUNT_BUCKETS", "LATENCY_BUCKETS", "MS_BUCKETS", "Histogram",
        "MetricsRegistry", "NULL_OBS", "NullRegistry", "Span",
        "process_memory",
    ),
    ".export": ("dump_jsonl", "load_jsonl", "render_prometheus"),
    ".flightrec": ("FlightRecorder", "load_flightrec"),
    # Loads ``http.server`` (and email, ssl, ... behind it): ~3 MiB that
    # a process without the endpoint must not pay for, so nothing else
    # in this package imports it.
    ".http": ("ObsHTTPServer",),
    ".tracing": ("TraceContext",),
})
