"""``repro.obs``: request tracing, Prometheus exposition, SLO tracking.

The serving stack (gateway, registry, HTTP server) reports
*aggregate* health through :class:`~repro.service.metrics.ServiceMetrics`
— that says a p99 regressed, never *why* one request was slow.  This
package adds the per-request layer:

* :mod:`repro.obs.trace` — a lock-cheap :class:`Span`/:class:`Trace` API
  (one trace per request, monotonic-clock spans with tags), a bounded
  :class:`TraceStore` ring buffer with a slow-trace log, and the
  context-propagation helpers (:func:`use_trace`, :func:`current_span`,
  :func:`child_of_current`) the gateway, registry, and solver
  index use to annotate without holding references to each other.
* :mod:`repro.obs.prometheus` — renders every ``ServiceMetrics``
  counter, histogram, and the server's gauges in the Prometheus text
  exposition format (``GET /v1/metrics?format=prometheus`` and the
  ``/metrics`` alias), plus the parser the tests and the CI perf gate
  validate that output with.
* :mod:`repro.obs.slo` — per-tenant latency/availability objectives
  declared in :class:`~repro.server.config.ServerConfig`, tracked over a
  rolling window with attainment and error-budget burn.
* :mod:`repro.obs.process` — process-level gauges (RSS, uptime, GC
  generation counts, thread count) for correlating bench regressions
  with memory growth.

See ``docs/OBSERVABILITY.md`` for the span model, exposition names, and
the ``repro trace`` CLI.
"""

from .process import process_stats
from .prometheus import (
    PrometheusRenderer,
    parse_prometheus,
    render_prometheus,
    validate_exposition,
)
from .slo import SloObjectives, SloTracker
from .trace import (
    NULL_SPAN,
    Span,
    Trace,
    TraceStore,
    child_of_current,
    current_span,
    current_trace,
    format_trace,
    use_trace,
)

__all__ = [
    "NULL_SPAN",
    "PrometheusRenderer",
    "SloObjectives",
    "SloTracker",
    "Span",
    "Trace",
    "TraceStore",
    "child_of_current",
    "current_span",
    "current_trace",
    "format_trace",
    "parse_prometheus",
    "process_stats",
    "render_prometheus",
    "use_trace",
    "validate_exposition",
]
