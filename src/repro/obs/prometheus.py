"""Prometheus text exposition: renderer, parser, and format validator.

:func:`render_prometheus` turns one consistent
:meth:`~repro.service.metrics.ServiceMetrics.exposition_data` snapshot
(plus the server's gauges, SLO status, process stats, and trace-store
counters) into the Prometheus text exposition format (version 0.0.4):

* every per-dataset counter becomes ``repro_<name>_total{dataset=...}``
  (plus a ``scenario`` label when the metrics sink carries one);
* every latency histogram becomes cumulative
  ``repro_*_seconds_bucket{le=...}`` / ``_sum`` / ``_count`` series
  straight from the log-scaled buckets — no resampling;
* derived quantiles (via the shared
  :func:`~repro.service.metrics.merge_quantile`) and server state
  become gauges.

:func:`parse_prometheus` / :func:`validate_exposition` are the other
half: a small strict parser used by the tests and the CI perf gate to
prove the endpoint emits what a real scraper would accept — TYPE-
declared families, grouped samples, cumulative monotone buckets, and a
``+Inf`` bucket equal to ``_count``.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "PrometheusRenderer",
    "parse_prometheus",
    "render_prometheus",
    "validate_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels.items())
    return "{" + inner + "}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(value)


def _format_le(edge: float) -> str:
    """Bucket boundary label — stable shortest form (e.g. ``0.000128``)."""
    return format(float(edge), ".12g")


class PrometheusRenderer:
    """Accumulates metric families, renders grouped exposition text.

    Samples are grouped per family at render time (the exposition format
    requires all lines of a metric in one block), with ``# HELP`` and
    ``# TYPE`` emitted once per family in first-use order.  Re-declaring
    a family with a different type is a programming error and raises.
    """

    def __init__(self, *, namespace: str = "repro") -> None:
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid metric namespace {namespace!r}")
        self._namespace = namespace
        self._families: dict[str, dict] = {}

    def _family(self, name: str, mtype: str, help_text: str) -> dict:
        full = f"{self._namespace}_{name}" if self._namespace else name
        if not _NAME_RE.match(full):
            raise ValueError(f"invalid metric name {full!r}")
        family = self._families.get(full)
        if family is None:
            family = self._families.setdefault(
                full,
                {"name": full, "type": mtype, "help": help_text or full, "samples": []},
            )
        elif family["type"] != mtype:
            raise ValueError(
                f"metric {full} declared as {family['type']}, re-used as {mtype}"
            )
        return family

    def counter(self, name: str, value, labels=None, *, help: str = "") -> None:
        family = self._family(name, "counter", help)
        family["samples"].append(
            f"{family['name']}{_format_labels(labels)} {_format_value(value)}"
        )

    def gauge(self, name: str, value, labels=None, *, help: str = "") -> None:
        family = self._family(name, "gauge", help)
        family["samples"].append(
            f"{family['name']}{_format_labels(labels)} {_format_value(value)}"
        )

    def histogram(self, name: str, export: dict, labels=None, *, help: str = "") -> None:
        """One histogram series from a :meth:`LatencyHistogram.export` dict."""
        family = self._family(name, "histogram", help)
        full = family["name"]
        labels = dict(labels) if labels else {}
        edges = export["edges"]
        counts = export["counts"]
        cumulative = 0
        for edge, count in zip(edges, counts):
            cumulative += count
            bucket_labels = {**labels, "le": _format_le(edge)}
            family["samples"].append(
                f"{full}_bucket{_format_labels(bucket_labels)} {cumulative}"
            )
        cumulative += counts[len(edges)]  # open-ended overflow bucket
        family["samples"].append(
            f"{full}_bucket{_format_labels({**labels, 'le': '+Inf'})} {cumulative}"
        )
        family["samples"].append(
            f"{full}_sum{_format_labels(labels)} {_format_value(float(export['total']))}"
        )
        family["samples"].append(
            f"{full}_count{_format_labels(labels)} {export['count']}"
        )

    def render(self) -> str:
        lines: list[str] = []
        for family in self._families.values():
            lines.append(f"# HELP {family['name']} {family['help']}")
            lines.append(f"# TYPE {family['name']} {family['type']}")
            lines.extend(family["samples"])
        return "\n".join(lines) + "\n"


_COUNTER_HELP = {
    "requests": "Requests submitted to the gateway.",
    "solves": "Actual solver runs (coalesced peers share one).",
    "coalesced": "Requests answered by a solve they shared.",
    "updates": "Write operations applied.",
    "shed": "Requests refused by admission control (429).",
    "errors": "Requests that failed with an error.",
    "builds": "Dataset index builds.",
    "evictions": "Dataset indexes evicted from the registry.",
    "cache_clears": "Pinned live indexes reclaimed in place.",
    "spills": "Index snapshots written on eviction.",
    "spill_loads": "Indexes reloaded from a spill snapshot.",
    "wal_appends": "Live writes made durable in the write-ahead log.",
    "wal_replays": "WAL records re-applied during index recovery.",
    "fence_violations": "Solves retired because a write fenced them.",
}


def render_prometheus(
    metrics=None,
    *,
    gauges: dict | None = None,
    slo: dict | None = None,
    process: dict | None = None,
    traces: dict | None = None,
    plans: list | None = None,
    namespace: str = "repro",
) -> str:
    """Render the full exposition for one scrape.

    Args:
        metrics: a :class:`~repro.service.metrics.ServiceMetrics` sink
            (counters + histograms + derived quantile gauges), optional.
        gauges: flat ``name -> number`` server gauges (inflight, registry
            bytes, ...); ``None`` values are skipped.
        slo: a :meth:`SloTracker.snapshot` dict -> per-dataset SLO gauges.
        process: a :func:`process_stats` dict -> ``repro_process_*`` gauges.
        traces: a :meth:`TraceStore.stats` dict -> trace-store series.
        plans: a :meth:`Planner.counters_export` list -> the
            ``repro_plan_total{algorithm,reason}`` decision counter.
    """
    r = PrometheusRenderer(namespace=namespace)
    if metrics is not None:
        data = metrics.exposition_data()
        scenario = data.get("scenario")
        base = {"scenario": scenario} if scenario else {}
        for dataset, block in sorted(data["datasets"].items()):
            labels = {"dataset": dataset, **base}
            for cname, value in block["counters"].items():
                r.counter(
                    f"{cname}_total",
                    value,
                    labels,
                    help=_COUNTER_HELP.get(cname, f"ServiceMetrics counter {cname}."),
                )
            r.histogram(
                "request_latency_seconds",
                block["request_latency"],
                labels,
                help="End-to-end request latency (enqueue to result).",
            )
            r.histogram(
                "solve_latency_seconds",
                block["solve_latency"],
                labels,
                help="Wall time of actual solver runs.",
            )
            for phase, export in sorted(block["phases"].items()):
                r.histogram(
                    "solve_phase_seconds",
                    export,
                    {**labels, "phase": phase},
                    help="Solver-internal phase timings.",
                )
        r.counter(
            "gateway_batches_total",
            data["batches"],
            base,
            help="Gateway mailbox runs (one dataset's queued ops, taken together).",
        )
        r.counter(
            "gateway_batched_requests_total",
            data["batched_requests"],
            base,
            help="Requests and writes covered by gateway mailbox runs.",
        )
        # Derived cross-dataset quantiles through the one shared
        # merge_quantile path (same numbers solve_quantile serves).
        for q, qname in ((0.5, "p50"), (0.99, "p99")):
            solve_q = metrics.solve_quantile(q)
            if solve_q is not None:
                r.gauge(
                    f"solve_latency_{qname}_seconds",
                    solve_q,
                    base,
                    help=f"Merged cross-dataset solve-latency {qname}.",
                )
            request_q = metrics.request_quantile(q)
            if request_q is not None:
                r.gauge(
                    f"request_latency_{qname}_seconds",
                    request_q,
                    base,
                    help=f"Merged cross-dataset request-latency {qname}.",
                )
    if gauges:
        for name, value in gauges.items():
            if value is None:
                continue
            r.gauge(name, value, help=f"Server gauge {name}.")
    if slo:
        objectives = slo.get("objectives", {})
        for key, value in sorted(objectives.items()):
            r.gauge(
                f"slo_objective_{key}",
                value,
                help=f"Configured SLO objective {key}.",
            )
        for dataset, status in sorted(slo.get("datasets", {}).items()):
            labels = {"dataset": dataset}
            r.gauge(
                "slo_window_requests",
                status["window"],
                labels,
                help="Requests in the rolling SLO window.",
            )
            r.gauge(
                "slo_latency_observed_seconds",
                status["latency_observed_s"],
                labels,
                help="Observed objective-quantile latency over the window.",
            )
            r.gauge(
                "slo_latency_ok_ratio",
                status["latency_ok_rate"],
                labels,
                help="Fraction of windowed requests under the latency target.",
            )
            r.gauge(
                "slo_error_ratio",
                status["error_rate"],
                labels,
                help="Windowed error rate.",
            )
            if status.get("error_budget_burn") is not None:
                r.gauge(
                    "slo_error_budget_burn",
                    status["error_budget_burn"],
                    labels,
                    help="Observed error rate over the allowed rate (1.0 = at budget).",
                )
            r.gauge(
                "slo_attained",
                status["attained"],
                labels,
                help="1 when both latency and availability objectives hold.",
            )
    if plans:
        for row in plans:
            r.counter(
                "plan_total",
                row["count"],
                {"algorithm": row["algorithm"], "reason": row["reason"]},
                help="Planner dispatch decisions by algorithm and reason.",
            )
    if process:
        renames = {
            "uptime_s": "uptime_seconds",
            "max_rss_bytes": "max_rss_bytes",
        }
        for key, value in process.items():
            if value is None:
                continue
            r.gauge(
                f"process_{renames.get(key, key)}",
                value,
                help=f"Process gauge {key}.",
            )
    if traces:
        r.counter(
            "traces_recorded_total",
            traces["recorded"],
            help="Completed traces recorded to the ring buffer.",
        )
        r.counter(
            "traces_slow_total",
            traces["slow"],
            help="Traces that crossed the slow-trace threshold.",
        )
        r.gauge(
            "traces_buffered",
            traces["buffered"],
            help="Traces currently held in the recent ring.",
        )
    return r.render()


# --------------------------------------------------------------------- #
# parsing + validation (tests and the CI perf gate)
# --------------------------------------------------------------------- #


def _parse_labels(raw: str, lineno: int) -> dict:
    labels: dict[str, str] = {}
    i, n = 0, len(raw)
    while i < n:
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"', raw[i:])
        if not match:
            raise ValueError(f"line {lineno}: bad label syntax in {{{raw}}}")
        key = match.group(1)
        i += match.end()
        value_chars: list[str] = []
        while True:
            if i >= n:
                raise ValueError(f"line {lineno}: unterminated label value")
            ch = raw[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ValueError(f"line {lineno}: dangling escape")
                nxt = raw[i + 1]
                value_chars.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt)
                )
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                value_chars.append(ch)
                i += 1
        if key in labels:
            raise ValueError(f"line {lineno}: duplicate label {key!r}")
        labels[key] = "".join(value_chars)
        rest = raw[i:].lstrip()
        if rest.startswith(","):
            i = n - len(rest) + 1
        elif rest:
            raise ValueError(f"line {lineno}: junk after label value: {rest!r}")
        else:
            break
    return labels


def _family_of(name: str, types: dict) -> str:
    """Map a sample name to its family (histogram samples use suffixes)."""
    for suffix in _HISTOGRAM_SUFFIXES:
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return name


def parse_prometheus(text: str) -> dict:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)``
    tuples.  Raises :class:`ValueError` on any syntax error — this is a
    strict parser for validating our own output, not a lenient scraper.
    """
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(" ", 1)
            if not parts or not _NAME_RE.match(parts[0]):
                raise ValueError(f"line {lineno}: bad HELP line")
            helps[parts[0]] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2 or not _NAME_RE.match(parts[0]):
                raise ValueError(f"line {lineno}: bad TYPE line")
            name, mtype = parts
            if mtype not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {mtype!r}")
            if name in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = mtype
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        labels = (
            _parse_labels(match.group("labels"), lineno)
            if match.group("labels") is not None
            else {}
        )
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            ) from None
        samples.append((match.group("name"), labels, value))

    families: dict[str, dict] = {}
    for name, mtype in types.items():
        families[name] = {"type": mtype, "help": helps.get(name, ""), "samples": []}
    for name, labels, value in samples:
        family = _family_of(name, types)
        if family not in families:
            families[family] = {"type": None, "help": helps.get(family, ""), "samples": []}
        families[family]["samples"].append((name, labels, value))
    return families


def _series_key(labels: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in labels.items() if k != "le"))


def validate_exposition(text: str) -> dict:
    """Parse *and* semantically validate exposition text; returns families.

    Beyond syntax, checks what a real scraper would enforce:

    * every sample belongs to a ``# TYPE``-declared family;
    * counters are finite, non-negative, and named ``*_total``;
    * each histogram series has monotone non-decreasing cumulative
      buckets, a ``+Inf`` bucket, and ``+Inf`` == ``_count``;
    * histogram ``_sum``/``_count`` present per series.
    """
    families = parse_prometheus(text)
    for family, info in families.items():
        if info["type"] is None:
            raise ValueError(f"family {family} has samples but no # TYPE line")
        if info["type"] == "counter":
            for name, _labels, value in info["samples"]:
                if not name.endswith("_total"):
                    raise ValueError(f"counter sample {name} not named *_total")
                if not math.isfinite(value) or value < 0:
                    raise ValueError(f"counter {name} has invalid value {value}")
        elif info["type"] == "histogram":
            series: dict[tuple, dict] = {}
            for name, labels, value in info["samples"]:
                entry = series.setdefault(
                    _series_key(labels), {"buckets": [], "sum": None, "count": None}
                )
                if name.endswith("_bucket"):
                    if "le" not in labels:
                        raise ValueError(f"{family}: bucket sample missing le label")
                    entry["buckets"].append((labels["le"], value))
                elif name.endswith("_sum"):
                    entry["sum"] = value
                elif name.endswith("_count"):
                    entry["count"] = value
                else:
                    raise ValueError(
                        f"{family}: unexpected histogram sample name {name}"
                    )
            for key, entry in series.items():
                if entry["sum"] is None or entry["count"] is None:
                    raise ValueError(f"{family}{dict(key)}: missing _sum or _count")
                if not entry["buckets"]:
                    raise ValueError(f"{family}{dict(key)}: no buckets")
                previous = -1.0
                inf_value = None
                for le, value in entry["buckets"]:
                    boundary = float(le)
                    if value < previous:
                        raise ValueError(
                            f"{family}{dict(key)}: non-cumulative bucket at le={le}"
                        )
                    previous = value
                    if math.isinf(boundary) and boundary > 0:
                        inf_value = value
                if inf_value is None:
                    raise ValueError(f"{family}{dict(key)}: missing le=\"+Inf\" bucket")
                if inf_value != entry["count"]:
                    raise ValueError(
                        f"{family}{dict(key)}: +Inf bucket {inf_value} != "
                        f"_count {entry['count']}"
                    )
    return families
