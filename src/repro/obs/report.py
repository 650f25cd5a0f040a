"""Post-mortem analysis of a JSONL trace: per-stage breakdown tables.

``repro trace report RUN.jsonl`` feeds spans through
:func:`summarize` (plain dict, the ``--json`` surface) and
:func:`render_report` (aligned ASCII tables for the terminal).  Both
work from :class:`~repro.obs.trace.Span` lists, so served runs and
local runs get the same view.
"""

from __future__ import annotations

from repro.obs.trace import STAGES


def _percentile(sorted_values, fraction: float) -> float:
    """Exact nearest-rank percentile over an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-fraction * len(sorted_values) // 1)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize(spans, top: int = 10) -> dict:
    """Reduce spans to per-stage stats, slowest shards, and hit rates."""
    batch_spans = [s for s in spans if s.kind == "engine-batch"]
    shard_spans = [s for s in spans if s.kind != "engine-batch"]

    stage_values: dict = {name: [] for name in STAGES}
    for span in spans:
        for name, seconds in span.stages.items():
            stage_values.setdefault(name, []).append(float(seconds))
    stages = []
    for name in list(STAGES) + sorted(set(stage_values) - set(STAGES)):
        values = sorted(v for v in stage_values.get(name, []) if v > 0)
        if not values:
            continue
        stages.append({"stage": name, "count": len(values),
                       "total_s": sum(values),
                       "p50_s": _percentile(values, 0.50),
                       "p95_s": _percentile(values, 0.95),
                       "max_s": values[-1]})

    executed = [s for s in shard_spans
                if not s.cache_hit and s.status == "ok"]
    # Ranked by work, not residency: on the serial backend a shard's
    # duration is mostly queue wait, and a shard its trace unit served
    # from an earlier run executes in about 0 s.
    slowest = sorted(executed,
                     key=lambda s: float(s.stages.get("execute", 0.0)),
                     reverse=True)[:max(0, top)]
    slowest = [{"key": s.key[:16], "label": s.label, "kind": s.kind,
                "backend": s.backend, "worker": s.worker,
                "duration_s": s.duration_s,
                "execute_s": float(s.stages.get("execute", 0.0))}
               for s in slowest]

    by_kind: dict = {}
    for span in shard_spans:
        bucket = by_kind.setdefault(span.kind or "?",
                                    {"hits": 0, "executed": 0,
                                     "errors": 0})
        if span.cache_hit:
            bucket["hits"] += 1
        elif span.status == "ok":
            bucket["executed"] += 1
        else:
            bucket["errors"] += 1
    hit_rates = []
    for kind in sorted(by_kind):
        bucket = by_kind[kind]
        looked_up = bucket["hits"] + bucket["executed"]
        hit_rates.append({
            "kind": kind, **bucket,
            "hit_rate": (bucket["hits"] / looked_up
                         if looked_up else None)})

    if batch_spans:
        wall = sum(s.duration_s for s in batch_spans)
    elif shard_spans:
        wall = (max(s.start_s + s.duration_s for s in shard_spans)
                - min(s.start_s for s in shard_spans))
    else:
        wall = 0.0

    return {"spans": len(spans), "shards": len(shard_spans),
            "batches": len(batch_spans),
            "errors": sum(1 for s in shard_spans
                          if s.status != "ok"),
            "wall_s": wall, "stages": stages, "slowest": slowest,
            "hit_rates": hit_rates}


def _table(headers, rows) -> str:
    """Render rows as an aligned two-space-gutter ASCII table."""
    cells = [[str(h) for h in headers]]
    cells += [[str(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(value.ljust(width)
                               for value, width in zip(row, widths))
                     .rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _seconds(value: float) -> str:
    if value >= 100:
        return f"{value:.1f}s"
    if value >= 0.1:
        return f"{value:.3f}s"
    return f"{value * 1000:.2f}ms"


def render_report(spans, top: int = 10) -> str:
    """The human-facing trace report: three tables plus a header."""
    summary = summarize(spans, top=top)
    out = [f"trace: {summary['shards']} shard span(s), "
           f"{summary['batches']} batch span(s), "
           f"{summary['errors']} error(s), "
           f"wall {_seconds(summary['wall_s'])}"]

    if summary["stages"]:
        out.append("")
        out.append("Per-stage breakdown:")
        out.append(_table(
            ("stage", "count", "total", "p50", "p95", "max"),
            [(s["stage"], s["count"], _seconds(s["total_s"]),
              _seconds(s["p50_s"]), _seconds(s["p95_s"]),
              _seconds(s["max_s"])) for s in summary["stages"]]))

    if summary["slowest"]:
        out.append("")
        out.append(f"Slowest {len(summary['slowest'])} executed "
                   f"shard(s):")
        out.append(_table(
            ("key", "label", "kind", "worker", "duration", "execute"),
            [(s["key"], s["label"] or "-", s["kind"] or "-",
              s["worker"] or "-", _seconds(s["duration_s"]),
              _seconds(s["execute_s"])) for s in summary["slowest"]]))

    if summary["hit_rates"]:
        out.append("")
        out.append("Cache hit-rate by job kind:")
        out.append(_table(
            ("kind", "hits", "executed", "errors", "hit-rate"),
            [(h["kind"], h["hits"], h["executed"], h["errors"],
              "-" if h["hit_rate"] is None
              else f"{h['hit_rate'] * 100:.1f}%")
             for h in summary["hit_rates"]]))

    return "\n".join(out)
