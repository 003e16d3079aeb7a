"""Per-node and per-mode wall time, rebuilt from a run's spans.

The cost model predicts flops and words per tree node and per mode
(:func:`repro.model.cost.node_cost_terms`); the engine's perf counters
count the same work with the same
:func:`repro.core.engine.contraction_work` convention, and tier-1 pins the
two equal (``tests/test_model_cost.py::TestModelMatchesCounters``).  What
the model cannot know is where the wall time goes.  The tracer's
``node_rebuild`` spans carry node id, nnz and duration, and its
``mttkrp`` spans carry mode and duration: :func:`attribution_from_spans`
sums them into one row per tree node and one per mode, and
:func:`format_attribution` renders those rows.  ``repro report`` reads
them from a saved trace; ``repro explain --measure`` from a live one.
"""

from __future__ import annotations

__all__ = ["attribution_from_spans", "format_attribution"]


def attribution_from_spans(spans) -> dict | None:
    """Per-node / per-mode *time* attribution from a run's spans.

    ``node_rebuild`` spans carry node id and duration, ``mttkrp`` spans
    carry mode and duration — enough to reconstruct where wall time went.
    Returns None when the trace has no rebuild spans.
    """
    nodes: dict[int, dict] = {}
    modes: dict[int, dict] = {}
    for rec in spans:
        if rec.t1 is None:
            continue
        if rec.kind == "node_rebuild" and "node" in rec.attrs:
            row = nodes.setdefault(
                int(rec.attrs["node"]),
                {"seconds": 0.0, "rebuilds": 0,
                 "nnz": int(rec.attrs.get("nnz", 0))},
            )
            row["seconds"] += rec.duration
            row["rebuilds"] += 1
        elif rec.kind == "mttkrp" and "mode" in rec.attrs:
            row = modes.setdefault(
                int(rec.attrs["mode"]), {"seconds": 0.0, "mttkrps": 0}
            )
            row["seconds"] += rec.duration
            row["mttkrps"] += 1
    if not nodes:
        return None
    return {
        "nodes": [{"node": k, **v} for k, v in sorted(nodes.items())],
        "modes": [{"mode": k, **v} for k, v in sorted(modes.items())],
    }


def format_attribution(doc: dict) -> str:
    """Render :func:`attribution_from_spans` rows as per-node and per-mode
    time tables."""
    from ..model.report import format_table

    parts = []
    node_rows = doc.get("nodes") or []
    if node_rows:
        rows = [
            [r["node"], r.get("nnz", 0),
             round(r["seconds"] * 1e3, 3), int(r["rebuilds"])]
            for r in node_rows
        ]
        parts.append(format_table(
            ["node", "nnz", "ms", "rebuilds"], rows,
            title="per-node time attribution (from spans)",
        ))
    mode_rows = doc.get("modes") or []
    if mode_rows:
        rows = [
            [r["mode"], round(r["seconds"] * 1e3, 3), int(r["mttkrps"])]
            for r in mode_rows
        ]
        parts.append(format_table(
            ["mode", "ms", "mttkrps"], rows,
            title="per-mode time attribution (from spans)",
        ))
    return "\n\n".join(parts)
