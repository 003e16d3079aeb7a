"""Observability: span tracing, metrics export, and run telemetry.

Zero-dependency instrumentation for the engine/kernel/parallel stack.
Import the submodules directly (``from repro.obs import trace``); this
package re-exports nothing.

* :mod:`repro.obs.switch` — the one on/off table for the five
  instruments (trace, mem, events, profile, health), read from
  ``REPRO_OBS`` at import or driven in code with ``switch.enabled(...)``.
* :mod:`repro.obs.observer` — the CP-ALS loop's per-iteration observer
  protocol (``begin_iteration`` / ``observe_mode`` / ``end_iteration``).
* :mod:`repro.obs.trace` — span-based tracer with contextvar propagation
  (worker-thread spans nest under their engine span); off by default,
  no-op-cheap when off.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (load in
  ``chrome://tracing`` / Perfetto), JSONL, and human-readable summaries.
* :mod:`repro.obs.metrics` — per-span-kind wall-time histograms, the
  engine's operation counters, and gauges, snapshotted by
  :func:`repro.obs.metrics.metrics`.
* :mod:`repro.obs.memory` — memoized-value memory tracker fed by engine
  node lifecycle events; pairs measured peak bytes with the cost model's
  prediction per ALS iteration.
* :mod:`repro.obs.history` — append-only benchmark history (JSONL) and
  the noise-aware regression comparator behind ``repro bench-diff``.
* :mod:`repro.obs.events` — structured JSON-lines run-event log
  (``repro-events/v1``): run start/stop, per-iteration fit/memory/health,
  node rebuilds, warnings; ring buffer + optional file sink.  Every event
  inside ``events.running()`` (each ``cp_als`` call, each ``repro
  trace``) carries that run's ``run_id``.
* :mod:`repro.obs.utilization` — per-worker busy/queue-wait/imbalance
  stats derived from ``pool_task`` spans, surfaced by ``repro report``
  and the E8 scaling experiment.
* :mod:`repro.obs.explain` — planner explainability: the complete
  candidate search with per-node/per-mode predicted cost terms as a
  versioned ``repro-plan/v1`` artifact (``repro explain``).  Imported
  lazily: it depends on :mod:`repro.model`, which depends on the engine
  this package instruments.
* :mod:`repro.obs.attribution` — per-tree-node / per-mode wall time
  rebuilt from ``node_rebuild`` and ``mttkrp`` spans (``repro report``,
  ``repro explain --measure``).
* :mod:`repro.obs.profiler` — sampling wall-clock stack profiler joined
  to the span tree: folded ``lane → span path → frames`` stacks for the
  main thread and the thread pool's workers, persisted as a
  ``repro-profile/v1`` artifact (``profile.json`` + ``profile.folded``
  for flamegraph.pl / speedscope); also ``repro profile <cmd>``.
* :mod:`repro.obs.artifacts` — the loader ``repro report`` reads
  ``repro trace`` artifact directories with (:class:`TraceArtifacts`):
  missing files are absent, malformed files warn and are skipped.
* :mod:`repro.obs.health` — per-iteration numerical-health telemetry:
  Gram conditioning (condition number + truncated eigenvalues per
  mode), relative factor deltas, cross-mode column congruence
  (swamp detection), and a converging/stalled/swamped fit-trajectory
  classifier, persisted as a ``repro-health/v1`` artifact
  (``health.json``).

Quickstart::

    from repro.obs import export, metrics, switch

    with switch.enabled("trace"):
        repro.cp_als(X, rank=16, strategy="auto")
    export.write_chrome_trace("trace.json")
    print(export.tree_summary())
    print(metrics.metrics()["spans"]["mttkrp"])

or, from the shell, ``repro trace decompose data.tns --rank 16``.
"""

from __future__ import annotations

# First, so the REPRO_OBS spec read at its import can build instruments
# (every instrument module imports the switch for its guards).
from . import switch  # noqa: F401
