"""Planner explainability: the full candidate search as a data artifact.

``repro plan`` prints a ranking table and throws the search away; this
module keeps it.  :func:`explain_plan` runs the ordinary planner
(:func:`repro.model.planner.plan`) and decomposes every scored candidate
into the terms the decision was actually made from: tree shape, per-node
and per-mode predicted flop/word/byte terms
(:func:`repro.model.cost.node_cost_terms`), the alpha/beta split of the
time prediction, the dominating cost term, and each runner-up's margin
over the winner.  The result serializes as a versioned ``repro-plan/v1``
payload inside the shared ``repro-bench/v1`` artifact envelope, so plan
decisions are diffable across commits like any other benchmark artifact.

Imported lazily from :mod:`repro.obs`: it depends on :mod:`repro.model`,
which depends on the engine this package instruments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .buildinfo import ARTIFACT_SCHEMA, artifact_envelope

__all__ = [
    "PLAN_SCHEMA", "CandidateExplanation", "PlanExplanation",
    "explain_plan", "validate_plan_artifact",
]

#: payload schema tag for plan-explanation artifacts (bump on change).
PLAN_SCHEMA = "repro-plan/v1"


@dataclass
class CandidateExplanation:
    """One candidate's complete predicted-cost decomposition.

    ``nodes`` holds one dict per tree node (root included) with the
    per-node flop/word/byte addends; their sums reproduce the iteration
    totals exactly.  ``margin_vs_best_seconds`` is this candidate's
    predicted slowdown over the winner (0.0 for the winner itself) and
    ``margin_dominant_term`` names which term — ``"flops"`` or
    ``"words"`` — contributes most of that margin.
    """

    name: str
    signature: str
    spec: object
    rank_position: int
    feasible: bool
    depth: int
    n_nodes: int
    predicted_seconds: float
    flops_per_iteration: int
    words_per_iteration: int
    peak_value_bytes: int
    index_bytes: int
    total_memory_bytes: int
    seconds_from_flops: float
    seconds_from_words: float
    dominant_term: str
    margin_vs_best_seconds: float
    margin_dominant_term: str | None
    nodes: list[dict] = field(default_factory=list)
    per_mode: dict[int, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "signature": self.signature,
            "spec": _spec_to_json(self.spec),
            "rank_position": self.rank_position,
            "feasible": self.feasible,
            "depth": self.depth,
            "n_nodes": self.n_nodes,
            "predicted_seconds": self.predicted_seconds,
            "flops_per_iteration": self.flops_per_iteration,
            "words_per_iteration": self.words_per_iteration,
            "peak_value_bytes": self.peak_value_bytes,
            "index_bytes": self.index_bytes,
            "total_memory_bytes": self.total_memory_bytes,
            "seconds_from_flops": self.seconds_from_flops,
            "seconds_from_words": self.seconds_from_words,
            "dominant_term": self.dominant_term,
            "margin_vs_best_seconds": self.margin_vs_best_seconds,
            "margin_dominant_term": self.margin_dominant_term,
            "nodes": self.nodes,
            "per_mode": {str(m): v for m, v in sorted(self.per_mode.items())},
        }


@dataclass
class PlanExplanation:
    """The planner's full decision trace for one (tensor, rank) problem.

    ``candidates`` preserves the planner's predicted order (winner first).
    ``report`` keeps the live :class:`~repro.model.planner.PlannerReport`
    for callers that go on to run the winner (``repro explain
    --measure``); it is not serialized.
    """

    tensor_shape: tuple[int, ...]
    tensor_nnz: int
    rank: int
    machine: dict
    memory_budget: int | None
    count_method: str
    best: str
    candidates: list[CandidateExplanation]
    notes: list[str]
    report: object = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        """The ``repro-plan/v1`` payload."""
        return {
            "schema": PLAN_SCHEMA,
            "tensor": {
                "shape": list(self.tensor_shape),
                "nnz": self.tensor_nnz,
                "order": len(self.tensor_shape),
            },
            "rank": self.rank,
            "machine": self.machine,
            "memory_budget": self.memory_budget,
            "count_method": self.count_method,
            "best": self.best,
            "n_candidates": len(self.candidates),
            "candidates": [c.to_dict() for c in self.candidates],
            "notes": list(self.notes),
        }

    def to_artifact(self, **meta) -> dict:
        """The payload wrapped in the shared ``repro-bench/v1`` envelope."""
        return artifact_envelope(
            "plan-explain", self.to_dict(),
            rank=self.rank, memory_budget=self.memory_budget,
            count_method=self.count_method, **meta,
        )

    def summary(self, top: int = 8) -> str:
        """Human-readable explanation: ranking plus the winner's tree."""
        from ..model.report import format_table

        rows = []
        for c in self.candidates[:top]:
            rows.append([
                c.rank_position, c.name, "yes" if c.feasible else "NO",
                round(c.predicted_seconds * 1e3, 3),
                c.dominant_term,
                ("-" if c.margin_vs_best_seconds is None
                 else round(c.margin_vs_best_seconds * 1e3, 3)),
                c.margin_dominant_term or "-",
                round(c.total_memory_bytes / 1e6, 2),
            ])
        parts = [format_table(
            ["#", "candidate", "feasible", "pred ms", "dominant",
             "margin ms", "margin from", "mem MB"],
            rows,
            title=(f"plan explanation: {len(self.candidates)} candidates, "
                   f"machine={self.machine.get('name')}, "
                   f"best={self.best}"),
        )]
        best = self.candidates[0]
        node_rows = [
            [n["node"], ",".join(map(str, n["modes"])),
             "-" if n["parent"] is None else n["parent"],
             "-" if n["rebuild_mode"] is None else n["rebuild_mode"],
             n["nnz"], n["flops"], n["words"],
             round(n["value_bytes"] / 1e6, 3)]
            for n in best.nodes
        ]
        parts.append(format_table(
            ["node", "modes", "parent", "built in", "nnz", "flops/iter",
             "words/iter", "value MB"],
            node_rows,
            title=f"winner {best.name!r}: per-node predicted cost terms",
        ))
        return "\n\n".join(parts)


def _spec_to_json(spec) -> object:
    """Nested tuple spec -> nested lists (JSON has no tuples)."""
    if isinstance(spec, tuple):
        return [_spec_to_json(s) for s in spec]
    return spec


def explain_plan(
    tensor,
    rank: int,
    *,
    candidates: Sequence | None = None,
    memory_budget: int | None = None,
    machine=None,
    count_method: str = "exact",
    sample_size: int = 100_000,
    random_state=0,
) -> PlanExplanation:
    """Run the planner and keep the complete decision trace.

    Identical inputs and candidate search to
    :func:`repro.model.planner.plan` — the explanation is built from the
    planner's own :class:`~repro.model.cost.CostReport` per candidate
    (including its ``node_nnz``), so no distinct-counting is repeated and
    the artifact reflects exactly the numbers the decision used.
    """
    from ..model.cost import node_cost_terms, per_mode_cost
    from ..model.planner import plan

    report = plan(
        tensor, rank, candidates=candidates, memory_budget=memory_budget,
        machine=machine, count_method=count_method, sample_size=sample_size,
        random_state=random_state,
    )
    machine_model = report.machine
    best = report.best
    explained: list[CandidateExplanation] = []
    for pos, scored in enumerate(report.scored, start=1):
        cost = scored.cost
        strat = scored.strategy
        terms = node_cost_terms(strat, cost.node_nnz, rank, tensor.shape)
        sec_flops = machine_model.alpha_per_flop * cost.flops_per_iteration
        sec_words = machine_model.beta_per_word * cost.words_per_iteration
        margin = scored.predicted_seconds - best.predicted_seconds
        if scored is best:
            margin = None
            margin_term = None
        else:
            d_flops = machine_model.alpha_per_flop * (
                cost.flops_per_iteration - best.cost.flops_per_iteration
            )
            d_words = machine_model.beta_per_word * (
                cost.words_per_iteration - best.cost.words_per_iteration
            )
            margin_term = "flops" if abs(d_flops) >= abs(d_words) else "words"
        explained.append(CandidateExplanation(
            name=strat.name,
            signature=strat.signature(),
            spec=strat.to_nested(),
            rank_position=pos,
            feasible=scored.feasible,
            depth=strat.depth(),
            n_nodes=len(strat.nodes),
            predicted_seconds=scored.predicted_seconds,
            flops_per_iteration=cost.flops_per_iteration,
            words_per_iteration=cost.words_per_iteration,
            peak_value_bytes=cost.peak_value_bytes,
            index_bytes=cost.index_bytes,
            total_memory_bytes=cost.total_memory_bytes,
            seconds_from_flops=sec_flops,
            seconds_from_words=sec_words,
            dominant_term="flops" if sec_flops >= sec_words else "words",
            margin_vs_best_seconds=margin,
            margin_dominant_term=margin_term,
            nodes=[
                {
                    "node": t.node_id,
                    "modes": list(t.modes),
                    "parent": t.parent,
                    "delta": list(t.delta),
                    "nnz": t.nnz,
                    "flops": t.flops,
                    "words": t.words,
                    "scatter_words": t.scatter_words,
                    "value_bytes": t.value_bytes,
                    "index_bytes": t.index_bytes,
                    "rebuild_mode": t.rebuild_mode,
                }
                for t in terms
            ],
            per_mode=per_mode_cost(strat, cost.node_nnz, rank),
        ))
    return PlanExplanation(
        tensor_shape=tuple(tensor.shape),
        tensor_nnz=tensor.nnz,
        rank=rank,
        machine={
            "name": machine_model.name,
            "alpha_per_flop": machine_model.alpha_per_flop,
            "beta_per_word": machine_model.beta_per_word,
        },
        memory_budget=memory_budget,
        count_method=count_method,
        best=best.strategy.name,
        candidates=explained,
        notes=list(report.notes),
        report=report,
    )


def validate_plan_artifact(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a sound plan artifact.

    Checks the envelope (``repro-bench/v1``) and payload (``repro-plan/v1``)
    schema tags, that candidates exist and the winner is among them, and —
    the substantive invariant — that every candidate's per-node flop/word
    terms sum exactly to its iteration totals.
    """
    if not isinstance(doc, dict):
        raise ValueError("plan artifact must be a JSON object")
    if doc.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"envelope schema {doc.get('schema')!r} != {ARTIFACT_SCHEMA!r}"
        )
    payload = doc.get("result")
    if not isinstance(payload, dict):
        raise ValueError("plan artifact has no result payload")
    if payload.get("schema") != PLAN_SCHEMA:
        raise ValueError(
            f"payload schema {payload.get('schema')!r} != {PLAN_SCHEMA!r}"
        )
    candidates = payload.get("candidates")
    if not candidates:
        raise ValueError("plan artifact lists no candidates")
    if payload.get("n_candidates") != len(candidates):
        raise ValueError("n_candidates does not match candidate list")
    names = [c.get("name") for c in candidates]
    if payload.get("best") not in names:
        raise ValueError(
            f"best {payload.get('best')!r} not among candidates {names}"
        )
    for c in candidates:
        for key in ("name", "signature", "spec", "predicted_seconds",
                    "flops_per_iteration", "words_per_iteration",
                    "total_memory_bytes", "nodes", "per_mode"):
            if key not in c:
                raise ValueError(
                    f"candidate {c.get('name')!r} missing {key!r}"
                )
        node_flops = sum(n["flops"] for n in c["nodes"])
        node_words = sum(n["words"] for n in c["nodes"])
        if node_flops != c["flops_per_iteration"]:
            raise ValueError(
                f"candidate {c['name']!r}: per-node flops sum {node_flops} "
                f"!= iteration total {c['flops_per_iteration']}"
            )
        if node_words != c["words_per_iteration"]:
            raise ValueError(
                f"candidate {c['name']!r}: per-node words sum {node_words} "
                f"!= iteration total {c['words_per_iteration']}"
            )
        mode_flops = sum(
            int(v["flops"]) for v in c["per_mode"].values()
        )
        if mode_flops != c["flops_per_iteration"]:
            raise ValueError(
                f"candidate {c['name']!r}: per-mode flops sum {mode_flops} "
                f"!= iteration total {c['flops_per_iteration']}"
            )
