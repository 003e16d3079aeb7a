"""Golden planner ranking: every candidate's score on fixed seeded inputs.

``test_model_planner.py::TestGoldenRanking`` compares :func:`rankings`
against a committed fixture, so a change to candidate construction, the
distinct counter or the cost model must leave the ranked list — names,
signatures, counts, byte totals and the ``repr`` of every predicted
time — unchanged.

Regenerate the fixture (from whichever ``repro`` is on ``PYTHONPATH``)::

    PYTHONPATH=src python tests/planner_ranking.py --record
"""

from __future__ import annotations

import json
import os
import sys

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "planner_ranking.json")

#: the recorded plans: (label, shape, nnz, seed, rank, plan kwargs).  The
#: order-8 shape has seven-mode projections past int64, so its counts take
#: the multi-key path as well as the single-key one.
CASES = (
    ("order4", (40, 50, 30, 20), 3000, 0, 8, {}),
    ("order8", (600,) * 7 + (40,), 3000, 1, 8, {}),
    ("order4_sampled", (40, 50, 30, 20), 3000, 2, 8,
     {"count_method": "sampled", "sample_size": 1000, "random_state": 3}),
)


def rankings(labels=None) -> dict:
    """The ranked candidate list of each case in :data:`CASES` (or of the
    cases named in ``labels``)."""
    from repro.model.planner import plan
    from repro.synth.skewed import skewed_random_tensor

    out = {}
    for label, shape, nnz, seed, rank, kwargs in CASES:
        if labels is not None and label not in labels:
            continue
        tensor = skewed_random_tensor(shape, nnz, exponents=1.1,
                                      random_state=seed)
        report = plan(tensor, rank, **kwargs)
        out[label] = [
            {
                "name": s.strategy.name,
                "signature": s.strategy.signature(),
                "flops": s.cost.flops_per_iteration,
                "words": s.cost.words_per_iteration,
                "peak_value_bytes": s.cost.peak_value_bytes,
                "index_bytes": s.cost.index_bytes,
                "node_nnz": [int(n) for n in s.cost.node_nnz],
                "predicted_seconds": repr(s.predicted_seconds),
            }
            for s in report.scored
        ]
    return out


if __name__ == "__main__":
    if "--record" in sys.argv[1:]:
        # One candidate per line: small, and a changed score diffs as one line.
        cases = rankings()
        with open(FIXTURE, "w") as fh:
            fh.write("{\n")
            for i, label in enumerate(sorted(cases)):
                rows = ",\n".join(
                    "  " + json.dumps(r, sort_keys=True) for r in cases[label]
                )
                sep = "," if i < len(cases) - 1 else ""
                fh.write(f" {json.dumps(label)}: [\n{rows}\n ]{sep}\n")
            fh.write("}\n")
    else:
        json.dump(rankings(), sys.stdout, indent=1, sort_keys=True)
