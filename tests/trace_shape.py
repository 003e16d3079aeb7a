"""Structural fingerprint of a ``repro trace`` artifact directory.

The golden-trace test (``test_obs.py::TestGoldenTrace``) compares this
fingerprint — never timings, run ids, or pids — against a committed
fixture, so refactors of the telemetry wiring must leave the artifact set,
the schema tags and key trees of the JSON artifacts, and the event
sequence unchanged.

Regenerate the fixture (from whichever ``repro`` is on ``PYTHONPATH``)::

    PYTHONPATH=src python tests/trace_shape.py --record
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_trace_shape.json")

#: the recorded run: small, deterministic, memoized (bdt), three iterations.
COMMAND = ["decompose", "nips", "--scale", "0.02", "--rank", "4",
           "--iters", "3", "--strategy", "bdt"]


#: dicts keyed by measured durations (histogram buckets): kept as leaves.
TIMING_KEYED = {"log2_buckets"}


def key_tree(value):
    """Keys of nested dicts; lists fold to the union of their items' trees."""
    if isinstance(value, dict):
        return {str(k): None if k in TIMING_KEYED else key_tree(v)
                for k, v in sorted(value.items())}
    if isinstance(value, list):
        merged: dict = {}
        for item in value:
            sub = key_tree(item)
            if isinstance(sub, dict):
                _merge(merged, sub)
        return [merged] if merged else []
    return None


def _merge(into: dict, tree: dict) -> None:
    for k, v in tree.items():
        if isinstance(v, dict) and isinstance(into.get(k), dict):
            _merge(into[k], v)
        elif isinstance(v, list) and isinstance(into.get(k), list):
            if v and into[k]:
                _merge(into[k][0], v[0])
            elif v:
                into[k] = v
        elif k not in into or into[k] is None:
            into[k] = v


def shape(trace_dir: str) -> dict:
    """The fingerprint of one trace directory (see module docstring)."""
    from repro.obs.events import read_events

    files = sorted(os.listdir(trace_dir))
    artifacts = {}
    for name in files:
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as fh:
                doc = json.load(fh)
            artifacts[name] = {
                "schema": doc.get("schema") if isinstance(doc, dict) else None,
                "keys": key_tree(doc),
            }
    events = read_events(os.path.join(trace_dir, "events.jsonl"))
    iteration_fields = sorted({
        key for e in events if e["kind"] == "iteration" for key in e
    })
    return {
        "command": COMMAND,
        "files": files,
        "artifacts": artifacts,
        "event_kinds": [e["kind"] for e in events],
        "iteration_fields": iteration_fields,
    }


def record_run(trace_dir: str) -> None:
    """Run the golden command under ``repro trace`` in a fresh process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # No host calibration snapshot: machine.json depends on the host.
    env["REPRO_MACHINE"] = os.path.join(trace_dir, "no-machine.json")
    subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--trace-dir", trace_dir,
         *COMMAND],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--shape":
        print(json.dumps(shape(argv[1]), indent=1, sort_keys=True))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        record_run(tmp)
        doc = shape(tmp)
    if argv and argv[0] == "--record":
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        with open(FIXTURE, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {FIXTURE}")
    else:
        print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
