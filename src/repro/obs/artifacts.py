"""Loader for the JSON artifacts of a ``repro trace`` directory.

``repro report`` reads a trace directory through :class:`TraceArtifacts`,
which applies the same policy as ``repro bench-diff`` does to history
files: a **missing** artifact is simply absent (``None``, no noise — old
trace dirs predate newer artifacts by design), while a **malformed** one
is skipped with a warning naming the file and the parse error, never an
exception.  Accessors are lazy and cached, so a caller that only wants
``metrics.json`` never touches the other files.
"""

from __future__ import annotations

import json
import logging
import os

__all__ = ["TraceArtifacts"]

_log = logging.getLogger("repro.obs.artifacts")

#: artifact filename per accessor.
FILENAMES = {
    "events": "events.jsonl",
    "metrics": "metrics.json",
    "profile": "profile.json",
    "health": "health.json",
}

_MISSING = object()


class TraceArtifacts:
    """Lazy, warn-don't-raise view over one trace directory.

    Every accessor returns the parsed artifact or ``None`` — missing
    files silently (a pre-profiler trace dir is a valid trace dir),
    malformed files with a logged warning and an entry in
    :attr:`skipped` so callers can surface what was dropped.
    """

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        #: (filename, reason) for every artifact skipped as malformed.
        self.skipped: list[tuple[str, str]] = []
        self._cache: dict[str, object] = {}

    # -- plumbing ------------------------------------------------------
    def path(self, name: str) -> str:
        return os.path.join(self.trace_dir, FILENAMES[name])

    def _skip(self, name: str, exc: Exception):
        self.skipped.append((FILENAMES[name], str(exc)))
        _log.warning("skipping malformed %s in %s: %s",
                     FILENAMES[name], self.trace_dir, exc)
        return None

    def _load(self, name: str, loader, schema: str | None = None):
        """Parse artifact ``name`` once; with ``schema`` given, a document
        carrying another schema tag counts as malformed."""
        value = self._cache.get(name, _MISSING)
        if value is _MISSING:
            if not os.path.exists(self.path(name)):
                value = None
            else:
                try:
                    value = loader(self.path(name))
                    found = (value.get("schema") if isinstance(value, dict)
                             else None)
                    if schema is not None and found != schema:
                        raise ValueError(f"schema {found!r} != {schema!r}")
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    value = self._skip(name, exc)
            self._cache[name] = value
        return value

    @staticmethod
    def _load_json(path: str):
        with open(path) as fh:
            return json.load(fh)

    # -- accessors -----------------------------------------------------
    def events(self) -> list[dict] | None:
        """``events.jsonl`` as raw event dicts."""
        from .events import read_events

        return self._load("events", read_events)

    def metrics(self) -> dict | None:
        """The full ``metrics.json`` document (build + metrics snapshot)."""
        return self._load("metrics", self._load_json)

    def profile(self) -> dict | None:
        """The ``repro-profile/v1`` document, if the run was profiled.

        A present-but-invalid profile (wrong schema tag) is treated as
        malformed: skipped with a warning, like any other parse failure.
        """
        from .profiler import PROFILE_SCHEMA

        return self._load("profile", self._load_json, schema=PROFILE_SCHEMA)

    def health(self) -> dict | None:
        """The ``repro-health/v1`` document, if the run recorded one.

        Pre-health trace dirs simply lack the file (``None``); a
        present-but-wrong schema tag is treated as malformed and skipped
        with a warning, like any other parse failure.
        """
        from .health import HEALTH_SCHEMA

        return self._load("health", self._load_json, schema=HEALTH_SCHEMA)
