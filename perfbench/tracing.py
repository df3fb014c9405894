"""Timing shims for the traced run: spans around public entry points.

Installed only in a traced worker, never in the runs that produce the
end-to-end metrics.  Each shim replaces one attribute — a module-level
function or a class method — with a wrapper that records a span
``(id, name, start, end, parent, workload)``.  Spans stay in memory;
the worker writes them out when its run ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (span name, module, attribute path) — every public entry point a
# layer exposes to the pipeline.  A function some other module imported
# by name at import time is patched there too (``runtime.normalize``).
SHIMS = (
    ("lang.parse_system", "repro.lang", "parse_system"),
    ("lang.pretty_system", "repro.lang", "pretty_system"),
    ("core.normalize", "repro.runtime.runtime", "normalize"),
    ("core.normalize", "repro.runtime.shards", "normalize"),
    ("runtime.deploy", "repro.runtime.runtime", "DistributedRuntime.deploy"),
    ("runtime.run", "repro.runtime.runtime", "DistributedRuntime.run"),
    (
        "runtime.checkpoint",
        "repro.runtime.runtime",
        "DistributedRuntime.checkpoint",
    ),
    (
        "runtime.metrics_summary",
        "repro.runtime.metrics",
        "RuntimeMetrics.summary",
    ),
    ("storage.flush", "repro.storage.journal", "DurabilitySink.flush"),
    (
        "storage.sink_checkpoint",
        "repro.storage.journal",
        "DurabilitySink.checkpoint",
    ),
    ("storage.load_state", "repro.storage.recover", "load_state"),
    ("storage.recover_runtime", "repro.storage.recover", "recover_runtime"),
    ("storage.verify_replay", "repro.storage.recover", "verify_replay"),
    ("storage.collect_entries", "repro.storage.recover", "collect_entries"),
    ("storage.collect_entries", "repro.query.persist", "collect_entries"),
    ("query.commit", "repro.query.index", "ProvenanceIndex.commit"),
    ("query.save_index", "repro.query.persist", "save_index"),
    ("query.resume_index", "repro.query.persist", "resume_index"),
    ("query.load_index", "repro.query.persist", "load_index"),
    (
        "query.derived_from_sends",
        "repro.query.index",
        "ProvenanceIndex.derived_from_sends",
    ),
    ("query.taint", "repro.query.index", "ProvenanceIndex.taint"),
    (
        "query.cone_of_influence",
        "repro.query.index",
        "ProvenanceIndex.cone_of_influence",
    ),
    (
        "query.happens_before",
        "repro.query.index",
        "ProvenanceIndex.happens_before",
    ),
    (
        "query.minimal_witness",
        "repro.query.index",
        "ProvenanceIndex.minimal_witness",
    ),
    ("query.run_where", "repro.query.planner", "run_where"),
    ("runtime.shards.deploy", "repro.runtime.shards", "ShardedRuntime.deploy"),
    (
        "runtime.shards.deploy_builder",
        "repro.runtime.shards",
        "ShardedRuntime.deploy_builder",
    ),
    ("runtime.shards.run", "repro.runtime.shards", "ShardedRuntime.run"),
)


class Tracer:
    """An in-memory span recorder with a parent stack."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, name: str, original):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for name, module_name, path in SHIMS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()


def durations(spans: list, name: str) -> list[float]:
    """The duration of every span called ``name``."""

    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_time(spans: list, name: str) -> float:
    """Summed self time of the ``name`` spans: duration minus direct children.

    For a phase span this is the part of the phase no layer's span
    covers, so a layer missing from the split shows as a remainder.
    """

    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = (
                children.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    return sum(
        s["end"] - s["start"] - children.get(s["id"], 0.0)
        for s in spans
        if s["name"] == name
    )
