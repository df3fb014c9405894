"""One worker process: one repetition of one role, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``.  ``run.py``
starts a fresh worker for every repetition, so process-global state (the
spine intern tables, ``query.default_index()``, the lazy-DFA caches)
never carries over from an earlier repetition.  The worker times each
phase with ``gc.collect()`` before it, reads its peak RSS when the timed
part ends, then runs the correctness checks and writes one JSON result.

Roles:

- ``fanout_deploy``: parse, deploy and run the fan-out, in memory.
- ``fanout_sharded``: the same on 2 shards, inline or in process mode.
- ``reference``: untimed; the fan-out on ``ShardedRuntime(shards=1)``.
- ``capture``: a durable, vetted, indexed relay run with checkpoints;
  a variant switches one layer off for the ablation.
- ``writer``: untimed; writes the store ``audit`` reads.
- ``audit``: open a store, replay-verify it, answer the query mix.
- ``oracle``: untimed; checks query answers against a walk of the
  trace, and ``verify_replay`` on a fresh capture's store.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.lang as lang  # noqa: E402
import repro.query.persist as persist  # noqa: E402
import repro.query.planner as planner  # noqa: E402
import repro.storage.recover as recover  # noqa: E402
from repro.core.semantics import SemanticsMode  # noqa: E402
from repro.runtime.runtime import DistributedRuntime  # noqa: E402
from repro.runtime.shards import ShardedRuntime  # noqa: E402
from repro.storage.segments import DurableStore  # noqa: E402
from repro.workloads.scaling import relay_guard, wide_fanout  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


METRIC_COUNTERS = {
    "runtime.messages_sent": "messages_sent",
    "patterns.pattern_checks": "pattern_checks",
    "patterns.vet_transitions": "vet_transitions",
    "patterns.vet_cache_hits": "vet_cache_hits",
    "core.integrity.verify_nodes_checked": "verify_nodes_checked",
    "core.integrity.verify_cache_hits": "verify_cache_hits",
}
WIRE_COUNTERS = {
    "runtime.wire.bytes_total": "bytes_total",
    "runtime.wire.bytes_provenance": "bytes_provenance",
}


class Checks:
    """Counts checked operations and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def trace_digest(trace) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for entry in trace:
        digest.update(repr(entry).encode())
    return digest.hexdigest()


def record_trace(runtime):
    return [
        (r.time, r.principal, r.channel, r.values, r.branch_index)
        for r in runtime.metrics.delivered
    ]


def store_bytes(root: Path) -> dict:
    sizes = {"total": 0, "journal": 0, "checkpoint": 0, "queryindex": 0}
    for path in root.rglob("*"):
        if path.is_file():
            size = path.stat().st_size
            sizes["total"] += size
            for kind in ("journal", "checkpoint", "queryindex"):
                if path.name.startswith(kind):
                    sizes[kind] += size
    return sizes


class Rep:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.size = wl.SIZES[spec["size"]]
        self.seed = spec["seed"]
        self.tracer = Tracer(f"{spec['workload']}/seed{self.seed}")
        self.traced = spec.get("traced", False)
        self.store = Path(spec["store"])
        self.phases: dict[str, float] = {}
        self.checks = Checks()
        self.result: dict = {"counters": {}}

    @contextmanager
    def phase(self, name: str):
        """Time one pipeline phase; in a traced run it is also a span."""

        gc.collect()
        with self.tracer.span(f"phase.{name}") if self.traced else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                self.phases[name] = time.perf_counter() - start

    # -- roles -----------------------------------------------------------

    def fanout_deploy(self) -> None:
        workload = wide_fanout(**self.size["fanout"])
        source = lang.pretty_system(workload.system)
        self.start()
        with self.phase("setup"):
            system = lang.parse_system(source)
            runtime = DistributedRuntime(
                seed=self.seed, topology=workload.topology
            )
            runtime.deploy(system)
        with self.phase("run"):
            runtime.run(max_events=wl.MAX_EVENTS)
        self.stop()
        self.read_runtime(runtime)
        trace = record_trace(runtime)
        self.expect_deliveries(len(trace), workload.expected_deliveries)
        self.result["digest"] = trace_digest(trace)

    def fanout_sharded(self) -> None:
        kwargs = self.size["fanout"]
        workload = wide_fanout(**kwargs)
        shards = 2
        mode = self.spec["variant"]
        if mode == "inline":
            source = lang.pretty_system(workload.system)
        self.start()
        with self.phase("setup"):
            runtime = ShardedRuntime(
                shards=shards,
                shard_mode=mode,
                seed=self.seed,
                plan=workload.shard_plan(shards),
                detailed_metrics=self.traced,
            )
            if mode == "inline":
                runtime.deploy(
                    lang.parse_system(source), topology=workload.topology
                )
            else:
                # process workers rebuild and deploy the system inside
                # run(): a topology closure cannot cross a process
                # boundary, so they get the builder, not the source
                runtime.deploy_builder(wide_fanout, **kwargs)
        with self.phase("run"):
            runtime.run(max_events=wl.MAX_EVENTS)
        self.stop()
        trace = runtime.delivered_trace()
        self.expect_deliveries(len(trace), workload.expected_deliveries)
        self.result["digest"] = trace_digest(trace)
        if mode == "inline":
            shards_used = [runtime.shard(i) for i in range(shards)]
            self.read_metrics(
                [shard.metrics for shard in shards_used],
                runtime.events_processed,
                sum(shard.threads_spawned() for shard in shards_used),
            )
        else:
            self.read_metrics(
                runtime.shard_summaries(), runtime.events_processed, 0
            )
        stats = runtime.shard_stats()
        events = [s["events"] for s in stats]
        self.result["counters"].update(
            {
                "runtime.shards.barrier_stall_s": sum(
                    s["barrier_stall_seconds"] for s in stats
                ),
                "runtime.shards.cross_shard_sent": sum(
                    s["cross_shard_sent"] for s in stats
                ),
                "runtime.shards.events_max_over_min": (
                    max(events) / min(events) if min(events) else 0.0
                ),
            }
        )

    def reference(self) -> None:
        """The shards=1 trace ``fanout_sharded`` must reproduce.

        Built by the generator, not parsed: the parsed source and the
        built system must deliver the same trace.
        """

        kwargs = self.size["fanout"]
        workload = wide_fanout(**kwargs)
        runtime = ShardedRuntime(
            shards=1, seed=self.seed, plan=workload.shard_plan(1)
        )
        runtime.deploy_builder(wide_fanout, **kwargs)
        runtime.run(max_events=wl.MAX_EVENTS)
        trace = runtime.delivered_trace()
        self.expect_deliveries(len(trace), workload.expected_deliveries)
        self.result["digest"] = trace_digest(trace)

    def capture(self, size_key: str = "capture"):
        """A durable run into ``self.store``; returns ``(runtime, index)``.

        The store is re-read after the timed part: its recomputed digest
        chain must equal the live run's, and it must hold every delivery.
        """

        relay = self.size[size_key]
        system, expected = wl.relay_lanes(relay["lanes"], relay["hops"])
        source = lang.pretty_system(system)
        variant = self.spec.get("variant") or "default"
        self.start()
        with self.phase("setup"):
            parsed = lang.parse_system(source)
            runtime = DistributedRuntime(
                seed=self.seed,
                durable=self.store,
                checkpoint_every=relay["checkpoint_every"],
                verify_deliveries=True,
                mode=(
                    SemanticsMode.ERASED
                    if variant == "erased"
                    else SemanticsMode.TRACKED
                ),
                crypto=variant not in ("erased", "crypto_off"),
            )
            index = None
            if variant != "no_index":
                index = runtime.attach_query_index()
            runtime.deploy(parsed)
        with self.phase("run"):
            runtime.run(max_events=wl.MAX_EVENTS)
        with self.phase("checkpoint"):
            runtime.checkpoint()
        self.stop()
        self.read_runtime(runtime)
        self.result["expected"] = expected
        self.expect_deliveries(runtime.metrics.deliveries, expected)
        digest = runtime.durability.trace_digest
        self.result["digest"] = digest.hex()
        state = recover.load_state(self.store)
        self.checks.expect(
            state.trace_digest == digest and state.delivered == expected,
            f"store re-read: {state.delivered} deliveries, digest "
            f"{state.trace_digest.hex()} against {digest.hex()}",
        )
        sizes = store_bytes(self.store)
        counters = self.result["counters"]
        counters["storage.journal_bytes"] = (
            counters.get("storage.journal_bytes", 0) + sizes["journal"]
        )
        counters["storage.checkpoint_bytes"] = sizes["checkpoint"]
        counters["query.snapshot_bytes"] = sizes["queryindex"]
        counters["storage.bytes_per_delivery"] = sizes["total"] / expected
        if index is not None:
            counters["query.events_indexed"] = index.events_indexed
        return runtime, index

    def writer(self) -> None:
        """Untimed: the store every ``audit`` of this run reads."""

        self.capture("store")

    def audit(self) -> None:
        self.start()
        with self.phase("setup"):
            state = recover.load_state(self.store)
            runtime, _ = recover.recover_runtime(self.store, state)
            index, info = persist.resume_index(self.store)
        with self.phase("verify"):
            report = recover.verify_replay(self.store, state)
        queries = self.draw(state)
        guard = relay_guard()
        latencies: dict[str, list[float]] = {k: [] for k in wl.QUERY_KINDS}
        with self.phase("query"):
            clock = time.perf_counter
            for kind, args in queries:
                start = clock()
                wl.run_query(index, planner, kind, args, guard)
                latencies[kind].append((clock() - start) * 1000.0)
        self.stop()
        del runtime
        self.result["replayed"] = report.replayed
        self.result["digest"] = state.trace_digest.hex()
        self.result["query_ms"] = latencies
        self.checks.expect(report.ok, f"verify_replay: {report.detail}")
        self.expect_deliveries(state.delivered, self.spec["expected"])
        self.check_resumed(index, info, state.delivered)
        sizes = store_bytes(self.store)
        self.result["counters"].update(
            {
                "query.resumed_deliveries": info["resumed_deliveries"],
                "query.extended_work": info["extended_work"],
                "query.events_indexed": index.events_indexed,
                "query.snapshot_bytes": sizes["queryindex"],
                "storage.checkpoint_bytes": sizes["checkpoint"],
                "storage.bytes_per_delivery": sizes["total"] / state.delivered,
            }
        )

    def oracle(self) -> None:
        """Query answers against the brute-force walk of the trace.

        On ``durable_capture`` a fresh capture is replay-verified and its
        live index queried; on ``store_audit`` the run's store is opened
        and every n-th query of the timed mix is checked.
        """

        every = self.size["oracle_every"]
        if self.spec["workload"] == "durable_capture":
            runtime, index = self.capture()
            report = recover.verify_replay(self.store)
            self.checks.expect(report.ok, f"verify_replay: {report.detail}")
            trace = record_trace(runtime)
            principals = sorted({entry[1].name for entry in trace})
            queries = wl.draw_queries(
                self.seed, self.size["queries"] // 10, principals, len(trace)
            )[:: max(1, every // 4)]
        else:
            state = recover.load_state(self.store)
            index, info = persist.resume_index(self.store)
            self.check_resumed(index, info, state.delivered)
            trace = state.delivered_trace()
            queries = self.draw(state)[::every]
        guard = relay_guard()
        oracle = wl.TraceOracle(trace)
        for kind, args in queries:
            answer = wl.run_query(index, planner, kind, args, guard)
            self.checks.expect(
                answer == oracle.answer(kind, args, guard),
                f"{kind}{args} disagrees with the trace walk",
            )

    # -- helpers ------------------------------------------------------------

    def draw(self, state):
        return wl.draw_queries(
            self.seed,
            self.size["queries"],
            state.manifest["principals"],
            state.delivered,
        )

    def check_resumed(self, index, info, delivered: int) -> None:
        self.checks.expect(
            info["resumed_deliveries"] + info["extended_deliveries"] == delivered
            and index.delivered == delivered,
            f"resume_index covered {info}, index holds {index.delivered} "
            f"of {delivered}",
        )

    def expect_deliveries(self, delivered: int, expected: int) -> None:
        self.result["deliveries"] = delivered
        self.checks.expect(
            delivered == expected,
            f"delivered {delivered}, expected {expected}",
        )

    def read_runtime(self, runtime) -> None:
        self.read_metrics(
            [runtime.metrics],
            runtime.simulator.events_processed,
            runtime.threads_spawned(),
        )

    def read_metrics(self, metrics, events: int, threads: int) -> None:
        """Layer counters summed over ``RuntimeMetrics`` or summary dicts."""

        def total(key):
            return sum(
                m[key] if isinstance(m, dict) else getattr(m, key)
                for m in metrics
            )

        counters = self.result["counters"]
        counters["runtime.events"] = events
        counters["runtime.threads_spawned"] = threads
        for name, key in METRIC_COUNTERS.items():
            counters[name] = total(key)
        if self.traced:
            # byte accounting encodes every send: read in traced runs only
            for name, key in WIRE_COUNTERS.items():
                counters[name] = total(key)

    def start(self) -> None:
        gc.collect()
        if self.traced:
            self.tracer.install()
            self.count_journal_bytes()
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.result["total_s"] = time.perf_counter() - self._t0
        # peak RSS of the timed part, before the checks allocate
        self.result["rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if self.traced:
            self.tracer.uninstall()
            DurableStore.compact = self._compact

    def count_journal_bytes(self) -> None:
        """Sum every journal's size before compaction deletes it."""

        counters = self.result["counters"]
        counters["storage.journal_bytes"] = 0
        compact = self._compact = DurableStore.compact

        def counted(store):
            for generation in store.journal_generations():
                path = store.journal_path(generation)
                counters["storage.journal_bytes"] += path.stat().st_size
            return compact(store)

        DurableStore.compact = counted

    def execute(self) -> dict:
        getattr(self, self.spec["role"])()
        self.result["phases"] = self.phases
        self.result["checks"] = {
            "attempted": self.checks.attempted,
            "failures": self.checks.failures,
        }
        if self.traced:
            self.result["spans"] = self.tracer.spans
        return self.result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = Rep(spec).execute()
    tmp = argv[2] + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(result, handle)
    os.replace(tmp, argv[2])
    return 0


if __name__ == "__main__":
    code = main(sys.argv)
    sys.stdout.flush()
    sys.stderr.flush()
    # skip tearing down a heap of millions of objects: ``run.py``'s next
    # calibration reading waits for this process to end
    os._exit(code)
