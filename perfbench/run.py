"""The pipeline benchmark: parse, deploy, run, checkpoint, recover and query.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run repeats its workload, one fresh worker process (``worker.py``) per
repetition, until ``--seconds`` of measuring time are spent (at least
three repetitions).  Just before and just after each worker, with no
worker alive, ``run.py`` times a fixed pure-Python loop; every time a
repetition reports is scaled by ``C_REF`` over the mean of those two
readings, so it reads as seconds at a reference host speed.  Every
end-to-end metric is the median over the repetitions.  ``--trace 1``
adds traced repetitions and the workload's variants, and prints the
per-layer split, writing the spans to ``.perfbench_out/``.  The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--smoke`` runs every workload and every check
at toy sizes in seconds.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fanout_deploy", "durable_capture", "store_audit")
PHASES = ("setup", "run", "checkpoint", "verify", "query")
# as in workloads.QUERY_KINDS: this process imports nothing from the
# program, so it fails cleanly in a tree without one
QUERY_KINDS = (
    "derived_from_sends",
    "taint",
    "cone_of_influence",
    "run_where",
    "iter_value_witnesses",
    "happens_before",
)
# the phase whose deliveries deliveries_per_s counts: run() to
# quiescence, or the replay that verifies a store
THROUGHPUT_PHASE = {
    "fanout_deploy": "run",
    "durable_capture": "run",
    "store_audit": "verify",
}
# extra repetitions of a traced round: the capture's layer ablation, and
# the fan-out on 2 shards, inline and in process mode
VARIANTS = {
    "fanout_deploy": ("inline", "process"),
    "durable_capture": ("erased", "crypto_off", "no_index"),
}
# variants whose delivered trace differs from the default by design
TRACE_CHANGING = ("erased",)
MIN_REPS = 3
MIN_TRACED_ROUNDS = 3
WORKER_TIMEOUT = 150
# seconds the calibration loop takes at the reference host speed; a
# repetition's times are scaled by C_REF / C_rep
C_REF = 0.15
CALIBRATION_SIZE = 100_000


class BenchError(RuntimeError):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(samples, q):
    """The ``q``-th percentile (1..99) as ``statistics.quantiles`` gives it."""

    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


# -- host-speed calibration ---------------------------------------------


def calibration_loop(size: int = CALIBRATION_SIZE) -> float:
    """Seconds one pass of a fixed pure-Python workload takes.

    It builds a heap of small objects several times the size of a CPU's
    cache and hashes into it in scattered order, like the interpreter-
    and memory-bound code under test: on this kind of host such a loop
    tracks the workloads' speed far better than a cache-resident one.
    It imports nothing from the program.
    """

    start = time.perf_counter()
    nodes = [(i, str(i), None) for i in range(size)]
    table = {}
    for i in range(size):
        table[nodes[(i * 7919) % size][1]] = i
    total = 0
    for i in range(0, size, 3):
        total += table[nodes[(i * 104729) % size][1]]
    return time.perf_counter() - start


def calibrate() -> float:
    return statistics.median(calibration_loop() for _ in range(3))


def group_alive(pgid: int) -> bool:
    """Whether any process of process group ``pgid`` still exists."""

    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def mount_of(path: Path) -> str:
    """The filesystem type ``path`` lives on, from ``/proc/mounts``."""

    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    resolved = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        point = parts[1]
        inside = resolved == point or resolved.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, parts[2]
    return kind


class Bench:
    def __init__(
        self, workload: str, seed: int, seconds: float, size: str, trace=False
    ):
        self.workload = workload
        self.trace = trace
        self.seed = seed
        self.seconds = seconds
        self.size = size
        (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
        self.count = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.expected = None
        # the trace every repetition of one seed must deliver, per family:
        # the single runtime, the sharded runtime, the durable captures,
        # the audited store
        self.digests: dict[str, str] = {}
        # a calibration reading taken after the last worker ended, not
        # yet used as a repetition's "before"
        self.idle_reading = None
        self.store = self.tmp / "audited-store"

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- workers -------------------------------------------------------------

    def worker(self, role: str, calibrated=True, **extra) -> dict:
        """One worker process; a calibrated one is bracketed by readings."""

        before = self.idle_reading
        if calibrated and before is None:
            before = calibrate()
        self.idle_reading = None
        self.count += 1
        spec_path = self.tmp / f"spec-{self.count}.json"
        out_path = self.tmp / f"result-{self.count}.json"
        scratch_store = self.tmp / f"store-{self.count}"
        spec = dict(
            role=role,
            workload=self.workload,
            seed=self.seed,
            size=self.size,
            store=str(extra.pop("store", scratch_store)),
            expected=self.expected,
            **extra,
        )
        spec_path.write_text(json.dumps(spec))
        # a fixed hash seed keeps set and dict layouts, and so the work
        # done per repetition, the same from run to run
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        # its own process group, so shard processes it forks can be
        # found, waited for and stopped
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.reap(proc.pid)
            raise BenchError(f"{role} worker ran past {WORKER_TIMEOUT} s")
        self.reap(proc.pid)
        if proc.returncode != 0 or not out_path.is_file():
            raise BenchError(
                f"{role} worker exited {proc.returncode}:\n{stderr[-2000:]}"
            )
        result = json.loads(out_path.read_text())
        shutil.rmtree(scratch_store, ignore_errors=True)
        self.attempted += result["checks"]["attempted"]
        self.failures.extend(result["checks"]["failures"])
        if calibrated:
            after = self.idle_reading = calibrate()
            result["c_before"], result["c_after"] = before, after
            result["c_rep"] = (before + after) / 2.0
        return result

    @staticmethod
    def reap(pgid: int) -> None:
        """Wait until no process of the worker's group is alive."""

        deadline = time.monotonic() + 10.0
        while group_alive(pgid):
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pgid, signal.SIGKILL)
                while group_alive(pgid):
                    time.sleep(0.01)
                raise BenchError(f"worker group {pgid} left processes behind")
            time.sleep(0.01)

    def prepare(self) -> None:
        """Untimed set-up of a run: references, the store, the oracle."""

        if self.workload == "fanout_deploy":
            if self.trace:
                self.digests["sharded"] = self.worker(
                    "reference", calibrated=False
                )["digest"]
        elif self.workload == "durable_capture":
            result = self.worker("oracle", calibrated=False)
            self.expected = result["expected"]
            self.digests["durable"] = result["digest"]
        else:
            result = self.worker("writer", calibrated=False, store=self.store)
            self.expected = result["expected"]
            self.digests["store"] = result["digest"]
            self.worker("oracle", calibrated=False, store=self.store)

    def rep(self, traced=False, variant=None) -> dict:
        if self.workload == "fanout_deploy":
            if variant is None:
                result = self.worker("fanout_deploy", traced=traced)
                family = "single"
            else:
                # detailed wire accounting on the inline shards, for the
                # runtime.wire.* counters
                result = self.worker(
                    "fanout_sharded", variant=variant, traced=variant == "inline"
                )
                family = "sharded"
        elif self.workload == "durable_capture":
            result = self.worker("capture", traced=traced, variant=variant)
            family = "durable"
        else:
            result = self.worker("audit", traced=traced, store=self.store)
            family = "store"
        # every repetition of one seed (traced or not, any shard mode,
        # index on or off) must deliver the same trace
        if variant not in TRACE_CHANGING:
            digest = result["digest"]
            expected = self.digests.setdefault(family, digest)
            self.attempted += 1
            if digest != expected:
                self.failures.append(
                    f"{family} trace digest {digest} differs from {expected}"
                )
        return result

    def measure(self, round_fn, min_rounds: int) -> list:
        """Repeat ``round_fn`` until the measuring budget is spent."""

        rounds = []
        start = time.monotonic()
        while True:
            rounds.append(round_fn())
            elapsed = time.monotonic() - start
            if len(rounds) >= min_rounds and elapsed * (
                len(rounds) + 1
            ) / len(rounds) > self.seconds:
                return rounds

    # -- metrics -------------------------------------------------------------

    def scale(self, rep: dict) -> float:
        """The factor that turns a repetition's seconds into reference ones."""

        return C_REF / rep["c_rep"]

    def throughput(self, rep: dict) -> float:
        delivered = rep["replayed"] if "replayed" in rep else rep["deliveries"]
        return delivered / rep["phases"][THROUGHPUT_PHASE[self.workload]]

    def end_to_end(self, reps: list) -> dict:
        """``name -> (calibrated, raw, unit)``, each a median over ``reps``."""

        def both(fn, per_second=False):
            raw = [fn(r) for r in reps]
            scales = [self.scale(r) for r in reps]
            if per_second:
                scaled = [v / s for v, s in zip(raw, scales)]
            else:
                scaled = [v * s for v, s in zip(raw, scales)]
            return median(scaled), median(raw)

        rss = median([r["rss_mb"] for r in reps])
        return {
            "setup_s": (*both(lambda r: r["phases"]["setup"]), "s"),
            "deliveries_per_s": (*both(self.throughput, per_second=True), "1/s"),
            "total_s": (*both(lambda r: r["total_s"]), "s"),
            "peak_rss_mb": (rss, rss, "MB"),
        }

    def per_layer(self, plain: list, traced: list, ablated: dict) -> dict:
        """Per-layer metrics; every time is scaled like the end-to-end ones."""

        from tracing import durations, self_time

        def from_spans(fn):
            return median([fn(r["spans"]) * self.scale(r) for r in traced])

        def counter(name, reps=traced):
            return median([r["counters"].get(name, 0) for r in reps])

        def phase_time(reps, phase="run"):
            return median([r["phases"][phase] * self.scale(r) for r in reps])

        def total(*names):
            return from_spans(
                lambda spans: sum(sum(durations(spans, n)) for n in names)
            )

        def checkpoints(fn):
            return from_spans(
                lambda spans: fn(durations(spans, "runtime.checkpoint") or [0.0])
            )

        m = {
            "lang.parse_s": total("lang.parse_system"),
            "lang.pretty_s": total("lang.pretty_system"),
            "core.normalize_s": total("core.normalize"),
            "runtime.deploy_self_s": from_spans(
                lambda spans: self_time(spans, "runtime.deploy")
            ),
            "runtime.run_s": total("runtime.run"),
            "runtime.checkpoint_self_s": from_spans(
                lambda spans: self_time(spans, "runtime.checkpoint")
            ),
            "storage.checkpoints": median(
                [len(durations(r["spans"], "runtime.checkpoint")) for r in traced]
            ),
            "storage.checkpoint_p50_s": checkpoints(statistics.median),
            "storage.checkpoint_max_s": checkpoints(max),
            "runtime.metrics_summary_s": total("runtime.metrics_summary"),
            "storage.flush_s": total("storage.flush"),
            "storage.sink_checkpoint_s": total("storage.sink_checkpoint"),
            "query.commit_s": total("query.commit"),
            "query.save_index_s": total("query.save_index"),
            "storage.load_state_s": total("storage.load_state"),
            "storage.recover_runtime_s": total("storage.recover_runtime"),
            "query.load_index_s": total("query.load_index"),
            "query.resume_s": total("query.resume_index"),
            "storage.verify_replay_s": total("storage.verify_replay"),
        }
        for name in (
            "runtime.events",
            "runtime.threads_spawned",
            "runtime.messages_sent",
            "patterns.pattern_checks",
            "patterns.vet_transitions",
            "patterns.vet_cache_hits",
            "core.integrity.verify_nodes_checked",
            "core.integrity.verify_cache_hits",
            "storage.journal_bytes",
            "storage.checkpoint_bytes",
            "storage.bytes_per_delivery",
            "query.snapshot_bytes",
            "query.events_indexed",
            "query.resumed_deliveries",
            "query.extended_work",
        ):
            m[name] = counter(name)
        # the sharded variants: wire bytes of the inline shards (the
        # traced one); barrier and imbalance figures of process mode
        inline, process = ablated.get("inline"), ablated.get("process")
        m["runtime.shards.inline_run_s"] = phase_time(inline) if inline else 0.0
        m["runtime.shards.process_setup_s"] = (
            phase_time(process, "setup") if process else 0.0
        )
        m["runtime.shards.process_run_s"] = phase_time(process) if process else 0.0
        for name in (
            "runtime.shards.barrier_stall_s",
            "runtime.shards.cross_shard_sent",
            "runtime.shards.events_max_over_min",
        ):
            m[name] = counter(name, process) if process else 0.0
        for name in ("runtime.wire.bytes_total", "runtime.wire.bytes_provenance"):
            m[name] = counter(name, inline) if inline else 0.0
        # the layer ablation from outside: the same capture with one layer
        # switched off at a time; each difference is that layer's cost
        if "erased" in ablated:
            default = phase_time(plain)
            erased = phase_time(ablated["erased"])
            crypto_off = phase_time(ablated["crypto_off"])
            m["runtime.run_erased_s"] = erased
            m["runtime.tracking_s"] = crypto_off - erased
            m["core.integrity.attest_s"] = default - crypto_off
            m["query.observe_s"] = default - phase_time(ablated["no_index"])
        else:
            for name in (
                "runtime.run_erased_s",
                "runtime.tracking_s",
                "core.integrity.attest_s",
                "query.observe_s",
            ):
                m[name] = 0.0
        # query latencies of the untraced repetitions, pooled
        for kind in QUERY_KINDS:
            samples = sorted(
                x * self.scale(r)
                for r in plain
                for x in r.get("query_ms", {}).get(kind, ())
            )
            m[f"query.{kind}_p50_ms"] = percentile(samples, 50)
            m[f"query.{kind}_p99_ms"] = percentile(samples, 99)
        for phase in PHASES:
            m[f"phase.{phase}.unaccounted_s"] = from_spans(
                lambda spans: self_time(spans, f"phase.{phase}")
            )
        m["trace.overhead_ratio"] = median(
            [r["total_s"] * self.scale(r) for r in traced]
        ) / median([r["total_s"] * self.scale(r) for r in plain])
        return m

    def export_spans(self, traced: list) -> Path:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{self.workload}-seed{self.seed}.json"
        path.write_text(
            json.dumps(
                {"host": host_facts(self), "spans": [r["spans"] for r in traced]}
            )
        )
        return path


def host_facts(bench: Bench) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "store_fs": mount_of(bench.tmp),
    }


def declared(section: str) -> dict:
    """Metric names and units ``BENCHMARK.json`` declares for a section."""

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[section]}


def run_workload(workload, seed, seconds, trace, size="full") -> dict:
    bench = Bench(workload, seed, seconds, size, trace)
    smoke = size == "smoke"
    try:
        bench.prepare()
        if not trace:
            reps = bench.measure(bench.rep, 1 if smoke else MIN_REPS)
            return dict(bench=bench, reps=reps)
        variants = VARIANTS.get(workload, ())

        def round_fn():
            plain = bench.rep()
            traced = bench.rep(traced=True)
            ablated = {variant: bench.rep(variant=variant) for variant in variants}
            return plain, traced, ablated

        rounds = bench.measure(round_fn, 1 if smoke else MIN_TRACED_ROUNDS)
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        ablated = {
            variant: [r[2][variant] for r in rounds] for variant in variants
        }
        return dict(
            bench=bench,
            reps=plain,
            per_layer=bench.per_layer(plain, traced, ablated),
            spans=bench.export_spans(traced),
        )
    finally:
        bench.close()


def report(workload, seed, outcome, trace) -> dict:
    bench = outcome["bench"]
    reps = outcome["reps"]
    facts = host_facts(bench)
    c_reps = [r["c_rep"] for r in reps]
    print(
        f"# {workload} seed={seed} reps={len(reps)} "
        + " ".join(f"{k}={v}" for k, v in facts.items())
    )
    print(
        f"# calibration: C_ref={C_REF} s, median C_rep={median(c_reps):.6f} s "
        f"(range {min(c_reps):.6f}-{max(c_reps):.6f})"
    )
    print("# repetitions: C_before C_after, then setup_s deliveries_per_s total_s raw")
    for r in reps:
        print(
            f"#   {r['c_before']:.4f} {r['c_after']:.4f}  "
            f"{r['phases']['setup']:.4f} {bench.throughput(r):.1f} {r['total_s']:.4f}"
        )
    print(f"# end-to-end{'':25s} {'calibrated':>14s} {'raw':>14s}")
    end_to_end = bench.end_to_end(reps)
    for name, (value, raw, unit) in end_to_end.items():
        print(f"{name:36s} {value:14.6g} {raw:14.6g} {unit}")
    for failure in bench.failures[:20]:
        print(f"# FAILED CHECK: {failure}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, _, unit) in end_to_end.items()
    }
    if trace:
        units = declared("per_layer")
        print("# per-layer (traced run, calibrated)")
        for name, value in outcome["per_layer"].items():
            print(f"{name:40s} {value:14.6g} {units[name]}")
        print(f"# spans written to {outcome['spans'].relative_to(ROOT)}")
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["per_layer"].items()
        }
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload and every check at toy sizes, traced."""

    ok = True
    for workload in WORKLOADS:
        outcome = run_workload(workload, 1, 0.0, True, size="smoke")
        bench = outcome["bench"]
        status = "ok" if not bench.failures else "FAILED"
        ok = ok and not bench.failures
        print(
            f"{workload:16s} {status}: {bench.attempted} checks, "
            f"{len(bench.failures)} failed"
        )
        for failure in bench.failures:
            print(f"  {failure}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required (or --smoke)")
    try:
        if args.smoke:
            return smoke()
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, outcome, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
