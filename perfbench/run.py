"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload default-8x8 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs the workload once untraced and once with span wrappers
on the public functions of every layer it goes through, and reports the
per-layer metrics, the tracing overhead, a self-time table and a Chrome
trace-event file (open it in Perfetto).  Either way every output is
checked (see ``gate.py``) and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Everything the benchmark writes goes under ``.perfbench/`` in the
repository root.  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Worker processes and client threads, at most 2 each: the host has 2 cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))
CLIENTS = 2
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "rate_per_s": "1/s",
    "fast_rate_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.overhead_frac": "frac",
    # core (object engine)
    "core.cycles": "count",
    "core.init_s": "s",
    "core.step.calls": "count",
    "core.step.self_s": "s",
    "core.inject.calls": "count",
    "core.inject.s": "s",
    "core.run.self_s": "s",
    "core.duty_cycle": "frac",
    "core.peak_rss_mb": "MB",
    "routers.deliver.calls": "count",
    "routers.deliver.s": "s",
    "routers.traverse.calls": "count",
    "routers.traverse.s": "s",
    "routers.allocate.calls": "count",
    "routers.allocate.s": "s",
    "arbiters.mirror.calls": "count",
    "arbiters.mirror.s": "s",
    "arbiters.mirror.grant_ratio": "ratio",
    "arbiters.grant.calls": "count",
    "arbiters.grant.s": "s",
    "arbiters.grant.hit_ratio": "ratio",
    "routing.candidates.calls": "count",
    "routing.candidates.s": "s",
    "traffic.destination.calls": "count",
    "traffic.destination.s": "s",
    "traffic.arrivals.calls": "count",
    "traffic.arrivals.s": "s",
    "energy.report_s": "s",
    "metrics.summary_s": "s",
    # soa engine
    "soa.cycles": "count",
    "soa.layout_s": "s",
    "soa.init_self_s": "s",
    "soa.run.self_s": "s",
    "soa.admission.calls": "count",
    "soa.admission.s": "s",
    "soa.admission.misses": "count",
    "soa.admission.miss_ratio": "ratio",
    "soa.injection.calls": "count",
    "soa.injection.s": "s",
    "soa.route_candidates.calls": "count",
    "soa.route_candidates.s": "s",
    "soa.routing.candidates.calls": "count",
    "soa.routing.candidates.s": "s",
    "soa.traffic.destination.calls": "count",
    "soa.traffic.destination.s": "s",
    "soa.duty_cycle": "frac",
    "soa.peak_rss_mb": "MB",
    # harness (sweep)
    "harness.first_result_s": "s",
    "harness.cache.store.calls": "count",
    "harness.cache.store.s": "s",
    "harness.parallel_efficiency": "frac",
    "harness.job_key.calls": "count",
    "harness.job_key.s": "s",
    "harness.cache.lookup.calls": "count",
    "harness.cache.lookup.s": "s",
    "harness.cache.hits": "count",
    "harness.cache.hit_ratio": "ratio",
    "harness.run_jobs.self_s": "s",
    "harness.simulated": "count",
    "harness.failures": "count",
    # serve / resilient
    "serve.ready_s": "s",
    "serve.first_result_s": "s",
    "serve.hot.p50_ms": "ms",
    "serve.submit_rtt.p50_ms": "ms",
    "serve.fresh.p50_ms": "ms",
    "serve.fresh.p99_ms": "ms",
    "serve.result_wait.p50_ms": "ms",
    "serve.broker.submit.calls": "count",
    "serve.broker.submit.s": "s",
    "serve.normalize.s": "s",
    "serve.repeat_share": "frac",
    "serve.sim_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "resilient.retries": "count",
    "resilient.worker_crashes": "count",
}

#: Counters that depend only on the code and the seed; ``gate.check_exact``
#: flags any that changes between two runs of the same code.  Every other
#: count (coalesced requests, sheds, retries, crashes) depends on timing.
EXACT = {
    "core.cycles",
    "soa.cycles",
    "core.duty_cycle",
    "soa.duty_cycle",
    "core.step.calls",
    "routers.allocate.calls",
    "soa.admission.calls",
    "soa.admission.misses",
    "harness.simulated",
    "harness.cache.hits",
    "serve.sim_ratio",
    "serve.repeat_share",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    trace_events: list = field(default_factory=list)
    self_table: list = field(default_factory=list)

    def fail(self, message: str, mismatch: bool = False) -> None:
        self.failed += 1
        if mismatch:
            self.mismatches.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    trace: bool
    scratch: Path


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return float(ordered[rank - 1])


#: Percentile of ``tail_ms``.  The 99th percentile sits where the
#: distribution turns into host hiccups (other tenants, page faults): two
#: sets of runs an hour apart read 2.0 and 1.0 ms on default-8x8, and
#: serve's rose by half in runs that met a noisy neighbour.  The 90th
#: stays inside the program's own spread of busy and quiet cycles.
TAIL_Q = 90


def latency_summary(groups: list[list[float]]) -> dict:
    """``p50_ms`` and ``tail_ms``: medians of the groups' p50 and TAIL_Q.

    A group is one stretch of the run (a repetition, a burst, a chunk);
    taking the median over stretches keeps one stretch slowed by a noisy
    host from moving the result.
    """
    groups = [group for group in groups if group]
    return {
        "p50_ms": statistics.median(percentile(group, 50) for group in groups),
        "tail_ms": statistics.median(percentile(group, TAIL_Q) for group in groups),
    }


def pooled_p99(groups: list[list[float]]) -> float:
    """p99 of all samples, reported in the notes beside the bounded metrics."""
    return percentile([x for group in groups for x in group], 99)


#: Time of one calibration unit on the nominal host, in ms (its median on
#: the host the benchmark was built on).
CALIBRATION_NOMINAL_MS = 1.25


def calibration_unit_s() -> float:
    """Host time of one fixed pure-Python calibration unit, in seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - started


def host_speed(unit_times: list[float]) -> float:
    """Host speed relative to the nominal host (> 1: faster), from unit times."""
    return CALIBRATION_NOMINAL_MS / (statistics.median(unit_times) * 1e3)


class SpeedProbe:
    """Samples host speed from a thread while the main thread waits.

    The calibration unit runs every ``period_s`` (1-2% of one core).  Use
    it only while the main thread blocks, on a child process: a busy main
    thread would hold the GIL and make the probe read the host as slow.
    README.md ("Host-speed scaling") says why the engine and sweep metrics
    are scaled by the speed.
    """

    period_s = 0.05

    def __init__(self) -> None:
        self.unit_times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.unit_times.append(calibration_unit_s())
            if self._stop.wait(self.period_s):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def speed(self) -> float:
        return host_speed(self.unit_times)


# ---------------------------------------------------------------------------
# Engine workloads: default-8x8 and mesh32-sparse
# ---------------------------------------------------------------------------

#: mesh32-sparse measures 1000 packets rather than the default 3000, so
#: that one run holds three object+SoA pairs (~350 cycles each) and its
#: median is not the mean of two.
ENGINE_CONFIGS = {
    "default-8x8": {},
    "mesh32-sparse": {
        "width": 32,
        "height": 32,
        "injection_rate": 0.03,
        "measure_packets": 1000,
    },
}
#: Setup samples per run, the fewest object+SoA pairs per run, and the
#: fewest per-cycle samples.
SETUP_SAMPLES = 5
MIN_PAIRS = 3
MIN_CYCLE_SAMPLES = 1000


def run_engine_child(engine: str, config: dict, out: Outcome, *extra: str) -> dict | None:
    command = [
        sys.executable,
        str(HERE / "engine_run.py"),
        "--engine",
        engine,
        "--config",
        json.dumps(config),
        *extra,
    ]
    out.attempted += 1
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        out.fail(f"{engine} engine run exceeded {CHILD_TIMEOUT_S}s")
        return None
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        out.fail(f"{engine} engine run exited {done.returncode}: {' | '.join(tail)}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_scaled_child(engine: str, config: dict, out: Outcome, *extra: str) -> dict | None:
    """``run_engine_child`` with the host speed sampled while it runs."""
    with SpeedProbe() as probe:
        run = run_engine_child(engine, config, out, *extra)
    if run is not None:
        run["speed"] = probe.speed
    return run


def check_engine_pair(ctx: Context, obj: dict, soa: dict, out: Outcome) -> None:
    pinned = gate.pinned_digest(ctx.workload, ctx.seed)
    out.notes["pinned_digest"] = pinned is not None
    for run in (obj, soa):
        if pinned is not None and run["digest"] != pinned:
            out.fail(
                f"{run['engine']} record digest {run['digest'][:12]} != pinned "
                f"{pinned[:12]} for seed {ctx.seed}",
                mismatch=True,
            )
    if obj["digest"] != soa["digest"] or obj["cycles"] != soa["cycles"]:
        out.fail("object and SoA records differ", mismatch=True)
    first = out.notes.setdefault("first_digest", obj["digest"])
    if obj["digest"] != first:
        out.fail("engine record changed between repetitions", mismatch=True)
    out.exact.update(
        {
            "core.cycles": obj["cycles"],
            "soa.cycles": soa["cycles"],
            "core.duty_cycle": obj["router_steps"] / obj["router_slots"],
            "soa.duty_cycle": soa["router_steps"] / soa["router_slots"],
            "record_digest": obj["digest"],
        }
    )


def engine_workload(ctx: Context) -> Outcome:
    out = Outcome()
    config = dict(ENGINE_CONFIGS[ctx.workload], seed=ctx.seed)
    if ctx.trace:
        return engine_traced(ctx, config, out)
    pairs = []
    tries = 0
    started = time.monotonic()
    while time.monotonic() - started < ctx.seconds or (
        tries < 2 * MIN_PAIRS
        and (
            len(pairs) < MIN_PAIRS
            or sum(len(o["cycle_ns"]) for o, _ in pairs) < MIN_CYCLE_SAMPLES
        )
    ):
        tries += 1
        obj = run_scaled_child("object", config, out, "--cycle-times")
        soa = run_scaled_child("soa", config, out)
        if obj is not None and soa is not None:
            check_engine_pair(ctx, obj, soa, out)
            pairs.append((obj, soa))
    if not pairs:
        return out
    setups = [o["setup_s"] * o["speed"] + s["setup_s"] * s["speed"] for o, s in pairs]
    while len(setups) < SETUP_SAMPLES:
        obj = run_scaled_child("object", config, out, "--setup-only")
        soa = run_scaled_child("soa", config, out, "--setup-only")
        if obj is None or soa is None:
            break
        setups.append(obj["setup_s"] * obj["speed"] + soa["setup_s"] * soa["speed"])
    objs, soas = [o for o, _ in pairs], [s for _, s in pairs]
    cycle_ms = [[ns / 1e6 * o["speed"] for ns in o["cycle_ns"]] for o in objs]
    # Latencies over the measurement window: the ramp and the drain spread
    # per-cycle times over two orders of magnitude, which puts percentiles
    # over all cycles on a steep slope.
    steady_ms = [times[slice(*o["steady"])] for times, o in zip(cycle_ms, objs)]
    out.metrics = {
        "setup_s": statistics.median(setups),
        "rate_per_s": statistics.median(r["cycles"] / r["wall_s"] / r["speed"] for r in objs),
        "fast_rate_per_s": statistics.median(
            r["cycles"] / r["wall_s"] / r["speed"] for r in soas
        ),
        **latency_summary(steady_ms),
        "peak_rss_mb": max(
            statistics.median(r["peak_rss_mb"] for r in objs),
            statistics.median(r["peak_rss_mb"] for r in soas),
        ),
    }
    out.notes.update(
        pairs=len(pairs),
        setup_samples=len(setups),
        cycle_samples=sum(map(len, steady_ms)),
        p99_ms=pooled_p99(steady_ms),
        host_speed=[round(r["speed"], 4) for pair in pairs for r in pair],
        raw_rate_per_s=statistics.median(r["cycles"] / r["wall_s"] for r in objs),
        raw_fast_rate_per_s=statistics.median(r["cycles"] / r["wall_s"] for r in soas),
    )
    return out


def engine_traced(ctx: Context, config: dict, out: Outcome) -> Outcome:
    plain = [run_engine_child(e, config, out) for e in ("object", "soa")]
    paths = [ctx.scratch / f"{e}.trace.json" for e in ("object", "soa")]
    traced = [
        run_engine_child(e, config, out, "--trace", str(path))
        for e, path in zip(("object", "soa"), paths)
    ]
    if None in plain or None in traced:
        return out
    for obj, soa in (plain, traced):
        check_engine_pair(ctx, obj, soa, out)
    for run, path in zip(traced, paths):
        out.layers.update(run["layers"])
        out.self_table += [dict(row, engine=run["engine"]) for row in run["self_table"]]
        out.trace_events += json.loads(path.read_text())["traceEvents"]
        if abs(run["self_sum_s"] - run["root_s"]) > 1e-6 * max(1.0, run["root_s"]):
            out.fail(f"{run['engine']} self times do not sum to the root span")
    obj, soa = plain
    out.layers.update(
        {
            "trace.overhead_frac": sum(r["wall_s"] for r in traced)
            / sum(r["wall_s"] for r in plain)
            - 1,
            "core.cycles": obj["cycles"],
            "soa.cycles": soa["cycles"],
            "core.duty_cycle": obj["router_steps"] / obj["router_slots"],
            "soa.duty_cycle": soa["router_steps"] / soa["router_slots"],
            "core.peak_rss_mb": obj["peak_rss_mb"],
            "soa.peak_rss_mb": soa["peak_rss_mb"],
        }
    )
    # The engines are deterministic, so every call count is exact too.
    out.exact.update(
        {
            name: value
            for name, value in out.layers.items()
            if name in EXACT or PER_LAYER.get(name) == "count"
        }
    )
    out.notes["dropped_spans"] = sum(r["dropped_spans"] for r in traced)
    return out


# ---------------------------------------------------------------------------
# sweep: the paper grid through the default ParallelExecutor
# ---------------------------------------------------------------------------

SWEEP_ROUTERS = ("generic", "path_sensitive", "roco")
SWEEP_RATES = (0.05, 0.2, 0.3)
#: Warm passes per traced run (untraced and traced alike).
TRACED_WARM_PASSES = 200


def sweep_grid(seed: int) -> list:
    from repro.core.config import SimulationConfig
    from repro.harness.parallel import SimJob

    return [
        SimJob.of(
            SimulationConfig(
                router=router,
                routing="xy",
                injection_rate=rate,
                warmup_packets=150,
                measure_packets=900,
                seed=seed,
            )
        )
        for router in SWEEP_ROUTERS
        for rate in SWEEP_RATES
    ]


class _Stamps:
    """Progress callback recording when each job completes.

    At the last job the pool's workers are still alive, so their peak
    RSS is read then.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.workers_rss_mb = 0.0

    def __call__(self, done, total, record) -> None:
        self.times.append(time.perf_counter())
        if done == total:
            self.workers_rss_mb = gate.workers_peak_rss_mb()


def sweep_pass(cache_dir: Path, grid: list, out: Outcome, label: str) -> dict:
    """One ``run_jobs`` call over ``grid``: its records, timings and stats."""
    from repro.harness.parallel import ParallelExecutor, ResultCache

    stamps = _Stamps()
    executor = ParallelExecutor(
        workers=WORKERS, cache=ResultCache(cache_dir), progress=stamps
    )
    out.attempted += len(grid)
    started = time.perf_counter()
    try:
        records = executor.run_jobs(grid)
    except Exception as exc:  # the benchmark keeps measuring the other passes
        out.fail(f"{label} pass raised {exc!r}")
        return {}
    wall = time.perf_counter() - started
    stats = executor.last_stats
    for _ in range(stats.failures):
        out.fail(f"{label} pass quarantined a job")
    marks = [started, *stamps.times]
    return {
        "records": records,
        "wall": wall,
        "first_result": stamps.times[0] - started if stamps.times else wall,
        "job_s": [b - a for a, b in zip(marks, marks[1:])],
        "stats": stats,
        "workers_rss_mb": stamps.workers_rss_mb,
    }


def check_pass(result: dict, reference: list, out: Outcome, label: str) -> None:
    """Records must match; a cold pass simulates all, a warm one hits all."""
    for message in gate.compare_records(label, result.pop("records"), reference):
        out.fail(message, mismatch=True)
    stats, jobs = result["stats"], len(reference)
    if label == "cold" and (stats.simulated != jobs or stats.cache_hits != 0):
        out.fail(f"cold pass simulated {stats.simulated} of {jobs} jobs", mismatch=True)
    if label == "warm" and (stats.cache_hits != jobs or stats.simulated != 0):
        out.fail(f"warm pass hit the cache {stats.cache_hits} of {jobs} times", mismatch=True)


def sweep_workload(ctx: Context) -> Outcome:
    from repro.harness.parallel import execute_job

    out = Outcome()
    grid = sweep_grid(ctx.seed)
    if ctx.trace:
        return sweep_traced(ctx, grid, out)
    # Rounds of one cold pass and a short burst of warm passes on its
    # cache, so both kinds are sampled across the whole run.  A cold pass
    # takes ~4 s and a warm one ~0.5 ms, so most of the run goes to cold
    # passes, whose median is the noisier one.
    cold, warm, bursts = [], [], []
    started = time.monotonic()
    while len(cold) < 2 or time.monotonic() - started < 0.9 * ctx.seconds:
        cache_dir = ctx.scratch / f"cold{len(cold)}"
        # Both cores are busy during a cold pass and the main thread is
        # busy during warm passes, so the calibration unit runs just before
        # the cold pass and between warm passes; one speed covers the round.
        unit_times = [calibration_unit_s() for _ in range(40)]
        result = sweep_pass(cache_dir, grid, out, "cold")
        if not result:
            break
        cold.append(result)
        burst = []
        burst_until = time.monotonic() + ctx.seconds / 40
        while time.monotonic() < burst_until:
            result = sweep_pass(cache_dir, grid, out, "warm")
            if not result:
                break
            check_pass(result, cold[0]["records"], out, "warm")
            burst.append(result)
            if len(burst) % 20 == 1:
                unit_times.append(calibration_unit_s())
        for result in [cold[-1], *burst]:
            result["speed"] = host_speed(unit_times)
        warm += burst
        bursts.append([s * 1e3 * r["speed"] for r in burst for s in r["job_s"]])
    if not cold or not warm:
        return out
    # Warm records were compared with the first cold pass; every cold pass
    # is compared with in-process execute_job.
    reference = [execute_job(job) for job in grid]
    for result in reversed(cold):
        check_pass(result, reference, out, "cold")
    out.metrics = {
        "setup_s": statistics.median(r["first_result"] * r["speed"] for r in cold),
        "rate_per_s": statistics.median(len(grid) / r["wall"] / r["speed"] for r in cold),
        "fast_rate_per_s": len(grid) * len(warm) / sum(r["wall"] * r["speed"] for r in warm),
        **latency_summary(bursts),
        "peak_rss_mb": statistics.median(r["workers_rss_mb"] for r in cold),
    }
    out.exact.update(
        {"harness.simulated": cold[0]["stats"].simulated,
         "harness.cache.hits": warm[0]["stats"].cache_hits}
    )
    out.notes.update(
        cold_passes=len(cold),
        warm_passes=len(warm),
        job_samples=sum(map(len, bursts)),
        p99_ms=pooled_p99(bursts),
        host_speed=[round(r["speed"], 4) for r in cold],
        raw_rate_per_s=statistics.median(len(grid) / r["wall"] for r in cold),
        raw_fast_rate_per_s=len(grid) * len(warm) / sum(r["wall"] for r in warm),
    )
    return out


def sweep_traced(ctx: Context, grid: list, out: Outcome) -> Outcome:
    from repro.harness.parallel import execute_job

    started = time.monotonic()
    reference = [execute_job(job) for job in grid]
    serial_s = time.monotonic() - started

    def one_run(tag: str) -> dict | None:
        passes = [sweep_pass(ctx.scratch / tag, grid, out, "cold")]
        while passes[-1] and len(passes) <= TRACED_WARM_PASSES:
            passes.append(sweep_pass(ctx.scratch / tag, grid, out, "warm"))
        if not passes[-1]:
            return None
        for index, result in enumerate(passes):
            check_pass(result, reference, out, "warm" if index else "cold")
        return {
            "cold": passes[0],
            "last": passes[-1]["stats"],
            "hits": sum(r["stats"].cache_hits for r in passes),
            "failures": sum(r["stats"].failures for r in passes),
            "wall": sum(r["wall"] for r in passes),
        }

    plain = one_run("plain")
    tracer = spans.Tracer(run_id=f"sweep-{ctx.seed}-{os.getpid()}")
    with spans.Patcher(tracer) as patcher:
        layers.install_harness(patcher)
        with tracer.span("sweep.run"):
            traced = one_run("traced")
    if plain is None or traced is None:
        return out
    lookups = tracer.calls("harness.cache.lookup")
    out.layers = {
        "trace.overhead_frac": traced["wall"] / plain["wall"] - 1,
        "harness.first_result_s": traced["cold"]["first_result"],
        "harness.cache.store.calls": tracer.calls("harness.cache.store"),
        "harness.cache.store.s": tracer.total_s("harness.cache.store"),
        "harness.parallel_efficiency": serial_s / (WORKERS * plain["cold"]["wall"]),
        "harness.job_key.calls": tracer.calls("harness.job_key"),
        "harness.job_key.s": tracer.total_s("harness.job_key"),
        "harness.cache.lookup.calls": lookups,
        "harness.cache.lookup.s": tracer.total_s("harness.cache.lookup"),
        "harness.cache.hits": traced["last"].cache_hits,
        "harness.cache.hit_ratio": traced["hits"] / lookups if lookups else 0.0,
        "harness.run_jobs.self_s": tracer.self_s("harness.run_jobs"),
        "harness.simulated": traced["cold"]["stats"].simulated,
        "harness.failures": traced["failures"],
    }
    out.exact.update({name: out.layers[name] for name in EXACT if name in out.layers})
    out.trace_events = tracer.trace_events(os.getpid(), "sweep")
    out.self_table = tracer.self_table()
    out.notes["dropped_spans"] = tracer.dropped
    return out


# ---------------------------------------------------------------------------
# serve: closed loop of clients against an in-process job server
# ---------------------------------------------------------------------------

#: Distinct configurations repeated throughout the request stream, and
#: the exact share of requests drawn from them.  The share is fixed rather
#: than sampled, and below one half, so that the median falls inside the
#: fresh-request mode instead of in the gap between the two modes, where
#: a one-point change in the mix would move it several-fold.
HOT_KEYS = 8
HOT_SHARE = 0.4
#: Requests in the closed loop: at least 1000, 250 a chunk.
MIN_REQUESTS = 1000
HOT_ONLY_REQUESTS = 1200
SERVE_SETUPS = 7


def tiny_config(seed: int, router: str = "roco") -> dict:
    return {
        "width": 3,
        "height": 3,
        "router": router,
        "warmup_packets": 10,
        "measure_packets": 60,
        "seed": seed,
    }


def serve_stream(seed: int, count: int) -> list[tuple[str, dict]]:
    """Seeded request stream: ``(kind, request)``, kind ``hot`` or ``fresh``."""
    rng = random.Random(seed)
    routers = ("roco", "generic", "path_sensitive")
    hot = [
        tiny_config(seed * 100 + i, routers[i % len(routers)]) for i in range(HOT_KEYS)
    ]
    hot_positions = set(rng.sample(range(count), round(HOT_SHARE * count)))
    stream = []
    for index in range(count):
        if index in hot_positions:
            stream.append(("hot", {"kind": "experiment", "config": rng.choice(hot)}))
        else:
            config = tiny_config(10**6 + seed * 10**4 + index)
            stream.append(("fresh", {"kind": "experiment", "config": config}))
    return stream


class ServeSession:
    """A JobBroker behind a ServerThread, up once a warm-up is answered."""

    def __init__(self, cache_dir: Path, seed: int) -> None:
        from repro.harness.parallel import ResultCache
        from repro.serve.broker import JobBroker
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerThread

        started = time.perf_counter()
        self.broker = JobBroker(cache=ResultCache(cache_dir), workers=WORKERS)
        self.broker.start()
        self.server = ServerThread(self.broker).start()
        self.ready_s = time.perf_counter() - started
        self.url = self.server.url
        # The warm-up job is outside the request stream and its timing.
        request = {"kind": "experiment", "config": tiny_config(-1 - seed)}
        client = ServeClient(self.url)
        key = client.submit(request)["jobs"][0]["key"]
        self.warmup = (request, key, client.result(key, timeout=60))
        self.setup_s = time.perf_counter() - started
        self.first_result_s = self.setup_s - self.ready_s

    def close(self) -> None:
        self.server.stop()
        self.broker.close()


def closed_loop(url: str, requests: list[dict], out: Outcome, tracer=None) -> tuple:
    """Send ``requests`` from CLIENTS threads, each waiting for its reply.

    Returns one ``(index, total_s, submit_s, wait_s, key, record)`` row
    per answered request, and the loop's wall time.
    """
    from repro.serve.client import ServeClient, ServerSaturated

    rows: list = []
    lock = threading.Lock()
    position = iter(range(len(requests)))

    def span(name, request_id=None):
        return tracer.span(name, request_id) if tracer else contextlib.nullcontext()

    def client_main() -> None:
        client = ServeClient(url)
        while True:
            with lock:
                index = next(position, None)
            if index is None:
                return
            try:
                with span("serve.request", f"r{index}"):
                    t0 = time.perf_counter()
                    with span("serve.client.submit"):
                        key = client.submit(requests[index])["jobs"][0]["key"]
                    t1 = time.perf_counter()
                    with span("serve.client.result"):
                        record = client.result(key, timeout=60)
                    t2 = time.perf_counter()
            except ServerSaturated:
                with lock:
                    out.fail(f"request {index} shed with 503")
                continue
            except Exception as exc:  # counted, and the loop goes on
                with lock:
                    out.fail(f"request {index} raised {exc!r}")
                continue
            with lock:
                rows.append((index, t2 - t0, t1 - t0, t2 - t1, key, record))

    threads = [threading.Thread(target=client_main) for _ in range(CLIENTS)]
    out.attempted += len(requests)
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve clients did not finish")
    return rows, wall


def check_serve_records(answers: list[tuple[dict, str, dict]], out: Outcome) -> None:
    """Every ``(request, key, record)`` must match ``execute_job`` of its job.

    The reference records are computed after the server is closed, by
    calling ``execute_job`` directly in a pool of WORKERS processes.
    """
    import concurrent.futures
    import multiprocessing

    from repro.harness.parallel import execute_job, job_key
    from repro.serve.protocol import normalize_request

    jobs = {}
    for request, key, _ in answers:
        if key not in jobs:
            jobs[key] = normalize_request(request).jobs[0]
            if job_key(jobs[key]) != key:
                out.fail(f"request answered under key {key[:12]}", mismatch=True)
    with concurrent.futures.ProcessPoolExecutor(
        WORKERS, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        records = pool.map(execute_job, jobs.values(), chunksize=16)
        expected = {key: json.loads(json.dumps(r)) for key, r in zip(jobs, records)}
    for _, key, record in answers:
        if record != expected[key]:
            out.fail(f"record of {key[:12]} differs from execute_job", mismatch=True)


#: The mixed loop runs in this many chunks, each followed by a burst of
#: hot-only requests, so both are sampled across the whole run.
SERVE_CHUNKS = 4


def serve_loop(session: ServeSession, stream: list, out: Outcome, tracer=None,
               hot_burst: int = 0) -> dict:
    """The mixed closed loop over ``stream``, with the broker's counters.

    With ``hot_burst``, each chunk is followed by that many requests for
    hot keys already answered (the fast path alone).
    """
    requests = [request for _, request in stream]
    before = session.broker.status()
    rows, wall, answers, chunks = [], 0.0, [], []
    hot_rows, hot_bursts = [], []
    size = -(-len(requests) // SERVE_CHUNKS)
    for first in range(0, len(requests), size):
        chunk = requests[first:first + size]
        chunk_rows, chunk_wall = closed_loop(session.url, chunk, out, tracer)
        rows += [(first + row[0], *row[1:]) for row in chunk_rows]
        chunks.append([row[1] * 1e3 for row in chunk_rows])
        wall += chunk_wall
        answers += [(chunk[row[0]], row[4], row[5]) for row in chunk_rows]
        hot = [r for kind, r in stream[: first + size] if kind == "hot"]
        if hot_burst and hot:
            burst = [hot[i % len(hot)] for i in range(hot_burst)]
            burst_rows, _ = closed_loop(session.url, burst, out)
            hot_rows += burst_rows
            hot_bursts.append([row[1] for row in burst_rows])
            answers += [(burst[row[0]], row[4], row[5]) for row in burst_rows]
    after = session.broker.status()
    seen: set = set()
    repeats = 0
    for request in requests:
        fingerprint = json.dumps(request, sort_keys=True)
        repeats += fingerprint in seen
        seen.add(fingerprint)
    return {
        "rows": rows,
        "chunks": chunks,
        "wall": wall,
        "hot_rows": hot_rows,
        "hot_bursts": hot_bursts,
        "answers": answers,
        "repeat_share": repeats / len(requests),
        # Hot-only bursts repeat answered keys, so every simulation belongs
        # to the mixed stream.
        "sim_ratio": (after["simulations_run"] - before["simulations_run"])
        / len(requests),
        "coalesced": after["coalesced"] - before["coalesced"],
        "shed": after["shed"] - before["shed"],
        "retries": after["execution"]["retries"],
        "worker_crashes": after["execution"]["worker_crashes"],
    }


def serve_workload(ctx: Context) -> Outcome:
    out = Outcome()
    stream = serve_stream(ctx.seed, max(MIN_REQUESTS, 50 * ctx.seconds))
    if ctx.trace:
        return serve_traced(ctx, stream, out)
    setups: list[ServeSession] = []
    for attempt in range(SERVE_SETUPS):
        if setups:
            setups[-1].close()
        out.attempted += 1
        try:
            setups.append(ServeSession(ctx.scratch / f"cache{attempt}", ctx.seed))
        except Exception as exc:
            out.fail(f"server setup raised {exc!r}")
            return out
    session = setups[-1]
    try:
        loop = serve_loop(
            session, stream, out, hot_burst=HOT_ONLY_REQUESTS // SERVE_CHUNKS
        )
        workers_rss_mb = gate.workers_peak_rss_mb()
    finally:
        session.close()
    check_serve_records([s.warmup for s in setups] + loop["answers"], out)
    if not loop["rows"] or not loop["hot_rows"]:
        return out
    out.metrics = {
        "setup_s": statistics.median(s.setup_s for s in setups),
        "rate_per_s": len(loop["rows"]) / loop["wall"],
        # Closed-loop throughput from the typical request, not the mean:
        # a few requests stalled by the host would otherwise set it.
        "fast_rate_per_s": CLIENTS
        / statistics.median(percentile(burst, 50) for burst in loop["hot_bursts"]),
        **latency_summary(loop["chunks"]),
        "peak_rss_mb": workers_rss_mb,
    }
    out.exact.update(
        {"serve.sim_ratio": loop["sim_ratio"], "serve.repeat_share": loop["repeat_share"]}
    )
    out.notes.update(
        requests=len(stream),
        latency_samples=len(loop["rows"]),
        p99_ms=pooled_p99(loop["chunks"]),
        hot_only_requests=len(loop["hot_rows"]),
        coalesced=loop["coalesced"],
        shed=loop["shed"],
    )
    return out


def serve_traced(ctx: Context, stream: list, out: Outcome) -> Outcome:
    out.attempted += 1
    plain_session = ServeSession(ctx.scratch / "plain", ctx.seed)
    try:
        plain = serve_loop(plain_session, stream, out)
    finally:
        plain_session.close()
    tracer = spans.Tracer(run_id=f"serve-{ctx.seed}-{os.getpid()}")
    with spans.Patcher(tracer) as patcher:
        layers.install_serve(patcher)
        out.attempted += 1
        with tracer.span("serve.setup"):
            session = ServeSession(ctx.scratch / "traced", ctx.seed)
        try:
            traced = serve_loop(session, stream, out, tracer)
        finally:
            session.close()
    check_serve_records(plain["answers"] + traced["answers"], out)
    rows = traced["rows"]
    if not rows:
        return out
    kinds = [stream[row[0]][0] for row in rows]
    hot_ms = [row[1] * 1e3 for row, kind in zip(rows, kinds) if kind == "hot"]
    fresh_ms = [row[1] * 1e3 for row, kind in zip(rows, kinds) if kind == "fresh"]

    def pct(values, q=50):
        return percentile(values, q) if values else 0.0

    out.layers = {
        "trace.overhead_frac": traced["wall"] / plain["wall"] - 1,
        "serve.ready_s": session.ready_s,
        "serve.first_result_s": session.first_result_s,
        "serve.hot.p50_ms": pct(hot_ms),
        "serve.submit_rtt.p50_ms": pct([row[2] * 1e3 for row in rows]),
        "serve.fresh.p50_ms": pct(fresh_ms),
        "serve.fresh.p99_ms": pct(fresh_ms, 99),
        "serve.result_wait.p50_ms": pct([row[3] * 1e3 for row in rows]),
        "serve.broker.submit.calls": tracer.calls("serve.broker.submit"),
        "serve.broker.submit.s": tracer.total_s("serve.broker.submit"),
        "serve.normalize.s": tracer.total_s("serve.normalize"),
        "serve.repeat_share": traced["repeat_share"],
        "serve.sim_ratio": traced["sim_ratio"],
        "serve.coalesced": traced["coalesced"],
        "serve.shed": traced["shed"],
        "resilient.retries": traced["retries"],
        "resilient.worker_crashes": traced["worker_crashes"],
        "harness.job_key.calls": tracer.calls("harness.job_key"),
        "harness.job_key.s": tracer.total_s("harness.job_key"),
        "harness.cache.lookup.calls": tracer.calls("harness.cache.lookup"),
        "harness.cache.lookup.s": tracer.total_s("harness.cache.lookup"),
        "harness.cache.store.calls": tracer.calls("harness.cache.store"),
        "harness.cache.store.s": tracer.total_s("harness.cache.store"),
    }
    out.exact.update({name: out.layers[name] for name in EXACT if name in out.layers})
    out.trace_events = tracer.trace_events(os.getpid(), "serve")
    out.self_table = tracer.self_table()
    out.notes["dropped_spans"] = tracer.dropped
    return out


#: Workload inputs besides the seed, recorded in every run manifest.
WORKLOAD_PARAMS = {
    **{name: {"config": config} for name, config in ENGINE_CONFIGS.items()},
    "sweep": {
        "routers": SWEEP_ROUTERS,
        "rates": SWEEP_RATES,
        "packets": [150, 900],
        "size": 8,
    },
    "serve": {
        "hot_keys": HOT_KEYS,
        "hot_share": HOT_SHARE,
        "min_requests": MIN_REQUESTS,
        "hot_only_requests": HOT_ONLY_REQUESTS,
        "chunks": SERVE_CHUNKS,
        "config": {k: v for k, v in tiny_config(0).items() if k != "seed"},
    },
}

WORKLOADS = {
    "default-8x8": engine_workload,
    "mesh32-sparse": engine_workload,
    "sweep": sweep_workload,
    "serve": serve_workload,
}


# ---------------------------------------------------------------------------


def stop_children() -> None:
    """Stop and reap every process multiprocessing started from here.

    Worker processes a failed pass may have left are terminated.  The
    resource tracker, which multiprocessing starts beside the first pool
    and which otherwise exits only after this process, is stopped and
    waited for, so no process of the benchmark outlives it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    work_dir = ROOT / ".perfbench"
    scratch = work_dir / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.workload, args.seed, args.seconds, trace, scratch)
    params = {"workers": WORKERS, "clients": CLIENTS, **WORKLOAD_PARAMS[args.workload]}
    manifest = gate.manifest(ROOT, args.workload, args.seed, args.seconds, trace, params)
    if manifest["load_before"][0] > manifest["nproc"]:
        print(
            f"perfbench: WARNING load average {manifest['load_before'][0]:.2f} exceeds "
            f"nproc {manifest['nproc']}; timings will be noisy",
            file=sys.stderr,
        )
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for message in gate.check_exact(ROOT, args.workload, args.seed, outcome.exact):
        outcome.fail(message, mismatch=True)
    manifest["load_after"] = list(os.getloadavg())

    metrics = outcome.layers if trace else outcome.metrics
    names = PER_LAYER if trace else END_TO_END
    if not metrics:
        print("perfbench: no measurement completed", file=sys.stderr)
        return 1
    values = {name: float(metrics.get(name, 0.0)) for name in names}
    report = {
        "manifest": manifest,
        "metrics": values,
        "exact": outcome.exact,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "mismatches": outcome.mismatches,
        "notes": outcome.notes,
        "self_table": outcome.self_table,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = work_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str))
    if trace and outcome.trace_events:
        trace_path = work_dir / "traces" / f"{tag}.trace.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        spans.write_chrome_trace(trace_path, outcome.trace_events, {"manifest": manifest})
        print(f"trace: {trace_path.relative_to(ROOT)}")
        for row in outcome.self_table[:25]:
            print(
                f"self {row['name']:<28} {row.get('engine', ''):<6} "
                f"calls {row['calls']:>9} self {row['self_s']:.6f} s "
                f"total {row['total_s']:.6f} s"
            )
    print(f"manifest: {json.dumps(manifest, sort_keys=True)}")
    print(f"notes: {json.dumps(outcome.notes, sort_keys=True, default=str)}")
    print(f"failed_frac {report['failed_frac']:.6f} frac")
    for name, value in values.items():
        print(f"{name} {value:.6g} {names[name]}")
    print(
        json.dumps(
            {
                "correct": not outcome.mismatches,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": names[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    # A terminated benchmark still stops its children on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
