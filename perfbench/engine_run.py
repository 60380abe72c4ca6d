"""One engine run in a fresh interpreter; prints one JSON line.

Run by ``perfbench/run.py`` for the engine workloads, so the SoA
layout cache (``repro.core.soa.layout._layout_cache``) starts cold, as it
does for a command-line user::

    python3 perfbench/engine_run.py --engine soa --config '{"width": 32, ...}'

Timed: construction of the engine (``setup_s``) and the whole call,
construction + run + drain (``wall_s``).  Imports happen before either
clock starts.  ``--cycle-times`` records the host time of every simulated
cycle through the public ``progress`` callback.  ``--trace PATH`` wraps
the engine's layers (see ``layers.install_engine``) and writes the
spans there as Chrome trace events.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.core.config import SimulationConfig  # noqa: E402
from repro.core.simulator import Simulator  # noqa: E402
from repro.core.soa.engine import SoASimulator  # noqa: E402
from repro.harness.export import result_record  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
from gate import peak_rss_mb, record_digest  # noqa: E402

ENGINES = {"object": Simulator, "soa": SoASimulator}


def steady_window(generated_after: list[int], config) -> list[int]:
    inside = [
        i
        for i, generated in enumerate(generated_after)
        if config.warmup_packets <= generated < config.total_packets
    ]
    return [inside[0], inside[-1] + 1] if inside else [0, 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=sorted(ENGINES), required=True)
    parser.add_argument("--config", required=True, help="SimulationConfig fields")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cycle-times", action="store_true")
    parser.add_argument("--trace", help="write Chrome trace events here")
    args = parser.parse_args(argv)

    config = SimulationConfig(**json.loads(args.config))
    engine_cls = ENGINES[args.engine]
    tracer = patcher = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.engine}-{os.getpid()}")
        patcher = spans.Patcher(tracer)
        layers.install_engine(patcher, args.engine)
        root = tracer.enter(f"engine.{args.engine}")
    stamps: list[int] = []
    generated_after: list[int] = []
    clock = time.perf_counter_ns

    def progress(cycle, generated, outstanding):
        stamps.append(clock())
        generated_after.append(generated)

    t0 = time.perf_counter()
    sim = engine_cls(config)
    t1 = time.perf_counter()
    out = {"engine": args.engine, "setup_s": t1 - t0}
    if not args.setup_only:
        if args.cycle_times:
            result = sim.run(progress=progress, progress_every=1)
        else:
            result = sim.run()
        t2 = time.perf_counter()
        out.update(
            wall_s=t2 - t0,
            cycles=result.cycles,
            router_steps=result.scheduler.router_steps,
            router_slots=result.scheduler.router_slots,
            digest=record_digest(result_record(result)),
            cycle_ns=[b - a for a, b in zip(stamps, stamps[1:])],
            # [first, last) cycle_ns index of the cycles that end with traffic
            # still offered after the warm-up: the simulator's measurement
            # window, without the ramp or the drain.
            steady=steady_window(generated_after[1:], config),
        )
    if tracer is not None:
        tracer.exit(root)
        patcher.restore()
        out["layers"] = layers.engine_layer_metrics(
            tracer.stats, tracer.counts, args.engine
        )
        out["root_s"] = tracer.total_s(f"engine.{args.engine}")
        out["self_sum_s"] = sum(row["self_s"] for row in tracer.self_table())
        out["self_table"] = tracer.self_table()
        out["dropped_spans"] = tracer.dropped
        spans.write_chrome_trace(
            args.trace,
            tracer.trace_events(os.getpid(), f"engine {args.engine}"),
            {"run_id": tracer.run_id, "dropped_spans": tracer.dropped},
        )
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
