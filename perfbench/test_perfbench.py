"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import engine_run  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = {"width": 3, "height": 3, "warmup_packets": 5, "measure_packets": 30, "seed": 4}


def _child_output(capsys, *argv) -> dict:
    assert engine_run.main(["--config", json.dumps(TINY), *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _context(tmp_path, workload="tiny", seed=4) -> run.Context:
    return run.Context(workload, seed, 1, False, tmp_path)


# -- correctness gate -------------------------------------------------------


def test_engine_gate_catches_a_perturbed_record(capsys, tmp_path):
    obj = _child_output(capsys, "--engine", "object")
    soa = _child_output(capsys, "--engine", "soa")
    clean = run.Outcome()
    run.check_engine_pair(_context(tmp_path), obj, soa, clean)
    assert clean.failed == 0 and not clean.mismatches

    perturbed = dict(soa, digest=gate.record_digest({"cycles": -1}))
    caught = run.Outcome()
    run.check_engine_pair(_context(tmp_path), obj, perturbed, caught)
    assert caught.failed == 1 and caught.mismatches


def test_pinned_digest_mismatch_is_a_failure(tmp_path, monkeypatch):
    digest = gate.record_digest({"cycles": 1})
    monkeypatch.setattr(gate, "pinned_digest", lambda workload, seed: "0" * 64)
    pair = {"digest": digest, "cycles": 1, "router_steps": 1, "router_slots": 2}
    out = run.Outcome()
    run.check_engine_pair(
        _context(tmp_path), dict(pair, engine="object"), dict(pair, engine="soa"), out
    )
    assert out.failed == 2 and len(out.mismatches) == 2


def test_pinned_digests_match_the_reference_engine(capsys):
    table = json.loads(gate.DIGESTS.read_text())
    config = dict(run.ENGINE_CONFIGS["default-8x8"], seed=0)
    assert engine_run.main(["--engine", "soa", "--config", json.dumps(config)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["digest"] == table["default-8x8"]["0"]


def test_sweep_and_serve_gate_catch_a_perturbed_record():
    from repro.harness.parallel import execute_job, job_key
    from repro.serve.protocol import normalize_request

    request = {"kind": "experiment", "config": run.tiny_config(3)}
    job = normalize_request(request).jobs[0]
    record = json.loads(json.dumps(execute_job(job)))
    assert gate.compare_records("sweep", [record], [record]) == []
    perturbed = dict(record, average_latency=record["average_latency"] + 1e-9)
    assert len(gate.compare_records("sweep", [perturbed], [record])) == 1

    out = run.Outcome()
    run.check_serve_records([(request, job_key(job), record)], out)
    assert out.failed == 0
    run.check_serve_records([(request, job_key(job), perturbed)], out)
    assert out.failed == 1 and out.mismatches


def test_exact_counter_drift_between_runs_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "code_hash", lambda root: "same-code")
    assert gate.check_exact(tmp_path, "w", 1, {"core.cycles": 10}) == []
    assert gate.check_exact(tmp_path, "w", 1, {"core.cycles": 10}) == []
    assert len(gate.check_exact(tmp_path, "w", 1, {"core.cycles": 11})) == 1
    monkeypatch.setattr(gate, "code_hash", lambda root: "other-code")
    assert gate.check_exact(tmp_path, "w", 1, {"core.cycles": 12}) == []


# -- tracing ----------------------------------------------------------------


def _install_all(patcher) -> None:
    layers.install_engine(patcher, "object")
    layers.install_engine(patcher, "soa")
    layers.install_harness(patcher)
    layers.install_serve(patcher)


def test_patcher_restores_the_original_functions():
    from repro.core.network import Network
    from repro.core.soa import engine as soa_engine
    from repro.harness import parallel
    from repro.metrics.latency import LatencySummary
    from repro.traffic.base import TrafficPattern
    from repro.traffic.uniform import UniformTraffic

    originals = {
        "step": Network.__dict__["step"],
        "from_samples": LatencySummary.__dict__["from_samples"],
        "build_layout": soa_engine.build_layout,
        "job_key": parallel.job_key,
    }
    tracer = spans.Tracer("test")
    with spans.Patcher(tracer) as patcher:
        _install_all(patcher)
        assert hasattr(Network.step, spans.WRAPPED_MARKER)
        assert hasattr(parallel.job_key, spans.WRAPPED_MARKER)
        # Wrapped once, on the defining class: identity checks still hold.
        assert UniformTraffic.arrivals is TrafficPattern.arrivals
        assert LatencySummary.from_samples([1, 2, 3]).p50 == 2
    assert Network.__dict__["step"] is originals["step"]
    assert LatencySummary.__dict__["from_samples"] is originals["from_samples"]
    assert soa_engine.build_layout is originals["build_layout"]
    assert parallel.job_key is originals["job_key"]
    assert tracer.calls("metrics.summary") == 1


def test_untraced_runs_install_no_wrapper(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run installed a wrapper")

    for name in ("install_engine", "install_harness", "install_serve"):
        monkeypatch.setattr(layers, name, refuse)
    from repro.core.network import Network

    out = _child_output(capsys, "--engine", "object")
    assert out["cycles"] > 0 and "layers" not in out
    assert not hasattr(Network.step, spans.WRAPPED_MARKER)


def test_self_times_sum_to_the_root_span():
    tracer = spans.Tracer("test")

    def leaf():
        return sum(range(1000))

    with tracer.span("root"):
        with tracer.span("a"):
            leaf()
            with tracer.span("b"):
                leaf()
        with tracer.span("c"):
            leaf()
    total = sum(row["self_s"] for row in tracer.self_table())
    assert total == pytest.approx(tracer.total_s("root"), abs=1e-9)
    assert tracer.calls("b") == 1


def test_traced_engine_run_accounts_for_all_time(capsys, tmp_path):
    trace_path = tmp_path / "object.trace.json"
    out = _child_output(capsys, "--engine", "object", "--trace", str(trace_path))
    assert out["self_sum_s"] == pytest.approx(out["root_s"], rel=1e-9)
    assert out["layers"]["core.step.calls"] == out["cycles"]
    events = json.loads(trace_path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert complete and all({"ts", "dur", "pid", "tid"} <= e.keys() for e in complete)
    assert {e["args"]["run_id"] for e in complete} == {complete[0]["args"]["run_id"]}


def test_traced_counts_repeat_exactly(tmp_path):
    # Fresh interpreters, as the benchmark runs them: the layout memo is cold.
    out = run.Outcome()
    runs = [
        run.run_engine_child("soa", TINY, out, "--trace", str(tmp_path / name))
        for name in ("a", "b")
    ]
    assert out.failed == 0
    counts = [
        {k: v for k, v in r["layers"].items() if k.endswith((".calls", ".misses"))}
        for r in runs
    ]
    assert counts[0]["soa.admission.misses"] > 0
    assert counts[0] == counts[1]


# -- reporting --------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 99) == 99
    assert run.percentile([7.0], 99) == 7.0


def test_serve_stream_is_seeded_with_a_fixed_hot_share():
    stream = run.serve_stream(5, 1000)
    assert stream == run.serve_stream(5, 1000)
    assert sum(kind == "hot" for kind, _ in stream) == 400
    assert stream != run.serve_stream(6, 1000)


def test_benchmark_refuses_to_run_without_sources(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_stop_children_leaves_no_process_behind():
    import multiprocessing
    import os
    import time
    from multiprocessing import resource_tracker

    stray = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    stray.start()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    run.stop_children()
    assert not stray.is_alive()
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(tracker, 0)
