"""Which public functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<operation>``; the layer is the repro package
the function lives in.  Each ``install_*`` function takes a
:class:`spans.Patcher` and must run before the objects it traces are
constructed; ``Patcher.restore`` removes every wrapper again.
"""

from __future__ import annotations


def _requesting_ports(requests) -> int:
    return sum(1 for port in requests if any(True in slot for slot in port))


def install_engine(patcher, engine: str) -> None:
    """Wrap the layers one engine run goes through (object or soa)."""
    from repro.arbiters.matrix import MatrixArbiter
    from repro.arbiters.mirror import MirrorAllocator
    from repro.arbiters.round_robin import RoundRobinArbiter
    from repro.core.network import Network
    from repro.core.simulator import Simulator, Source
    from repro.energy.model import EnergyModel
    from repro.metrics.latency import LatencySummary
    from repro.routers import ROUTER_CLASSES
    from repro.routing import AdaptiveRouting, XYRouting, XYYXRouting
    from repro.traffic import TRAFFIC_CLASSES

    tracer = patcher.tracer
    for cls in (XYRouting, XYYXRouting, AdaptiveRouting):
        patcher.method(cls, "candidates", "routing.candidates")
    for cls in TRAFFIC_CLASSES.values():
        patcher.method(cls, "destination", "traffic.destination")
        patcher.method(cls, "arrivals", "traffic.arrivals")
    patcher.method(EnergyModel, "report", "energy.report")
    patcher.method(LatencySummary, "from_samples", "metrics.summary")
    if engine == "object":
        patcher.method(Simulator, "__init__", "core.init")
        patcher.method(Simulator, "run", "core.run")
        patcher.method(Network, "step", "core.step")
        patcher.method(Source, "inject", "core.inject")
        for cls in ROUTER_CLASSES.values():
            patcher.method(cls, "deliver_due", "routers.deliver")
            patcher.method(cls, "deliver_incoming", "routers.deliver")
            patcher.method(cls, "traverse", "routers.traverse")
            patcher.method(cls, "allocate", "routers.allocate")

        def mirror_observed(args, grants) -> None:
            tracer.bump("arbiters.mirror.requesting_ports", _requesting_ports(args[1]))
            tracer.bump("arbiters.mirror.grants", len(grants))

        def grant_observed(args, winner) -> None:
            if winner is not None:
                tracer.bump("arbiters.grant.hits")

        patcher.method(MirrorAllocator, "allocate", "arbiters.mirror", mirror_observed)
        for cls in (RoundRobinArbiter, MatrixArbiter):
            patcher.method(cls, "grant", "arbiters.grant", grant_observed)
        return

    from repro.core.soa import engine as soa_engine
    from repro.core.soa.layout import SoALayout

    patcher.function([soa_engine], "build_layout", "soa.layout")
    patcher.method(soa_engine.SoASimulator, "__init__", "soa.init")
    patcher.method(soa_engine.SoASimulator, "run", "soa.run")
    patcher.method(SoALayout, "roco_admission", "soa.admission")
    patcher.method(SoALayout, "roco_injection", "soa.injection")
    patcher.method(SoALayout, "route_candidates", "soa.route_candidates")
    # A layout memo miss falls back to the object router's vc_candidates.
    for cls in ROUTER_CLASSES.values():
        patcher.method(cls, "vc_candidates", "routers.vc_candidates")


def install_harness(patcher) -> None:
    """Wrap the sweep front door: run_jobs, job keys and the result cache."""
    from repro.harness import parallel

    patcher.method(parallel.ParallelExecutor, "run_jobs", "harness.run_jobs")
    patcher.function([parallel], "job_key", "harness.job_key")
    patcher.method(parallel.ResultCache, "lookup", "harness.cache.lookup")
    patcher.method(parallel.ResultCache, "store", "harness.cache.store")


def install_serve(patcher) -> None:
    """Wrap the job server's broker, request normalisation and cache."""
    from repro.harness import parallel
    from repro.serve import broker, protocol

    patcher.method(broker.JobBroker, "submit", "serve.broker.submit")
    patcher.function([protocol], "normalize_request", "serve.normalize")
    patcher.function([parallel, broker], "job_key", "harness.job_key")
    patcher.method(parallel.ResultCache, "lookup", "harness.cache.lookup")
    patcher.method(parallel.ResultCache, "store", "harness.cache.store")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_layer_metrics(stats: dict, counts: dict, engine: str) -> dict:
    """Per-layer metrics of one traced engine run, from span aggregates.

    ``stats`` maps span name to ``[calls, total_ns, self_ns]``.
    """

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def total(name):
        return stats.get(name, (0, 0, 0))[1] / 1e9

    def self_(name):
        return stats.get(name, (0, 0, 0))[2] / 1e9

    if engine == "object":
        metrics = {
            "core.init_s": total("core.init"),
            "core.step.calls": calls("core.step"),
            "core.step.self_s": self_("core.step"),
            "core.inject.calls": calls("core.inject"),
            "core.inject.s": total("core.inject"),
            "core.run.self_s": self_("core.run"),
            "arbiters.mirror.calls": calls("arbiters.mirror"),
            "arbiters.mirror.s": total("arbiters.mirror"),
            "arbiters.mirror.grant_ratio": _ratio(
                counts.get("arbiters.mirror.grants", 0),
                counts.get("arbiters.mirror.requesting_ports", 0),
            ),
            "arbiters.grant.calls": calls("arbiters.grant"),
            "arbiters.grant.s": total("arbiters.grant"),
            "arbiters.grant.hit_ratio": _ratio(
                counts.get("arbiters.grant.hits", 0), calls("arbiters.grant")
            ),
        }
        for name in (
            "routers.deliver",
            "routers.traverse",
            "routers.allocate",
            "routing.candidates",
            "traffic.destination",
            "traffic.arrivals",
        ):
            metrics[f"{name}.calls"] = calls(name)
            metrics[f"{name}.s"] = total(name)
        metrics["energy.report_s"] = total("energy.report")
        metrics["metrics.summary_s"] = total("metrics.summary")
        return metrics
    metrics = {
        "soa.layout_s": total("soa.layout"),
        "soa.init_self_s": self_("soa.init"),
        "soa.run.self_s": self_("soa.run"),
        "soa.admission.calls": calls("soa.admission"),
        "soa.admission.s": total("soa.admission"),
        "soa.admission.misses": calls("routers.vc_candidates"),
        "soa.admission.miss_ratio": _ratio(
            calls("routers.vc_candidates"), calls("soa.admission")
        ),
        "soa.injection.calls": calls("soa.injection"),
        "soa.injection.s": total("soa.injection"),
        "soa.route_candidates.calls": calls("soa.route_candidates"),
        "soa.route_candidates.s": total("soa.route_candidates"),
    }
    # SoA inlines the Bernoulli arrival draw, so only these two of the
    # shared layers are called from the SoA engine's run loop.
    for name in ("routing.candidates", "traffic.destination"):
        metrics[f"soa.{name}.calls"] = calls(name)
        metrics[f"soa.{name}.s"] = total(name)
    return metrics
