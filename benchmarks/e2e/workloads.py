"""The four workloads: one repetition of each, timed in candle units.

Every ``rep_*`` function builds what it needs from the generated inputs,
times its set-up and its fixed measured work through a
:class:`timing.NormClock`, checks the result, and returns a
:class:`Rep`.  With a tracer the same code runs with spans around the
layer boundaries (:mod:`layers`); timing is identical either way.

Closed loop, one busy process at a time: the harness blocks while a pool
worker or the service thread runs, and the candle runs while they idle.
"""

from __future__ import annotations

import dataclasses
import os
import random
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import layers
from inputs import digest
from spans import Tracer
from timing import NormClock


@dataclass
class Rep:
    """What one repetition measured (seconds are candle-normalised)."""

    setup_s: float
    wall_s: float
    raw_wall_s: float
    raw_setup_s: float
    #: simulated cycles delivered to the caller during ``wall_s``.
    cycles: int
    #: normalised per-job latencies in ms (empty on ``sim_*``).
    job_ms: List[float]
    #: normalised seconds of each timed unit.
    units: List[float]
    #: JSON-able identity of everything the repetition returned.
    result: object
    attempted: int = 0
    failed: int = 0
    #: counts read at layer boundaries from public accessors.
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: traced runs: self seconds per layer gained in each phase (raw).
    layers_setup: Dict[str, float] = field(default_factory=dict)
    layers_wall: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


class _Phases:
    """Splits a traced repetition's layer self times into its set-up and
    its timed phase (no-ops without a tracer)."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.mark = self._now()
        self.setup: Dict[str, float] = {}

    def _now(self):
        if self.tracer is None:
            return {}
        return {n: (v.self_s, v.count) for n, v in self.tracer.layers.items()}

    def _gained(self):
        now = self._now()
        seconds = {n: s - self.mark.get(n, (0.0, 0))[0] for n, (s, _c) in now.items()}
        calls = {n: c - self.mark.get(n, (0.0, 0))[1] for n, (_s, c) in now.items()}
        self.mark = now
        return seconds, calls

    def end_setup(self) -> None:
        self.setup, _ = self._gained()

    def end_wall(self, rep: "Rep") -> "Rep":
        rep.layers_setup = self.setup
        rep.layers_wall, rep.layer_calls = self._gained()
        return rep


# --------------------------------------------------------------------- #
# sim_saturated / sim_recovery


def _sim_parts(params: Dict, draw: Dict, datapath: Optional[str]):
    """(topology factory, NocConfig, scheme, Simulation kwargs)."""
    from repro import api

    if params["workload"] == "sim_saturated":
        preset = api.load_preset(params["preset"], seed=draw["noc_seed"])
        cfg, kwargs = preset.config, {}
    else:
        from repro.noc.config import NocConfig

        preset = api.load_preset(params["topology"])
        cfg = NocConfig(vcs_per_vnet=params["vcs_per_vnet"])
        kwargs = {"watchdog_window": params["watchdog_window"]}
    if datapath is not None:
        cfg = dataclasses.replace(cfg, datapath=datapath)
    scheme = api.make_scheme(params["scheme"], preset.upp_config)
    return preset.topology_factory(), cfg, scheme, kwargs


def _install_traffic(params: Dict, draw: Dict, network) -> None:
    if params["workload"] == "sim_saturated":
        from repro.traffic.synthetic import install_synthetic_traffic

        install_synthetic_traffic(network, params["pattern"], params["rate"])
        return
    from repro.traffic.adversarial import install_adversarial_traffic, witness_flows

    flows = witness_flows(network)
    random.Random(draw["flow_order_seed"]).shuffle(flows)
    install_adversarial_traffic(network, flows)


def rep_sim(
    params: Dict,
    draw: Dict,
    clock: NormClock,
    tracer: Optional[Tracer] = None,
    datapath: Optional[str] = None,
) -> Rep:
    """Build, warm up (set-up) and run the measured window (wall).

    The program's names are looked up when called, so inside
    :func:`layers.patched` the same calls leave spans."""
    from repro.metrics.stats import result_fingerprint
    from repro.sim.simulator import Simulation

    unit_cycles = params["unit_cycles"]
    phases = _Phases(tracer)
    clock.gap()
    clock.lap()
    (factory, cfg, scheme, kwargs), _ = clock.unit(_sim_parts, params, draw, datapath)
    topo, _ = clock.unit(factory)
    sim, _ = clock.unit(Simulation, topo, cfg, scheme, **kwargs)
    clock.unit(_install_traffic, params, draw, sim.network)
    # Network.run, not Simulation.run: a Simulation measures one window
    for _ in range(params["warmup"] // unit_cycles):
        clock.unit(sim.network.run, unit_cycles)
    setup_s, raw_setup_s = clock.lap()
    phases.end_setup()

    # measured window: Simulation.run drives it; its per-cycle stop_when
    # callback is where the harness closes one unit and opens the next
    units: List[float] = []
    close = clock.close
    if tracer is not None:
        close = tracer.leaf("host.candle", close)
    left = [unit_cycles]

    def tick(_network) -> bool:
        left[0] -= 1
        if left[0] == 0:
            left[0] = unit_cycles
            units.append(close())
            clock.open()
        return False

    hops0 = sim.network.link_traversals
    clock.open()
    result = sim.run(0, params["measure"], stop_when=tick)
    fingerprint = result_fingerprint(result)
    units.append(clock.close())
    wall_s, raw_wall_s = clock.lap()

    rep = Rep(
        setup_s=setup_s,
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        raw_setup_s=raw_setup_s,
        cycles=result.cycles,
        job_ms=[],
        units=units,
        result=fingerprint,
        counts={
            "noc.flit_hops": sim.network.link_traversals - hops0,
            "metrics.packets": result.summary["packets"],
            "sim.cycles": result.cycles,
            "sim.avg_total_latency_cycles": result.summary["avg_total_latency"],
            "sim.throughput_flits_per_node_cycle": result.summary["throughput"],
            "sim.deadlocked": int(result.deadlocked),
            **{f"core.{k}": v for k, v in result.scheme_stats.items()},
            **{f"noc.vector.{k}": v for k, v in result.datapath.items()
               if isinstance(v, (int, float))},
        },
    )
    rep.check(result.cycles == params["measure"], "window ended early")
    rep.check(not result.deadlocked, "protected scheme deadlocked")
    rep.check(result.summary["packets"] > 0, "no packet delivered")
    return phases.end_wall(rep)


def _settle_filesystem(clock: NormClock) -> None:
    """Commit the journal so a phase that persists files starts from the
    same filesystem state every time.  On ext4 a write-then-rename over
    an existing file (the cache's and the queue's atomic persist) went
    from 150 us to over 500 us across twenty seconds of such traffic,
    and stayed near 270 us when each second of it began with a sync.
    (Deleting a directory tree does the same for seconds, which is why
    repetitions leave theirs for the run's exit to remove.)"""
    os.sync()
    clock.gap()


# --------------------------------------------------------------------- #
# campaign_cold


def _run_campaign(campaign: Dict, **runner_args):
    """One campaign through ``repro.api``; returns (identity, cycles)."""
    from repro import api
    from repro.sim.experiment import sweep_to_rows

    if campaign["kind"] == "sweep":
        points = api.run_sweep(
            campaign["preset"], campaign["scheme"], campaign["pattern"],
            campaign["rates"], warmup=campaign["warmup"],
            measure=campaign["measure"], **runner_args,
        )
        cycles = len(points) * (campaign["warmup"] + campaign["measure"])
        return sweep_to_rows(points), cycles
    summary = api.run_workload(
        campaign["preset"], campaign["workload"], schemes=campaign["scheme"],
        scale=campaign["scale"], **runner_args,
    )[campaign["scheme"]]
    summary = {k: v for k, v in summary.items() if k != "scalar_fallback_fraction"}
    return summary, int(summary["runtime"])


def rep_campaign(
    params: Dict,
    draw: Dict,
    clock: NormClock,
    work_dir: Path,
    tracer: Optional[Tracer] = None,
) -> Rep:
    """Warm-up campaigns (set-up), then the timed ones: one per unit,
    each a fresh runner + pool over the repetition's empty cache dir."""
    from repro.exp.cache import ResultCache
    from repro.exp.runner import ExperimentRunner

    root = Path(tempfile.mkdtemp(prefix="campaign-", dir=work_dir))
    cache_dir = root / "cache"
    worker = layers.WorkerTrace(root / "side") if tracer is not None else None
    sizes: Dict[str, int] = {}
    stats = {"executed": 0, "cached": 0}
    phases = _Phases(tracer)

    failures: List[str] = []

    def untraced(campaign):
        return _run_campaign(campaign, jobs=params["jobs"], cache_dir=cache_dir)

    def traced(campaign):
        tracer.request = f"campaign-{len(tracer.spans)}"
        runner = ExperimentRunner(
            jobs=params["jobs"],
            cache=layers.trace_cache(tracer, ResultCache(cache_dir), sizes),
            execute=worker,
        )
        try:
            return _run_campaign(campaign, runner=runner)
        finally:
            worker.collect(tracer)
            stats["executed"] += runner.stats.executed
            stats["cached"] += runner.stats.cached

    attempt = untraced if tracer is None else tracer.wrap("exp.campaign", traced)

    def run(campaign):
        # a campaign that raises is a failed operation, not a failed run
        try:
            return attempt(campaign)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(f"{campaign['kind']} campaign raised {exc!r}")
            return None, 0

    _settle_filesystem(clock)
    clock.lap()
    for campaign in draw["warmups"]:
        clock.unit(run, campaign)
    setup_s, raw_setup_s = clock.lap()
    phases.end_setup()
    _settle_filesystem(clock)

    results, units, cycles = [], [], 0
    for campaign in draw["campaigns"]:
        (identity, simulated), seconds = clock.unit(run, campaign)
        results.append(identity)
        units.append(seconds)
        cycles += simulated
    wall_s, raw_wall_s = clock.lap()
    rep = Rep(
        setup_s=setup_s,
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        raw_setup_s=raw_setup_s,
        cycles=cycles,
        job_ms=[1000.0 * seconds for seconds in units],
        units=units,
        result=results,
    )
    entries = ResultCache(cache_dir).entries()
    expected = len(draw["campaigns"]) + len(draw["warmups"])
    rep.check(len(entries) == expected,
              f"{len(entries)} cache entries after {expected} cold campaigns")
    for identity in results:
        rep.check(bool(identity), "campaign returned nothing")
    rep.errors.extend(failures)
    if tracer is not None:
        rep.counts = {
            "exp.executed": stats["executed"],
            "exp.cached": stats["cached"],
            "exp.cache_entry_bytes": sizes.get("entry_bytes", 0) / max(1, sizes.get("puts", 0)),
            "exp.pickle_bytes": sizes.get("pickle_bytes", 0) / max(1, sizes.get("puts", 0)),
        }
    return phases.end_wall(rep)


def recheck_inline(draw: Dict, pooled: List, sample: int = 3) -> List[bool]:
    """Re-execute a sample of the draw's campaigns in this process
    (``jobs=1``, no cache: ``execute_spec`` inline) and compare with what
    the pool returned.  Run after all timing: it imports into the parent
    what until now only workers had loaded."""
    picks = sorted(random.Random(digest(draw)).sample(range(len(pooled)), sample))
    return [
        _run_campaign(draw["campaigns"][index], jobs=1)[0] == pooled[index]
        for index in picks
    ]


# --------------------------------------------------------------------- #
# service_warm


def rep_service(
    params: Dict,
    draw: Dict,
    clock: NormClock,
    work_dir: Path,
    tracer: Optional[Tracer] = None,
) -> Rep:
    """Boot a service, cold-fill its cache and make one warm pass
    (set-up); then time the repetition's jobs, three per unit."""
    from repro import api
    from repro.client import ServiceClient, ServiceError
    from repro.service import BackgroundService

    root = Path(tempfile.mkdtemp(prefix="service-", dir=work_dir))
    cache = api.make_cache(root / "cache", tiered=True)
    sizes: Dict[str, int] = {}
    if tracer is not None:
        layers.trace_cache(tracer, cache, sizes)
    requests, order = draw["requests"], draw["order"]
    per_unit = params["jobs_per_unit"]
    phases = _Phases(tracer)

    def job(client, request):
        if tracer is not None:
            tracer.request = f"job-{len(tracer.spans)}"
        accepted = client.submit_sweep(**request)
        done = client.wait(accepted["id"])
        return done, client.result(accepted["id"])["result"]

    def timed_job(client, request):
        # a job that raises is a failed operation, not a failed run
        start = perf_counter()
        try:
            outcome = job(client, request)
        except (ServiceError, OSError) as exc:
            outcome = ({"metrics": {"executed": repr(exc)}}, None)
        return perf_counter() - start, outcome

    _settle_filesystem(clock)
    clock.lap()
    service, _ = clock.unit(BackgroundService(root / "queue", cache=cache).start)
    try:
        client = ServiceClient(port=service.port)
        if tracer is not None:
            layers.trace_client(tracer, client)
            layers.trace_queue(tracer, service.service.queue)
        cold = [clock.unit(job, client, request)[0] for request in requests]
        for request in requests:
            clock.unit(job, client, request)
        setup_s, raw_setup_s = clock.lap()
        if tracer is not None:
            tracer.attribute_foreign(threading.get_ident())
        phases.end_setup()
        before = client.stats()["totals"]
        _settle_filesystem(clock)

        job_ms: List[float] = []
        units: List[float] = []
        outcomes = []
        for at in range(0, len(order), per_unit):
            batch = order[at:at + per_unit]
            raws = []
            clock.open()
            for index in batch:
                raw, outcome = timed_job(client, requests[index])
                outcomes.append((index, outcome))
                raws.append(raw)
            units.append(clock.close())
            job_ms.extend(1000.0 * raw * clock.factor for raw in raws)
        wall_s, raw_wall_s = clock.lap()
        after = client.stats()["totals"]

        rep = Rep(
            setup_s=setup_s,
            wall_s=wall_s,
            raw_wall_s=raw_wall_s,
            raw_setup_s=raw_setup_s,
            cycles=sum(
                len(requests[index]["rates"])
                * (requests[index]["warmup"] + requests[index]["measure"])
                for index in order
            ),
            job_ms=job_ms,
            units=units,
            result=[result for _done, result in cold],
        )
        for request, (done, _result) in zip(requests, cold):
            rep.check(done["metrics"]["executed"] == len(request["rates"]),
                      f"cold fill executed {done['metrics']['executed']} points")
        for index, (done, result) in outcomes:
            metrics = done["metrics"]
            rep.check(
                metrics["executed"] == 0 and result == cold[index][1],
                f"warm job for request {index}: executed={metrics['executed']}"
                f", result {'matches' if result == cold[index][1] else 'differs'}",
            )
        rep.check(after["executed"] == before["executed"],
                  "GET /v1/stats: executed moved during the timed phase")
        rep.counts = {
            "service.executed": after["executed"] - before["executed"],
            "service.cached": after["cached"] - before["cached"],
            "service.deduped": after["deduped"] - before["deduped"],
            "service.queue_wait_s": after["queue_wait_s"] - before["queue_wait_s"],
            "service.connections": 4 * len(order),
            "sim.cycles": 0,
        }
        if tracer is not None:
            tracer.attribute_foreign(threading.get_ident())
        return phases.end_wall(rep)
    finally:
        service.stop()


def recheck_direct(draw: Dict, served: List, sample: int = 2) -> List[bool]:
    """A sample of the draw's requests run directly through
    ``repro.api.run_sweep`` must equal what the service returned."""
    from repro import api
    from repro.sim.experiment import sweep_to_rows

    picks = sorted(random.Random(digest(draw)).sample(range(len(served)), sample))
    verdicts = []
    for index in picks:
        request = draw["requests"][index]
        points = api.run_sweep(
            request["preset"], request["scheme"], request["pattern"],
            request["rates"], warmup=request["warmup"], measure=request["measure"],
        )
        verdicts.append(sweep_to_rows(points) == served[index]["points"])
    return verdicts
