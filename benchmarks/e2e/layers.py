"""Layer boundaries: where the ``--trace`` run puts its spans.

Everything here wraps *public* callables of the program from outside —
instance attributes on objects the harness (or the program on its
behalf) builds, and module attributes the program looks up at call time.
Nothing in ``src/`` knows it is being traced, and the untraced run never
imports this module's wrappers into the program's path.

Span names are the layer names of the README's table; a ``--trace`` run
reports each layer's self time (span minus child spans).
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import sys
import threading
from pathlib import Path
from typing import Dict, Iterator, Optional

from spans import Tracer

#: the span that is the harness's own work, never part of a layer sum.
HARNESS_SPAN = "host.candle"


# --------------------------------------------------------------------- #
# simulation objects (instance-level wrappers)


def trace_scheme(tracer: Tracer, scheme):
    """Wrap a scheme's public hooks on the instance: ``build_routing``
    (called inside ``Network(...)``) and the per-cycle ``post_cycle``."""
    scheme.build_routing = tracer.wrap("routing.build", scheme.build_routing)
    scheme.post_cycle = tracer.leaf("schemes.post_cycle", scheme.post_cycle)
    return scheme


def trace_simulation(tracer: Tracer, sim):
    """Wrap a built simulation's per-cycle entry points on the instances."""
    net = sim.network
    net.step = tracer.wrap("noc.step", net.step, keep=False)
    on_eject = tracer.leaf("metrics.on_eject", sim.stats.on_eject)
    for ni in net.nis.values():
        ni.on_eject = on_eject
    sim.stats.summary = tracer.leaf("metrics.summary", sim.stats.summary)
    sim.run = tracer.wrap("sim.loop", sim.run)
    return sim


def trace_endpoints(tracer: Tracer, network) -> None:
    """Wrap every installed endpoint's ``step`` (traffic generation)."""
    for ni in network.nis.values():
        endpoint = ni.endpoint
        if endpoint is not None:
            endpoint.step = tracer.leaf("traffic.endpoint_step", endpoint.step)


# --------------------------------------------------------------------- #
# module-level patches (what the program builds on the harness's behalf)


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route the program's own construction calls through spans.

    ``execute_spec`` (inline or in a forked worker) and the service look
    these names up in their modules when called, so replacing the module
    attributes is enough; they are restored on exit.
    """
    import repro.api as api_mod
    import repro.exp.runner as runner_mod
    import repro.exp.tasks as tasks_mod
    import repro.metrics.stats as stats_mod
    import repro.service.schemas as wire_mod
    import repro.sim.simulator as simulator_mod
    import repro.traffic.coherence as coherence_mod
    import repro.traffic.synthetic as synthetic_mod

    real_simulation = simulator_mod.Simulation
    real_get_topology = tasks_mod.get_topology
    real_make_scheme = tasks_mod.make_scheme

    def get_topology(name):
        return tracer.wrap("topology.build", real_get_topology(name))

    def make_scheme(*args, **kwargs):
        return trace_scheme(tracer, real_make_scheme(*args, **kwargs))

    def simulation(*args, **kwargs):
        sim = tracer.call("noc.build", real_simulation, *args, **kwargs)
        return trace_simulation(tracer, sim)

    def install(real):
        span = tracer.wrap("traffic.install", real)

        def traced(network, *args, **kwargs):
            result = span(network, *args, **kwargs)
            trace_endpoints(tracer, network)
            return result

        return traced

    replaced = [
        (simulator_mod, "Simulation", simulation),
        (tasks_mod, "get_topology", get_topology),
        (tasks_mod, "make_scheme", make_scheme),
        (api_mod, "get_topology", get_topology),
        (api_mod, "make_scheme", make_scheme),
        (stats_mod, "result_fingerprint",
         tracer.wrap("metrics.summary", stats_mod.result_fingerprint)),
        (tasks_mod, "validate_job",
         tracer.wrap("exp.validate", tasks_mod.validate_job)),
        (runner_mod, "cache_key",
         tracer.wrap("exp.cache_key", runner_mod.cache_key)),
        (synthetic_mod, "install_synthetic_traffic",
         install(synthetic_mod.install_synthetic_traffic)),
        (coherence_mod, "install_coherence_workload",
         install(coherence_mod.install_coherence_workload)),
        (wire_mod, "validate_request",
         tracer.wrap("service.validate", wire_mod.validate_request)),
        (wire_mod, "request_fingerprint",
         tracer.wrap("service.validate", wire_mod.request_fingerprint)),
    ]
    # only when the run already loaded it: importing it pulls in networkx
    adversarial_mod = sys.modules.get("repro.traffic.adversarial")
    if adversarial_mod is not None:
        replaced += [
            (adversarial_mod, "build_system_cdg",
             tracer.wrap("routing.cdg", adversarial_mod.build_system_cdg)),
            (adversarial_mod, "witness_flows",
             tracer.wrap("traffic.install", adversarial_mod.witness_flows)),
            (adversarial_mod, "install_adversarial_traffic",
             install(adversarial_mod.install_adversarial_traffic)),
        ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in replaced]
    for module, name, value in replaced:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


# --------------------------------------------------------------------- #
# the experiment runner's worker side


class WorkerTrace:
    """The runner's public ``execute=`` seam, traced.

    An instance is handed to ``ExperimentRunner(execute=...)``; the pool
    pickles it to a forked worker, which inherits the parent's patched
    modules and tracer, runs the spec inside an ``exp.execute`` span and
    writes what its tracer gained to a side file the parent folds in.
    """

    def __init__(self, side_dir: Path) -> None:
        side_dir.mkdir(parents=True, exist_ok=True)
        self.side_dir = str(side_dir)

    def __call__(self, spec):
        from repro.exp.tasks import execute_spec

        tracer = ACTIVE_TRACER
        before = {name: (v.count, v.total_s, v.self_s)
                  for name, v in tracer.layers.items()}
        result = tracer.call("exp.execute", execute_spec, spec)
        gained = {}
        for name, layer in tracer.layers.items():
            count, total_s, self_s = before.get(name, (0, 0.0, 0.0))
            if layer.count != count:
                gained[name] = [layer.count - count, layer.total_s - total_s,
                                layer.self_s - self_s]
        path = os.path.join(
            self.side_dir, f"{os.getpid()}-{threading.get_ident()}.json"
        )
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(gained, handle)
        os.replace(path + ".tmp", path)
        return result

    def collect(self, tracer: Tracer) -> None:
        """Fold every finished worker's layers into ``tracer``; the
        worker's ``exp.execute`` time becomes child time of the open
        span (the campaign that waited for it)."""
        for name in sorted(os.listdir(self.side_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.side_dir, name)
            with open(path, "r", encoding="utf-8") as handle:
                gained = json.load(handle)
            os.unlink(path)
            for layer, (count, total_s, self_s) in gained.items():
                tracer.add(layer, count, total_s, self_s)
            tracer.add_child_time(gained["exp.execute"][1])


#: the tracer forked workers record into (set by the traced run before
#: any pool is created; a forked child inherits its own copy).
ACTIVE_TRACER: Optional[Tracer] = None


def trace_cache(tracer: Tracer, cache, sizes: Dict[str, int]):
    """Wrap a cache backend's ``get``/``put`` on the instance.  ``put``
    also times, as the harness's own ``exp.pickle`` span, the pickling of
    spec and result the pool did to move them between processes."""
    cache.get = tracer.wrap(
        lambda entry: "exp.cache_get_miss" if entry is None else "exp.cache_get_hit",
        cache.get,
    )
    real_put = tracer.wrap("exp.cache_put", cache.put)

    def round_trip(spec, result) -> int:
        blobs = pickle.dumps(spec), pickle.dumps(result)
        for blob in blobs:
            pickle.loads(blob)
        return sum(len(blob) for blob in blobs)

    probe = tracer.wrap("exp.pickle", round_trip)

    def put(key, spec, result):
        stored = real_put(key, spec, result)
        sizes["pickle_bytes"] = sizes.get("pickle_bytes", 0) + probe(spec, result)
        if isinstance(stored, (str, os.PathLike)) and os.path.exists(stored):
            sizes["entry_bytes"] = sizes.get("entry_bytes", 0) + os.path.getsize(stored)
        sizes["puts"] = sizes.get("puts", 0) + 1
        return stored

    cache.put = put
    return cache


def trace_client(tracer: Tracer, client):
    """Wrap the blocking client's three per-job calls on the instance."""
    client.submit_sweep = tracer.wrap("client.submit", client.submit_sweep)
    client.wait = tracer.wrap("client.wait", client.wait)
    client.result = tracer.wrap("client.result", client.result)
    return client


def trace_queue(tracer: Tracer, queue) -> None:
    """Wrap the service's ``JobQueue.persist`` on the instance."""
    queue.persist = tracer.wrap("service.queue_persist", queue.persist)
