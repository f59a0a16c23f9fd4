#!/usr/bin/env python3
"""End-to-end benchmark of the repo: one run of one workload.

    python3 benchmarks/e2e/run.py --workload sim_saturated --seed 1 \\
        --seconds 20 --trace 0

prints diagnostics and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  See ``README.md`` beside this file.

Work is fixed by count: ``--seconds`` only scales the number of
repetitions (:data:`REP_SECONDS`), never stops a measurement early.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from timing import NormClock, percentile  # noqa: E402

#: nominal host seconds one repetition takes on the reference host, with
#: its set-up and candle slices; ``--seconds / REP_SECONDS`` repetitions
#: are run (at least one), so ``run_seconds`` in BENCHMARK.json fixes R.
REP_SECONDS = {
    "sim_saturated": 3.3,
    "sim_recovery": 2.8,
    "campaign_cold": 4.0,
    "service_warm": 2.5,
}
#: repetitions of each kind in a ``--trace 1`` run.
TRACE_PLAIN_REPS = 2
TRACE_TRACED_REPS = 2
IMPORT_PROBES = 5

#: layers whose cost a workload pays while setting up, not while timed.
BUILD_LAYERS = ("topology.build", "routing.build", "noc.build",
                "traffic.install", "routing.cdg")
BUILD_PHASE = {"sim_saturated": "setup", "sim_recovery": "setup",
               "campaign_cold": "wall", "service_warm": "setup"}


def say(text: str) -> None:
    print(text, flush=True)


def load_contract() -> Dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def repetitions(workload: str, seconds: float) -> int:
    return max(1, round(seconds / REP_SECONDS[workload]))


def candle_sha256() -> str:
    return hashlib.sha256((HERE / "candle.py").read_bytes()).hexdigest()


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def one_malloc_arena() -> None:
    """Keep glibc from giving every thread a heap of its own.

    Each ``service_warm`` repetition boots a service thread and its
    executor threads; whether a new thread inherits the arena of one
    that has exited or opens another depends on thread timing, and the
    cold fill leaves ~17 MiB in every arena it ever ran in.  The same
    code peaked at 109, 126 or 131 MiB from run to run; with one arena it
    peaks at 89.1-89.3 MiB, beside busy loops too.  Exactly one thread is
    busy at a time here, so the shared arena's lock is never contended.
    ``mallopt(M_ARENA_MAX, 1)``; a libc without it has no arenas to cap."""
    try:
        ctypes.CDLL(None).mallopt(-8, 1)
    except (OSError, AttributeError):
        pass


def tail_latency(samples: List[float], pct: float = 90.0):
    """``(value, percentile actually used)``: ``pct`` when at least ten
    samples lie beyond it, else the highest percentile that has ten
    beyond it, else the median."""
    try:
        return percentile(samples, pct), pct
    except ValueError:
        rank = len(samples) - 10
        if rank >= (len(samples) + 1) // 2:
            return sorted(samples)[rank - 1], 100.0 * rank / len(samples)
        return statistics.median(samples), 50.0


# --------------------------------------------------------------------- #
# running repetitions


class Session:
    """One process-wide set-up: imports, candle, clock, work directory."""

    def __init__(self, workload: str, work_dir: Path) -> None:
        self.workload = workload
        self.work_dir = work_dir
        start = perf_counter()
        import repro.api  # noqa: F401
        from repro.exp.cache import git_revision

        if workload == "service_warm":
            import repro.client  # noqa: F401
            import repro.service  # noqa: F401
        if workload == "sim_recovery":
            import repro.traffic.adversarial  # noqa: F401
        # one-shot per process, like the imports: probed (two git calls)
        # the first time any cache key is computed
        git_revision()
        self.import_s = perf_counter() - start
        if not Path(repro.api.__file__).resolve().is_relative_to(ROOT):
            raise SystemExit(
                f"error: imported repro from {repro.api.__file__}, not from "
                f"{ROOT / 'src'}"
            )
        from candle import Candle

        # service jobs persist files: their reference does too
        self.candle = Candle(
            persist_dir=work_dir / "candle" if workload == "service_warm" else None
        )
        for _ in range(20):
            self.candle.slice()
        self.clock = NormClock(self.candle, prime=workload == "campaign_cold")

    def rep(self, params: Dict, draw: Dict, tracer=None, datapath=None):
        import workloads

        gc.collect()
        if self.workload in ("sim_saturated", "sim_recovery"):
            return workloads.rep_sim(params, draw, self.clock, tracer, datapath)
        if self.workload == "campaign_cold":
            return workloads.rep_campaign(params, draw, self.clock,
                                          self.work_dir, tracer)
        return workloads.rep_service(params, draw, self.clock, self.work_dir,
                                     tracer)


def check_run(workload: str, params: Dict, reps: List) -> Dict:
    """Run-level correctness: repeated inputs repeat their results, and
    a sample re-run another way agrees.  Returns attempted/failed/errors
    summed with the repetitions' own checks."""
    import workloads

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    errors = [error for rep in reps for error in rep.errors]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            errors.append(what)

    draws = params["reps"]
    if len(reps) >= 2 and draws[0] == draws[len(reps) - 1]:
        check(reps[0].result == reps[-1].result,
              "first and last repetition had the same inputs, not the same results")
    if workload == "campaign_cold":
        for ok in workloads.recheck_inline(draws[0], reps[0].result):
            check(ok, "inline execute_spec result differs from the pooled one")
    if workload == "service_warm":
        for ok in workloads.recheck_direct(draws[0], reps[0].result):
            check(ok, "direct repro.api.run_sweep differs from the service's result")
    return {"attempted": attempted, "failed": failed, "errors": errors}


def end_to_end(workload: str, reps: List) -> Dict[str, float]:
    walls = [rep.wall_s for rep in reps]
    jobs = [ms for rep in reps for ms in rep.job_ms]
    if jobs:
        p50 = statistics.median(jobs)
        p90, used = tail_latency(jobs)
        say(f"job latency: {len(jobs)} samples, p50 and p{used:g}")
    else:
        # a sim_* repetition is the job: its time, repeated
        p50 = p90 = 1000.0 * statistics.median(walls)
        say(f"job latency: {len(walls)} samples (the repetitions' own times)")
    return {
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "wall_s": statistics.median(walls),
        "sim_cycles_per_s": statistics.median(
            rep.cycles / rep.wall_s for rep in reps
        ),
        "job_latency_p50_ms": p50,
        "job_latency_p90_ms": p90,
        "peak_rss_mb": peak_rss_mib(),
    }


def import_probes(clock: NormClock) -> float:
    """Normalised seconds of ``python -c "import repro.api"``, median of
    :data:`IMPORT_PROBES` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import repro.api"]
    clock.gap()
    return statistics.median(
        clock.unit(subprocess.run, command, env=env, check=True)[1]
        for _ in range(IMPORT_PROBES)
    )


def per_layer(workload: str, session: Session, plain: List, traced: List,
              legacy: Optional[object]) -> Dict[str, float]:
    """Per-repetition layer metrics of a traced run, in normalised
    seconds: raw self times scaled by their phase's candle factor."""
    import layers

    n = len(traced)
    values: Dict[str, float] = {}

    def phase(layers_of: str, seconds_of: str, raw_of: str) -> Dict[str, float]:
        factor = (sum(getattr(r, seconds_of) for r in traced)
                  / sum(getattr(r, raw_of) for r in traced))
        total: Dict[str, float] = {}
        for rep in traced:
            for name, seconds in getattr(rep, layers_of).items():
                total[name] = total.get(name, 0.0) + seconds * factor / n
        return total

    wall_layers = phase("layers_wall", "wall_s", "raw_wall_s")
    setup_layers = phase("layers_setup", "setup_s", "raw_setup_s")

    # the pool's own pickling is inside the campaign span's self time;
    # the harness's probe of it (exp.pickle) says how much, and stands
    # in for it in the sum
    wall_layers["exp.pool_spawn"] = (
        wall_layers.pop("exp.campaign", 0.0) - wall_layers.get("exp.pickle", 0.0)
    )
    in_sum = {k: v for k, v in wall_layers.items() if k != layers.HARNESS_SPAN}
    for name, seconds in in_sum.items():
        values[f"{name}_s"] = seconds
    if BUILD_PHASE[workload] == "setup":
        for name in BUILD_LAYERS:
            values[f"{name}_s"] = setup_layers.get(name, 0.0)

    for rep in traced:
        for name, count in rep.counts.items():
            values[name] = values.get(name, 0.0) + count / n
    cycles = sum(r.layer_calls.get("noc.step", 0) for r in traced) / n
    step_s = values.get("noc.step_s", 0.0)
    hops = values.get("noc.flit_hops", 0.0)
    values["noc.step_us_per_cycle"] = 1e6 * step_s / cycles if cycles else 0.0
    values["noc.step_ns_per_flit_hop"] = 1e9 * step_s / hops if hops else 0.0
    if workload in ("sim_saturated", "sim_recovery"):
        ratios = [max(r.units[:-1]) / statistics.median(r.units[:-1]) for r in plain]
        values["noc.slice_max_over_p50"] = statistics.median(ratios)
    if workload == "service_warm":
        results = sum(len(json.dumps(r.result)) for r in traced)
        values["client.result_bytes"] = results / sum(len(r.result) for r in traced)
    if legacy is not None:
        values["noc.legacy_step_s"] = legacy.wall_s
        values["noc.vector_over_legacy"] = plain[0].wall_s / legacy.wall_s

    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    clock = session.clock
    values["host.slowdown"] = clock.slowdown()
    values["host.candle_share"] = clock.candle_share()
    values["host.raw_wall_s"] = statistics.median(r.raw_wall_s for r in plain)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    values["trace.layer_sum_over_wall"] = sum(in_sum.values()) / plain_wall
    values["py.import_s"] = import_probes(clock)
    return values


# --------------------------------------------------------------------- #


def run(args, work_dir: Path) -> Dict:
    contract = load_contract()
    workload = args.workload
    session = Session(workload, work_dir)
    reps_wanted = repetitions(workload, args.seconds)
    params = inputs.generate(workload, args.seed, reps_wanted)
    draws = params["reps"]
    say(f"workload {workload} seed {args.seed} repetitions {reps_wanted} "
        f"trace {args.trace}")
    say(f"candle sha256 {candle_sha256()}")
    say(f"inputs digest {inputs.digest(params)}")
    say(f"imports {session.import_s:.3f} s (raw, once per process; not in setup_s)")

    traced: List = []
    legacy = None
    tracer = None
    if not args.trace:
        reps = [session.rep(params, draw) for draw in draws]
    else:
        import layers
        from spans import Tracer

        plain_draws = draws[:TRACE_PLAIN_REPS]
        reps = [session.rep(params, draw) for draw in plain_draws]
        tracer = layers.ACTIVE_TRACER = Tracer()
        with layers.patched(tracer):
            for index, draw in enumerate(draws[:TRACE_TRACED_REPS]):
                tracer.request = f"rep-{index}"
                traced.append(session.rep(params, draw, tracer))
        if workload in ("sim_saturated", "sim_recovery"):
            legacy = session.rep(params, draws[0], datapath="legacy")

    verdict = check_run(workload, params, reps)
    for index, rep in enumerate(traced):
        verdict["attempted"] += 1
        if rep.result != reps[index].result:
            verdict["failed"] += 1
            verdict["errors"].append("traced repetition's result differs")
    if legacy is not None:
        verdict["attempted"] += 1
        if legacy.result != reps[0].result:
            verdict["failed"] += 1
            verdict["errors"].append("legacy datapath fingerprint differs from vector")

    clock = session.clock
    say(f"result_digest {inputs.digest([rep.result for rep in reps])}")
    for name in ("wall_s", "setup_s"):
        stats = [getattr(rep, name) for rep in reps]
        say(f"{name} per repetition: " + " ".join(f"{v:.4f}" for v in stats))
    say(f"raw wall_s per repetition: "
        + " ".join(f"{rep.raw_wall_s:.4f}" for rep in reps))
    say(f"host.slowdown {clock.slowdown():.3f} host.candle_share "
        f"{clock.candle_share():.3f} candle slices {len(clock.slices)}")
    for error in verdict["errors"][:20]:
        say(f"FAILED CHECK: {error}")

    if args.trace:
        values = per_layer(workload, session, reps, traced, legacy)
        wanted = contract["per_layer"]
    else:
        values = end_to_end(workload, reps)
        wanted = contract["end_to_end"]
    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"], 0.0 if args.trace else None)
        if value is None:
            raise SystemExit(f"error: no value for metric {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        say(f"  {spec['name']:<40} {value:>16.6f} {spec['unit']}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": workload, "seed": args.seed, "trace": args.trace,
            "candle_sha256": candle_sha256(), "metrics": metrics,
            "verdict": verdict, "slices": clock.slices,
            "reps": [
                {"wall_s": r.wall_s, "raw_wall_s": r.raw_wall_s,
                 "setup_s": r.setup_s, "raw_setup_s": r.raw_setup_s,
                 "cycles": r.cycles, "units": r.units, "job_ms": r.job_ms,
                 "counts": r.counts}
                for r in reps
            ],
        }
        with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        if tracer is not None:
            with open(out / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)

    return {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="scales the repetition count (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for raw samples and spans (default: none kept)")
    parser.add_argument("--smoke", action="store_true",
                        help="all four workloads, one repetition each")
    parser.add_argument("--aa", action="store_true",
                        help="A/A self-test: two sets of runs against the bounds")
    parser.add_argument("--stress", action="store_true",
                        help="with --aa: second set beside nproc busy loops")
    parser.add_argument("--runs", type=int, default=10,
                        help="with --aa: runs per set")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the program reads these; a run must not depend on the caller's shell
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])

    if args.aa:
        import aa

        return aa.main(args, load_contract())
    if args.smoke:
        status = 0
        for workload in inputs.WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(args.seed), "--seconds", "1", "--trace", str(args.trace)]
            )
            status = status or child.returncode
        return status
    if args.workload is None:
        parser.error("--workload is required (or --smoke / --aa)")

    # every temp cache/queue dir lives under one directory inside the
    # checkout, removed on exit whatever happened
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    tempfile.tempdir = str(work_dir)
    # a terminated run cleans up like a failed one
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    one_malloc_arena()
    # where allowed, outrank stray processes of the guest: a job that
    # hops between threads pays a scheduling delay per hop under CPU
    # contention, which no CPU-bound candle slice can see
    try:
        os.setpriority(os.PRIO_PROCESS, 0, -15)
    except OSError:
        pass
    try:
        result = run(args, work_dir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
        # leave the filesystem as found: for seconds after a tree is
        # deleted every persist on this ext4 costs double, until the
        # journal commits; a sync commits it now, for the next run's sake
        os.sync()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
