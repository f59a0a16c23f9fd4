"""Command-line interface: ``python -m repro <command>``.

Quick access to the library's main experiments without writing a script:

* ``info``      — system and scheme summary
* ``sweep``     — latency vs injection rate for one scheme/pattern
* ``workload``  — a Fig. 8-style coherence run across all three schemes
* ``deadlock``  — provoke a certified deadlock and recover it with UPP
* ``area``      — the Fig. 14 area-overhead table
* ``check``     — static deadlock-freedom certification of a preset
* ``mc``        — bounded model checking cross-validated against ``check``
* ``cache``     — inspect / garbage-collect the experiment result cache
* ``serve``     — run the async sweep service (job queue + HTTP/JSON API)

``sweep`` and ``workload`` orchestrate through :mod:`repro.api`: pass
``--jobs N`` to fan points out over worker processes and ``--cache-dir``
(or ``REPRO_CACHE_DIR``) to replay completed points from the
content-addressed result cache.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List

from repro import api
from repro.schemes.registry import scheme_names
from repro.traffic.synthetic import PATTERNS
from repro.traffic.workloads import workload_names


def _preset_name(topology: str, vcs: int) -> str:
    return topology if vcs == 1 else f"{topology}-{vcs}vc"


def _progress(done: int, total: int, label: str, source: str) -> None:
    print(f"  [{done}/{total}] {label} ({source})", file=sys.stderr)


def _print_runner_stats(runner, preset) -> None:
    stats = runner.stats
    print(
        f"points: {stats.submitted} submitted, {stats.executed} executed, "
        f"{stats.cached} from cache "
        f"(cfg {preset.config.fingerprint()[:12]})"
    )


def cmd_info(args) -> int:
    """Print the topology summary and the full Table I."""
    from repro.schemes.base import PROFILE_COLUMNS
    from repro.schemes.taxonomy import table1_rows
    from repro.topology.registry import get_topology

    topo = get_topology(args.topology)()
    print(f"topology '{args.topology}':")
    print(f"  routers        : {topo.n_routers}")
    print(f"  interposer     : {topo.n_interposer}")
    print(f"  chiplets       : {topo.n_chiplets}")
    print(f"  vertical links : {len(topo.boundary_routers())}")
    print("\nTable I (yes = property held):")
    header = ["approach"] + [c[:12] for c in PROFILE_COLUMNS]
    print("  " + " | ".join(f"{h:>14}" for h in header))
    for row in table1_rows():
        cells = [f"{row['group']}/{row['name']}"] + [
            "yes" if row[c] else "no" for c in PROFILE_COLUMNS
        ]
        print("  " + " | ".join(f"{c:>14}" for c in cells))
    return 0


def cmd_sweep(args) -> int:
    """Run a latency-vs-injection-rate sweep and print the curve."""
    rates = args.rates
    preset = api.load_preset(
        _preset_name(args.topology, args.vcs), threshold=args.threshold
    )
    runner = api.make_runner(
        args.jobs, args.cache_dir, progress=_progress if args.progress else None
    )
    points = api.run_sweep(
        preset,
        args.scheme,
        args.pattern,
        rates,
        warmup=args.warmup,
        measure=args.measure,
        runner=runner,
    )
    print(f"{'rate':>8} | {'latency':>10} | {'throughput':>10} | {'upward':>7}")
    for p in points:
        print(
            f"{p.rate:>8} | {p.latency:>8.1f} cy | {p.throughput:>10.4f} "
            f"| {p.upward_packets:>7}"
        )
    print(f"saturation throughput: {api.saturation_throughput(points):.4f}")
    _print_runner_stats(runner, preset)
    if len(points) > 1:
        from repro.metrics.render import curve

        for line in curve(
            {args.scheme: [(p.rate, p.latency) for p in points]},
            height=8,
            width=46,
            x_label="injection rate",
            y_label="latency",
        ):
            print(line)
    if args.expect_cached and runner.stats.executed:
        print(
            f"--expect-cached: {runner.stats.executed} point(s) had to be "
            f"simulated (expected all from cache)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_workload(args) -> int:
    """Run one coherence workload under all three schemes."""
    preset = api.load_preset(_preset_name(args.topology, args.vcs))
    runner = api.make_runner(
        args.jobs, args.cache_dir, progress=_progress if args.progress else None
    )
    results = api.run_workload(
        preset, args.name, scale=args.scale, runner=runner
    )
    print(f"{'scheme':>16} | {'runtime':>8} | {'normalized':>10}")
    for scheme, r in results.items():
        print(f"{scheme:>16} | {int(r['runtime']):>8} | {r['normalized_runtime']:>10.4f}")
    _print_runner_stats(runner, preset)
    return 0


def cmd_deadlock(args) -> int:
    """Provoke a certified deadlock, then recover it with UPP."""
    from repro.metrics.deadlock import describe_deadlock, knot_has_upward_packet
    from repro.noc.config import NocConfig
    from repro.schemes.none import UnprotectedScheme
    from repro.schemes.upp import UPPScheme
    from repro.sim.simulator import Simulation
    from repro.topology.chiplet import baseline_system
    from repro.traffic.adversarial import install_adversarial_traffic, witness_flows

    cfg = NocConfig(vcs_per_vnet=1)
    sim = Simulation(baseline_system(), cfg, UnprotectedScheme(), watchdog_window=10**9)
    flows = witness_flows(sim.network)
    install_adversarial_traffic(sim.network, flows)
    knot = []
    while not knot and sim.network.cycle < 10_000:
        sim.network.run(250)
        knot = describe_deadlock(sim.network)
    if not knot:
        print("no deadlock formed")
        return 1
    print(
        f"unprotected: {len(knot)}-packet deadlock at cycle {sim.network.cycle}; "
        f"contains an upward packet: {knot_has_upward_packet(sim.network)}"
    )
    sim = Simulation(baseline_system(), cfg, UPPScheme(), watchdog_window=2500)
    install_adversarial_traffic(sim.network, flows)
    result = sim.run(warmup=0, measure=10_000)
    stats = result.scheme_stats
    print(
        f"UPP: survived; {stats['upward_packets']} upward packets, "
        f"{stats['popups_completed']} popups, "
        f"{result.summary['packets']} packets delivered"
    )
    return 0


def cmd_check(args) -> int:
    """Statically certify a preset under each scheme (see docs/analysis.md)."""
    from repro.analysis.cli import run_check

    return run_check(args)


def cmd_mc(args) -> int:
    """Model-check the small presets; cross-validate against the certifier."""
    from repro.analysis.cli import run_mc

    return run_mc(args)


def cmd_area(args) -> int:
    """Print the Fig. 14 area-overhead table."""
    from repro.metrics.area import baseline_router_area, figure14_table
    from repro.sim.presets import table2_config

    table = figure14_table(table2_config(1), table2_config(4))
    for vcs in (1, 4):
        print(f"baseline router area ({vcs} VC): "
              f"{baseline_router_area(table2_config(vcs)):,.0f} um^2")
    for scheme, values in table.items():
        cells = ", ".join(f"{k}={v * 100:.2f}%" for k, v in values.items())
        print(f"  {scheme:>16}: {cells}")
    return 0


def _max_age_days(text: str) -> float:
    """argparse type: a finite, non-negative age (``-1`` would delete
    every entry, ``nan`` none)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def _rates(text: str) -> List[float]:
    """argparse type: comma-separated injection rates, each in (0, 1]."""
    rates = []
    for part in text.split(","):
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        if not 0 < value <= 1:  # NaN fails too
            raise argparse.ArgumentTypeError(
                f"each rate must be a number in (0, 1], got {part!r}"
            )
        rates.append(value)
    return rates


def _int_at_least(minimum: int):
    """argparse type factory: an integer >= ``minimum`` (the service's
    window bounds, so the CLI never caches a point the service rejects)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


def cmd_cache(args) -> int:
    """Inspect (``ls``) or garbage-collect (``gc``) the result cache."""
    import json

    cache = api.make_cache(args.cache_dir)
    if cache is None:
        raise SystemExit(
            "repro cache: no cache directory "
            "(pass --cache-dir or set REPRO_CACHE_DIR)"
        )
    if args.action == "ls":
        rows = cache.entries()
        if args.json:
            # machine-readable: full fingerprints plus scheme/size/mtime,
            # so scripts and the service stats page never parse the table
            print(json.dumps({"root": str(cache.root), "entries": rows}, indent=2))
            return 0
        for row in rows:
            print(
                f"{row['key'][:16]}  {row['kind']:>11}  {row['bytes']:>7} B  "
                f"{row['label']}"
            )
        print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'} in {cache.root}")
        return 0
    removed = cache.gc(max_age_days=args.max_age_days, drop_all=args.all)
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {cache.root}")
    return 0


def cmd_serve(args) -> int:
    """Run the async sweep service until SIGINT/SIGTERM."""
    import asyncio

    from repro.service.app import run_service

    cache = api.make_cache(args.cache_dir, tiered=args.tiered)
    return asyncio.run(
        run_service(
            args.host,
            args.port,
            queue_dir=os.path.expanduser(args.queue_dir),
            cache=cache,
            sim_jobs=args.jobs or 1,
            workers=args.workers,
            retries=args.retries,
        )
    )


def _add_runner_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: REPRO_JOBS or serial)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: REPRO_CACHE_DIR)")
    p.add_argument("--progress", action="store_true",
                   help="print per-point progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UPP (HPCA 2022) reproduction: chiplet NoC deadlock recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.topology.registry import topology_names

    topologies = tuple(topology_names())

    p = sub.add_parser("info", help="system and Table I summary")
    p.add_argument("--topology", choices=topologies, default="baseline")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("sweep", help="latency vs injection rate")
    p.add_argument("--scheme", choices=tuple(scheme_names()), default="upp")
    p.add_argument("--pattern", choices=tuple(PATTERNS), default="uniform_random")
    p.add_argument("--rates", type=_rates, default="0.01,0.03,0.05,0.07,0.09")
    p.add_argument("--vcs", type=int, choices=(1, 4), default=1)
    p.add_argument("--warmup", type=_int_at_least(0), default=500)
    p.add_argument("--measure", type=_int_at_least(1), default=2500)
    p.add_argument("--threshold", type=int, default=20)
    p.add_argument("--topology", choices=topologies, default="baseline")
    _add_runner_options(p)
    p.add_argument("--expect-cached", action="store_true",
                   help="fail unless every point came from the cache")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("workload", help="coherence workload across schemes")
    p.add_argument("name", choices=tuple(workload_names()))
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--vcs", type=int, choices=(1, 4), default=1)
    p.add_argument("--topology", choices=topologies, default="baseline")
    _add_runner_options(p)
    p.set_defaults(fn=cmd_workload)

    p = sub.add_parser("deadlock", help="provoke a deadlock, recover with UPP")
    p.set_defaults(fn=cmd_deadlock)

    p = sub.add_parser("area", help="Fig. 14 area overhead table")
    p.set_defaults(fn=cmd_area)

    p = sub.add_parser(
        "check", help="static deadlock-freedom certification (CDG analysis)"
    )
    p.add_argument(
        "--preset", choices=tuple(api.preset_names()) + ("all",), default="baseline"
    )
    p.add_argument(
        "--scheme",
        choices=tuple(scheme_names()) + ("all",),
        default="all",
    )
    p.add_argument("--faults", type=int, default=0,
                   help="re-certify after N runtime link-pair failures")
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--witnesses", type=int, default=0,
                   help="print up to N witness cycles / route defects")
    p.add_argument("--witness", action="store_true",
                   help="render witness cycles as concrete channel chains "
                        "(implies --witnesses 5)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON (exit code still set)")
    p.set_defaults(fn=cmd_check)

    from repro.analysis.mc import mc_preset_names

    p = sub.add_parser(
        "mc",
        help="bounded model checking + certifier cross-validation",
    )
    p.add_argument(
        "--preset", choices=tuple(mc_preset_names()) + ("all",), default="all"
    )
    p.add_argument(
        "--scheme",
        choices=tuple(scheme_names()) + ("all",),
        default="all",
    )
    p.add_argument("--max-states", type=int, default=2_000_000,
                   help="state-space exploration cap")
    p.add_argument("--replay", action="store_true",
                   help="replay counterexamples on the real simulator "
                        "(vector and legacy datapaths, sanitized)")
    p.add_argument("--select", action="store_true",
                   help="re-derive the adversarial flow set instead of "
                        "using the frozen preset flows")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON (exit code still set)")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("cache", help="experiment result cache: ls / gc")
    p.add_argument("action", choices=("ls", "gc"))
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: REPRO_CACHE_DIR)")
    p.add_argument("--json", action="store_true",
                   help="ls: emit machine-readable JSON entries "
                        "(fingerprint, scheme, size, mtime)")
    p.add_argument("--max-age-days", type=_max_age_days, default=None,
                   help="gc: only remove entries older than this")
    p.add_argument("--all", action="store_true",
                   help="gc: remove every entry")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "serve", help="async sweep service (HTTP/JSON job queue, SSE progress)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--queue-dir", default="~/.cache/repro-queue",
                   help="persistent job-queue directory (crash-safe resume)")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default: REPRO_CACHE_DIR)")
    p.add_argument("--tiered", action="store_true",
                   help="front the cache dir with a tiered backend "
                        "(local L1 over an in-process memory L2)")
    p.add_argument("--jobs", type=int, default=None,
                   help="simulation worker processes per job (default serial)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent jobs executed by the service")
    p.add_argument("--retries", type=int, default=2,
                   help="per-job retries on a broken worker pool")
    p.set_defaults(fn=cmd_serve)

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
