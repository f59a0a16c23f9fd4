"""A/A and contention self-test of the benchmark itself.

``run.py --aa`` makes two sets of ``--runs`` runs per workload (one
process per run, another ``--seed`` each) of the *same* code and holds
them to the rules a later change will be judged by: within a set every
end-to-end metric's interquartile range must stay inside its bound, and
the second set's median may not be worse than the first's by more than
the bound.  ``--aa --stress`` runs the second set beside ``nproc``
busy-loop processes — contention inside the guest, the failure that
sank the two earlier attempts at this benchmark, reproduced on demand.

Prints, per workload and metric: median, quartiles, IQR/median,
(max-min)/median and the sample count of each set, and the verdicts.
Exit status 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import inputs
from timing import spread

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float, out) -> Dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if out:
        command += ["--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(label: str, workloads: List[str], seeds: List[int], seconds: float,
            out) -> Dict[str, List[Dict]]:
    results: Dict[str, List[Dict]] = {}
    for workload in workloads:
        results[workload] = []
        for seed in seeds:
            result = one_run(workload, seed, seconds, out)
            results[workload].append(result)
            print(f"[{label}] {workload} seed {seed}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.4f} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    return results


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def judge(contract: Dict, first: Dict, second: Dict, second_label: str) -> bool:
    ok = True
    for workload in first:
        print(f"\n== {workload} ==")
        for spec in contract["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sets = []
            for label, results in (("first", first), (second_label, second)):
                values = [r["metrics"][name]["value"] for r in results[workload]]
                stats = spread(values)
                sets.append(stats)
                print(f"  {name:<20} {label:<7} n={stats['n']:<3} "
                      f"median {stats['median']:<12.5g} "
                      f"q1 {stats['q1']:<12.5g} q3 {stats['q3']:<12.5g} "
                      f"iqr/med {stats['iqr_over_median']:.4f} "
                      f"(max-min)/med {stats['range_over_median']:.4f}")
            shift = worse_by(sets[0]["median"], sets[1]["median"], spec["better"])
            verdicts = []
            for label, stats in zip(("first", second_label), sets):
                if name != "setup_s" and stats["iqr_over_median"] > bound:
                    verdicts.append(f"{label} set spread {stats['iqr_over_median']:.4f}"
                                    f" > bound {bound}")
            if shift > bound:
                verdicts.append(f"{second_label} median worse by {shift:.4f} > bound {bound}")
            print(f"  {name:<20} {second_label} vs first: {shift:+.4f} of median "
                  f"(bound {bound})  {'OK' if not verdicts else 'FAIL: ' + '; '.join(verdicts)}")
            ok = ok and not verdicts
        for label, results in (("first", first), (second_label, second)):
            failed = sum(r["failed"] for r in results[workload])
            if failed or not all(r["correct"] for r in results[workload]):
                print(f"  FAIL: {failed} failed checks in the {label} set")
                ok = False
    return ok


def main(args, contract: Dict) -> int:
    workloads = [args.workload] if args.workload else list(inputs.WORKLOADS)
    first_seeds = list(range(args.seed, args.seed + args.runs))
    second_seeds = list(range(args.seed + args.runs, args.seed + 2 * args.runs))
    first = run_set("first", workloads, first_seeds, args.seconds, args.out)
    label = "stress" if args.stress else "second"
    burners = []
    try:
        if args.stress:
            burners = [
                subprocess.Popen([sys.executable, "-c", "while True: pass"])
                for _ in range(os.cpu_count() or 1)
            ]
            print(f"started {len(burners)} busy-loop processes", flush=True)
        second = run_set(label, workloads, second_seeds, args.seconds, args.out)
    finally:
        for burner in burners:
            burner.kill()
        for burner in burners:
            burner.wait()
    ok = judge(contract, first, second, label)
    print("\nA/A " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
