"""Seeded input generation: ``--seed`` -> what each workload is fed.

The program under test receives only what this module generates (plain
JSON-able values); nothing here imports it.  A run's repetitions are
*fresh draws* from the workload's input distribution, one sub-seed each:
measured over ten run seeds, a single draw of ``sim_saturated`` moved the
simulator's work (function calls per 2000 cycles) by 6.5 %, more than
any bound this benchmark sets, while the median over a run's draws holds
still.  The first draw is repeated as the last repetition, so every run
also checks that identical inputs give identical results.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

WORKLOADS = ("sim_saturated", "sim_recovery", "campaign_cold", "service_warm")

SCHEMES = ("upp", "composable", "remote_control")
PATTERNS = ("uniform_random", "transpose", "hotspot")

#: campaigns per ``campaign_cold`` repetition: every scheme x pattern
#: pair twice, and a closed-loop workload run as every fourth campaign.
CAMPAIGN_SWEEPS = 18
CAMPAIGN_WORKLOADS = 6
SERVICE_REQUESTS = 12
SERVICE_JOBS = 200


def rep_seeds(workload: str, seed: int, reps: int) -> List[int]:
    """One sub-seed per repetition; the last repeats the first."""
    rng = random.Random(f"{workload}:{seed}")
    seeds = [rng.randrange(1, 2**31) for _ in range(reps)]
    if reps >= 2:
        seeds[-1] = seeds[0]
    return seeds


def _sweep_campaign(rate: float, scheme: str, pattern: str) -> Dict:
    return {
        "kind": "sweep",
        "preset": "baseline",
        "scheme": scheme,
        "pattern": pattern,
        "rates": [rate],
        "warmup": 100,
        "measure": 300,
    }


def _workload_campaign(requests_per_core: int) -> Dict:
    # WorkloadProfile truncates 60 * scale to whole requests per core
    return {
        "kind": "workload",
        "preset": "baseline",
        "workload": "blackscholes",
        "scheme": "upp",
        "scale": (requests_per_core + 0.5) / 60.0,
    }


def _campaigns(sub_seed: int) -> Dict:
    """One repetition's campaigns.  Rates are drawn without replacement
    and the workload runs' request quotas are a shuffle of 1..6 (7 for
    the warm-up), so no campaign can be served from the cache entry of
    an earlier one — every one of them runs cold — and the closed-loop
    work of a repetition does not depend on the seed, only its order."""
    rng = random.Random(sub_seed)
    rates = [k / 10000.0 for k in rng.sample(range(50, 251), CAMPAIGN_SWEEPS + 2)]
    quotas = list(range(1, CAMPAIGN_WORKLOADS + 1))
    rng.shuffle(quotas)
    pairs = [(s, p) for s in SCHEMES for p in PATTERNS]
    sweeps = [
        _sweep_campaign(rates.pop(), s, p) for s, p in pairs * (CAMPAIGN_SWEEPS // 9)
    ]
    rng.shuffle(sweeps)
    timed: List[Dict] = []
    for index in range(CAMPAIGN_SWEEPS + CAMPAIGN_WORKLOADS):
        if index % 4 == 3:
            timed.append(_workload_campaign(quotas.pop()))
        else:
            timed.append(sweeps.pop())
    warmups = [
        _sweep_campaign(rates.pop(), "upp", "uniform_random"),
        _sweep_campaign(rates.pop(), "remote_control", "transpose"),
        _workload_campaign(CAMPAIGN_WORKLOADS + 1),
    ]
    return {"warmups": warmups, "campaigns": timed}


def _service(sub_seed: int) -> Dict:
    rng = random.Random(sub_seed)
    requests = []
    # rates drawn without replacement: no two requests share a point,
    # so the cold fill executes every point of every request
    rates = rng.sample(range(50, 251), 2 * SERVICE_REQUESTS)
    for index in range(SERVICE_REQUESTS):
        requests.append(
            {
                "preset": "baseline",
                "scheme": ("upp", "remote_control")[index % 2],
                "pattern": PATTERNS[index % 3],
                "rates": sorted(rate / 10000.0 for rate in rates[2 * index:2 * index + 2]),
                "warmup": 50,
                "measure": 100,
            }
        )
    order = [index % SERVICE_REQUESTS for index in range(SERVICE_JOBS)]
    rng.shuffle(order)
    return {"requests": requests, "order": order}


def generate(workload: str, seed: int, reps: int) -> Dict:
    """The inputs of one run: fixed parameters plus one draw per repetition."""
    seeds = rep_seeds(workload, seed, reps)
    if workload == "sim_saturated":
        return {
            "workload": workload,
            "preset": "large",
            "scheme": "upp",
            "pattern": "uniform_random",
            "rate": 0.08,
            "warmup": 500,
            "measure": 2000,
            "unit_cycles": 25,
            # seed -> NocConfig.seed
            "reps": [{"noc_seed": sub} for sub in seeds],
        }
    if workload == "sim_recovery":
        return {
            "workload": workload,
            "topology": "baseline",
            "scheme": "upp",
            "vcs_per_vnet": 1,
            "watchdog_window": 2500,
            "warmup": 0,
            "measure": 10_000,
            "unit_cycles": 150,
            # seed -> order of the witness flows handed to the injectors
            "reps": [{"flow_order_seed": sub} for sub in seeds],
        }
    if workload == "campaign_cold":
        return {
            "workload": workload,
            "jobs": 2,
            "reps": [_campaigns(sub) for sub in seeds],
        }
    if workload == "service_warm":
        return {
            "workload": workload,
            "jobs_per_unit": 3,
            "reps": [_service(sub) for sub in seeds],
        }
    raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


def digest(value) -> str:
    """sha256 of the canonical JSON of ``value``."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
