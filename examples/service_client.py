#!/usr/bin/env python3
"""Talk to the async sweep service with :mod:`repro.client`.

A production deployment runs ``python -m repro serve`` once per machine
(or cluster head) and every user submits jobs to it; here we boot the
same server on a background thread so the example is self-contained.
The flow is identical either way: submit a sweep, stream its progress
over Server-Sent Events, fetch the result, and watch the second
identical submission come back without simulating anything — its
result already in the answer to the submit.

Run:  python examples/service_client.py
"""

import tempfile

from repro import api
from repro.client import ServiceClient
from repro.service import BackgroundService

SWEEP = {"rates": [0.02, 0.04], "warmup": 300, "measure": 1200}


def main() -> None:
    tmp = tempfile.mkdtemp(prefix="repro-service-example-")
    # tiered=True is what `serve --tiered` builds: the dir as L1 over an
    # in-process MemoryBackend L2.  The dir answers every hit (see
    # l1_hits below); the L2 lives and dies with this process.
    cache = api.make_cache(f"{tmp}/cache", tiered=True)

    with BackgroundService(f"{tmp}/queue", cache=cache) as svc:
        client = ServiceClient(port=svc.port)
        print(f"service up on port {svc.port}")

        job = client.submit_sweep(**SWEEP)
        print(f"submitted sweep job {job['id']} — streaming progress:")
        done = client.wait(
            job["id"],
            on_progress=lambda p: print(
                f"  {p['done']}/{p['total']}  {p['label']}  [{p['source']}]"
            ),
        )
        points = client.result(job["id"])["result"]["points"]
        print(f"cold run: executed {done['metrics']['executed']} simulations")
        for row in points:
            print(
                f"  rate {row['rate']:.2f}: latency {row['latency']:6.1f}, "
                f"throughput {row['throughput']:.4f}"
            )

        # the same request again: served from the cache, zero simulations
        warm = client.wait(client.submit_sweep(**SWEEP)["id"])
        print(
            f"warm run: executed {warm['metrics']['executed']}, "
            f"{warm['metrics']['cached']} points from cache"
        )

        stats = client.stats()
        print(
            f"service stats: {stats['jobs']['total']} jobs, "
            f"cache l1_hits={stats['cache']['l1_hits']}, "
            f"mean queue wait {stats['mean_queue_wait_s'] * 1000:.1f} ms"
        )


if __name__ == "__main__":
    main()
