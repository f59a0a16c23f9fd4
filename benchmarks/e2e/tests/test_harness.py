"""Tests of the benchmark harness itself (not of the program).

Run explicitly: ``python -m pytest benchmarks/e2e/tests`` — tier-1
``testpaths`` stays ``tests``.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import inputs  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
from candle import CANDLE_REF_S as REF  # noqa: E402
from run import repetitions, tail_latency  # noqa: E402

#: sha256 of candle.py.  The candle is the benchmark's unit of time: a
#: change to it rebases every number recorded so far, so it needs a new
#: baseline, not just a new hash here.
CANDLE_SHA256 = "3c37c1e5c2cd561d75cc90e1797c884054ccf5dcc4ae38ee4aee70a42497f6bc"


def test_candle_is_frozen():
    digest = hashlib.sha256((E2E / "candle.py").read_bytes()).hexdigest()
    assert digest == CANDLE_SHA256


# --------------------------------------------------------------------- #
# normalisation


class _FakeCandle:
    """Slices that take (and report) whatever the test says next."""

    ref_s = REF

    def __init__(self, durations):
        self.durations = list(durations)

    def slice(self):
        return self.durations.pop(0)


def test_normaliser_recovers_true_time_under_injected_slowdown(monkeypatch):
    """A third of the units (and the slices around them) run on a host
    slowed 2x; the normalised sum must still be the true time."""
    now = [0.0]
    monkeypatch.setattr(timing, "perf_counter", lambda: now[0])
    rng = random.Random(7)
    true_units = [0.020 + 0.010 * rng.random() for _ in range(90)]
    slow = [30 <= index < 60 for index in range(90)]
    # slice i sits before unit i; the slice after the last unit is quiet
    clock = timing.NormClock(
        _FakeCandle([REF * (2.0 if s else 1.0) for s in slow] + [REF])
    )

    def work(seconds):
        now[0] += seconds

    normalised = [
        clock.unit(work, true * (2.0 if s else 1.0))[1]
        for true, s in zip(true_units, slow)
    ]
    assert clock.raw_s > 1.3 * sum(true_units)
    # only the two units at the edges of the slow stretch see a mixed bracket
    assert sum(normalised) == pytest.approx(sum(true_units), rel=0.01)
    assert clock.norm_s == pytest.approx(sum(normalised))
    assert clock.slowdown() == pytest.approx(1.0)  # the median slice is quiet


def test_clock_shares_the_slice_between_adjacent_units(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(timing, "perf_counter", lambda: now[0])
    ref = REF
    clock = timing.NormClock(_FakeCandle([ref, 2 * ref, 2 * ref]))

    def work(seconds):
        now[0] += seconds

    _, first = clock.unit(work, 0.030)
    _, second = clock.unit(work, 0.040)
    assert len(clock.slices) == 3  # not four: the middle one is shared
    assert first == pytest.approx(0.030 / 1.5)
    assert second == pytest.approx(0.040 / 2.0)
    assert clock.raw_s == pytest.approx(0.070)
    assert clock.norm_s == pytest.approx(first + second)
    assert clock.lap() == pytest.approx((first + second, 0.070))
    assert clock.lap() == (0.0, 0.0)  # nothing closed since
    clock.gap()
    assert clock._prev is None


def test_primed_clock_discards_the_first_slice_of_each_pair():
    ref = REF
    clock = timing.NormClock(_FakeCandle([9 * ref, ref, 9 * ref, ref]), prime=True)
    clock.unit(lambda: None)
    assert clock.slices == [ref, ref]
    assert clock.primed_s == pytest.approx(18 * ref)


# --------------------------------------------------------------------- #
# statistics


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    samples = list(range(1, 101))
    assert timing.percentile(samples, 90) == 90
    with pytest.raises(ValueError):
        timing.percentile(samples, 91)  # nine beyond
    with pytest.raises(ValueError):
        timing.percentile(list(range(50)), 90)  # five beyond
    with pytest.raises(ValueError):
        timing.percentile(samples, 100)


def test_tail_latency_falls_back_to_the_highest_admissible_percentile():
    value, used = tail_latency(list(range(1, 201)))
    assert (value, used) == (180, 90.0)
    value, used = tail_latency(list(range(1, 25)))  # 24 samples
    assert value == 14 and used == pytest.approx(100 * 14 / 24)
    value, used = tail_latency(list(range(1, 8)))  # too few for any tail
    assert (value, used) == (4, 50.0)


def test_spread_matches_the_acceptance_rule():
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.1, 9.9]
    stats = timing.spread(values)
    assert stats["n"] == 10
    assert stats["iqr_over_median"] == pytest.approx(
        (stats["q3"] - stats["q1"]) / stats["median"]
    )
    assert stats["range_over_median"] == pytest.approx(0.6 / stats["median"])


# --------------------------------------------------------------------- #
# inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_different_seed_different_inputs(workload):
    first = inputs.generate(workload, 11, 5)
    again = inputs.generate(workload, 11, 5)
    other = inputs.generate(workload, 12, 5)
    assert first == again
    assert inputs.digest(first) == inputs.digest(again)
    assert first != other
    assert inputs.digest(first) != inputs.digest(other)
    assert len(first["reps"]) == 5


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_last_repetition_repeats_the_first_and_the_rest_differ(workload):
    draws = inputs.generate(workload, 3, 6)["reps"]
    assert draws[0] == draws[-1]
    distinct = {inputs.digest(draw) for draw in draws[:-1]}
    assert len(distinct) == 5
    assert len(inputs.generate(workload, 3, 1)["reps"]) == 1


def test_cold_campaigns_cannot_hit_each_others_cache_entries():
    for seed in range(20):
        draw = inputs.generate("campaign_cold", seed, 1)["reps"][0]
        campaigns = draw["warmups"] + draw["campaigns"]
        assert len({inputs.digest(c) for c in campaigns}) == len(campaigns)
        quotas = [int(60 * c["scale"]) for c in campaigns if c["kind"] == "workload"]
        assert len(set(quotas)) == len(quotas) and min(quotas) >= 1
        kinds = [c["kind"] for c in draw["campaigns"]]
        assert kinds.count("workload") == inputs.CAMPAIGN_WORKLOADS
        assert all(k == "workload" for k in kinds[3::4])
        schemes = [c["scheme"] for c in draw["campaigns"] if c["kind"] == "sweep"]
        assert all(schemes.count(s) == 6 for s in inputs.SCHEMES)


def test_service_draw_uses_every_request_equally():
    draw = inputs.generate("service_warm", 5, 1)["reps"][0]
    order = draw["order"]
    assert len(order) == inputs.SERVICE_JOBS
    counts = [order.count(index) for index in range(inputs.SERVICE_REQUESTS)]
    assert max(counts) - min(counts) <= 1
    assert len({inputs.digest(r) for r in draw["requests"]}) == inputs.SERVICE_REQUESTS


def test_seconds_scale_the_repetition_count_not_the_work():
    assert [repetitions(w, 20) for w in inputs.WORKLOADS] == [6, 7, 5, 8]
    assert [repetitions(w, 1) for w in inputs.WORKLOADS] == [1, 1, 1, 1]
    assert repetitions("sim_saturated", 40) == 12


def test_persisting_candle_rewrites_its_entries_and_nothing_else(tmp_path):
    import candle

    plain = candle.Candle()
    assert plain.ref_s == candle.CANDLE_REF_S and not plain.entries
    persisting = candle.Candle(persist_dir=tmp_path / "candle")
    assert persisting.ref_s == candle.PERSIST_REF_S
    assert persisting.slice() > 0.0
    written = sorted(p.name for p in (tmp_path / "candle").iterdir())
    assert written == [f"entry{i}.json" for i in range(4)]
    # a pass gives and takes one token everywhere: state returns
    assert set(persisting.occupancy.tolist()) == {4}
    assert {len(slot.queue) for slot in persisting.slots} == {4}


# --------------------------------------------------------------------- #
# spans


@pytest.fixture
def fake_time(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    return advance


def test_span_self_time_is_duration_minus_children(fake_time):
    tracer = spans.Tracer()
    leaf = tracer.leaf("leaf", lambda: fake_time(0.5))
    inner = tracer.wrap("inner", lambda: (fake_time(1.0), leaf(), leaf()))
    cycle = tracer.wrap("cycle", lambda: (fake_time(0.25), leaf()), keep=False)

    def outer_work():
        fake_time(2.0)
        inner()
        cycle()
        cycle()
        leaf()

    tracer.request = "job-1"
    tracer.wrap("outer", outer_work)()
    layers = tracer.layers
    assert layers["leaf"].count == 5
    assert layers["leaf"].self_s == pytest.approx(2.5)
    assert layers["inner"].total_s == pytest.approx(2.0)
    assert layers["inner"].self_s == pytest.approx(1.0)
    assert layers["cycle"].count == 2
    assert layers["cycle"].total_s == pytest.approx(1.5)
    assert layers["cycle"].self_s == pytest.approx(0.5)
    assert layers["outer"].total_s == pytest.approx(6.0)
    assert layers["outer"].self_s == pytest.approx(2.0)
    # self times partition the outermost span
    assert sum(v.self_s for v in layers.values()) == pytest.approx(6.0)
    # recorded spans: outer and inner (cycle and leaf only aggregate)
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("outer", None, "job-1"), ("inner", 0, "job-1")]
    assert tracer.spans[1].end - tracer.spans[1].start == pytest.approx(2.0)


def test_span_named_by_its_result(fake_time):
    tracer = spans.Tracer()
    get = tracer.wrap(lambda entry: "miss" if entry is None else "hit",
                      lambda key: (fake_time(1.0), {"a": 1}.get(key))[1])
    assert get("a") == 1 and get("b") is None and get("a") == 1
    assert tracer.layers["hit"].count == 2
    assert tracer.layers["miss"].total_s == pytest.approx(1.0)


def test_out_of_process_time_is_child_time_of_the_open_span(fake_time):
    tracer = spans.Tracer()

    def campaign():
        fake_time(3.0)  # of which the worker ran 2.5
        tracer.add("exp.execute", 1, 2.5, 0.5)
        tracer.add("noc.step", 400, 2.0, 2.0)
        tracer.add_child_time(2.5)

    tracer.wrap("exp.campaign", campaign)()
    assert tracer.layers["exp.campaign"].self_s == pytest.approx(0.5)
    assert sum(v.self_s for v in tracer.layers.values()) == pytest.approx(3.0)


def test_foreign_thread_spans_come_off_the_waiting_span():
    tracer = spans.Tracer()
    home, other = 1, 2
    tracer.spans = [
        spans.Span("client.wait", 10.0, 14.0, None, "job-1", home),
        spans.Span("service.queue_persist", 11.0, 12.0, None, "job-1", other),
        spans.Span("exp.cache_get_hit", 12.5, 13.0, None, "job-1", other),
        spans.Span("client.result", 14.0, 15.0, None, "job-1", home),
    ]
    tracer.layer("client.wait").self_s = 4.0
    tracer.layer("client.result").self_s = 1.0
    tracer.attribute_foreign(home)
    assert tracer.layers["client.wait"].self_s == pytest.approx(2.5)
    assert tracer.layers["client.result"].self_s == pytest.approx(1.0)
    tracer.attribute_foreign(home)  # nothing new: nothing subtracted twice
    assert tracer.layers["client.wait"].self_s == pytest.approx(2.5)
