"""Unit tests for the simulation driver and experiment harness."""

import pytest

from repro import api
from repro.noc.config import NocConfig
from repro.schemes.none import UnprotectedScheme
from repro.schemes.registry import make_scheme
from repro.schemes.upp import UPPScheme
from repro.sim.experiment import SweepPoint, saturation_throughput
from repro.sim.presets import TABLE_II, table2_config, table2_upp_config
from repro.sim.simulator import DeadlockError, Simulation
from repro.topology.chiplet import baseline_system
from repro.traffic.adversarial import install_adversarial_traffic, witness_flows
from repro.traffic.synthetic import install_synthetic_traffic


class TestPresets:
    def test_table2_config_values(self):
        cfg = table2_config(1)
        assert cfg.n_vnets == 3
        assert cfg.vc_depth == 4
        assert cfg.pipeline_stages == 3
        assert cfg.link_width_bits == 128
        assert cfg.data_packet_size == 5
        assert cfg.control_packet_size == 1

    def test_table2_vc_variants_only(self):
        with pytest.raises(ValueError):
            table2_config(2)

    def test_upp_threshold_default(self):
        assert table2_upp_config().detection_threshold == TABLE_II[
            "upp_detection_threshold"
        ]

    @pytest.mark.parametrize("threshold", [None, 1, 20, 100, 399])
    def test_thresholds_below_the_ack_timeout_keep_it(self, threshold):
        """So no existing spec, cache key or digest moves."""
        assert table2_upp_config(threshold).ack_timeout == 400

    @pytest.mark.parametrize("threshold", [400, 1000])
    def test_load_preset_accepts_any_positive_threshold(self, threshold):
        upp_cfg = api.load_preset("baseline", threshold=threshold).upp_config
        assert upp_cfg.detection_threshold == threshold
        assert upp_cfg.ack_timeout > threshold


class TestSchemeFactory:
    @pytest.mark.parametrize(
        "name", ("upp", "composable", "remote_control", "none")
    )
    def test_known_schemes(self, name):
        assert make_scheme(name).name.startswith(name.split("_")[0])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_scheme("spin")


class TestSimulationRun:
    def test_warmup_excluded_from_stats(self):
        sim = Simulation(baseline_system(), NocConfig(), UPPScheme())
        install_synthetic_traffic(sim.network, "uniform_random", 0.05)
        result = sim.run(warmup=500, measure=1000)
        assert result.cycles == 1000
        assert result.stats.window_start == 500

    def test_deadlock_raises_for_protected_scheme(self):
        sim = Simulation(
            baseline_system(),
            NocConfig(vcs_per_vnet=1),
            UnprotectedScheme(),
            watchdog_window=600,
        )
        flows = witness_flows(sim.network)
        install_adversarial_traffic(sim.network, flows)
        with pytest.raises(DeadlockError):
            sim.run(warmup=0, measure=30000, allow_deadlock=False)

    def test_deadlock_reported_when_allowed(self):
        sim = Simulation(
            baseline_system(),
            NocConfig(vcs_per_vnet=1),
            UnprotectedScheme(),
            watchdog_window=600,
        )
        flows = witness_flows(sim.network)
        install_adversarial_traffic(sim.network, flows)
        result = sim.run(warmup=0, measure=30000, allow_deadlock=True)
        assert result.deadlocked
        assert result.deadlock_cycle is not None

    def test_stop_when_ends_early(self):
        sim = Simulation(baseline_system(), NocConfig(), UPPScheme())
        install_synthetic_traffic(sim.network, "uniform_random", 0.05)
        result = sim.run(
            warmup=0, measure=10_000, stop_when=lambda net: net.cycle >= 200
        )
        assert result.cycles <= 210


class TestSweepHelpers:
    def _points(self, latencies, throughputs):
        return [
            SweepPoint(0.01 * (i + 1), lat, lat, 0, thr, False, 0)
            for i, (lat, thr) in enumerate(zip(latencies, throughputs))
        ]

    def test_saturation_is_knee(self):
        points = self._points([30, 31, 35, 90, 400], [0.01, 0.02, 0.03, 0.04, 0.041])
        assert saturation_throughput(points) == 0.03

    def test_saturation_empty(self):
        assert saturation_throughput([]) == 0.0

    def test_saturation_all_below_knee(self):
        points = self._points([30, 31], [0.01, 0.02])
        assert saturation_throughput(points) == 0.02

    def test_run_sweep_stops_past_saturation(self):
        points = api.run_sweep(
            "baseline",
            "upp",
            "uniform_random",
            (0.02, 0.3, 0.4),
            warmup=300,
            measure=1200,
            saturation_latency=150.0,
        )
        assert len(points) <= 2  # 0.3 saturates; 0.4 never runs


class TestSweepExport:
    def test_rows_are_json_serialisable(self):
        import json

        from repro.sim.experiment import SweepPoint, sweep_to_rows

        points = [SweepPoint(0.01, 30.0, 29.0, 1.0, 0.0099, False, 0)]
        rows = sweep_to_rows(points)
        assert json.loads(json.dumps(rows)) == rows
        assert rows[0]["rate"] == 0.01
