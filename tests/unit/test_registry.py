"""Tests for the scheme and topology registries: the single source the
CLI choices, taxonomy rows and certifier matrix all derive from."""

import pytest

from repro.schemes import registry as scheme_registry
from repro.schemes.base import DeadlockScheme
from repro.schemes.registry import (
    make_scheme,
    register_scheme,
    scheme_names,
    table1_scheme_names,
)
from repro.schemes.upp import UPPScheme
from repro.topology.chiplet import baseline_system, large_system
from repro.topology.registry import (
    TOPOLOGY_ALIASES,
    get_topology,
    topology_label,
    topology_names,
    topology_params,
)


class TestSchemeRegistry:
    def test_builtin_names_in_paper_order(self):
        assert scheme_names() == ("composable", "remote_control", "upp", "none")

    def test_table1_excludes_unprotected(self):
        assert table1_scheme_names() == ("composable", "remote_control", "upp")

    def test_make_scheme_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheme 'magic'"):
            make_scheme("magic")
        # the error lists what *is* available
        with pytest.raises(ValueError, match="composable"):
            make_scheme("magic")

    def test_make_scheme_passes_upp_config(self):
        from repro.core.config import UPPConfig

        cfg = UPPConfig(detection_threshold=77)
        scheme = make_scheme("upp", cfg)
        assert isinstance(scheme, UPPScheme)
        assert scheme.cfg.detection_threshold == 77

    def test_make_scheme_returns_fresh_instances(self):
        assert make_scheme("upp") is not make_scheme("upp")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_scheme("upp")
            def _dup(upp_cfg=None):  # pragma: no cover - never registered
                return UPPScheme(upp_cfg)

        # the failed attempt must not have clobbered the original
        assert isinstance(make_scheme("upp"), UPPScheme)

    def test_register_and_resolve_new_scheme(self):
        class Fake(DeadlockScheme):
            name = "fake"

        @register_scheme("fake-scheme", table1_row=False, description="test-only")
        def _make_fake(upp_cfg=None):
            return Fake()

        try:
            assert "fake-scheme" in scheme_names()
            assert "fake-scheme" not in table1_scheme_names()
            assert isinstance(make_scheme("fake-scheme"), Fake)
            assert scheme_registry._REGISTRY["fake-scheme"].description == "test-only"
        finally:
            del scheme_registry._REGISTRY["fake-scheme"]


class TestDerivedSurfaces:
    def test_cli_sweep_choices_are_the_registry(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        for name in scheme_names():
            args = parser.parse_args(["sweep", "--scheme", name])
            assert args.scheme == name
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--scheme", "magic"])

    def test_cli_check_choices_are_the_registry(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        for name in scheme_names() + ("all",):
            assert parser.parse_args(["check", "--scheme", name]).scheme == name

    def test_taxonomy_rows_derive_from_registry(self):
        from repro.schemes.taxonomy import table1_rows

        modular = [r["name"] for r in table1_rows() if r["group"] == "modular"]
        for name in table1_scheme_names():
            scheme = make_scheme(name)
            assert scheme.name in modular

    def test_certifier_matrix_derives_from_registry(self):
        from repro.analysis.cli import SCHEMES

        assert tuple(SCHEMES) == scheme_names()


class TestTopologyRegistry:
    def test_builtin_names(self):
        assert set(topology_names()) >= {"baseline", "large"}

    def test_aliases_build_the_named_systems(self):
        for name, system in (("baseline", baseline_system), ("large", large_system)):
            built, named = get_topology(name)(), system()
            assert built.links == named.links
            assert built.attach_down == named.attach_down
            assert built.interposer_shape == named.interposer_shape

    def test_get_topology_unknown(self):
        with pytest.raises(ValueError, match="unknown topology"):
            get_topology("moebius")

    def test_callable_rejected_naming_the_dict_form(self):
        with pytest.raises(TypeError, match=r"parameter dict such as \{'boundary"):
            get_topology(baseline_system)

    def test_canonical_form(self):
        baseline = topology_params("baseline")
        assert baseline == topology_params({}) == TOPOLOGY_ALIASES["baseline"]
        assert topology_params({"boundary_per_chiplet": 4}) == baseline
        assert topology_params({"chiplet_grid": (2, 2)}) == baseline
        assert topology_params({"faults": 0, "fault_seed": 9}) == baseline
        coords = topology_params({"boundary_coords": ((0, 0), (3, 3))})
        assert coords["boundary_coords"] == [[0, 0], [3, 3]]
        assert coords["boundary_per_chiplet"] == 2
        # a fresh dict each call: callers may not alias the table
        baseline["faults"] = 3
        assert TOPOLOGY_ALIASES["baseline"]["faults"] == 0

    def test_faults_are_seeded(self):
        import random

        from repro.topology.faults import inject_faults

        expected = inject_faults(baseline_system(), 5, random.Random(11)).faulty
        assert get_topology({"faults": 5, "fault_seed": 11})().faulty == expected
        assert get_topology({"faults": 5, "fault_seed": 12})().faulty != expected
        assert not get_topology("baseline")().faulty

    def test_labels(self):
        assert topology_label(topology_params({"interposer_shape": [4, 8],
                                               "chiplet_grid": [2, 4]})) == "large"
        assert topology_label(topology_params({"boundary_per_chiplet": 2})) == (
            "system(boundary_per_chiplet=2)"
        )
        assert topology_label(topology_params({"faults": 5, "fault_seed": 11})) == (
            "system(faults=5, fault_seed=11)"
        )
