"""Tests for canonical config serialisation and content fingerprints —
the identity layer under the experiment result cache."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.config import UPPConfig
from repro.fingerprint import canonical_json, stable_fingerprint
from repro.noc.config import NocConfig

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_compact_and_parseable(self):
        text = canonical_json({"a": [1, 2], "b": True})
        assert " " not in text
        assert json.loads(text) == {"a": [1, 2], "b": True}

    def test_tag_separates_namespaces(self):
        payload = {"x": 1}
        assert stable_fingerprint("tag-a", payload) != stable_fingerprint(
            "tag-b", payload
        )


class TestConfigRoundTrip:
    def test_noc_config_round_trip(self):
        cfg = NocConfig(vcs_per_vnet=4, seed=7)
        clone = NocConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.fingerprint() == cfg.fingerprint()

    def test_upp_config_round_trip(self):
        cfg = UPPConfig(detection_threshold=100)
        clone = UPPConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.fingerprint() == cfg.fingerprint()

    def test_to_dict_equals_asdict_on_every_preset(self):
        """to_dict reads the fields directly; on every shipped preset
        (and the defaults) that is exactly what asdict would build, so
        canonical JSON, fingerprints and cache keys cannot have moved."""
        from repro import api

        presets = [api.load_preset(name, threshold=threshold)
                   for name in api.preset_names() for threshold in (None, 100)]
        configs = [NocConfig(), UPPConfig()]
        for preset in presets:
            configs += [preset.config, preset.upp_config]
        for cfg in configs:
            assert cfg.to_dict() == dataclasses.asdict(cfg)
            assert list(cfg.to_dict()) == list(dataclasses.asdict(cfg))

    def test_to_dict_is_json_serialisable(self):
        json.dumps(NocConfig().to_dict())
        json.dumps(UPPConfig().to_dict())

    def test_fingerprint_sensitive_to_every_field_change(self):
        base = NocConfig()
        for field in dataclasses.fields(NocConfig):
            if field.type in ("int", int):
                changed = dataclasses.replace(
                    base, **{field.name: getattr(base, field.name) + 1}
                )
            elif field.type in ("bool", bool):
                changed = dataclasses.replace(
                    base, **{field.name: not getattr(base, field.name)}
                )
            else:
                continue
            assert changed.fingerprint() != base.fingerprint(), field.name

    def test_noc_and_upp_fingerprints_never_collide(self):
        # distinct tags keep the two config spaces apart even when the
        # field dicts could coincide.
        assert NocConfig().fingerprint() != UPPConfig().fingerprint()


class TestNonSemanticFields:
    """Engine selection must be invisible to the result-cache identity:
    vector and legacy runs produce bit-identical results, so a cache
    entry computed under either engine must be shared by both."""

    def test_datapath_does_not_change_fingerprint(self):
        base = NocConfig(datapath="vector")
        assert (
            dataclasses.replace(base, datapath="legacy").fingerprint()
            == base.fingerprint()
        )

    def test_non_semantic_fields_lists_datapath(self):
        assert "datapath" in NocConfig.NON_SEMANTIC_FIELDS

    def test_datapath_survives_round_trip(self):
        # excluded from the fingerprint, but still real config state that
        # serialisation must preserve.
        cfg = NocConfig(datapath="legacy")
        clone = NocConfig.from_dict(cfg.to_dict())
        assert clone.datapath == "legacy"
        assert clone == cfg

    def test_invalid_datapath_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="datapath"):
            NocConfig(datapath="simd")


class TestCrossProcessStability:
    def test_fingerprint_stable_across_interpreters(self):
        """The cache key must not depend on hash randomisation or any
        per-process state: a fresh interpreter reproduces it exactly."""
        script = (
            "from repro.noc.config import NocConfig\n"
            "from repro.core.config import UPPConfig\n"
            "print(NocConfig(vcs_per_vnet=4, seed=7).fingerprint())\n"
            "print(UPPConfig(detection_threshold=100).fingerprint())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
                "PYTHONHASHSEED": "random",
            },
        )
        noc_fp, upp_fp = proc.stdout.split()
        assert noc_fp == NocConfig(vcs_per_vnet=4, seed=7).fingerprint()
        assert upp_fp == UPPConfig(detection_threshold=100).fingerprint()
