"""Experiment-config parsing: totality and key-named errors.

Every rejection must carry the offending TOML key, so a config fails at
parse time — before any cell has burned compute — with a message that says
exactly which line of the file to fix.
"""

from __future__ import annotations

import json

import pytest

from repro.evaluation import (
    ConfigError,
    ablation_step_labels,
    load_config,
    parse_config,
)


def _doc(**overrides):
    doc = {
        "eval": {"kind": "cr-table", "title": "t"},
        "matrix": {"datasets": ["nyx"], "codecs": ["cusz-hi-cr"], "ebs": [1e-3]},
        "datasets": {"nyx": {"shape": [8, 8, 8]}},
    }
    doc.update(overrides)
    return doc


def _err(doc) -> str:
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    return str(exc.value)


class TestParseDefaults:
    def test_minimal_config(self):
        cfg = parse_config(_doc(), name="demo")
        assert cfg.name == "demo"
        assert cfg.kind == "cr-table"
        assert cfg.datasets[0].name == "nyx"
        assert cfg.datasets[0].shape == (8, 8, 8)
        assert cfg.ebs == (1e-3,)
        assert cfg.eb_mode == "rel"
        assert cfg.executor == "serial"
        assert cfg.workers == 0
        assert cfg.tilings == ()

    def test_title_defaults_to_name(self):
        doc = _doc()
        doc["eval"] = {"kind": "cr-table"}
        assert parse_config(doc, name="fig8").title == "fig8"

    def test_dataset_overrides(self):
        doc = _doc()
        doc["datasets"]["nyx"] = {"shape": [4, 6, 8], "seed": 7}
        ref = parse_config(doc).datasets[0]
        assert ref.shape == (4, 6, 8) and ref.seed == 7 and ref.ndim == 3

    def test_default_shape_ndim(self):
        doc = _doc(datasets={})
        ref = parse_config(doc).datasets[0]
        assert ref.shape is None and ref.ndim == 3  # nyx default is 3-D

    def test_execution_section(self):
        doc = _doc(execution={"executor": "threads", "workers": 3})
        cfg = parse_config(doc)
        assert cfg.executor == "threads" and cfg.workers == 3

    def test_rates_roundtrip(self):
        doc = _doc()
        doc["matrix"]["codecs"] = ["cusz-hi-cr", "cuzfp"]
        doc["matrix"]["rates"] = {"cuzfp": [2, 4.0]}
        cfg = parse_config(doc)
        assert cfg.rates_for("cuzfp") == (2.0, 4.0)
        assert cfg.rates_for("cusz-hi-cr") == ()

    def test_matrix_dict_is_json_ready(self):
        doc = _doc(execution={"executor": "processes"})
        doc["matrix"]["tilings"] = [[4, 4, 4]]
        out = parse_config(doc).matrix_dict()
        json.dumps(out)  # must serialize
        assert out["datasets"][0]["name"] == "nyx"
        assert out["tilings"] == [[4, 4, 4]]


class TestKeyNamedErrors:
    """Each rejection names the offending TOML key."""

    def test_unknown_dataset_names_index(self):
        doc = _doc()
        doc["matrix"]["datasets"] = ["nyx", "mars"]
        msg = _err(doc)
        assert "matrix.datasets[1] = 'mars'" in msg and "known" in msg

    def test_unknown_codec_names_index(self):
        doc = _doc()
        doc["matrix"]["codecs"] = ["cusz-hi-cr", "gzip"]
        msg = _err(doc)
        assert "matrix.codecs[1] = 'gzip'" in msg

    def test_duplicate_axis_entries(self):
        doc = _doc()
        doc["matrix"]["datasets"] = ["nyx", "nyx"]
        assert "matrix.datasets: duplicate" in _err(doc)
        doc = _doc()
        doc["matrix"]["codecs"] = ["cusz-l", "cusz-l"]
        assert "matrix.codecs: duplicate" in _err(doc)

    def test_bad_kind(self):
        doc = _doc()
        doc["eval"]["kind"] = "fig-12"
        assert "eval.kind" in _err(doc)

    def test_unknown_section_keys(self):
        assert "config: unknown keys" in _err(_doc(bogus={}))
        doc = _doc()
        doc["matrix"]["bogus"] = 1
        assert "matrix: unknown keys" in _err(doc)
        doc = _doc()
        doc["datasets"]["nyx"]["bogus"] = 1
        assert "datasets.nyx: unknown keys" in _err(doc)

    def test_bad_eb_values(self):
        doc = _doc()
        doc["matrix"]["ebs"] = [1e-3, -1.0]
        assert "matrix.ebs[1]" in _err(doc)
        doc = _doc()
        doc["matrix"]["ebs"] = []
        assert "matrix.ebs" in _err(doc)

    def test_missing_ebs_for_error_bounded_codec(self):
        doc = _doc()
        del doc["matrix"]["ebs"]
        msg = _err(doc)
        assert "matrix.ebs: required" in msg and "cusz-hi-cr" in msg

    def test_fixed_rate_codec_without_rates(self):
        doc = _doc()
        doc["matrix"]["codecs"] = ["cuzfp"]
        msg = _err(doc)
        assert "matrix.codecs[0] = 'cuzfp'" in msg and "[matrix.rates]" in msg

    def test_rates_for_error_bounded_codec(self):
        doc = _doc()
        doc["matrix"]["rates"] = {"cusz-hi-cr": [4.0]}
        assert "matrix.rates.cusz-hi-cr" in _err(doc)

    def test_rates_for_unlisted_codec(self):
        doc = _doc()
        doc["matrix"]["rates"] = {"cuzfp": [4.0]}
        assert "matrix.rates.cuzfp" in _err(doc)

    def test_tiling_on_non_tiling_codec_names_both_keys(self):
        doc = _doc()
        doc["matrix"]["codecs"] = ["cusz-hi-cr", "fzgpu"]
        doc["matrix"]["tilings"] = [[4, 4, 4]]
        msg = _err(doc)
        assert "matrix.tilings[0] x matrix.codecs[1] = 'fzgpu'" in msg
        assert "capability mismatch" in msg

    def test_tile_ndim_mismatch_names_both_keys(self):
        doc = _doc()
        doc["matrix"]["tilings"] = [[4, 4]]
        msg = _err(doc)
        assert "matrix.tilings[0]" in msg and "matrix.datasets[0] = 'nyx'" in msg

    def test_bad_executor(self):
        assert "execution.executor" in _err(_doc(execution={"executor": "gpu"}))

    def test_bad_workers(self):
        assert "execution.workers" in _err(_doc(execution={"workers": -1}))

    def test_bad_dataset_seed(self):
        doc = _doc()
        doc["datasets"]["nyx"]["seed"] = "zero"
        assert "datasets.nyx.seed" in _err(doc)

    def test_negative_dataset_seed(self):
        """The generator would refuse it only once the matrix runs."""
        doc = _doc()
        doc["datasets"]["nyx"]["seed"] = -1
        assert "datasets.nyx.seed must be an integer >= 0" in _err(doc)

    def test_bad_dataset_shape(self):
        doc = _doc()
        doc["datasets"]["nyx"]["shape"] = [8, 0, 8]
        assert "datasets.nyx.shape" in _err(doc)


class TestAblationKind:
    def _doc(self, **matrix):
        m = {"datasets": ["nyx"], "ebs": [1e-2]}
        m.update(matrix)
        return {
            "eval": {"kind": "ablation"},
            "matrix": m,
            "datasets": {"nyx": {"shape": [8, 8, 8]}},
        }

    def test_steps_default_to_full_chain(self):
        cfg = parse_config(self._doc())
        assert cfg.steps == ablation_step_labels()
        assert cfg.codecs == ()

    def test_explicit_step_subset(self):
        steps = list(ablation_step_labels()[:2])
        assert parse_config(self._doc(steps=steps)).steps == tuple(steps)

    def test_unknown_step_names_index(self):
        msg = _err(self._doc(steps=["cusz-ib", "+warp drive"]))
        assert "matrix.steps[1] = '+warp drive'" in msg

    def test_codecs_not_allowed(self):
        assert "matrix.codecs: not allowed for kind='ablation'" in _err(
            self._doc(codecs=["cusz-l"])
        )

    def test_requires_ebs(self):
        doc = self._doc()
        del doc["matrix"]["ebs"]
        assert "matrix.ebs: required" in _err(doc)

    def test_steps_only_for_ablation(self):
        doc = _doc()
        doc["matrix"]["steps"] = ["cusz-ib"]
        assert "matrix.steps: only allowed for kind='ablation'" in _err(doc)


class TestLoadConfig:
    def test_toml_and_json_agree(self, tmp_path):
        toml = tmp_path / "a.toml"
        toml.write_text(
            "[eval]\nkind = 'cr-table'\n"
            "[matrix]\ndatasets = ['nyx']\ncodecs = ['cusz-l']\nebs = [1e-3]\n"
            "[datasets.nyx]\nshape = [8, 8, 8]\n"
        )
        js = tmp_path / "b.json"
        js.write_text(json.dumps(_doc()))
        a, b = load_config(str(toml)), load_config(str(js))
        assert a.name == "a" and b.name == "b"
        assert a.datasets == b.datasets and a.ebs == b.ebs

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "none.toml"))

    def test_invalid_toml_is_config_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[eval\nkind =")
        with pytest.raises(ConfigError, match="invalid TOML"):
            load_config(str(path))

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))
