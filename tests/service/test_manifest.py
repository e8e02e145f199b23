"""Manifest parsing and validation (repro.service.manifest)."""

import json

import pytest

from repro.service import ManifestError, load_manifest, parse_manifest

try:
    import tomllib  # noqa: F401

    HAVE_TOML = True
except ImportError:  # pragma: no cover - py3.10 CI lane
    HAVE_TOML = False

TOML_MANIFEST = """
[job]
name = "corpus"
eb = 1e-3
mode = "cr"
executor = "threads"
workers = 2
tiles = [32, 32]

[[fields]]
name = "temp"
dataset = "cesm-atm"
shape = [64, 128]
seed = 3

[[fields]]
name = "rho"
path = "rho_24_24_24.f32"
eb = 1e-4
mode = "tp"

[[fields]]
name = "shots"
dataset = "rtm"
shape = [16, 16, 16]
timesteps = 3
temporal = true
"""


def _json_doc() -> dict:
    return {
        "job": {"name": "corpus", "eb": 1e-3},
        "fields": [
            {"name": "temp", "dataset": "cesm-atm", "shape": [64, 128]},
            {"name": "rho", "path": "rho_24_24_24.f32"},
        ],
    }


class TestParse:
    def test_json_manifest(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(_json_doc()))
        spec = load_manifest(str(path))
        assert spec.name == "corpus"
        assert [f.name for f in spec.fields] == ["temp", "rho"]
        assert spec.fields[0].shape == (64, 128)
        assert spec.base_dir == str(tmp_path)
        assert spec.resolve_path(spec.fields[1]) == str(tmp_path / "rho_24_24_24.f32")

    @pytest.mark.skipif(not HAVE_TOML, reason="tomllib needs Python >= 3.11")
    def test_toml_manifest(self, tmp_path):
        path = tmp_path / "job.toml"
        path.write_text(TOML_MANIFEST)
        spec = load_manifest(str(path))
        assert spec.executor == "threads" and spec.workers == 2
        assert spec.tiles == (32, 32)
        rho = spec.fields[1]
        assert rho.eb == 1e-4 and rho.mode == "tp" and rho.path == "rho_24_24_24.f32"
        shots = spec.fields[2]
        assert shots.is_stream and shots.timesteps == 3 and shots.temporal

    def test_suffixless_falls_back(self, tmp_path):
        path = tmp_path / "manifest"
        path.write_text(json.dumps(_json_doc()))
        assert load_manifest(str(path)).name == "corpus"

    def test_defaults(self):
        spec = parse_manifest({"fields": [{"name": "x", "dataset": "nyx"}]})
        assert spec.eb == 1e-3 and spec.mode == "cr" and spec.executor == "serial"
        assert spec.fields[0].eb is None  # falls back to the job default at run time
        assert spec.fields[0].hot is False

    def test_hot_replication_hint(self):
        spec = parse_manifest(
            {
                "fields": [
                    {"name": "x", "dataset": "nyx", "hot": True},
                    {"name": "y", "dataset": "nyx"},
                ]
            }
        )
        assert [f.hot for f in spec.fields] == [True, False]

    def test_jobspec_roundtrips_through_doc(self, tmp_path):
        # The coordinator ships jobspec_to_doc(spec) over HTTP and workers
        # re-parse it; the round trip must preserve every knob, hot included.
        from repro.service import jobspec_to_doc

        path = tmp_path / "job.json"
        doc = _json_doc()
        doc["fields"][0]["hot"] = True
        doc["fields"][0]["eb"] = 1e-4
        path.write_text(json.dumps(doc))
        spec = load_manifest(str(path))
        respec = parse_manifest(jobspec_to_doc(spec), base_dir=spec.base_dir)
        assert jobspec_to_doc(respec) == jobspec_to_doc(spec)
        assert respec.base_dir == spec.base_dir
        assert respec.fields[0].hot and respec.fields[0].eb == 1e-4
        assert not respec.fields[1].hot


class TestValidation:
    def test_missing_file(self):
        with pytest.raises(ManifestError, match="cannot read manifest"):
            load_manifest("/nonexistent/path.toml")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_manifest(str(path))

    def test_no_fields(self):
        with pytest.raises(ManifestError, match="non-empty 'fields'"):
            parse_manifest({"job": {"name": "empty"}})

    def test_unknown_dataset(self):
        with pytest.raises(ManifestError, match="unknown dataset 'nope'"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nope"}]})

    def test_dataset_xor_path(self):
        with pytest.raises(ManifestError, match="exactly one of 'dataset' or 'path'"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "path": "x.f32"}]})
        with pytest.raises(ManifestError, match="exactly one of 'dataset' or 'path'"):
            parse_manifest({"fields": [{"name": "x"}]})

    def test_duplicate_names(self):
        doc = {"fields": [{"name": "x", "dataset": "nyx"}, {"name": "x", "dataset": "rtm"}]}
        with pytest.raises(ManifestError, match="duplicate field names"):
            parse_manifest(doc)

    def test_unknown_field_keys(self):
        with pytest.raises(ManifestError, match="unknown keys"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "wat": 1}]})

    def test_codec_with_tiles_rejected(self):
        doc = {"fields": [{"name": "x", "dataset": "nyx", "codec": "cusz-l", "tiles": [8]}]}
        with pytest.raises(ManifestError, match="tiles are only supported"):
            parse_manifest(doc)

    def test_stream_needs_dataset(self):
        doc = {"fields": [{"name": "x", "path": "x.f32", "timesteps": 4}]}
        with pytest.raises(ManifestError, match="need a 'dataset'"):
            parse_manifest(doc)

    def test_bad_job_values(self):
        with pytest.raises(ManifestError, match="job.eb"):
            parse_manifest({"job": {"eb": -1}, "fields": [{"name": "x", "dataset": "nyx"}]})
        with pytest.raises(ManifestError, match="job.executor"):
            parse_manifest(
                {"job": {"executor": "gpu"}, "fields": [{"name": "x", "dataset": "nyx"}]}
            )

    def test_bad_shape(self):
        with pytest.raises(ManifestError, match="shape"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "shape": [0, 4]}]})

    def test_boolean_dims_are_refused(self):
        """Regression: ``shape = [true, 8, 8]`` parsed as ``(1, 8, 8)``
        (``bool`` is an ``int``); the eval config already refused it."""
        doc = {"fields": [{"name": "x", "dataset": "nyx", "shape": [True, 8, 8]}]}
        with pytest.raises(ManifestError, match=r"shape must be .*\[True, 8, 8\]"):
            parse_manifest(doc)

    @pytest.mark.parametrize("tiles", [8, [0, 4], [], "8x8"])
    def test_bad_tiles_are_manifest_errors(self, tiles):
        """Regression: a scalar `tiles = 8` escaped as a raw TypeError."""
        with pytest.raises(ManifestError, match="tiles"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "tiles": tiles}]})
        with pytest.raises(ManifestError, match="tiles"):
            parse_manifest({"job": {"tiles": tiles}, "fields": [{"name": "x", "dataset": "nyx"}]})

    def test_unknown_codec_rejected_at_parse(self):
        with pytest.raises(ManifestError, match="field 'x'.*unknown codec 'gzip'"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "codec": "gzip"}]})

    def test_stream_with_non_streaming_codec_rejected_at_parse(self):
        """Regression: a cuzfp snapshot stream parsed cleanly and then died
        at run time with an opaque TypeError naming neither field nor codec."""
        doc = {"fields": [{"name": "x", "dataset": "nyx", "codec": "cuzfp", "timesteps": 3}]}
        with pytest.raises(ManifestError, match="field 'x'.*'cuzfp'.*snapshot streams"):
            parse_manifest(doc)
        # The same codec without streaming is still fine structurally.
        parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "codec": "cuzfp"}]})

    def test_field_mode_override_keeps_job_tiles(self):
        """A field switching engine mode must inherit the job-level tiling."""
        spec = parse_manifest(
            {
                "job": {"tiles": [16, 16, 16]},
                "fields": [{"name": "x", "dataset": "nyx", "mode": "tp"}],
            }
        )
        request = spec.fields[0].request(spec)
        assert request.codec == "cusz-hi-tp"
        assert request.tiling is not None and request.tiling.tiles == (16, 16, 16)

    def test_bad_seed(self):
        with pytest.raises(ManifestError, match="seed must be an integer"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "seed": "abc"}]})

    def test_negative_seed_refused_at_parse_time(self):
        """The dataset generator refuses a negative seed only once the job
        runs, so it is refused here."""
        with pytest.raises(ManifestError, match="field 'x': seed must be an integer >= 0"):
            parse_manifest({"fields": [{"name": "x", "dataset": "nyx", "seed": -1}]})

    def test_unknown_job_keys(self):
        doc = {"job": {"excutor": "processes"}, "fields": [{"name": "x", "dataset": "nyx"}]}
        with pytest.raises(ManifestError, match="job: unknown keys"):
            parse_manifest(doc)

    def test_unknown_root_keys(self):
        doc = {"jobs": {}, "fields": [{"name": "x", "dataset": "nyx"}]}
        with pytest.raises(ManifestError, match="unknown top-level keys"):
            parse_manifest(doc)


_FIELD = {"name": "x", "dataset": "nyx"}


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"job": {"workers": True}, "fields": [_FIELD]}, "job.workers"),
        ({"fields": [{**_FIELD, "timesteps": True}]}, "timesteps"),
        ({"fields": [{**_FIELD, "temporal": "no"}]}, "temporal must be true or false"),
        ({"fields": [{**_FIELD, "hot": "false"}]}, "hot must be true or false"),
        ({"job": {"name": [1]}, "fields": [_FIELD]}, "job.name must be a non-empty string"),
        (
            {"fields": [{**_FIELD, "shape": [8, 8, 8], "dims": [16, 16, 16]}]},
            "'shape' or its alias 'dims', not both",
        ),
    ],
    ids=["workers-true", "timesteps-true", "temporal-no", "hot-false", "name-list", "shape+dims"],
)
def test_values_the_eval_config_refuses_are_refused_here_too(doc, match):
    """Regressions: the manifest kept its own validators, which let these
    values through (``workers = true`` ran one worker, ``temporal = "no"``
    meant true); manifests and eval configs now share one set."""
    with pytest.raises(ManifestError, match=match):
        parse_manifest(doc)
