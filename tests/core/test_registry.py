"""Codec registry: stable ids, dispatch, error handling."""

import pytest

from repro.api.registry import (
    CODEC_IDS,
    codec_class,
    codec_name,
    list_codecs,
    register_kernel,
)


class TestIds:
    def test_ids_stable(self):
        """These ids are persisted in streams — renumbering breaks archives."""
        assert CODEC_IDS["cusz-hi-cr"] == 1
        assert CODEC_IDS["cusz-hi-tp"] == 2
        assert CODEC_IDS["cusz-hi"] == 3
        assert CODEC_IDS["cusz-l"] == 10
        assert CODEC_IDS["cusz-i"] == 11
        assert CODEC_IDS["cusz-ib"] == 12
        assert CODEC_IDS["cuszp2"] == 20
        assert CODEC_IDS["cuzfp"] == 30
        assert CODEC_IDS["fzgpu"] == 40

    def test_list_codecs_copy(self):
        ids = list_codecs()
        ids["cusz-hi-cr"] = 999
        assert CODEC_IDS["cusz-hi-cr"] == 1  # mutation must not leak

    def test_codec_name(self):
        assert codec_name(1) == "cusz-hi-cr"
        assert codec_name(31337).startswith("unknown-")


class TestDispatch:
    def test_every_id_resolves(self):
        for name, cid in CODEC_IDS.items():
            cls = codec_class(cid)
            assert hasattr(cls, "compress") or hasattr(cls(), "compress"), name

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            codec_class(12345)

    def test_register_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            register_kernel("not-in-table")(object)
