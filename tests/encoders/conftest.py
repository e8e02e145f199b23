"""Fixtures shared by the encoder tests."""

import pytest

from repro.encoders.huffman import HuffmanCodec


def _cr_quant_codes(name: str, shape: tuple, eb: float) -> bytes:
    """The byte stream the CR pipeline hands its Huffman stage."""
    import repro.api as api
    from repro import datasets

    seen = []
    encode = HuffmanCodec.encode

    def spy(self, buf):
        seen.append(bytes(buf))
        return encode(self, buf)

    field = datasets.load(name, shape=shape, seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HuffmanCodec, "encode", spy)
        api.compress(field, api.build_request(mode="cr", eb=eb))
    return max(seen, key=len)


@pytest.fixture
def cr_quant_codes():
    """``cr_quant_codes(name, shape, eb)``: the Huffman input of a real CR
    compress of dataset ``name`` (seed 1)."""
    return _cr_quant_codes
