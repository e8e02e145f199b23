"""Hostile RRE/RZE bitmap headers fail typed, before they allocate.

CRCs are not a trust boundary: a client can send any body with valid CRCs,
so the bitmap decoder checks its declared bit count against the bytes that
back it instead of letting ``np.unpackbits(count=nbits)`` zero-pad.
"""

import struct
import tracemalloc

import numpy as np
import pytest

import repro.api as api
from repro.core.container import ContainerError
from repro.encoders.components import _compress_bitmap, _decompress_bitmap


def test_hostile_codes_bitmap_fails_typed_with_bounded_allocation(hostile_rre_blob):
    body, declared = hostile_rre_blob
    tracemalloc.start()
    try:
        with pytest.raises((ValueError, ContainerError)):
            api.decompress(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * declared


def test_truncated_flat_bitmap_is_refused():
    bits = (np.arange(64) % 3 == 0).astype(np.uint8)
    blob = _compress_bitmap(bits)
    assert blob[8] == 0  # depth 0: the payload is the packed bits themselves
    with pytest.raises(ValueError, match="declares 64 bits"):
        _decompress_bitmap(blob[:-1])


def test_overdeclared_nested_bitmap_is_refused():
    bits = np.zeros(100_000, dtype=np.uint8)
    bits[::5000] = 1
    blob = bytearray(_compress_bitmap(bits))
    assert blob[8] > 0  # sparse: nested under byte-level RRE rounds
    struct.pack_into("<Q", blob, 0, 8 * 100_000)
    with pytest.raises(ValueError, match="declares"):
        _decompress_bitmap(bytes(blob))


def test_bitmap_nested_deeper_than_the_encoder_writes_is_refused():
    blob = bytearray(_compress_bitmap(np.zeros(100_000, dtype=np.uint8)))
    blob[8] = 200
    with pytest.raises(ValueError, match="rounds deep"):
        _decompress_bitmap(bytes(blob))
