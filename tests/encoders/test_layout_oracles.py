"""Byte-layout oracles for the BIT shuffle and the RRE/RZE fills.

A round trip cannot pin a layout: any bijection round-trips.  These tests
keep the whole-bit-array implementations that the word-level kernels
replaced, and assert byte equality with them: encoded bytes against the
oracle's encoder, decoded bytes against the oracle's decoder on the same
stream.
"""

import struct

import numpy as np
import pytest

from repro.encoders.components import (
    BIT,
    RRE,
    RZE,
    _compress_bitmap,
    _decompress_bitmap,
)

_UINT = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


# ------------------------------------------------------------------ oracles
def oracle_bit_encode(buf: bytes, width: int) -> bytes:
    """Unpack every bit, transpose the (nsym, 8*width) bit matrix, repack."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    nsym = arr.size // width
    body = arr[: nsym * width]
    tail = arr[nsym * width :]
    if nsym:
        bits = np.unpackbits(body).reshape(nsym, 8 * width)
        shuffled = np.packbits(bits.T)
    else:
        shuffled = np.zeros(0, dtype=np.uint8)
    return struct.pack("<QI", nsym, len(tail)) + shuffled.tobytes() + tail.tobytes()


def oracle_bit_decode(buf: bytes, width: int) -> bytes:
    nsym, ntail = struct.unpack_from("<QI", buf, 0)
    off = struct.calcsize("<QI")
    nbits = nsym * 8 * width
    nbody = (nbits + 7) // 8
    body = np.frombuffer(buf, dtype=np.uint8, count=nbody, offset=off)
    tail = buf[off + nbody : off + nbody + ntail]
    if nsym:
        planes = np.unpackbits(body, count=nbits).reshape(8 * width, nsym)
        out = np.packbits(planes.T)
    else:
        out = np.zeros(0, dtype=np.uint8)
    return out.tobytes() + tail


def oracle_rre_bytes_decode(buf: bytes) -> bytes:
    """One byte-level RRE round, filled through ``cumsum(keep) - 1``."""
    n, nkept = struct.unpack_from("<QQ", buf, 0)
    if n == 0:
        return b""
    bmap_len = (n + 7) // 8
    keep = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, count=bmap_len, offset=16), count=n)
    kept = np.frombuffer(buf, dtype=np.uint8, count=nkept, offset=16 + bmap_len)
    return kept[np.cumsum(keep) - 1].tobytes()


def oracle_bitmap_decode(buf: bytes) -> np.ndarray:
    nbits, depth = struct.unpack_from("<QB", buf, 0)
    payload = buf[struct.calcsize("<QB") :]
    for _ in range(depth):
        payload = oracle_rre_bytes_decode(payload)
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)


def oracle_mask_decode(buf: bytes, width: int, kind: str) -> bytes:
    """RRE/RZE decode: RRE gathers through ``cumsum(mask) - 1``."""
    (ntail,) = struct.unpack_from("<I", buf, 0)
    bits, consumed = _decompress_bitmap(buf[4:])
    assert np.array_equal(bits, oracle_bitmap_decode(buf[4 : 4 + consumed]))
    kept_end = len(buf) - ntail
    kept = np.frombuffer(buf[4 + consumed : kept_end], dtype=_UINT[width])
    out = np.zeros(bits.size, dtype=_UINT[width])
    mask = bits.astype(bool)
    if kind == "RRE":
        if out.size:
            out[:] = kept[np.cumsum(mask) - 1]
    else:
        out[mask] = kept
    return out.tobytes() + buf[kept_end:]


# -------------------------------------------------------------------- BIT
@pytest.fixture
def gen():
    return np.random.default_rng(20241018)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
@pytest.mark.parametrize("mod", range(8))
def test_bit_layout_matches_oracle(width, mod, gen):
    """Every nsym % 8, with and without tail bytes, from 0 or 1 symbol up."""
    for groups in (0, 1, 3, 130):
        nsym = 8 * groups + mod
        for ntail in sorted({0, width - 1}):
            data = gen.integers(0, 256, nsym * width + ntail).astype(np.uint8).tobytes()
            enc = BIT(width).encode(data)
            assert enc == oracle_bit_encode(data, width), (nsym, ntail)
            assert BIT(width).decode(enc) == oracle_bit_decode(enc, width) == data


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_bit_layout_on_skewed_symbols(width, gen):
    """Near-constant high planes, as after TCMS: runs of equal bytes."""
    vals = np.clip(np.rint(gen.standard_normal(4099) * 3), -60, 60).astype(np.int64)
    data = vals.astype(_UINT[width]).tobytes()[: 4099 * width - 1]
    enc = BIT(width).encode(data)
    assert enc == oracle_bit_encode(data, width)
    assert BIT(width).decode(enc) == data


def test_bit_empty_and_tail_only():
    for width in (1, 2, 4, 8):
        for data in (b"", b"\x01\x02\x03"[: width - 1]):
            enc = BIT(width).encode(data)
            assert enc == oracle_bit_encode(data, width)
            assert BIT(width).decode(enc) == data


# -------------------------------------------------------------- RRE / RZE
def _two_runs(n: int) -> np.ndarray:
    syms = np.zeros(n, dtype=np.uint8)
    syms[n // 3 :] = 7
    return syms


#: two-run streams whose RRE bitmaps compress to each depth 0-4
_DEPTHS = {0: 500, 1: 1000, 2: 5000, 3: 40_000, 4: 300_000}


@pytest.mark.parametrize("depth", sorted(_DEPTHS))
def test_bitmap_depths_match_oracle(depth):
    data = _two_runs(_DEPTHS[depth]).tobytes()
    enc = RRE(1).encode(data)
    assert struct.unpack_from("<QB", enc, 4)[1] == depth
    assert RRE(1).decode(enc) == oracle_mask_decode(enc, 1, "RRE") == data


@pytest.mark.parametrize("kind", ["RRE", "RZE"])
@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_mask_fill_matches_oracle(kind, width, gen):
    runs = gen.geometric(0.2, size=3000)
    syms = np.repeat(gen.integers(0, 3, runs.size), runs).astype(_UINT[width])
    comp = RRE(width) if kind == "RRE" else RZE(width)
    for data in (syms.tobytes() + b"\x09" * (width - 1), syms[:1].tobytes(), b""):
        enc = comp.encode(data)
        assert comp.decode(enc) == oracle_mask_decode(enc, width, kind) == data


def test_bitmap_roundtrip_matches_oracle(gen):
    for bits in (gen.integers(0, 2, 777), np.ones(4096), np.zeros(70_000), np.zeros(0)):
        blob = _compress_bitmap(bits.astype(np.uint8))
        back, consumed = _decompress_bitmap(blob)
        assert consumed == len(blob)
        assert np.array_equal(back, oracle_bitmap_decode(blob))
        assert np.array_equal(back, bits)


def test_rre_kept_count_mismatch_raises():
    enc = bytearray(RRE(1).encode(_two_runs(500).tobytes()))
    with pytest.raises(ValueError, match="kept symbols"):
        RRE(1).decode(bytes(enc[:-1]))
