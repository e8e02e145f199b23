"""Shared fixtures: small deterministic fields sized for fast tests."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def smooth3d():
    """Smooth 3-D field (interpolation-friendly), non-power-of-two dims."""
    x, y, z = np.meshgrid(
        np.linspace(0, 2 * np.pi, 45),
        np.linspace(0, 2 * np.pi, 38),
        np.linspace(0, 2 * np.pi, 41),
        indexing="ij",
    )
    return (np.sin(x) * np.cos(y) + 0.5 * np.sin(z) + 0.1 * np.sin(3 * x) * np.cos(2 * z)).astype(
        np.float32
    )


@pytest.fixture(scope="session")
def noisy3d(rng):
    """Rough field exercising the outlier / low-compressibility paths."""
    base = np.linspace(0, 1, 32 * 33 * 30, dtype=np.float64).reshape(32, 33, 30)
    return (base + 0.2 * rng.standard_normal((32, 33, 30))).astype(np.float32)


@pytest.fixture(scope="session")
def smooth2d():
    x, y = np.meshgrid(np.linspace(0, 4, 70), np.linspace(0, 3, 55), indexing="ij")
    return (np.exp(-((x - 2) ** 2) - ((y - 1.5) ** 2)) + 0.3 * np.sin(3 * x)).astype(np.float32)


@pytest.fixture(scope="session")
def quantcode_bytes(rng):
    """A realistic quantization-code byte stream: 128-centered, zero-heavy,
    with spatially varying magnitude (prediction error tracks local field
    roughness), which produces the zero runs the reducing stages feed on."""
    n = 200_000
    envelope = np.abs(np.sin(np.linspace(0, 40 * np.pi, n))) ** 3
    vals = np.clip(np.rint(rng.standard_normal(n) * 2.0 * envelope), -127, 127)
    return (vals + 128).astype(np.uint8).tobytes()


#: the RRE bitmap bit count a hostile blob declares (far past its payload)
HOSTILE_NBITS = 2**28


@pytest.fixture(scope="session")
def hostile_rre_blob():
    """A 32^3 ``cusz-hi-tp`` container whose ``codes`` RRE bitmap header (the
    u64 at byte 4) declares 2^28 bits, with its CRCs re-sealed so only the
    decoder's own bounds stand between it and a 768 MB zero-padded unpack.

    Returns ``(bytes, declared output nbytes)``.
    """
    import repro.api as api
    from repro.core.container import CompressedBlob

    field = np.fromfunction(
        lambda i, j, k: np.sin(i / 5) * np.cos(j / 4) + 0.3 * np.sin(k / 3), (32, 32, 32)
    ).astype(np.float32)
    blob = api.compress(field, api.build_request(codec="cusz-hi-tp", eb=1e-3)).blob
    blob = CompressedBlob.from_bytes(blob.to_bytes())
    codes = bytearray(blob.segments["codes"])
    codes[4:12] = HOSTILE_NBITS.to_bytes(8, "little")
    blob.segments["codes"] = bytes(codes)
    return blob.to_bytes(), field.nbytes


def _sealed_codes_blob(pipeline: str, mutate) -> bytes:
    import repro.api as api
    from repro.core.container import CompressedBlob

    field = np.fromfunction(
        lambda i, j, k: np.sin(i / 5) * np.cos(j / 4) + 0.3 * np.sin(k / 3), (16, 16, 16)
    ).astype(np.float32)
    request = api.build_request(codec="cusz-hi", pipeline=pipeline, eb=1e-3)
    blob = CompressedBlob.from_bytes(api.compress(field, request).to_bytes())
    codes = bytearray(blob.segments["codes"])
    mutate(codes)
    blob.segments["codes"] = bytes(codes)
    return blob.to_bytes()


@pytest.fixture(scope="session")
def sealed_codes_blob():
    """``make(pipeline, mutate)``: a 16^3 ``cusz-hi`` container over
    ``pipeline`` whose ``codes`` stream ``mutate`` rewrites (a ``bytearray``,
    in place), its CRCs re-sealed so only the decoder sees the damage."""
    return _sealed_codes_blob


@pytest.fixture(scope="session")
def hostile_ans_blob():
    """An ``nvCOMP::ANS`` container whose one rANS lane starts at byte 2^40
    of a payload of under 1 KiB.  The lane's u64 offset sits at byte 528 of
    the ``codes`` stream, after the 12-byte header, 512 bytes of
    frequencies and the lane's u32 state."""

    def far_offset(codes: bytearray) -> None:
        codes[528:536] = (2**40).to_bytes(8, "little")

    return _sealed_codes_blob("nvCOMP::ANS", far_offset)


def _reseal_archive_entry(path: str, patch: dict, index: int = 0) -> None:
    import json
    import zlib

    from repro.service import ArchiveStore
    from repro.service.archive import _SLOT_OFFS, _pack_slot

    with ArchiveStore(path) as arch:
        idx_off, seq = arch._index_off, arch._seq
    with open(path, "r+b") as fh:
        fh.seek(idx_off)
        doc = json.loads(fh.read())  # the live index is the file's last block
        doc["entries"][index].update(patch)
        raw = json.dumps(doc).encode("utf-8")
        fh.seek(idx_off)
        fh.write(raw)
        fh.truncate()
        fh.seek(_SLOT_OFFS[(seq + 1) % 2])
        fh.write(_pack_slot(seq + 1, idx_off, len(raw), zlib.crc32(raw)))


@pytest.fixture(scope="session")
def reseal_archive_entry():
    """``reseal(path, patch, index=0)``: overwrite fields of one ``.rpza``
    index entry with ``patch`` and re-seal the index CRC and footer slot, so
    only the archive's own checks see the hostile values."""
    return _reseal_archive_entry
