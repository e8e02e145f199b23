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
