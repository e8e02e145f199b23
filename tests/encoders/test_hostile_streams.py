"""Crafted lossless streams fail typed through ``api.decompress``.

Each blob's CRCs are re-sealed by ``CompressedBlob.to_bytes()``, so only the
decoders' own checks stand between a hostile body and an untyped exception,
which the server would answer with a 500 instead of a 400.
"""

import pytest

import repro.api as api

#: bytes of the single-lane rANS header before its payload: n and
#: chunk_size, 256 u16 frequencies, one u32 state, one u64 offset
_ANS_HEAD = 12 + 512 + 4 + 8


def test_rans_lane_offset_past_the_payload_is_refused(hostile_ans_blob):
    with pytest.raises(ValueError, match=f"rANS lane 0 starts at byte {2**40},"):
        api.decompress(hostile_ans_blob)


def test_rans_lane_running_off_the_payload_is_refused(sealed_codes_blob):
    """An offset inside the payload passes the up-front check; the lane then
    needs bytes past the end, which is the same error, not an IndexError."""

    def last_byte(codes: bytearray) -> None:
        codes[528:536] = (len(codes) - _ANS_HEAD).to_bytes(8, "little")

    with pytest.raises(ValueError, match="rANS lane reads past the end"):
        api.decompress(sealed_codes_blob("nvCOMP::ANS", last_byte))


@pytest.mark.parametrize("pipeline", ["nvCOMP::GDeflate", "nvCOMP::Zstd"])
def test_corrupt_deflate_stream_is_refused(sealed_codes_blob, pipeline):
    def truncate(codes: bytearray) -> None:
        del codes[len(codes) // 2 :]

    with pytest.raises(ValueError, match="stream does not inflate"):
        api.decompress(sealed_codes_blob(pipeline, truncate))


@pytest.mark.parametrize("pipeline", ["HF+RRE4-TCMS8-RZE1", "TCMS1-BIT1-RRE1"])
def test_rre_round_longer_than_its_stream_is_refused(sealed_codes_blob, pipeline):
    """Both default pipelines open the codes stream with an RRE bitmap whose
    byte-level round declares its kept-byte count; a count past the end of
    the stream is a typed error, not an OverflowError from NumPy."""

    def huge_count(codes: bytearray) -> None:
        codes[24:32] = (2**63 - 1).to_bytes(8, "little")

    with pytest.raises(ValueError, match="RRE round declares"):
        api.decompress(sealed_codes_blob(pipeline, huge_count))


def test_fixed_length_block_of_zero_is_refused():
    """A cuSZp2 residual stream declaring blocks of 0 values."""
    import numpy as np

    from repro.core.container import CompressedBlob

    field = np.linspace(0.0, 1.0, 4096, dtype=np.float32).reshape(16, 16, 16)
    blob = CompressedBlob.from_bytes(api.compress(field, codec="cuszp2", eb=1e-3).to_bytes())
    residuals = bytearray(blob.segments["residuals"])
    residuals[8:12] = bytes(4)  # u64 n, then the u32 block
    blob.segments["residuals"] = bytes(residuals)
    with pytest.raises(ValueError, match="block of 0"):
        api.decompress(blob.to_bytes())
