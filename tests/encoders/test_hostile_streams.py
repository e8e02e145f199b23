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
