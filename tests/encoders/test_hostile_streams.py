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


def _bounded(body: bytes, match: str, declared: int) -> None:
    """``api.decompress(body)`` fails with ``match`` and a tracemalloc peak
    within a small multiple of the ``declared`` output bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            api.decompress(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * declared


@pytest.mark.parametrize("pipeline", ["HF+GPULZ", "nvCOMP::LZ4"])
def test_gpulz_count_past_its_payload_is_refused(sealed_codes_blob, pipeline):
    """A codes stream whose GPULZ header (the u64 at byte 0) declares
    2^31 - 1 bytes, which would be a 2.1 GB allocation (the LZ4 surrogate
    is the same decoder at 4-byte words)."""

    def huge(codes: bytearray) -> None:
        codes[0:8] = (2**31 - 1).to_bytes(8, "little")

    body = sealed_codes_blob(pipeline, huge)
    _bounded(body, "GPULZ stream declares 2147483647 bytes", 16**3 * 4)


def test_gpulz_short_block_is_a_value_error():
    """A block header cut off by the end of the stream, not a struct.error."""
    import struct

    from repro.encoders.gpulz import GpuLzCodec

    stream = struct.pack("<QIIB", 16, 4096, 1, 0) + bytes(8)  # one literal of two words
    with pytest.raises(ValueError, match="runs past the stream"):
        GpuLzCodec().decode(stream)


def test_fixed_length_block_past_its_count_is_refused():
    """A cuSZp2 residual stream whose u32 block is 2^31 - 1: its grid and
    payload bits would ask for hundreds of GiB.  Its one block is flagged
    nonzero, and the byte read as its width is not a valid one."""
    import numpy as np

    from repro.core.container import CompressedBlob

    field = np.linspace(0.0, 1.0, 4096, dtype=np.float32).reshape(16, 16, 16)
    blob = CompressedBlob.from_bytes(api.compress(field, codec="cuszp2", eb=1e-3).to_bytes())
    residuals = bytearray(blob.segments["residuals"])
    residuals[8:12] = (2**31 - 1).to_bytes(4, "little")
    blob.segments["residuals"] = bytes(residuals)
    _bounded(blob.to_bytes(), "fixed-length stream declares", field.nbytes)


def test_fixed_length_payload_past_its_stream_is_refused():
    """Nonzero blocks whose widths need more payload than the stream holds."""
    import numpy as np

    from repro.encoders.fixedlen import FixedLengthCodec

    codec = FixedLengthCodec()
    stream = codec.encode_ints(np.arange(1, 65, dtype=np.int32))
    with pytest.raises(ValueError, match="payload bits but carries"):
        codec.decode_ints(stream[: len(stream) - 4])
    with pytest.raises(ValueError, match="declares 64 values, expected 65"):
        codec.decode_ints(stream, count=65)
    zero_width = bytearray(stream)
    zero_width[13] = 0  # the first nonzero block's width, after the 1-byte bitmap
    with pytest.raises(ValueError, match="width 0"):
        codec.decode_ints(bytes(zero_width))


def test_fixed_length_zero_block_longer_than_its_count_is_not_allocated():
    """A zero block declaring 2^31 - 1 values decodes to its 10 values
    without allocating the block (the block size can come from a blob's
    own metadata, so it is not a bound)."""
    import struct
    import tracemalloc

    from repro.encoders.fixedlen import FixedLengthCodec

    stream = struct.pack("<QI", 10, 2**31 - 1) + b"\x00"  # one all-zero block
    tracemalloc.start()
    try:
        out = FixedLengthCodec().decode_ints(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tolist() == [0] * 10
    assert peak < 1 << 20


def _put_u32(at: int, value: int):
    def mutate(codes: bytearray) -> None:
        codes[at : at + 4] = value.to_bytes(4, "little")

    return mutate


@pytest.mark.parametrize("pipeline", ["ndzip", "HF+ndzip"])
def test_rze_stream_shorter_than_its_header_is_refused(sealed_codes_blob, pipeline):
    """The RZE stage's u32 header cut off: a stage before it, told by the
    u32 at byte 8 that it holds 65535 bytes, hands RZE nothing."""
    with pytest.raises(ValueError, match="RZE stream of 0 bytes has no 4-byte header"):
        api.decompress(sealed_codes_blob(pipeline, _put_u32(8, 2**16 - 1)))


def test_huffman_stream_shorter_than_its_header_is_refused(sealed_codes_blob):
    """An ``HF+nvCOMP::ANS`` codes stream whose rANS count is 0 hands the
    Huffman stage an empty stream, not a 20-byte header."""
    with pytest.raises(ValueError, match="Huffman stream of 0 bytes has no 20-byte header"):
        api.decompress(sealed_codes_blob("HF+nvCOMP::ANS", _put_u32(0, 0)))


def test_rans_stream_shorter_than_its_header_is_refused():
    from repro.encoders.ans import RansCodec

    with pytest.raises(ValueError, match="rANS stream of 6 bytes has no 12-byte header"):
        RansCodec().decode(b"\x05" * 6)


@pytest.mark.parametrize("pipeline", ["nvCOMP::ANS", "HF+nvCOMP::ANS"])
def test_rans_frequencies_short_of_the_table_are_refused(sealed_codes_blob, pipeline):
    """Zeroing two of the frequencies leaves table slots no symbol owns; a
    state landing there was an IndexError."""
    with pytest.raises(ValueError, match="rANS frequencies sum to .*, not the 4096 slots"):
        api.decompress(sealed_codes_blob(pipeline, _put_u32(12, 0)))
