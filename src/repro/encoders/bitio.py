"""Vectorized bit-level packing and window-extraction primitives.

Every lossless stage in :mod:`repro.encoders` manipulates bitstreams.  On the
GPU these are warp-cooperative bit scatters; here each primitive is expressed
as a whole-array NumPy operation so the same data movement happens in a few
fused passes instead of a Python loop per symbol (see the chunk-parallel
Huffman codec in :mod:`repro.encoders.huffman` for the main consumer).
Variable-length fields are packed a 64-bit word at a time
(:class:`BitfieldWriter`); windows are read at any bit offset
(:func:`extract_bit_windows`).

All bitstreams use **MSB-first** bit order inside each byte, matching
``numpy.packbits``/``numpy.unpackbits`` defaults, so round-trips compose with
the NumPy primitives without re-ordering passes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitfieldWriter",
    "pack_bitfields",
    "unpack_bitfields",
    "extract_bit_windows",
    "pad_stream_for_windows",
    "bits_to_bytes",
    "bytes_to_bits",
    "popcount_bytes",
]


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 ``uint8`` array into bytes (MSB first), returning ``bytes``."""
    if bits.dtype != np.uint8:
        bits = bits.astype(np.uint8)
    return np.packbits(bits).tobytes()


def bytes_to_bits(buf: bytes | np.ndarray, nbits: int) -> np.ndarray:
    """Unpack ``buf`` into the first ``nbits`` bits as a 0/1 ``uint8`` array."""
    arr = np.frombuffer(buf, dtype=np.uint8) if isinstance(buf, (bytes, bytearray, memoryview)) else np.asarray(buf, dtype=np.uint8)
    bits = np.unpackbits(arr, count=nbits)
    return bits


class BitfieldWriter:
    """Variable-length bitfields ORed into big-endian ``uint64`` words.

    The writer owns a zeroed word array sized for ``nbits`` payload bits,
    plus one leading guard word, and a running bit offset.  Each
    :meth:`write` places a run of fields after the previous one; the Huffman
    encoder writes its stream in cache-sized blocks this way, and
    :meth:`tobytes` emits the payload with one byteswap.
    """

    def __init__(self, nbits: int):
        self.nbits = int(nbits)
        self.end = 0
        self.words = np.zeros(-(-self.nbits // 64) + 1, dtype=np.uint64)

    def write(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """OR fields ``values`` (``uint64``, each in its low ``lengths`` bits,
        nothing above) into the words; returns each field's exclusive end
        bit offset (``int64``).

        ``lengths`` are ``int64`` in [1, 64].  Field ``i`` ends in word
        ``(end_i - 1) >> 6`` with ``r_i = (-end_i) & 63`` bits of that word
        after it, so it contributes ``values << r`` there and, when it starts
        in the previous word, ``values >> (64 - r)`` to that one (NumPy
        shifts of 64 give 0).  No field is longer than a word, so the end
        word steps by at most one per field: every word of the run gets the
        OR of the low parts of a contiguous field range
        (``bitwise_or.reduceat``), and only the first field of each range
        can spill into the word before.
        """
        if values.size == 0:
            return np.zeros(0, dtype=np.int64)
        ends = np.cumsum(lengths)
        ends += self.end
        q = ends + 63  # q >> 6: word of the field's last bit, past the guard
        slot = q >> 6
        r = (~q & 63).view(np.uint64)
        first = np.flatnonzero(slot[1:] != slot[:-1])
        first += 1
        first = np.concatenate(([0], first))
        s0, s1 = int(slot[0]), int(slot[-1]) + 1
        self.words[s0:s1] |= np.bitwise_or.reduceat(values << r, first)
        self.words[s0 - 1 : s1 - 1] |= values[first] >> (64 - r[first])
        self.end = int(ends[-1])
        return ends

    def tobytes(self) -> bytes:
        """The packed payload: ``ceil(nbits / 8)`` bytes, MSB first."""
        return self.words[1:].astype(">u8").tobytes()[: (self.nbits + 7) // 8]


def pack_bitfields(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length bitfields into a packed bitstream.

    ``values[i]`` holds the field in its low ``lengths[i]`` bits (higher
    bits are ignored); fields are emitted MSB-first in index order, through
    one :class:`BitfieldWriter`.  Lengths must be in [0, 64].  Returns
    ``(packed_bytes, total_bits)``.
    """
    values = np.asarray(values)
    lengths = np.asarray(lengths)
    if values.shape != lengths.shape:
        raise ValueError("values and lengths must have identical shapes")
    if values.size == 0:
        return b"", 0
    if int(lengths.min()) < 0 or int(lengths.max()) > 64:
        raise ValueError("bitfield lengths must be in [0, 64]")
    keep = lengths > 0
    lengths = lengths[keep].astype(np.int64)
    values = values[keep].astype(np.uint64)
    # (1 << 64) is 0 in uint64, so a 64-bit field keeps all its bits.
    values &= (np.uint64(1) << lengths.view(np.uint64)) - np.uint64(1)
    writer = BitfieldWriter(int(lengths.sum()))
    writer.write(values, lengths)
    return writer.tobytes(), writer.nbits


def unpack_bitfields(buf: bytes, lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bitfields` given the per-field lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return np.zeros(0, dtype=np.uint64)
    total = int(lengths.sum())
    bits = bytes_to_bits(buf, total).astype(np.uint64)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    out = np.zeros(lengths.size, dtype=np.uint64)
    maxlen = int(lengths.max())
    for plane in range(maxlen):
        active = lengths > plane
        if not active.any():
            break
        out[active] = (out[active] << np.uint64(1)) | bits[starts[active] + plane]
    return out


def pad_stream_for_windows(stream: np.ndarray | bytes) -> np.ndarray:
    """Zero-pad a packed byte stream for :func:`extract_bit_windows`.

    Callers that extract windows repeatedly (the chunk-parallel Huffman
    decoder peeks once per decoded symbol) pad once up front and pass
    ``prepadded=True``, instead of paying a full-stream copy per call.
    """
    stream = (
        np.frombuffer(stream, dtype=np.uint8)
        if isinstance(stream, (bytes, bytearray, memoryview))
        else np.asarray(stream, dtype=np.uint8)
    )
    padded = np.zeros(stream.size + 4, dtype=np.uint8)
    padded[: stream.size] = stream
    return padded


def extract_bit_windows(
    stream: np.ndarray, bit_offsets: np.ndarray, width: int, prepadded: bool = False
) -> np.ndarray:
    """Read a ``width``-bit big-endian window at each ``bit_offsets`` position.

    ``stream`` is the packed byte array; windows may start at any bit.  Used by
    the chunk-parallel Huffman decoder, which peeks ``max_code_length`` bits at
    the head of every active chunk simultaneously.  Windows running past the
    end of the stream are zero-padded on the right, as the decoder only ever
    consumes the valid prefix.

    With ``prepadded=True`` the caller asserts ``stream`` already came from
    :func:`pad_stream_for_windows` (4 trailing zero bytes), skipping the
    defensive copy — the difference between O(stream) and O(windows) per call.

    Returns ``uint32`` windows (``width`` must be <= 24 so that any bit-aligned
    window fits in 4 consecutive bytes).
    """
    if width <= 0 or width > 24:
        raise ValueError("window width must be in [1, 24]")
    offs = np.asarray(bit_offsets, dtype=np.int64)
    if prepadded:
        padded = np.asarray(stream, dtype=np.uint8)
    else:
        padded = pad_stream_for_windows(stream)
    byte_idx = offs >> 3
    bit_in_byte = (offs & 7).astype(np.uint32)
    b0 = padded[byte_idx].astype(np.uint32)
    b1 = padded[byte_idx + 1].astype(np.uint32)
    b2 = padded[byte_idx + 2].astype(np.uint32)
    b3 = padded[byte_idx + 3].astype(np.uint32)
    word = (b0 << np.uint32(24)) | (b1 << np.uint32(16)) | (b2 << np.uint32(8)) | b3
    word = word << bit_in_byte  # drop leading bits before the window
    return word >> np.uint32(32 - width)


def popcount_bytes(buf: np.ndarray) -> int:
    """Total number of set bits in a ``uint8`` array (vectorized popcount)."""
    arr = np.asarray(buf, dtype=np.uint8)
    if arr.size == 0:
        return 0
    return int(np.unpackbits(arr).sum())
