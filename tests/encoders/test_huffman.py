"""Chunk-parallel canonical Huffman codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders import huffman
from repro.encoders.bitio import extract_bit_windows, pad_stream_for_windows
from repro.encoders.huffman import (
    HuffmanCodec,
    canonical_codes,
    code_lengths_from_frequencies,
)

_HEADER = struct.calcsize("<QIQ")


def _two_table_lut(lengths: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's own flat 2^L tables: window -> symbol, window -> length
    (the codec's separate symbol and length tables before they merged)."""
    codes = canonical_codes(lengths)
    lut_sym = np.zeros(1 << L, dtype=np.uint8)
    lut_len = np.ones(1 << L, dtype=np.uint8)
    for s in range(256):
        l = int(lengths[s])
        if l == 0:
            continue
        base = int(codes[s]) << (L - l)
        span = 1 << (L - l)
        lut_sym[base : base + span] = s
        lut_len[base : base + span] = l
    return lut_sym, lut_len


def _lockstep_decode(buf: bytes) -> bytes:
    """Reference decoder: one symbol per chunk per iteration, for
    ``chunk_size`` iterations (the codec's decoder before sub-chunking)."""
    n, chunk_size, nbits = struct.unpack_from("<QIQ", buf, 0)
    lengths = np.frombuffer(buf, dtype=np.uint8, count=256, offset=_HEADER)
    if n == 0:
        return b""
    nchunks = (n + chunk_size - 1) // chunk_size
    offsets = np.frombuffer(buf, dtype=np.uint64, count=nchunks - 1, offset=_HEADER + 256)
    payload = np.frombuffer(buf, dtype=np.uint8, offset=_HEADER + 256 + offsets.nbytes)
    L = int(lengths.max())
    lut_sym, lut_len = _two_table_lut(lengths, L)
    pos = np.zeros(nchunks, dtype=np.int64)
    pos[1:] = offsets.astype(np.int64)
    out = np.zeros((nchunks, chunk_size), dtype=np.uint8)
    padded = pad_stream_for_windows(payload)
    for it in range(min(chunk_size, n)):
        win = extract_bit_windows(padded, pos, L, prepadded=True)
        out[:, it] = lut_sym[win]
        pos += lut_len[win]
        np.minimum(pos, int(nbits), out=pos)
    return out.reshape(-1)[:n].tobytes()


class TestCodeLengths:
    def test_empty_histogram(self):
        lengths = code_lengths_from_frequencies(np.zeros(256, np.int64))
        assert (lengths == 0).all()

    def test_single_symbol_gets_one_bit(self):
        freq = np.zeros(256, np.int64)
        freq[42] = 1000
        lengths = code_lengths_from_frequencies(freq)
        assert lengths[42] == 1
        assert lengths.sum() == 1

    def test_kraft_inequality(self, rng):
        freq = rng.integers(0, 1000, 256)
        lengths = code_lengths_from_frequencies(freq)
        kraft = sum(2.0 ** -int(l) for l in lengths if l > 0)
        assert kraft <= 1.0 + 1e-12

    def test_length_limit_enforced(self):
        # Fibonacci-like frequencies force very deep trees without limiting.
        freq = np.zeros(256, np.int64)
        a, b = 1, 1
        for i in range(40):
            freq[i] = a
            a, b = b, a + b
        lengths = code_lengths_from_frequencies(freq, max_len=16)
        assert lengths.max() <= 16
        kraft = sum(2.0 ** -int(l) for l in lengths if l > 0)
        assert kraft <= 1.0 + 1e-12

    def test_more_frequent_not_longer(self, rng):
        freq = rng.integers(1, 10_000, 256)
        lengths = code_lengths_from_frequencies(freq).astype(int)
        # A strictly more frequent symbol never gets a longer code; equally
        # frequent ones may differ by the tree's tie-breaking.
        more = freq[:, None] > freq[None, :]
        assert (lengths[:, None] <= lengths[None, :])[more].all()


class TestCanonicalCodes:
    def test_prefix_free(self):
        freq = np.zeros(256, np.int64)
        freq[:8] = [50, 30, 10, 5, 3, 1, 1, 1]
        lengths = code_lengths_from_frequencies(freq)
        codes = canonical_codes(lengths)
        entries = [
            (format(int(codes[s]), f"0{int(lengths[s])}b"))
            for s in range(256)
            if lengths[s] > 0
        ]
        for i, a in enumerate(entries):
            for j, b in enumerate(entries):
                if i != j:
                    assert not b.startswith(a), f"{a} prefixes {b}"


class TestCodecRoundtrip:
    @pytest.mark.parametrize("n", [0, 1, 7, 4096, 4097, 50_000])
    def test_sizes_and_chunk_boundaries(self, n, rng):
        data = rng.integers(0, 32, n).astype(np.uint8).tobytes()
        codec = HuffmanCodec(chunk_size=4096)
        assert codec.decode(codec.encode(data)) == data

    def test_single_symbol_stream(self):
        data = b"\x80" * 10_000
        codec = HuffmanCodec()
        enc = codec.encode(data)
        assert codec.decode(enc) == data
        # 1 bit/symbol + table: ~1250 bytes of payload.
        assert len(enc) < 2000

    def test_skewed_stream_compresses(self, quantcode_bytes):
        codec = HuffmanCodec()
        enc = codec.encode(quantcode_bytes)
        assert len(enc) < len(quantcode_bytes) / 2
        assert codec.decode(enc) == quantcode_bytes

    def test_incompressible_stream(self, rng):
        data = rng.integers(0, 256, 20_000).astype(np.uint8).tobytes()
        codec = HuffmanCodec()
        enc = codec.encode(data)
        assert codec.decode(enc) == data
        assert len(enc) < len(data) * 1.2

    def test_small_chunks(self, rng):
        data = rng.integers(0, 5, 1000).astype(np.uint8).tobytes()
        codec = HuffmanCodec(chunk_size=64)
        assert codec.decode(codec.encode(data)) == data

    def test_all_256_symbols(self):
        data = bytes(range(256)) * 20
        codec = HuffmanCodec()
        assert codec.decode(codec.encode(data)) == data

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=5000))
    def test_property_roundtrip(self, data):
        codec = HuffmanCodec(chunk_size=512)
        assert codec.decode(codec.encode(data)) == data


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            HuffmanCodec(chunk_size=0)
        with pytest.raises(ValueError):
            HuffmanCodec(max_len=30)


def _sixteen_bit_stream(gen) -> bytes:
    """All 256 symbols, with frequencies skewed enough for 16-bit codes."""
    counts = np.ones(256, np.int64)
    counts[:15] = [2 ** (15 - i) for i in range(15)]
    data = gen.permutation(np.repeat(np.arange(256, dtype=np.uint8), counts))
    return data.tobytes()


@pytest.fixture
def gen():
    """A private generator, so these tests leave the shared ``rng`` alone."""
    return np.random.default_rng(20240613)


@pytest.fixture(params=["subchunks", "lockstep"])
def decode_path(request, monkeypatch):
    """Run a test once per decode path: the sub-chunked decode for short
    payloads, and the one-lane-per-chunk loop for long ones."""
    if request.param == "lockstep":
        monkeypatch.setattr(huffman, "SUBCHUNK_BREAK_EVEN", 0)
    else:
        monkeypatch.setattr(huffman, "SUBCHUNK_BREAK_EVEN", 1 << 40)
    return request.param


class TestDecodeMatchesLockstepOracle:
    """The decoder must return exactly what the lockstep reference does."""

    @staticmethod
    def check(data: bytes, chunk_size: int = 4096) -> None:
        enc = HuffmanCodec(chunk_size=chunk_size).encode(data)
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == data

    @pytest.mark.parametrize("chunk_size", [64, 4096])
    @pytest.mark.parametrize("nchunks", [1, 2, 255, 256, 257])
    def test_chunk_counts(self, nchunks, chunk_size, gen, decode_path):
        n = nchunks * chunk_size - chunk_size // 3
        self.check(gen.integers(0, 24, n).astype(np.uint8).tobytes(), chunk_size)

    @pytest.mark.parametrize("chunk_size", [8, 64, 4096])
    @pytest.mark.parametrize("n", [1, 5, 15, 16, 17])
    def test_fewer_symbols_than_a_subchunk(self, n, chunk_size, gen, decode_path):
        self.check(gen.integers(0, 7, n).astype(np.uint8).tobytes(), chunk_size)

    @pytest.mark.parametrize("chunk_size", [64, 4096])
    @pytest.mark.parametrize("chunks", [1, 3])
    def test_one_symbol_past_a_chunk_boundary(self, chunks, chunk_size, gen, decode_path):
        n = chunks * chunk_size + 1
        self.check(gen.integers(0, 40, n).astype(np.uint8).tobytes(), chunk_size)

    @pytest.mark.parametrize("chunk_size", [64, 4096])
    @pytest.mark.parametrize("n", [1, 100, 9000])
    def test_single_symbol_stream(self, n, chunk_size, decode_path):
        self.check(b"\xa5" * n, chunk_size)

    def test_all_symbols_with_16_bit_codes(self, gen, decode_path):
        data = _sixteen_bit_stream(gen)
        lengths = HuffmanCodec().encode(data)[_HEADER : _HEADER + 256]
        assert max(lengths) == 16 and min(lengths) >= 1
        self.check(data)

    @pytest.mark.parametrize(
        "name, shape, eb",
        [("jhtdb", (32, 32, 32), 1e-3), ("cesm-atm", (96, 192), 1e-3), ("rtm", (64, 64, 64), 1e-4)],
    )
    def test_cr_quant_code_streams(self, name, shape, eb, decode_path, cr_quant_codes):
        self.check(cr_quant_codes(name, shape, eb))

    def test_quantcode_fixture(self, quantcode_bytes, decode_path):
        self.check(quantcode_bytes)


def _fibonacci_stream(gen, nsym: int) -> bytes:
    """``nsym`` symbols with Fibonacci frequencies: code lengths 1..nsym-1."""
    counts, a, b = [], 1, 1
    for _ in range(nsym):
        counts.append(a)
        a, b = b, a + b
    data = np.repeat(np.arange(nsym, dtype=np.uint8), counts[::-1])
    return gen.permutation(data).tobytes()


class TestTablePath:
    """The sub-chunked decode reads one table entry per payload bit; it must
    match the lockstep oracle at every code length the header allows."""

    @pytest.fixture(autouse=True)
    def table_path(self, monkeypatch):
        monkeypatch.setattr(huffman, "SUBCHUNK_BREAK_EVEN", 1 << 40)

    @pytest.mark.parametrize("max_len", [17, 20, 24])
    def test_long_codes(self, max_len, gen):
        data = _fibonacci_stream(gen, max_len + 1)
        enc = HuffmanCodec(max_len=24).encode(data)
        assert max(enc[_HEADER : _HEADER + 256]) == max_len
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == data

    @pytest.mark.parametrize("chunk_size", [8, 64, 4096])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 4096, 4097, 20_000])
    def test_single_symbol_streams(self, n, chunk_size):
        data = b"\x00" * n
        enc = HuffmanCodec(chunk_size=chunk_size).encode(data)
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == data


def test_small_stream_decode_makes_few_window_calls(gen, monkeypatch):
    """An 8-chunk (32^3-sized) stream decodes from the per-bit table: the
    SUBCHUNK lockstep iterations gather table entries, and no iteration
    extracts bit windows."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return extract_bit_windows(*args, **kwargs)

    data = gen.integers(0, 12, 32**3).astype(np.uint8).tobytes()
    enc = HuffmanCodec().encode(data)
    monkeypatch.setattr(huffman, "extract_bit_windows", counting)
    assert HuffmanCodec().decode(enc) == data
    assert not calls


class TestMalformedHeaders:
    """Bad headers raise ValueError, never IndexError or garbage output."""

    @pytest.fixture
    def stream(self, gen):
        data = gen.integers(0, 20, 3 * 4096 + 7).astype(np.uint8).tobytes()
        return bytearray(HuffmanCodec().encode(data))

    @staticmethod
    def set_offset(buf: bytearray, i: int, value: int) -> None:
        struct.pack_into("<Q", buf, _HEADER + 256 + 8 * i, value)

    def test_decreasing_offsets(self, stream, decode_path):
        first = struct.unpack_from("<Q", stream, _HEADER + 256)[0]
        self.set_offset(stream, 1, first - 1)
        with pytest.raises(ValueError, match="non-decreasing"):
            HuffmanCodec().decode(bytes(stream))

    @pytest.mark.parametrize("past", [1, 1 << 40, (1 << 64) - 1])
    def test_offset_past_nbits(self, stream, past, decode_path):
        nbits = struct.unpack_from("<Q", stream, 12)[0]
        self.set_offset(stream, 2, min(nbits + past, (1 << 64) - 1))
        with pytest.raises(ValueError, match="at most"):
            HuffmanCodec().decode(bytes(stream))

    def test_nbits_beyond_payload(self, stream, decode_path):
        payload_bytes = len(stream) - (_HEADER + 256 + 3 * 8)
        struct.pack_into("<Q", stream, 12, 8 * payload_bytes + 1)
        with pytest.raises(ValueError, match="payload"):
            HuffmanCodec().decode(bytes(stream))

    def test_more_symbols_than_bits(self, stream):
        struct.pack_into("<Q", stream, 0, 1 << 40)
        with pytest.raises(ValueError, match="symbols"):
            HuffmanCodec().decode(bytes(stream))

    def test_code_length_past_the_limit(self, stream):
        stream[_HEADER] = 40
        with pytest.raises(ValueError, match="code lengths"):
            HuffmanCodec().decode(bytes(stream))

    def test_zero_chunk_size(self, stream):
        struct.pack_into("<I", stream, 8, 0)
        with pytest.raises(ValueError, match="chunk size"):
            HuffmanCodec().decode(bytes(stream))


def test_compression_tracks_entropy(rng):
    """Huffman rate must sit within ~1 bit/symbol of the source entropy."""
    probs = np.array([0.7, 0.15, 0.1, 0.04, 0.01])
    n = 100_000
    data = rng.choice(5, size=n, p=probs).astype(np.uint8).tobytes()
    entropy = -(probs * np.log2(probs)).sum()
    enc = HuffmanCodec().encode(data)
    rate = 8 * len(enc) / n
    assert entropy - 0.01 <= rate <= entropy + 1.1
