"""LC-framework-style lossless components (paper §5.2.2–§5.2.3, Fig. 6/7).

The LC framework [Azami et al., ASPLOS'25] composes lossless compressors from
three component classes — *mutators* (reversible transforms, same size),
*shufflers* (reversible permutations) and *reducers* (size-changing stages).
cuSZ-Hi adopts the ``HF-RRE4-TCMS8-RZE1`` pipeline for its CR mode and
``TCMS1-BIT1-RRE1`` for its TP mode.  The numeric suffix is the per-symbol
width in bytes (Fig. 7 caption).

Components implemented here:

==========  =========  ====================================================
name        class      semantics
==========  =========  ====================================================
``TCMSn``   mutator    two's complement -> magnitude-sign (zigzag):
                       ``(w << 1) ^ (w >> (8n-1))``
``BITn``    shuffler   bit shuffle: transpose the (symbols x bits) matrix
``DIFFn``   mutator    wrapping delta against the previous symbol
``DIFFMSn`` mutator    delta followed by zigzag
``TUPLDn``  shuffler   duo-tuple transpose: de-interleave symbol pairs
``TUPLQn``  shuffler   quad-tuple transpose: de-interleave symbol quads
``RREn``    reducer    drop symbols equal to their predecessor; a presence
                       bitmap (recursively RRE-compressed) is appended
``RZEn``    reducer    drop zero symbols; presence bitmap appended
``CLOGn``   reducer    per-256-symbol-block ceil-log2 bit packing
==========  =========  ====================================================

Every component is self-describing: ``encode`` output embeds whatever header
``decode`` needs, so pipelines can be chained blindly on byte strings.
GPU kernels for these stages are element-parallel scatters/gathers; here every
stage is a handful of whole-array NumPy operations, on the widest unit that
keeps the layout: ``BITn`` transposes 8x8 bit matrices held in ``uint64``
words (never one byte per bit), and ``RREn`` rebuilds dropped symbols with
one ``np.repeat`` over the run lengths (never a per-symbol index).
"""

from __future__ import annotations

import struct

import numpy as np

from .bitio import bits_to_bytes, bytes_to_bits

__all__ = [
    "Component",
    "TCMS",
    "BIT",
    "DIFF",
    "DIFFMS",
    "TUPLD",
    "TUPLQ",
    "RRE",
    "RZE",
    "CLOG",
    "make_component",
    "COMPONENT_FACTORIES",
]

_UINT = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_INT = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}


def _as_symbols(buf: bytes, width: int) -> tuple[np.ndarray, int]:
    """View ``buf`` as little-endian ``width``-byte unsigned symbols.

    Returns ``(symbols, tail_bytes)`` where the tail is the remainder that
    does not fill a whole symbol (carried through stages verbatim).
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    nsym = arr.size // width
    head = arr[: nsym * width]
    syms = head.view(_UINT[width]) if width > 1 else head.copy()
    return np.ascontiguousarray(syms), arr.size - nsym * width


def _sym_bytes(syms: np.ndarray, tail: bytes) -> bytes:
    return syms.astype(syms.dtype, copy=False).tobytes() + tail


class Component:
    """Base class: a reversible byte-stream stage with a symbol width."""

    #: short mnemonic, e.g. ``"RRE"``
    kind: str = "?"
    #: True if the stage can shrink its input
    is_reducer: bool = False

    def __init__(self, width: int):
        if width not in _UINT:
            raise ValueError(f"unsupported symbol width {width}")
        self.width = width

    @property
    def name(self) -> str:
        return f"{self.kind}{self.width}"

    def encode(self, buf: bytes) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def decode(self, buf: bytes) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.name}>"


# --------------------------------------------------------------------- TCMS
class TCMS(Component):
    """Two's complement -> magnitude-sign mutator (zigzag transform).

    ``(word << 1) ^ (word >> (bits-1))`` maps small-magnitude signed values
    (...,-2,-1,0,1,2,...) to small unsigned values (...,3,1,0,2,4,...), piling
    ones into the low bits so that the subsequent BIT shuffle concentrates
    entropy in few bit planes (paper §5.2.3).
    """

    kind = "TCMS"

    def encode(self, buf: bytes) -> bytes:
        syms, ntail = _as_symbols(buf, self.width)
        s = syms.view(_INT[self.width])
        # Python-int shift counts keep the array dtype (no uint8 promotion).
        out = ((syms << 1) ^ (s >> (8 * self.width - 1)).view(_UINT[self.width])).astype(
            _UINT[self.width]
        )
        return _sym_bytes(out, buf[len(buf) - ntail :])

    def decode(self, buf: bytes) -> bytes:
        syms, ntail = _as_symbols(buf, self.width)
        sign = (syms & 1).astype(_UINT[self.width])
        mag = (syms >> 1).astype(_UINT[self.width])
        out = (mag ^ (np.zeros_like(mag) - sign)).astype(_UINT[self.width])
        return _sym_bytes(out, buf[len(buf) - ntail :])


# ---------------------------------------------------------------------- BIT
#: masks of the three swap steps (4x4 blocks, 2x2 blocks, single bits)
_K4 = np.uint64(0xF0F0F0F00F0F0F0F)
_K2 = np.uint64(0xCCCC0000CCCC0000)
_K1 = np.uint64(0xAA00AA00AA00AA00)


def _transpose8x8(w: np.ndarray) -> None:
    """Transpose the 8x8 bit matrix of every little-endian ``uint64``, in place.

    Row ``r`` is byte ``r`` and column ``c`` its bit ``7 - c`` (MSB first),
    so the transpose is a flip about the anti-diagonal of the word's bits:
    eight symbols' bytes go in, eight bytes of their bit planes come out.
    It is its own inverse.
    """
    t = w ^ (w << 36)
    w ^= _K4 & (t ^ (w >> 36))
    t = _K2 & (w ^ (w << 18))
    w ^= t ^ (t >> 18)
    t = _K1 & (w ^ (w << 9))
    w ^= t ^ (t >> 9)


class BIT(Component):
    """Bit shuffle: regroup the i-th bit of every symbol contiguously.

    After TCMS the high bit planes are almost constant; shuffling turns them
    into long identical byte runs that the following RRE stage collapses.
    Plane ``q = 8*byte + bit`` (MSB first) holds bit ``q`` of every symbol
    and starts at bit ``q * nsym`` of the body.  Both directions run on
    64-bit words: the bytes of one byte lane of 8 consecutive symbols form
    an 8x8 bit matrix, and transposing it yields 8 bytes of 8 planes.  A
    symbol count that is not a multiple of 8 is padded for the transpose,
    then the planes are compacted to their bit offsets.  A 12-byte header
    records the payload geometry; input that does not fill a whole symbol
    is carried as an uncompressed tail.
    """

    kind = "BIT"

    def encode(self, buf: bytes) -> bytes:
        arr = np.frombuffer(buf, dtype=np.uint8)
        nsym = arr.size // self.width
        tail = arr[nsym * self.width :]
        groups = -(-nsym // 8)
        # (group, symbol, lane) -> (group, lane, symbol): one word per lane
        rows = np.zeros((8 * groups, self.width), dtype=np.uint8)
        rows[:nsym] = arr[: nsym * self.width].reshape(nsym, self.width)
        words = np.ascontiguousarray(rows.reshape(groups, 8, self.width).transpose(0, 2, 1))
        _transpose8x8(words.view("<u8"))
        # (group, lane, plane bit) -> (lane, plane bit, group): plane-major
        planes = words.reshape(groups, 8 * self.width).T
        header = struct.pack("<QI", nsym, len(tail))
        return header + _compact_planes(planes, nsym).tobytes() + tail.tobytes()

    def decode(self, buf: bytes) -> bytes:
        nsym, ntail = struct.unpack_from("<QI", buf, 0)
        off = struct.calcsize("<QI")
        nbody = nsym * self.width
        body = np.frombuffer(buf, dtype=np.uint8, count=nbody, offset=off)
        tail = buf[off + nbody : off + nbody + ntail]
        groups = -(-nsym // 8)
        planes = _expand_planes(body, nsym, 8 * self.width)
        words = planes.T.copy().reshape(groups, self.width, 8)
        _transpose8x8(words.view("<u8"))
        rows = words.transpose(0, 2, 1).reshape(8 * groups, self.width)
        return rows[:nsym].tobytes() + tail


def _compact_planes(planes: np.ndarray, nsym: int) -> np.ndarray:
    """Pack ``(nplanes, ceil(nsym/8))`` byte-padded planes back to back.

    Plane ``q`` starts at bit ``q * nsym``; when ``nsym`` is a multiple of 8
    that is its byte offset already and this is a copy.
    """
    if nsym % 8 == 0:
        return np.ascontiguousarray(planes).reshape(-1)
    return np.packbits(np.unpackbits(planes, axis=1, count=nsym))


def _expand_planes(body: np.ndarray, nsym: int, nplanes: int) -> np.ndarray:
    """Inverse of :func:`_compact_planes`: one zero-padded byte row per plane."""
    if nsym % 8 == 0:
        return body.reshape(nplanes, nsym // 8)
    bits = np.unpackbits(body, count=nplanes * nsym).reshape(nplanes, nsym)
    return np.packbits(bits, axis=1)


# --------------------------------------------------------------------- DIFF
class DIFF(Component):
    """Wrapping first-order delta mutator; decode is a prefix sum."""

    kind = "DIFF"

    def encode(self, buf: bytes) -> bytes:
        syms, ntail = _as_symbols(buf, self.width)
        out = syms.copy()
        out[1:] = syms[1:] - syms[:-1]  # modular arithmetic on unsigned dtype
        return _sym_bytes(out, buf[len(buf) - ntail :])

    def decode(self, buf: bytes) -> bytes:
        syms, ntail = _as_symbols(buf, self.width)
        out = np.cumsum(syms, dtype=_UINT[self.width])
        return _sym_bytes(out, buf[len(buf) - ntail :])


class DIFFMS(Component):
    """Delta followed by magnitude-sign folding (LC's ``DIFFMS``)."""

    kind = "DIFFMS"

    def __init__(self, width: int):
        super().__init__(width)
        self._diff = DIFF(width)
        self._tcms = TCMS(width)

    def encode(self, buf: bytes) -> bytes:
        return self._tcms.encode(self._diff.encode(buf))

    def decode(self, buf: bytes) -> bytes:
        return self._diff.decode(self._tcms.decode(buf))


# -------------------------------------------------------------------- TUPLx
class _TUPL(Component):
    """De-interleave symbols into ``arity`` planes (shuffler).

    ``TUPLD`` (arity 2) and ``TUPLQ`` (arity 4) gather every 2nd/4th symbol
    together.  Interleaved record layouts (e.g. Huffman-coded chunk streams or
    struct-of-array data) become long homogeneous runs.
    """

    arity: int = 2

    def encode(self, buf: bytes) -> bytes:
        syms, ntail = _as_symbols(buf, self.width)
        ntup = syms.size // self.arity
        body = syms[: ntup * self.arity]
        rest = syms[ntup * self.arity :]
        planes = body.reshape(ntup, self.arity).T
        header = struct.pack("<QBI", ntup, rest.size, ntail)
        return header + np.ascontiguousarray(planes).tobytes() + rest.tobytes() + buf[len(buf) - ntail :]

    def decode(self, buf: bytes) -> bytes:
        ntup, nrest, ntail = struct.unpack_from("<QBI", buf, 0)
        off = struct.calcsize("<QBI")
        nbody = ntup * self.arity * self.width
        body = np.frombuffer(buf, dtype=_UINT[self.width], count=ntup * self.arity, offset=off)
        rest = buf[off + nbody : off + nbody + nrest * self.width]
        tail = buf[off + nbody + nrest * self.width :]
        syms = np.ascontiguousarray(body.reshape(self.arity, ntup).T)
        return syms.tobytes() + rest + tail


class TUPLD(_TUPL):
    kind = "TUPLD"
    arity = 2


class TUPLQ(_TUPL):
    kind = "TUPLQ"
    arity = 4


# ------------------------------------------------------------------ bitmaps
#: rounds of byte-level RRE a bitmap may be nested under (each undone round
#: can expand its input up to 8x, so decode refuses deeper headers)
_MAX_BITMAP_DEPTH = 4


def _compress_bitmap(bits: np.ndarray) -> bytes:
    """Recursively compress a presence bitmap (paper: RRE "compresses the
    bitmap recursively").

    The packed bitmap bytes are themselves run-reduced (byte-level RRE) until
    the representation stops shrinking; a depth byte records how many rounds
    to undo.  Near-constant bitmaps (almost-all-kept or almost-all-dropped
    streams) collapse geometrically.
    """
    payload = np.packbits(bits).tobytes()
    nbits = bits.size
    depth = 0
    while depth < _MAX_BITMAP_DEPTH and len(payload) > 64:
        nxt = _rre_bytes_encode(payload)
        if len(nxt) >= len(payload):
            break
        payload = nxt
        depth += 1
    return struct.pack("<QB", nbits, depth) + payload


def _decompress_bitmap(buf: bytes) -> tuple[np.ndarray, int]:
    """Inverse of :func:`_compress_bitmap`; returns ``(bits, bytes_consumed)``."""
    nbits, depth = struct.unpack_from("<QB", buf, 0)
    if depth > _MAX_BITMAP_DEPTH:
        raise ValueError(f"bitmap nested {depth} rounds deep (at most {_MAX_BITMAP_DEPTH})")
    off = struct.calcsize("<QB")
    # The payload length is self-delimiting through the nested RRE headers;
    # at depth 0 it is ceil(nbits/8) bytes.
    if depth == 0:
        plen = (nbits + 7) // 8
        payload = buf[off : off + plen]
        consumed = off + plen
    else:
        payload, inner = _rre_bytes_measure(buf[off:], depth)
        consumed = off + inner
        for _ in range(depth):
            payload = _rre_bytes_decode(payload)
    if nbits > 8 * len(payload):
        # unpackbits(count=nbits) would zero-pad to the declared size.
        raise ValueError(f"bitmap declares {nbits} bits but carries {len(payload)} bytes")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)
    return bits, consumed


def _rre_bytes_encode(buf: bytes) -> bytes:
    """One byte-level RRE round used for recursive bitmap compression.

    Layout: ``u64 n_in, u64 n_kept, bitmap(ceil(n/8)), kept bytes``.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    if arr.size == 0:
        return struct.pack("<QQ", 0, 0)
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    kept = arr[keep]
    return struct.pack("<QQ", arr.size, kept.size) + np.packbits(keep).tobytes() + kept.tobytes()


def _rre_bytes_decode(buf: bytes) -> bytes:
    n, nkept = struct.unpack_from("<QQ", buf, 0)
    off = 16
    if n == 0:
        return b""
    bmap_len = (n + 7) // 8
    keep = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, count=bmap_len, offset=off), count=n)
    off += bmap_len
    kept = np.frombuffer(buf, dtype=np.uint8, count=nkept, offset=off)
    return _fill_runs(keep, kept).tobytes()


def _fill_runs(keep: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Repeat each kept symbol up to the next set bit of the 0/1 ``keep``.

    ``keep[0]`` must be set and the set bits must number ``kept.size``.
    """
    starts = np.flatnonzero(keep.view(bool))  # ~10x faster than on uint8
    if starts.size != kept.size or (starts.size and starts[0] != 0):
        raise ValueError(
            f"run bitmap marks {starts.size} kept symbols (first at "
            f"{starts[0] if starts.size else None}), but {kept.size} are stored"
        )
    return np.repeat(kept, np.diff(starts, append=keep.size))


def _rre_bytes_measure(buf: bytes, depth: int) -> tuple[bytes, int]:
    """Extract the byte span of a depth-``depth`` nested RRE payload."""
    # Walk the outermost header to find the end of this round's payload.
    n, nkept = struct.unpack_from("<QQ", buf, 0)
    size = 16 + ((n + 7) // 8 if n else 0) + nkept
    return buf[:size], size


# ----------------------------------------------------------------- RRE / RZE
class _MaskReducer(Component):
    """Shared machinery of RRE (repeat elimination) and RZE (zero elimination).

    Encode layout: ``u32 tail_len, bitmap blob, kept symbols, tail``.
    Decode rebuilds dropped symbols from the mask: RRE repeats each kept
    symbol over its run (``np.repeat`` by the distances between set bits);
    RZE fills zeros.
    """

    is_reducer = True

    def _mask(self, syms: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _fill(self, bits: np.ndarray, kept: np.ndarray) -> np.ndarray:  # pragma: no cover
        """All ``bits.size`` symbols, from the 0/1 mask and the kept ones."""
        raise NotImplementedError

    def encode(self, buf: bytes) -> bytes:
        syms, ntail = _as_symbols(buf, self.width)
        tail = buf[len(buf) - ntail :] if ntail else b""
        if syms.size == 0:
            return struct.pack("<I", ntail) + _compress_bitmap(np.zeros(0, dtype=np.uint8)) + tail
        mask = self._mask(syms)
        kept = syms[mask]
        blob = _compress_bitmap(mask.astype(np.uint8))
        return struct.pack("<I", ntail) + blob + kept.tobytes() + tail

    def decode(self, buf: bytes) -> bytes:
        (ntail,) = struct.unpack_from("<I", buf, 0)
        bits, consumed = _decompress_bitmap(buf[4:])
        off = 4 + consumed
        kept_bytes_end = len(buf) - ntail
        kept = np.frombuffer(buf[off:kept_bytes_end], dtype=_UINT[self.width])
        return self._fill(bits, kept).tobytes() + buf[kept_bytes_end:]


class RRE(_MaskReducer):
    """Repeat-run elimination: drop symbols equal to their predecessor."""

    kind = "RRE"

    def _mask(self, syms: np.ndarray) -> np.ndarray:
        mask = np.empty(syms.size, dtype=bool)
        mask[0] = True
        np.not_equal(syms[1:], syms[:-1], out=mask[1:])
        return mask

    def _fill(self, bits: np.ndarray, kept: np.ndarray) -> np.ndarray:
        return _fill_runs(bits, kept)


class RZE(_MaskReducer):
    """Zero elimination: drop zero symbols, keep a presence bitmap."""

    kind = "RZE"

    def _mask(self, syms: np.ndarray) -> np.ndarray:
        return syms != 0

    def _fill(self, bits: np.ndarray, kept: np.ndarray) -> np.ndarray:
        out = np.zeros(bits.size, dtype=kept.dtype)
        out[bits.view(bool)] = kept
        return out


# --------------------------------------------------------------------- CLOG
class CLOG(Component):
    """Per-block ceil-log2 fixed-width bit packing (reducer).

    Symbols are grouped in blocks of 256; each block is stored with the
    minimum bit width that covers its maximum value (width byte + packed
    payload).  Streams dominated by small values compress toward the entropy
    of their magnitude distribution without any table.
    """

    kind = "CLOG"
    is_reducer = True
    block = 256

    def encode(self, buf: bytes) -> bytes:
        syms, ntail = _as_symbols(buf, self.width)
        tail = buf[len(buf) - ntail :] if ntail else b""
        n = syms.size
        nblocks = (n + self.block - 1) // self.block
        sym_bits = 8 * self.width
        padded = np.zeros(nblocks * self.block, dtype=_UINT[8] if self.width == 8 else np.uint64)
        padded[:n] = syms.astype(np.uint64)
        grid = padded.reshape(nblocks, self.block)
        maxv = grid.max(axis=1)
        widths = np.zeros(nblocks, dtype=np.uint8)
        nz = maxv > 0
        widths[nz] = np.floor(np.log2(maxv[nz].astype(np.float64))).astype(np.uint8) + 1
        widths = np.minimum(widths, sym_bits)
        # Emit each block at its own width: one vectorized bit-plane pass per
        # distinct width value present.
        total_bits = int((widths.astype(np.int64) * self.block).sum())
        bits = np.zeros(total_bits, dtype=np.uint8)
        block_starts = np.zeros(nblocks, dtype=np.int64)
        np.cumsum(widths[:-1].astype(np.int64) * self.block, out=block_starts[1:])
        for w in np.unique(widths):
            if w == 0:
                continue
            sel = widths == w
            vals = grid[sel]  # (k, block)
            starts = block_starts[sel]
            for b in range(int(w)):
                plane = ((vals >> np.uint64(w - 1 - b)) & np.uint64(1)).astype(np.uint8)
                # bit positions: start + elem_index*w + b
                pos = starts[:, None] + np.arange(self.block, dtype=np.int64)[None, :] * int(w) + b
                bits[pos.ravel()] = plane.ravel()
        header = struct.pack("<QI", n, ntail)
        return header + widths.tobytes() + bits_to_bytes(bits) + tail

    def decode(self, buf: bytes) -> bytes:
        n, ntail = struct.unpack_from("<QI", buf, 0)
        off = struct.calcsize("<QI")
        nblocks = (n + self.block - 1) // self.block
        widths = np.frombuffer(buf, dtype=np.uint8, count=nblocks, offset=off)
        off += nblocks
        total_bits = int((widths.astype(np.int64) * self.block).sum())
        payload_end = len(buf) - ntail
        bits = bytes_to_bits(buf[off:payload_end], total_bits).astype(np.uint64)
        block_starts = np.zeros(nblocks, dtype=np.int64)
        np.cumsum(widths[:-1].astype(np.int64) * self.block, out=block_starts[1:])
        grid = np.zeros((nblocks, self.block), dtype=np.uint64)
        for w in np.unique(widths):
            if w == 0:
                continue
            sel = widths == w
            starts = block_starts[sel]
            acc = np.zeros((int(sel.sum()), self.block), dtype=np.uint64)
            for b in range(int(w)):
                pos = starts[:, None] + np.arange(self.block, dtype=np.int64)[None, :] * int(w) + b
                acc = (acc << np.uint64(1)) | bits[pos]
            grid[sel] = acc
        syms = grid.reshape(-1)[:n].astype(_UINT[self.width])
        return syms.tobytes() + buf[payload_end:]


# ------------------------------------------------------------------ factory
COMPONENT_FACTORIES = {
    "TCMS": TCMS,
    "BIT": BIT,
    "DIFF": DIFF,
    "DIFFMS": DIFFMS,
    "TUPLD": TUPLD,
    "TUPLQ": TUPLQ,
    "RRE": RRE,
    "RZE": RZE,
    "CLOG": CLOG,
}


def make_component(spec: str) -> Component:
    """Instantiate a component from its mnemonic, e.g. ``"RRE4"`` or ``"TCMS8"``."""
    for kind in sorted(COMPONENT_FACTORIES, key=len, reverse=True):
        if spec.startswith(kind):
            width = int(spec[len(kind) :] or "1")
            return COMPONENT_FACTORIES[kind](width)
    raise ValueError(f"unknown component spec {spec!r}")
