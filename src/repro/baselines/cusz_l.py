"""cuSZ-L baseline: dual-quant Lorenzo predictor + Huffman encoding (§6.1.2).

The published cuSZ-L pipeline is Lorenzo extrapolation on the pre-quantized
integers followed by the coarse-grained GPU Huffman stage.  Residuals are
escape-folded to one-byte symbols (identical discipline to cuSZ-Hi §5.2.1);
escapes and saturation outliers travel as raw side arrays.
"""

from __future__ import annotations

import numpy as np

from ..encoders.pipelines import get_pipeline
from ..gpu.costmodel import pipeline_kernels
from ..gpu.kernel import KernelTrace
from ..predictor.lorenzo import lorenzo_decode, lorenzo_encode
from ..quantizer.folding import fold_residuals, unfold_residuals
from ..core.container import CompressedBlob
from ..api.registry import register_kernel
from ..core.compressor import resolve_error_bound

__all__ = ["CuszL"]


@register_kernel("cusz-l")
class CuszL:
    """Lorenzo + Huffman GPU compressor (cuSZ-L)."""

    pipeline_name = "HF"

    def __init__(self, eb_mode: str = "rel"):
        self.eb_mode = eb_mode
        self.last_comp_trace: KernelTrace | None = None
        self.last_decomp_trace: KernelTrace | None = None

    def compress(self, data: np.ndarray, eb: float) -> CompressedBlob:
        data = np.asarray(data)
        abs_eb = resolve_error_bound(data, eb, self.eb_mode)
        trace = KernelTrace()

        res = lorenzo_encode(data, abs_eb)
        trace.launch(
            "lorenzo",
            bytes_read=data.nbytes,
            bytes_written=res.residuals.nbytes,
            flops=data.size * (2 * data.ndim + 2),
            efficiency_class="streaming",
        )
        codes, escapes = fold_residuals(res.residuals, width=1)
        trace.launch("fold", codes.size * 4, codes.size, efficiency_class="streaming")

        pipeline = get_pipeline(self.pipeline_name)
        payload = pipeline.encode(codes.tobytes())
        trace.extend(pipeline_kernels(pipeline.last_trace))
        self.last_comp_trace = trace

        blob = CompressedBlob(
            codec=self.codec_id,
            shape=data.shape,
            dtype=data.dtype,
            error_bound=abs_eb,
            meta={"pipeline": self.pipeline_name, "eb_mode": self.eb_mode},
        )
        blob.segments["codes"] = payload
        blob.put_array("escapes", escapes)
        blob.put_array("outlier_pos", res.outlier_pos.astype(np.int64))
        blob.put_array("outlier_values", res.outlier_values)
        return blob

    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        trace = KernelTrace()
        pipeline = get_pipeline(blob.meta["pipeline"])
        codes = np.frombuffer(pipeline.decode(blob.segments["codes"]), dtype=np.uint8)
        trace.extend(pipeline_kernels(pipeline.last_decode_trace, decode=True))
        residuals = unfold_residuals(codes, blob.get_array("escapes"), width=1)
        out = lorenzo_decode(
            residuals,
            blob.shape,
            blob.error_bound,
            blob.dtype,
            blob.get_array("outlier_pos"),
            blob.get_array("outlier_values"),
        )
        trace.launch(
            "lorenzo-scan",
            bytes_read=residuals.nbytes,
            bytes_written=out.nbytes,
            flops=out.size * (len(blob.shape) + 2),
            efficiency_class="scan",
        )
        self.last_decomp_trace = trace
        return out
