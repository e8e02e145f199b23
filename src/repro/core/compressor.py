"""cuSZ-Hi compressor front end (paper §4): interpolation decomposition +
synergistic lossless orchestration, with both published modes and every
ablation increment exposed through :class:`~repro.core.config.CuszHiConfig`.

The compression pipeline is (Fig. 2, bottom row)::

    data --(auto-tuned multi-level interpolation)--> quant codes (uint8)
         --(Eq. 3 level reorder)--> 1-D code sequence
         --(HF+RRE4-TCMS8-RZE1 | TCMS1-BIT1-RRE1)--> payload

Anchors and outliers travel as raw segments.  A :class:`KernelTrace` of the
simulated GPU kernels is recorded on every call for the Fig. 10 throughput
model.
"""

from __future__ import annotations

import numpy as np

from ..encoders.pipelines import CR_PIPELINE, TP_PIPELINE, get_pipeline
from ..gpu.costmodel import pipeline_kernels
from ..gpu.kernel import KernelTrace
from ..predictor.autotune import autotune_levels
from ..predictor.interpolation import (
    InterpolationPredictor,
    LevelConfig,
    level_passes,
    level_strides,
)
from ..predictor.reorder import inverse_reorder, reorder
from ..api.registry import CODEC_IDS, register_kernel_class
from .config import CuszHiConfig
from .container import CompressedBlob

__all__ = ["CuszHi", "resolve_error_bound"]


def resolve_error_bound(data: np.ndarray, eb: float, eb_mode: str) -> float:
    """Translate a value-range-relative bound into the absolute bound.

    The paper's tables quote value-range-relative bounds: ``abs_eb = eb *
    (max - min)`` (§6.1.4).  A constant field gets an epsilon range so the
    bound stays positive.

    Examples
    --------
    >>> import numpy as np
    >>> data = np.array([0.0, 2.0, 10.0], dtype=np.float32)
    >>> resolve_error_bound(data, 1e-3, "rel")   # 1e-3 * (10 - 0)
    0.01
    >>> resolve_error_bound(data, 1e-3, "abs")   # absolute bounds pass through
    0.001
    >>> resolve_error_bound(data, -1.0, "abs")
    Traceback (most recent call last):
        ...
    ValueError: error bound must be positive
    """
    if eb <= 0:
        raise ValueError("error bound must be positive")
    if eb_mode == "abs":
        return float(eb)
    # Fast path: plain min/max propagate NaN/Inf, so a finite result proves
    # the whole field is finite without the isfinite mask + gather pass.
    if data.size:
        mx = float(np.max(data))
        mn = float(np.min(data))
    else:
        mx = mn = float("nan")
    if not (np.isfinite(mx) and np.isfinite(mn)):
        finite = data[np.isfinite(data)]
        if finite.size == 0:
            # A relative bound needs a value range; silently treating the
            # relative eb as absolute here (the old behavior) produced
            # arbitrarily wrong guarantees for empty/all-NaN fields.
            raise ValueError(
                "cannot resolve a relative error bound: the field has no "
                "finite values (use eb_mode='abs' for empty or all-NaN data)"
            )
        mx = float(finite.max())
        mn = float(finite.min())
    rng = mx - mn
    if rng == 0.0:
        rng = max(abs(mx), 1.0) * np.finfo(np.float32).eps
    return float(eb) * rng


def _encode_levels(configs: dict[int, LevelConfig]) -> str:
    return ";".join(f"{s}={cfg.encode()}" for s, cfg in sorted(configs.items(), reverse=True))


def _decode_levels(s: str) -> dict[int, LevelConfig]:
    out: dict[int, LevelConfig] = {}
    for part in s.split(";"):
        if not part:
            continue
        k, v = part.split("=")
        out[int(k)] = LevelConfig.decode(v)
    return out


class CuszHi:
    """High-ratio interpolation-based error-bounded compressor (cuSZ-Hi).

    Parameters
    ----------
    config:
        Full knob set; ``CuszHi(mode="cr")`` / ``CuszHi(mode="tp")`` select
        the two published modes.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import CuszHi
    >>> field = np.fromfunction(lambda i, j, k: np.sin(i/9)*np.cos(j/9)+k/64,
    ...                         (48, 48, 48), dtype=np.float32).astype(np.float32)
    >>> comp = CuszHi(mode="cr")
    >>> blob = comp.compress(field, eb=1e-3)
    >>> out = comp.decompress(blob)
    >>> bool(np.max(np.abs(field - out)) <= blob.error_bound)
    True
    """

    def __init__(self, config: CuszHiConfig | None = None, mode: str | None = None, **kwargs):
        if config is not None and (mode is not None or kwargs):
            raise ValueError("pass either a config object or mode/kwargs, not both")
        if config is None:
            base = CuszHiConfig()
            if mode is not None:
                if mode not in ("cr", "tp"):
                    raise ValueError("mode must be 'cr' or 'tp'")
                base = base.with_(pipeline=CR_PIPELINE if mode == "cr" else TP_PIPELINE)
            config = base.with_(**kwargs) if kwargs else base
        self.config = config
        self.last_comp_trace: KernelTrace | None = None
        self.last_decomp_trace: KernelTrace | None = None
        #: opt-in: when True, untiled compresses keep their reconstruction
        #: in :attr:`last_recon` (bit-identical to decompressing the blob),
        #: so streaming/temporal consumers skip a full decode round-trip.
        #: Off by default — a pinned full-field recon is real memory.
        self.retain_recon = False
        self.last_recon: np.ndarray | None = None

    # ----------------------------------------------------------- identity
    @property
    def codec_id(self) -> int:
        default = CuszHiConfig()
        cfg = self.config
        if cfg == default.with_(pipeline=CR_PIPELINE):
            return CODEC_IDS["cusz-hi-cr"]
        if cfg == default.with_(pipeline=TP_PIPELINE):
            return CODEC_IDS["cusz-hi-tp"]
        return CODEC_IDS["cusz-hi"]

    # ----------------------------------------------------------- compress
    def compress(self, data: np.ndarray, eb: float) -> CompressedBlob:
        """Compress ``data`` under the (mode-dependent) error bound ``eb``."""
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError("cuSZ-Hi compresses float32/float64 fields")
        cfg = self.config
        if cfg.tile_shape is not None:
            # Tiled fast path: fan tiles out across the configured executor;
            # the engine resolves the bound once on the full field so every
            # tile honors the exact untiled bound.
            from .tiling import TiledEngine

            engine = TiledEngine(config=cfg)
            frame = engine.compress(data, eb)
            self.last_comp_trace = engine.last_comp_trace
            self.last_recon = None  # per-tile recons are not assembled here
            return frame
        abs_eb = resolve_error_bound(data, eb, cfg.eb_mode)
        trace = KernelTrace()

        if cfg.autotune:
            level_cfgs = autotune_levels(
                data, cfg.anchor_stride, target_fraction=cfg.sample_fraction
            )
            sample_bytes = int(cfg.sample_fraction * data.nbytes) * 6
            trace.launch("autotune", sample_bytes, 64, flops=sample_bytes * 4, efficiency_class="gather")
        else:
            level_cfgs = {
                s: LevelConfig(cfg.scheme, cfg.spline) for s in level_strides(cfg.anchor_stride)
            }

        predictor = InterpolationPredictor(cfg.anchor_stride)
        res = predictor.compress(data, abs_eb, level_cfgs, keep_recon=self.retain_recon)
        self.last_recon = res.recon
        self._interp_kernels(trace, data.shape, data.itemsize, level_cfgs, cfg.anchor_stride)

        if cfg.reorder:
            seq = reorder(res.codes, cfg.anchor_stride)
            trace.launch("reorder", res.codes.size, res.codes.size, efficiency_class="shuffle")
        else:
            seq = res.codes.reshape(-1)

        pipeline = get_pipeline(cfg.pipeline)
        payload = pipeline.encode(seq.tobytes())
        trace.extend(pipeline_kernels(pipeline.last_trace))
        self.last_comp_trace = trace

        blob = CompressedBlob(
            codec=self.codec_id,
            shape=data.shape,
            dtype=data.dtype,
            error_bound=abs_eb,
            meta={
                "pipeline": cfg.pipeline,
                "levels": _encode_levels(res.level_configs),
                "anchor_stride": str(cfg.anchor_stride),
                "reorder": "1" if cfg.reorder else "0",
                "eb_mode": cfg.eb_mode,
                "eb_input": repr(float(eb)),
            },
        )
        blob.put_array("anchors", res.anchors)
        blob.put_array("outliers", res.outlier_values)
        blob.segments["codes"] = payload
        return blob

    # --------------------------------------------------------- decompress
    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        """Reconstruct the field from a cuSZ-Hi stream (any config)."""
        from .container import is_tiled

        if is_tiled(blob):
            from .tiling import TiledEngine

            engine = TiledEngine(config=self.config)
            out = engine.decompress(blob)
            self.last_decomp_trace = engine.last_decomp_trace
            return out
        trace = KernelTrace()
        anchor_stride = int(blob.meta["anchor_stride"])
        level_cfgs = _decode_levels(blob.meta["levels"])
        pipeline = get_pipeline(blob.meta["pipeline"])

        raw = pipeline.decode(blob.segments["codes"])
        stage_sizes = pipeline.last_decode_trace
        seq = np.frombuffer(raw, dtype=np.uint8)
        n = int(np.prod(blob.shape))
        if seq.size != n:
            raise ValueError("decoded code sequence length mismatch")
        if blob.meta["reorder"] == "1":
            codes = inverse_reorder(seq, blob.shape, anchor_stride)
            trace.launch("reorder-inv", n, n, efficiency_class="shuffle")
        else:
            codes = seq.reshape(blob.shape)

        predictor = InterpolationPredictor(anchor_stride)
        out = predictor.decompress(
            codes,
            blob.get_array("anchors"),
            blob.get_array("outliers"),
            blob.shape,
            blob.error_bound,
            level_cfgs,
            blob.dtype,
        )
        self._interp_kernels(trace, blob.shape, blob.dtype.itemsize, level_cfgs, anchor_stride)
        trace.extend(pipeline_kernels(stage_sizes, decode=True))
        self.last_decomp_trace = trace
        return out

    # ------------------------------------------------------------ kernels
    @staticmethod
    def _interp_kernels(
        trace: KernelTrace,
        shape: tuple[int, ...],
        itemsize: int,
        level_cfgs: dict[int, LevelConfig],
        anchor_stride: int,
    ) -> None:
        """Append the interpolation kernel schedule (geometry-derived sizes).

        One kernel per (level, pass): reads 2-4 neighbor values per predicted
        point per interpolated axis, writes the reconstruction and one code
        byte.  This mirrors the CUDA grid: all passes of a level are separate
        launches with full-array footprints.
        """
        n_anchor = 1
        for d in shape:
            n_anchor *= (d + anchor_stride - 1) // anchor_stride
        trace.launch("anchors", n_anchor * itemsize, n_anchor * itemsize)
        for s in level_strides(anchor_stride):
            cfg = level_cfgs.get(s, LevelConfig())
            for vectors, axes in level_passes(shape, s, cfg.scheme):
                targets = 1
                for v in vectors:
                    targets *= v.size
                if targets == 0:
                    continue
                neighbors = 4 if cfg.spline != "linear" else 2
                # Neighbor values come from the shared-memory tile each
                # thread block stages once, so DRAM traffic does not scale
                # with the number of interpolated axes — only the per-point
                # FMA count does (Fig. 4's md vs 1d difference is compute).
                trace.launch(
                    f"interp-s{s}-{''.join(map(str, axes))}",
                    bytes_read=targets * neighbors * itemsize,
                    bytes_written=targets * (itemsize + 1),
                    flops=targets * (8 * len(axes) + 6),
                    efficiency_class="gather",
                )


# Register the class for every cuSZ-Hi id so the dispatcher can route blobs.
# Tiled frames route through CuszHi.decompress, which detects the tile index
# and fans the per-tile decode out through the tiling engine.  (The wire-id
# dispatch table lives in repro.api.registry; the per-id codec_id/codec_name
# class attributes are intentionally NOT stamped here — CuszHi derives its id
# from its config via the codec_id property above.)
for _name in ("cusz-hi-cr", "cusz-hi-tp", "cusz-hi", "cusz-hi-tiled"):
    register_kernel_class(_name, CuszHi, stamp=False)
