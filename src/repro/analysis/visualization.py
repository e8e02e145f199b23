"""Visual-quality assessment utilities (paper Fig. 9).

Without a plotting stack, the Fig. 9 reproduction quantifies what the paper
shows visually: 2-D slices of the reconstruction compared at matched CR via
slice PSNR, SSIM and an *artifact score* — the fraction of reconstruction
error energy living in high spatial frequencies, which is what the eye reads
as blocking/ringing in the paper's images.  An ASCII heatmap renderer is
included so examples can still show the fields in a terminal.
"""

from __future__ import annotations

import numpy as np

from ..metrics import psnr, ssim2d
from ..metrics.ssim import uniform_filter

__all__ = ["take_slice", "artifact_score", "ascii_heatmap", "slice_report"]

_RAMP = " .:-=+*#%@"


def take_slice(data: np.ndarray, axis: int = 0, index: int | None = None) -> np.ndarray:
    """Extract a 2-D slice from an N-D field (middle plane by default)."""
    if data.ndim < 2:
        raise ValueError("need at least 2 dimensions")
    if data.ndim == 2:
        return np.asarray(data)
    if index is None:
        index = data.shape[axis] // 2
    sl = [slice(None)] * data.ndim
    sl[axis] = index
    out = np.asarray(data)[tuple(sl)]
    while out.ndim > 2:  # 4-D fields: keep the middle of remaining axes
        out = out[out.shape[0] // 2]
    return out


def artifact_score(original: np.ndarray, recon: np.ndarray, window: int = 4) -> float:
    """High-frequency error energy fraction (0 = smooth error, 1 = gritty).

    The error field is split into a local mean (low-pass) and residual
    (high-pass); blocky/ringing artifacts concentrate energy in the residual.
    """
    err = np.asarray(original, dtype=np.float64) - np.asarray(recon, dtype=np.float64)
    total = float(np.sum(err * err))
    if total == 0.0:
        return 0.0
    low = uniform_filter(err, window)
    high = err - low
    return float(np.sum(high * high) / total)


def ascii_heatmap(field: np.ndarray, width: int = 64, height: int = 28) -> str:
    """Render a 2-D field as an ASCII intensity map (for terminal examples)."""
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("ascii_heatmap expects a 2-D array")
    ys = np.linspace(0, f.shape[0] - 1, height).astype(int)
    xs = np.linspace(0, f.shape[1] - 1, width).astype(int)
    sub = f[np.ix_(ys, xs)]
    lo, hi = sub.min(), sub.max()
    norm = (sub - lo) / (hi - lo) if hi > lo else np.zeros_like(sub)
    idx = np.clip((norm * (len(_RAMP) - 1)).astype(int), 0, len(_RAMP) - 1)
    return "\n".join("".join(_RAMP[i] for i in row) for row in idx)


def slice_report(original: np.ndarray, recon: np.ndarray, axis: int = 0, index: int | None = None) -> dict:
    """Fig. 9-style quality numbers for one slice of one reconstruction."""
    o = take_slice(original, axis, index)
    r = take_slice(recon, axis, index)
    return {
        "slice_psnr": psnr(o, r),
        "slice_ssim": ssim2d(o, r),
        "artifact_score": artifact_score(o, r),
    }
