"""Dual-quantization Lorenzo predictor (cuSZ-L / FZ-GPU front end).

cuSZ's GPU Lorenzo kernel [Tian et al., PACT'20] avoids the sequential
reconstruction dependency of classic Lorenzo by *pre-quantizing* the input to
integers (``round(x / 2eb)``) and running the Lorenzo stencil on the integers,
where it is exact.  Decompression is then an integer prefix sum along every
axis — precisely ``np.cumsum`` chained over dimensions, which is also how the
GPU implements it (one scan kernel per axis).

The error bound follows from pre-quantization alone:
``|x - 2eb*round(x/2eb)| <= eb``.  Values whose pre-quantized magnitude
would push a residual out of the int32 range are stored as outliers (exact
value, code 0 at their position is not needed since the residual stream is
int32 here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..quantizer.linear import prequantize

__all__ = ["LorenzoResult", "lorenzo_encode", "lorenzo_decode"]


@dataclass
class LorenzoResult:
    """Pre-quantized Lorenzo residuals plus exact-outlier bookkeeping."""

    residuals: np.ndarray  # int32, data layout
    outlier_pos: np.ndarray  # flat positions of saturated values
    outlier_values: np.ndarray  # exact input values there
    recon: np.ndarray  # reconstruction (input dtype)


def _diff_along(q: np.ndarray, axis: int) -> np.ndarray:
    out = q.copy()
    sl_hi = [slice(None)] * q.ndim
    sl_lo = [slice(None)] * q.ndim
    sl_hi[axis] = slice(1, None)
    sl_lo[axis] = slice(None, -1)
    out[tuple(sl_hi)] = q[tuple(sl_hi)] - q[tuple(sl_lo)]
    return out


def lorenzo_encode(data: np.ndarray, eb: float) -> LorenzoResult:
    """First-order N-D Lorenzo on the pre-quantized integer field."""
    data = np.asarray(data)
    # The N-D first-order Lorenzo residual is the chained finite difference
    # along every axis (inclusion-exclusion collapses to separable diffs),
    # a signed sum of 2**ndim integers: saturating |q| at (2**31 - 1) >> ndim
    # keeps every residual inside int32.
    pq = prequantize(data, eb, saturation=(2**31 - 1) >> data.ndim)
    resid = pq.q
    for axis in range(data.ndim):
        resid = _diff_along(resid, axis)
    return LorenzoResult(
        residuals=resid.astype(np.int32),
        outlier_pos=pq.outlier_pos,
        outlier_values=pq.outlier_values,
        recon=pq.recon,
    )


def lorenzo_decode(
    residuals: np.ndarray,
    shape: tuple[int, ...],
    eb: float,
    dtype: np.dtype,
    outlier_pos: np.ndarray | None = None,
    outlier_values: np.ndarray | None = None,
) -> np.ndarray:
    """Invert the Lorenzo stencil with one prefix-sum scan per axis."""
    q = residuals.astype(np.int64).reshape(shape)
    for axis in range(len(shape)):
        np.cumsum(q, axis=axis, out=q)
    out = (q.astype(np.float64) * (2.0 * eb)).astype(dtype)
    if outlier_pos is not None and outlier_pos.size:
        out.reshape(-1)[outlier_pos] = outlier_values
    return out
