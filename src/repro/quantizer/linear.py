"""Error-bounded linear (uniform scalar) quantization (paper §3.1, §5.2.1).

Two quantization styles exist in the cuSZ family and both live here:

* :func:`prequantize` — the *dual-quant* front end of Lorenzo/offset
  predictors: ``q = round(x / 2eb)`` turns the field into integers before any
  prediction, so the predictor itself is exact integer arithmetic.  Values
  that saturate the integer range (or are non-finite) become exact outliers.
* :class:`ByteQuantizer` — the interpolation-path residual quantizer: the
  prediction residual is quantized and *folded into one byte* (§5.2.1),
  128-centered, with byte 0 reserved as the outlier escape marker.

Both guarantee ``|x - x'| <= eb`` for every element, including after the
reconstruction is cast back to the storage dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PrequantResult", "prequantize", "reconstruct", "ByteQuantizer"]

#: saturation threshold for dual-quant integers: the difference of two such
#: integers (a 1-D delta prediction) still fits int32
SATURATION = (2**31 - 1) >> 1


@dataclass
class PrequantResult:
    """Integer field + exact-outlier records of a dual-quant pass."""

    q: np.ndarray  # int64 pre-quantized integers (0 at outliers)
    outlier_pos: np.ndarray  # flat positions of saturated / non-finite values
    outlier_values: np.ndarray  # exact input values there
    recon: np.ndarray  # bound-respecting reconstruction (input dtype)


def prequantize(data: np.ndarray, eb: float, saturation: int = SATURATION) -> PrequantResult:
    """Pre-quantize ``data`` to integers under absolute bound ``eb``.

    Values with ``|q| > saturation`` (and non-finite ones) become outliers;
    a predictor whose residuals combine several ``q`` lowers the threshold
    so that they still fit its residual type.  The bound is validated
    against the reconstruction *after* casting back to the storage dtype:
    ``2eb * round(x/2eb)`` respects the bound in exact arithmetic but the
    float32 cast can overshoot by an ulp, so any violating point joins the
    exact-outlier set.
    """
    if eb <= 0:
        raise ValueError("error bound must be positive")
    data = np.asarray(data)
    twoeb = 2.0 * eb
    x = data.astype(np.float64)
    qf = np.rint(x / twoeb)
    saturated = (np.abs(qf) > saturation) | ~np.isfinite(qf)
    qf = np.where(saturated, 0.0, qf)
    q = qf.astype(np.int64)
    recon = (q.astype(np.float64) * twoeb).astype(data.dtype)
    violates = np.abs(x - recon.astype(np.float64)) > eb
    outlier_mask = saturated | violates
    outlier_pos = np.flatnonzero(outlier_mask.reshape(-1))
    outlier_values = data.reshape(-1)[outlier_pos].copy()
    if outlier_pos.size:
        recon.reshape(-1)[outlier_pos] = outlier_values
    return PrequantResult(q=q, outlier_pos=outlier_pos, outlier_values=outlier_values, recon=recon)


def reconstruct(
    q: np.ndarray,
    eb: float,
    dtype: np.dtype,
    outlier_pos: np.ndarray | None = None,
    outlier_values: np.ndarray | None = None,
) -> np.ndarray:
    """Rebuild the field from dual-quant integers and outlier records."""
    out = (np.asarray(q, dtype=np.float64) * (2.0 * eb)).astype(dtype)
    if outlier_pos is not None and outlier_pos is not False and np.size(outlier_pos):
        out.reshape(-1)[np.asarray(outlier_pos)] = outlier_values
    return out


class ByteQuantizer:
    """Residual quantizer with one-byte folded codes (128-centered).

    ``quantize`` maps residual integers ``q in [-127, 127]`` to bytes
    ``q + 128``; anything else escapes through byte 0 and an exact value.
    This is the §5.2.1 design: one-byte symbols keep downstream bit patterns
    simple and make Huffman tables small.
    """

    CENTER = 128
    RADIUS = 127

    def __init__(self, eb: float):
        if eb <= 0:
            raise ValueError("error bound must be positive")
        self.eb = float(eb)

    def quantize(
        self, values: np.ndarray, predictions: np.ndarray, dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quantize residuals; returns ``(codes_u8, recon_f64, outlier_mask)``.

        ``recon`` holds exact input values at outlier positions so the caller
        can continue predicting from a bound-respecting field.
        """
        twoeb = 2.0 * self.eb
        x = np.asarray(values, dtype=np.float64)
        pred = np.asarray(predictions, dtype=np.float64)
        q = np.rint((x - pred) / twoeb)
        recon = pred + q * twoeb
        recon_cast = recon.astype(dtype).astype(np.float64)
        outlier = (np.abs(q) > self.RADIUS) | (np.abs(x - recon_cast) > self.eb) | ~np.isfinite(q)
        codes = np.where(outlier, 0.0, q + float(self.CENTER)).astype(np.uint8)
        recon = np.where(outlier, x, recon)
        return codes, recon, outlier

    def dequantize(self, codes: np.ndarray, predictions: np.ndarray) -> np.ndarray:
        """Reconstruct non-outlier positions (outliers are the caller's)."""
        q = codes.astype(np.float64) - float(self.CENTER)
        return np.asarray(predictions, dtype=np.float64) + q * (2.0 * self.eb)

    # ------------------------------------------------------------ fused path
    def quantize_into(
        self,
        values: np.ndarray,
        predictions: np.ndarray,
        dtype: np.dtype,
        scratch,
        out_codes: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Scratch-buffer variant of :meth:`quantize` for the fused hot path.

        Writes the byte codes into ``out_codes`` (uint8, pre-shaped) and
        returns the bound-respecting float64 reconstruction, written into
        ``out`` when given and into a ``scratch`` buffer otherwise — no
        per-call temporaries beyond the pool.
        ``scratch`` is any object with ``get(key, shape, dtype)`` returning
        reusable arrays (the interpolation replay hands over views of its
        per-thread workspace).

        ``values`` may be the storage-dtype (e.g. float32) strided view of
        the source: every binary op pairs it with a float64 array, so the
        arithmetic runs in float64 exactly like :meth:`quantize`.  The
        outputs are bit-identical to the unfused method; ``predictions``
        must be float64 and is consumed (not preserved).
        """
        twoeb = 2.0 * self.eb
        shape = predictions.shape
        q = scratch.get("quant_q", shape, np.float64)
        tmp = scratch.get("quant_tmp", shape, np.float64)
        recon = scratch.get("quant_recon", shape, np.float64) if out is None else out
        outlier = scratch.get("quant_outlier", shape, np.bool_)
        flag = scratch.get("quant_flag", shape, np.bool_)

        np.subtract(values, predictions, out=q)
        np.divide(q, twoeb, out=q)
        np.rint(q, out=q)  # q = rint((x - pred) / 2eb)
        np.multiply(q, twoeb, out=recon)
        np.add(predictions, recon, out=recon)  # recon = pred + q * 2eb
        # Validate the bound against the storage-dtype representation
        # (float64 storage: the representation *is* recon — skip the casts).
        if np.dtype(dtype) == np.float64:
            cast64 = recon
        else:
            cast = scratch.get("quant_cast", shape, dtype)
            cast64 = scratch.get("quant_cast64", shape, np.float64)
            np.copyto(cast, recon, casting="unsafe")
            np.copyto(cast64, cast)
        # outlier = (|q| > 127) | (|x - recon_cast| > eb) | ~isfinite(q),
        # computed as ~((|q| <= 127) & (|x - recon_cast| <= eb)): identical
        # truth table (NaN/Inf fail the <= comparisons, and a NaN residual
        # implies a NaN q), three fewer full-size passes.
        np.abs(q, out=tmp)
        np.less_equal(tmp, self.RADIUS, out=outlier)
        np.subtract(values, cast64, out=tmp)
        np.abs(tmp, out=tmp)
        np.less_equal(tmp, self.eb, out=flag)
        np.logical_and(outlier, flag, out=outlier)
        np.logical_not(outlier, out=outlier)
        np.add(q, float(self.CENTER), out=tmp)
        np.copyto(tmp, 0.0, where=outlier)
        np.copyto(out_codes, tmp, casting="unsafe")  # uint8 byte codes
        np.copyto(recon, values, where=outlier)  # outliers carry exact values
        return recon
