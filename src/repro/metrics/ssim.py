"""Structural similarity on 2-D slices — the quantitative backbone of the
paper's Fig. 9 visual-quality assessment.

Standard SSIM [Wang et al. 2004] with an 8x8 uniform window, computed with
``scipy.ndimage.uniform_filter`` so the local moments are two separable
passes.  Inputs are the original and reconstructed slices; the dynamic range
is taken from the original, matching the PSNR convention.

scipy is the optional ``analysis`` extra: it is imported on first use, so
``import repro`` and every compress/serve/batch path load none of it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ssim2d"]


def uniform_filter(data: np.ndarray, size: int) -> np.ndarray:
    """``scipy.ndimage.uniform_filter``, importing scipy on first use.

    Raises an ``ImportError`` naming the ``analysis`` extra when scipy is
    not installed.
    """
    try:
        from scipy.ndimage import uniform_filter as _filter
    except ImportError as exc:
        raise ImportError(
            "SSIM and artifact scores need scipy; install the 'analysis' extra: "
            "pip install 'repro-cusz-hi[analysis]'"
        ) from exc
    return _filter(data, size)


def ssim2d(a: np.ndarray, b: np.ndarray, window: int = 8) -> float:
    """Mean SSIM of two 2-D arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("ssim2d expects two equal-shape 2-D arrays")
    drange = a.max() - a.min()
    if drange == 0:
        return 1.0 if np.array_equal(a, b) else 0.0
    c1 = (0.01 * drange) ** 2
    c2 = (0.03 * drange) ** 2

    mu_a = uniform_filter(a, window)
    mu_b = uniform_filter(b, window)
    mu_a2 = mu_a * mu_a
    mu_b2 = mu_b * mu_b
    mu_ab = mu_a * mu_b
    sigma_a2 = uniform_filter(a * a, window) - mu_a2
    sigma_b2 = uniform_filter(b * b, window) - mu_b2
    sigma_ab = uniform_filter(a * b, window) - mu_ab

    num = (2 * mu_ab + c1) * (2 * sigma_ab + c2)
    den = (mu_a2 + mu_b2 + c1) * (sigma_a2 + sigma_b2 + c2)
    return float(np.mean(num / den))
