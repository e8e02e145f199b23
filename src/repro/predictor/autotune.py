"""Workload-balanced interpolation auto-tuning (paper §5.1.3).

cuSZ-Hi samples the data as per-thread-block-sized blocks, runs every
(scheme, spline) candidate on every level, and keeps — per level — the
configuration with the lowest aggregated prediction error.  Here
:func:`sample_blocks` draws ``ceil(target_fraction * N / block)`` blocks of
side ``2 * anchor_stride + 1`` (clipped to the field), at least one and at
most ``max_blocks``.  At the default 0.2 % that is a single 33³ block until
``N`` passes ~18M points: all of a 32³ field, 13.7 % of a 64³ one and 0.2 %
only from ~262³ up.  The GPU version balances candidates across thread
blocks (6 blocks for the expensive level-1 test); here a level is scored by
:meth:`~repro.predictor.interpolation.InterpolationPredictor.level_errors`,
which evaluates each spline family once and derives all six candidates from
it, so the balancing concern disappears but the selection logic is identical.

Scoring predicts from *original* values rather than reconstructed ones (the
QoZ approximation) so candidates can be evaluated independently of each
other and of the error bound.
"""

from __future__ import annotations

import numpy as np

from .interpolation import InterpolationPredictor, LevelConfig, level_strides

__all__ = ["autotune_levels", "sample_blocks", "CANDIDATES"]

#: candidate (scheme, spline) pairs evaluated per level
CANDIDATES: tuple[LevelConfig, ...] = (
    LevelConfig("md", "cubic"),
    LevelConfig("md", "natural_cubic"),
    LevelConfig("md", "linear"),
    LevelConfig("1d", "cubic"),
    LevelConfig("1d", "natural_cubic"),
    LevelConfig("1d", "linear"),
)


def sample_blocks(
    data: np.ndarray,
    block_side: int,
    target_fraction: float = 0.002,
    max_blocks: int = 12,
    seed: int = 0,
) -> list[np.ndarray]:
    """Uniformly sample sub-blocks covering ~``target_fraction`` of ``data``.

    At least one block is drawn, so a field of fewer than
    ``block_side**d / target_fraction`` points is sampled by one block.

    Blocks have side ``block_side`` per dimension (clipped by the array), the
    same footprint a thread block owns, so level populations in the sample
    match the full array.
    """
    shape = data.shape
    block_shape = tuple(min(block_side, d) for d in shape)
    block_elems = int(np.prod(block_shape))
    total = data.size
    n_blocks = max(1, min(max_blocks, int(np.ceil(target_fraction * total / block_elems))))
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_blocks):
        corner = tuple(
            int(rng.integers(0, max(1, d - b + 1))) for d, b in zip(shape, block_shape)
        )
        sl = tuple(slice(c, c + b) for c, b in zip(corner, block_shape))
        blocks.append(np.ascontiguousarray(data[sl]))
    return blocks


def autotune_levels(
    data: np.ndarray,
    anchor_stride: int,
    candidates: tuple[LevelConfig, ...] = CANDIDATES,
    target_fraction: float = 0.002,
    seed: int = 0,
) -> dict[int, LevelConfig]:
    """Select the per-level interpolation configuration on sampled blocks.

    Returns a mapping stride -> :class:`LevelConfig` (the coarsest level uses
    the largest stride).  Ties resolve to the earlier candidate, which orders
    md before 1d and cubic before linear as the paper's defaults do.
    """
    predictor = InterpolationPredictor(anchor_stride)
    blocks = sample_blocks(data, block_side=2 * anchor_stride + 1, target_fraction=target_fraction, seed=seed)
    chosen: dict[int, LevelConfig] = {}
    for s in level_strides(anchor_stride):
        errs = [0.0] * len(candidates)
        for blk in blocks:
            for i, err in enumerate(predictor.level_errors(blk, s, candidates)):
                errs[i] += err
        best_cfg = candidates[0]
        best_err = np.inf
        for cfg, err in zip(candidates, errs):
            if err < best_err:
                best_err = err
                best_cfg = cfg
        chosen[s] = best_cfg
    return chosen
