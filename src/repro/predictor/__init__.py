"""Lossy decomposition subsystem: data predictors producing compressible
integer codes (paper §5.1)."""

from .autotune import CANDIDATES, autotune_levels, sample_blocks
from .interpolation import (
    InterpolationPredictor,
    LevelConfig,
    PredictorResult,
    level_passes,
    level_strides,
)
from .lorenzo import LorenzoResult, lorenzo_decode, lorenzo_encode
from .offset1d import OffsetResult, offset_decode, offset_encode
from .reorder import (
    inverse_reorder,
    level_of_coordinates,
    reorder,
    reorder_permutation,
)
from .splines import SPLINES, axis_predict

__all__ = [
    "InterpolationPredictor",
    "LevelConfig",
    "PredictorResult",
    "level_passes",
    "level_strides",
    "LorenzoResult",
    "lorenzo_encode",
    "lorenzo_decode",
    "OffsetResult",
    "offset_encode",
    "offset_decode",
    "autotune_levels",
    "sample_blocks",
    "CANDIDATES",
    "reorder",
    "inverse_reorder",
    "reorder_permutation",
    "level_of_coordinates",
    "SPLINES",
    "axis_predict",
]
