"""Fixed-tile execution: the one width every inference pass runs at.

BLAS GEMM rounding depends on the row count M of a product (an M=1
and an M=64 product round differently), but at fixed M each output
row is independent of the other rows' contents.  Running every
adapter -> normalise -> encoder -> head pass over row tiles of exactly
:data:`TILE_ROWS` samples (the last tile zero-padded, its padding rows
sliced off) therefore makes a sample's logits a pure function of
(sample, ``TILE_ROWS``): offline prediction at any ``batch_size``, a
served micro-batch of any width, a streamed window and the fit-time
embedding fill all produce the same bits.  A lone request costs one
tile rather than a full batch, and the compiled encoder graph has a
single shape bucket per series geometry.

``TILE_ROWS = 8`` was chosen by measurement at serving geometry (T=128,
D'=5, float32, moment-tiny; 2-vCPU Intel Xeon VM, numpy 2.4 with
OpenBLAS 0.3.31): a 2-row batch takes 11.7 ms at tile 4, 22.9 ms at
tile 8 and 43.4 ms at a single 16-row width, while a full 16-row batch
takes 45.7, 45.4 and 43.3 ms.  End to end, tile 4 made saturated
serving's median latency 10% worse; tile 8 left it unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["TILE_ROWS", "map_tiles"]

#: Rows per execution tile; every inference GEMM sees this batch width.
TILE_ROWS = 8


def map_tiles(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Apply ``fn`` to ``x`` in ``TILE_ROWS``-row tiles; keep the real rows.

    ``fn`` maps a ``(TILE_ROWS, ...)`` array to an array with the same
    leading dimension.  The last tile is zero-padded to full size, and
    the outputs of the real rows are concatenated in order.  ``x`` must
    hold at least one row.
    """
    outputs = []
    for start in range(0, len(x), TILE_ROWS):
        tile = x[start : start + TILE_ROWS]
        rows = len(tile)
        if rows < TILE_ROWS:
            pad = np.zeros((TILE_ROWS - rows, *tile.shape[1:]), dtype=tile.dtype)
            tile = np.concatenate([tile, pad], axis=0)
        outputs.append(fn(tile)[:rows])
    return outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)
