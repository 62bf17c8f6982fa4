"""Short-distance compact windows, long-distance dilated windows, residual MLP.

Short mode partitions the map into contiguous g x g blocks.  Long mode samples
dilated windows whose in-window neighbor distance is w/g horizontally and h/g
vertically, so cascading the two modes reaches the full grid in two hops once
g >= max(h, w)/g.  Both layouts are written once, in _layout; partition
applies them, and merge undoes them with the inverse axis order, so merge is
the exact inverse of partition by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionWeights, _uniform, _zeros, _ones, basic_attention
from .tensor import Tensor


def _layout(h, w, g, mode):
    """Split extents of [h, w] and the axis order that puts the window indices first.

    Short mode splits each axis as (window, slot), so a window is a contiguous
    g x g block; long mode splits it as (slot, window), so the slots of one
    window lie h/g rows and w/g columns apart.
    """
    if mode not in ("short", "long"):
        raise ValueError(f"mode must be 'short' or 'long', got {mode!r}")
    if mode == "short":
        return (h // g, g, w // g, g), (0, 2, 1, 3)
    return (g, h // g, g, w // g), (1, 3, 0, 2)


def partition(x, g, mode):
    """[.., h, w, d] -> [.., h w / g^2, g, g, d]: the windows of _layout, row-major over windows."""
    h, w, d = x.shape[-3:]
    split, perm = _layout(h, w, g, mode)
    return T.rearrange(x, (split[:2], split[2:], (d,)), (*perm, 4), ((h * w) // (g * g), g, g, d))


def merge(windows, h, w, mode):
    """Exact inverse of partition: [.., h w / g^2, g, g, d] -> [.., h, w, d]."""
    g, d = windows.shape[-3], windows.shape[-1]
    split, perm = _layout(h, w, g, mode)
    ny, nx, sy, sx = (split[i] for i in perm)
    return T.rearrange(windows, ((ny, nx), (sy,), (sx,), (d,)), (*np.argsort(perm), 4), (h, w, d))


@dataclass
class MLPWeights:
    ln1_gain: Tensor
    ln1_shift: Tensor
    conv1_w: Tensor   # 1x1, d -> 2d
    conv1_b: Tensor
    ln2_gain: Tensor
    ln2_shift: Tensor
    conv2_w: Tensor   # 1x1, 2d -> d, zero at safe start
    conv2_b: Tensor


def init_mlp_weights(d, rng, dtype=np.float64, safe_start=True):
    hidden = 2 * d
    return MLPWeights(
        ln1_gain=_ones(d, dtype), ln1_shift=_zeros(d, dtype),
        conv1_w=_uniform(rng, (1, 1, d, hidden), d, dtype), conv1_b=_zeros(hidden, dtype),
        ln2_gain=_ones(hidden, dtype), ln2_shift=_zeros(hidden, dtype),
        conv2_w=_uniform(rng, (1, 1, hidden, d), hidden, dtype, zero=safe_start),
        conv2_b=_zeros(d, dtype),
    )


def residual_mlp(x, weights: MLPWeights):
    """x + Conv1x1(GELU(LN(Conv1x1(LN(x))))), hidden width 2d."""
    y = T.layer_norm(x, weights.ln1_gain, weights.ln1_shift)
    y = T.conv2d(y, weights.conv1_w, weights.conv1_b)
    y = T.layer_norm(y, weights.ln2_gain, weights.ln2_shift)
    y = T.gelu(y)
    y = T.conv2d(y, weights.conv2_w, weights.conv2_b)
    return x + y


def window_attention(x, g, mode, attn_weights: AttentionWeights, mlp_weights: MLPWeights,
                     use_inter_head=True):
    """Per-window self basic attention with shared weights, then the residual MLP.

    One token per pixel (basic_attention's p = 1) of a window registered to itself.
    Windows are evaluated as one batched attention call; the result is
    identical to looping basic_attention over each window.
    """
    windows = partition(x, g, mode)
    enhanced = basic_attention(windows, windows, attn_weights, use_inter_head=use_inter_head)
    merged = merge(enhanced, x.shape[0], x.shape[1], mode)
    return residual_mlp(merged, mlp_weights)
