"""Short-distance compact windows, long-distance dilated windows, residual MLP.

Short mode partitions the map into contiguous g x g blocks.  Long mode samples
dilated windows whose in-window neighbor distance is w/g horizontally and h/g
vertically, so cascading the two modes reaches the full grid in two hops once
g >= max(h, w)/g.  Both partitions are bijections; merge is the exact inverse.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, AttentionWeights, _uniform, _zeros, _ones, basic_attention
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class WindowPlan:
    h: int
    w: int
    g: int
    mode: str  # "short" | "long"

    def index_map(self):
        """[n_windows, g, g, 2] array of (y, x) grid coordinates per window slot."""
        g = self.g
        ys, xs = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
        out = []
        if self.mode == "short":
            for a in range(self.h // g):
                for b in range(self.w // g):
                    out.append(np.stack([a * g + ys, b * g + xs], axis=-1))
        else:
            sy, sx = self.h // g, self.w // g
            for a in range(sy):
                for b in range(sx):
                    out.append(np.stack([a + ys * sy, b + xs * sx], axis=-1))
        return np.stack(out)


def partition(x, g, mode):
    """[h, w, d] -> ([h w / g^2, g, g, d], plan); gather per the plan's index map."""
    h, w, d = x.shape
    if mode not in ("short", "long"):
        raise ValueError(f"mode must be 'short' or 'long', got {mode!r}")
    if h % g or w % g:
        raise ShapeError(f"window partition: extents h={h}, w={w} not divisible by g={g} ({mode} mode)")
    plan = WindowPlan(h, w, g, mode)
    if mode == "short":
        y = T.reshape(x, (h // g, g, w // g, g, d))
        y = T.transpose(y, (0, 2, 1, 3, 4))
    else:
        sy, sx = h // g, w // g
        y = T.reshape(x, (g, sy, g, sx, d))
        y = T.transpose(y, (1, 3, 0, 2, 4))
    return T.reshape(y, ((h * w) // (g * g), g, g, d)), plan


def merge(windows, plan: WindowPlan):
    """Exact inverse of partition."""
    h, w, g = plan.h, plan.w, plan.g
    nw = (h * w) // (g * g)
    d = windows.shape[-1]
    if windows.shape != (nw, g, g, d):
        raise ShapeError(f"merge: window tensor {windows.shape} does not match plan "
                         f"(expected {(nw, g, g, d)})")
    if plan.mode == "short":
        y = T.reshape(windows, (h // g, w // g, g, g, d))
        y = T.transpose(y, (0, 2, 1, 3, 4))
    else:
        sy, sx = h // g, w // g
        y = T.reshape(windows, (sy, sx, g, g, d))
        y = T.transpose(y, (2, 0, 3, 1, 4))
    return T.reshape(y, (h, w, d))


@dataclass
class MLPWeights:
    ln1_gain: Tensor
    ln1_shift: Tensor
    conv1_w: Tensor   # 1x1, d -> 2d
    conv1_b: Tensor
    ln2_gain: Tensor
    ln2_shift: Tensor
    conv2_w: Tensor   # 1x1, 2d -> d, zero-initialized
    conv2_b: Tensor


def init_mlp_weights(d, rng, dtype=np.float64, safe_start=True):
    hidden = 2 * d
    w = MLPWeights(
        ln1_gain=_ones(d, dtype), ln1_shift=_zeros(d, dtype),
        conv1_w=_uniform(rng, (1, 1, d, hidden), d, dtype), conv1_b=_zeros(hidden, dtype),
        ln2_gain=_ones(hidden, dtype), ln2_shift=_zeros(hidden, dtype),
        conv2_w=_zeros((1, 1, hidden, d), dtype), conv2_b=_zeros(d, dtype),
    )
    if not safe_start:
        w.conv2_w = _uniform(rng, (1, 1, hidden, d), hidden, dtype)
    return w


def residual_mlp(x, weights: MLPWeights):
    """x + Conv1x1(GELU(LN(Conv1x1(LN(x))))), hidden width 2d."""
    y = T.layer_norm(x, weights.ln1_gain, weights.ln1_shift)
    y = T.conv2d(y, weights.conv1_w, weights.conv1_b)
    y = T.layer_norm(y, weights.ln2_gain, weights.ln2_shift)
    y = T.gelu(y)
    y = T.conv2d(y, weights.conv2_w, weights.conv2_b)
    return x + y


def window_attention(x, g, mode, attn_weights: AttentionWeights, mlp_weights: MLPWeights,
                     cfg: AttentionConfig, use_inter_head=True):
    """Per-window self basic attention with shared weights, then the residual MLP.

    Windows are evaluated as one batched attention call; the result is
    identical to looping basic_attention over each window.
    """
    windows, plan = partition(x, g, mode)
    enhanced = basic_attention(windows, windows, attn_weights, cfg,
                               use_inter_head=use_inter_head)
    merged = merge(enhanced, plan)
    return residual_mlp(merged, mlp_weights)
