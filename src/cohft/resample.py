"""Separable bicubic resampling with the Catmull-Rom kernel (a = -0.5).

Boundary handling is mirror reflection about the edge sample; tap weights per
output position are normalized to sum to one, so constants are preserved
exactly and linear ramps are reproduced away from the boundary.
"""
from __future__ import annotations

import numpy as np

from .tensor import ShapeError

_A = -0.5


def _kernel(t):
    t = np.abs(t)
    out = np.zeros_like(t)
    m1 = t <= 1.0
    m2 = (t > 1.0) & (t < 2.0)
    out[m1] = (_A + 2.0) * t[m1] ** 3 - (_A + 3.0) * t[m1] ** 2 + 1.0
    out[m2] = _A * t[m2] ** 3 - 5.0 * _A * t[m2] ** 2 + 8.0 * _A * t[m2] - 4.0 * _A
    return out


def _reflect(idx, n):
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    idx = np.abs(idx) % period
    return np.where(idx >= n, period - idx, idx)


def _resize_matrix(n_in, n_out, dtype):
    scale = n_in / n_out
    centers = (np.arange(n_out) + 0.5) * scale - 0.5
    base = np.floor(centers).astype(int)
    mat = np.zeros((n_out, n_in), dtype=dtype)
    for off in range(-1, 3):
        taps = base + off
        w = _kernel(centers - taps)
        np.add.at(mat, (np.arange(n_out), _reflect(taps, n_in)), w)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def bicubic_resize(img, out_h, out_w):
    """Resize [h, w] or [h, w, c] to the given extents."""
    squeeze = img.ndim == 2
    if squeeze:
        img = img[:, :, None]
    h, w, _ = img.shape
    my = _resize_matrix(h, out_h, img.dtype)
    mx = _resize_matrix(w, out_w, img.dtype)
    out = np.einsum("oh,hwc->owc", my, img)
    out = np.einsum("pw,owc->opc", mx, out)
    return out[:, :, 0] if squeeze else out


def degrade(hr, r):
    """Bicubic downsample by integer factor r, clamped to [0, 1]."""
    h, w = hr.shape[:2]
    if h % r or w % r:
        raise ShapeError(f"degrade: extents {h}x{w} not divisible by r={r}")
    return np.clip(bicubic_resize(hr, h // r, w // r), 0.0, 1.0)


def bicubic_upsample(lr, r):
    """Bicubic upsample by integer factor r, clamped to [0, 1]."""
    h, w = lr.shape[:2]
    return np.clip(bicubic_resize(lr, h * r, w * r), 0.0, 1.0)
