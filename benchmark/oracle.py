"""Reference computations written apart from cohft, used to check its outputs.

Everything is float64 numpy on single-channel images [h, w].
"""
from __future__ import annotations

import math

import numpy as np


def catmull_rom(t):
    """Cubic convolution kernel with a = -0.5."""
    t = np.abs(t)
    return np.where(t <= 1.0, 1.5 * t ** 3 - 2.5 * t ** 2 + 1.0,
                    np.where(t < 2.0, -0.5 * t ** 3 + 2.5 * t ** 2 - 4.0 * t + 2.0, 0.0))


def _upsample_axis(img, r, axis):
    """Upsample one axis by r: pixel-centre alignment, mirror boundary, taps normalized."""
    img = np.moveaxis(img, axis, 0)
    n = img.shape[0]
    centres = (np.arange(n * r) + 0.5) / r - 0.5
    base = np.floor(centres).astype(int)
    out = np.zeros((n * r,) + img.shape[1:])
    wsum = np.zeros(n * r)
    for off in (-1, 0, 1, 2):
        idx = base + off
        w = catmull_rom(centres - idx)
        # mirror about the edge sample: -1 -> 1, n -> n - 2
        idx = np.where(idx < 0, -idx, idx)
        idx = np.where(idx > n - 1, 2 * (n - 1) - idx, idx)
        out += w.reshape((-1,) + (1,) * (img.ndim - 1)) * img[idx]
        wsum += w
    out /= wsum.reshape((-1,) + (1,) * (img.ndim - 1))
    return np.moveaxis(out, 0, axis)


def bicubic_upsample(lr, r):
    """Separable Catmull-Rom upsampling by r, clamped to [0, 1]."""
    up = _upsample_axis(_upsample_axis(np.asarray(lr, dtype=np.float64), r, 0), r, 1)
    return np.clip(up, 0.0, 1.0)


def psnr(a, b):
    err = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    return math.inf if err == 0.0 else 10.0 * math.log10(1.0 / err)


def gradient_map(img, eps=1e-6):
    """sqrt(dx^2 + dy^2 + eps) with forward differences that are 0 on the last row/column."""
    dy = np.zeros_like(img)
    dx = np.zeros_like(img)
    dy[:-1, :] = img[1:, :] - img[:-1, :]
    dx[:, :-1] = img[:, 1:] - img[:, :-1]
    return np.sqrt(dx * dx + dy * dy + eps)


def _gauss_window(side=11, sigma=1.5):
    x = np.arange(side) - (side - 1) / 2.0
    g = np.exp(-x * x / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


def _valid_blur(img, k):
    win = np.lib.stride_tricks.sliding_window_view(img, k.shape)
    return np.einsum("ijkl,kl->ij", win, k)


def ssim(a, b, c1=0.01 ** 2, c2=0.03 ** 2):
    """Mean SSIM over 11x11 Gaussian (sigma 1.5) windows that fit inside the image."""
    k = _gauss_window()
    mu_a, mu_b = _valid_blur(a, k), _valid_blur(b, k)
    var_a = _valid_blur(a * a, k) - mu_a ** 2
    var_b = _valid_blur(b * b, k) - mu_b ** 2
    cov = _valid_blur(a * b, k) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def objective_terms(out, gt, alpha):
    """(alpha * MSE, (1 - alpha) * SSIM) of an output against its target."""
    return alpha * float(np.mean((out - gt) ** 2)), (1.0 - alpha) * ssim(out, gt)


def safe_start_objective(lr, hr, r, alpha, lam):
    """Training objective of a safe-start network on one sample.

    At safe start the intensity output is the bicubic upsampling of the LR
    input and the gradient output is zero (both heads are zero convs).
    Returns (value, scale), scale being the sum of the magnitudes of the
    terms, against which rounding is judged.
    """
    up = bicubic_upsample(lr, r)
    mse_i, ssim_i = objective_terms(up, hr, alpha)
    mse_c, ssim_c = objective_terms(np.zeros_like(hr), gradient_map(hr), alpha)
    value = (mse_i - ssim_i) + lam * (mse_c - ssim_c)
    scale = mse_i + ssim_i + lam * (mse_c + ssim_c)
    return value, scale
