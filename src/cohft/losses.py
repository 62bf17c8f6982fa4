"""Gradient-map operator, SSIM/PSNR metrics, and the training objective.

Both loss terms have the form alpha * MSE - (1 - alpha) * SSIM.  objective,
the one objective that train, eval and the checks run, takes one sample and
returns (L_in + lam L_c, L_in, L_c).  Each of its rules is stated here once:
objective_extents says which ground truth it takes, LossConfig.total adds
the terms, and a term of weight exactly 0 stays off the tape (alpha == 1
drops SSIM, lam == 0 detaches the gradient stream).  Averaging over a batch
is the train step's.  The losses are built from tape primitives, so they can
end a recorded tape; the gradient map is numpy data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

GRAD_EPS = 1e-6
# the SSIM window and stabilizing constants of Wang et al. 2004
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


@dataclass
class LossConfig:
    """The objective's weights; RunConfig takes the alpha and lam defaults from here."""
    alpha: float = 0.95
    lam: float = 0.5
    epsilon_grad: ClassVar[float] = GRAD_EPS

    def total(self, li, lc):
        """L_in + lam L_c, of Tensors or of floats."""
        return li + self.lam * lc


def gradient_map(img, eps=GRAD_EPS):
    """sqrt((dx I)^2 + (dy I)^2 + eps), forward differences on axes 0 and 1, replicate boundary;
    numpy that records nothing, as the map is data no gradient flows through."""
    x = (img if isinstance(img, Tensor) else Tensor(img)).data
    dy, dx = np.zeros_like(x), np.zeros_like(x)
    np.subtract(x[1:], x[:-1], out=dy[:-1])
    np.subtract(x[:, 1:], x[:, :-1], out=dx[:, :-1])
    dx *= dx  # in place, in the order of sqrt(dx * dx + dy * dy + eps)
    dy *= dy
    dx += dy
    dx += x.dtype.type(eps)
    return Tensor(np.sqrt(dx, out=dx))


def gaussian_taps(side, sigma):
    """1-D Gaussian of unit sum; outer(g, g) is the SSIM window of Wang et al. 2004."""
    half = (side - 1) / 2.0
    coords = np.arange(side) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def ssim_extents(shape):
    """Raise ShapeError unless an [h, w, 1] image of this shape spans the SSIM window."""
    h, w = shape[-3], shape[-2]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"ssim needs extents >= {SSIM_WINDOW}, got {h}x{w}")


def ssim(a, b):
    """Mean of the Gaussian-windowed local SSIM map; input Tensors [h, w, 1] in [0, 1]."""
    if a.shape != b.shape or a.shape[-1] != 1:
        raise ShapeError(f"ssim needs two [h, w, 1] images, got {a.shape} and {b.shape}")
    ssim_extents(a.shape)
    taps = gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    mu_a, mu_b, e_aa, e_bb, e_ab = (T.separable_blur(x, taps)
                                    for x in (a, b, a * a, b * b, a * b))
    mu_aa = mu_a * mu_a
    mu_bb = mu_b * mu_b
    mu_ab = mu_a * mu_b
    var_a = e_aa - mu_aa
    var_b = e_bb - mu_bb
    cov = e_ab - mu_ab
    num = (2.0 * mu_ab + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_aa + mu_bb + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return T.tmean(num / den)


def mse(a, b):
    return T.tmean(T.square(a - b))


def psnr(a, b):
    """10 log10(1 / MSE) on unit dynamic range; +inf for identical images."""
    err = float(np.mean((np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)


def _mse_minus_ssim(out, target, cfg):
    """alpha * MSE - (1 - alpha) * SSIM, the form of both loss terms.

    At alpha == 1 the SSIM half is left out: its weight is exactly 0, so
    while SSIM is finite the value is MSE bit for bit, and the gradient would
    only gain zeros.
    """
    if cfg.alpha == 1.0:
        return mse(out, target)
    return cfg.alpha * mse(out, target) - (1.0 - cfg.alpha) * ssim(out, target)


def loss_in(i_out, i_gt, cfg: LossConfig):
    return _mse_minus_ssim(i_out, i_gt, cfg)


def loss_c(r_out, r_gt, cfg: LossConfig):
    return _mse_minus_ssim(r_out, r_gt, cfg)


def objective_extents(out, gt, cfg: LossConfig):
    """Raise ShapeError unless a ground truth of shape gt fits an output of shape out:
    the shapes are equal and, unless alpha == 1 drops SSIM, span the SSIM window."""
    if tuple(gt) != tuple(out):
        raise ShapeError(f"ground truth extents {tuple(gt)} do not match the output's {tuple(out)}")
    if cfg.alpha != 1.0:
        ssim_extents(gt)


def objective(i_out, r_out, i_gt, cfg: LossConfig = LossConfig()):
    """(L_in + lam L_c, L_in, L_c) of one sample, L_c against the gradient map of i_gt.

    At lam == 0, L_c is taken from the detached r_out: weighted by exactly 0
    it would only add zeros to the gradient, so it records no tape node and
    serves the log alone.
    """
    objective_extents(i_out.shape, i_gt.shape, cfg)
    li = loss_in(i_out, i_gt, cfg)
    r_gt = gradient_map(i_gt, cfg.epsilon_grad)
    lc = loss_c(r_out if cfg.lam else Tensor(r_out.data), r_gt, cfg)
    return cfg.total(li, lc), li, lc
