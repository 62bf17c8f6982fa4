"""Gradient-map operator, SSIM/PSNR metrics, and the training objective.

Both loss terms have the form alpha * MSE - (1 - alpha) * SSIM.  objective,
the one objective that train, eval and the checks run, is two pieces:
sample_terms takes both terms of one sample and keeps a term of weight
exactly 0 off the tape (alpha == 1 drops SSIM, lam == 0 detaches the
gradient stream); batch_objective averages the terms over a batch and adds
the gradient-domain term with weight lam.  Everything here is built from the
differentiable primitives, so losses can sit at the end of a recorded tape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    alpha: float = 0.95
    lam: float = 0.5
    epsilon_grad: float = GRAD_EPS


def gradient_map(img, eps=GRAD_EPS):
    """sqrt((dx I)^2 + (dy I)^2 + eps) with forward differences, replicate boundary."""
    img = img if isinstance(img, Tensor) else Tensor(img)
    dy = T.forward_diff(img, 0)
    dx = T.forward_diff(img, 1)
    return T.sqrt(T.square(dx) + T.square(dy) + eps)


def gaussian_taps(side, sigma):
    """1-D Gaussian of unit sum; outer(g, g) is the SSIM window of Wang et al. 2004."""
    half = (side - 1) / 2.0
    coords = np.arange(side) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def ssim(a, b):
    """Mean of the Gaussian-windowed local SSIM map; inputs [h, w, 1] in [0, 1]."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.shape != b.shape or a.shape[-1] != 1:
        raise ShapeError(f"ssim needs two [h, w, 1] images, got {a.shape} and {b.shape}")
    h, w = a.shape[-3], a.shape[-2]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"ssim needs extents >= {SSIM_WINDOW}, got {h}x{w}")
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
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
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


def loss_in(i_out, i_gt, cfg: LossConfig = LossConfig()):
    return _mse_minus_ssim(i_out, i_gt, cfg)


def loss_c(r_out, r_gt, cfg: LossConfig = LossConfig()):
    return _mse_minus_ssim(r_out, r_gt, cfg)


def _mean(terms):
    """Batch mean, summed in sample order; one term is its own mean (x * 1.0 is x)."""
    if len(terms) == 1:
        return terms[0]
    return (1.0 / len(terms)) * sum(terms[1:], terms[0])


def sample_terms(i_out, r_out, i_gt, cfg: LossConfig = LossConfig()):
    """(L_in, L_c) of one sample, L_c against the gradient map of i_gt.

    At lam == 0, L_c is taken from the detached r_out: weighted by exactly 0
    it would only add zeros to the gradient, so it records no tape node and
    serves the log alone.
    """
    if i_gt.shape != i_out.shape:
        raise ShapeError(f"ground truth extents {i_gt.shape} do not match "
                         f"the output's {i_out.shape}")
    li = loss_in(i_out, i_gt, cfg)
    r_gt = gradient_map(i_gt, cfg.epsilon_grad)
    return li, loss_c(r_out if cfg.lam else Tensor(r_out.data), r_gt, cfg)


def batch_objective(li_terms, lc_terms, cfg: LossConfig = LossConfig()):
    """(total, mean L_in, mean L_c) of per-sample terms: total = mean L_in + lam * mean L_c."""
    li_mean, lc_mean = _mean(li_terms), _mean(lc_terms)
    return li_mean + cfg.lam * lc_mean, li_mean, lc_mean


def objective(samples, cfg: LossConfig = LossConfig()):
    """batch_objective of the sample_terms of (i_out, r_out, i_gt) samples, in sample order."""
    li_terms, lc_terms = [], []
    for sample in samples:
        li, lc = sample_terms(*sample, cfg)
        li_terms.append(li)
        lc_terms.append(lc)
    return batch_objective(li_terms, lc_terms, cfg)
