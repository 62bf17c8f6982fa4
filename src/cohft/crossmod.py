"""Point-wise adaptive instance normalization and inter-modality attention.

The reference stream (HR guidance gradients, [rh, rw, d]) is standardized to
zero mean / unit variance per channel, then re-dressed with the target
stream's channel moments plus a spatially varying scale offset gamma predicted
from both streams.  The aligned map then serves as key/value source for a
basic attention step whose queries come from the target stream.

The paper's point-wise AdaIN also has a shift beta.  Here a point-wise shift
is the same for every channel at a pixel, and the LayerNorm over channels that
opens the attention's tokenization subtracts it again, so beta has no effect
on the output and is left out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionWeights, _uniform, _zeros, basic_attention, init_attention_weights
from .tensor import Tensor
from .windows import MLPWeights, init_mlp_weights, residual_mlp

IN_EPS = 1e-5


@dataclass
class AdaINWeights:
    expand_w: Tensor   # 1x1, d -> d r^2 (pre pixel-shuffle)
    expand_b: Tensor
    fuse_w: Tensor     # 3x3, 2d -> d
    fuse_b: Tensor
    gamma_w: Tensor    # 3x3, d -> 1, zero at safe start
    gamma_b: Tensor


def init_adain_weights(d, r, rng, dtype=np.float64, safe_start=True):
    return AdaINWeights(
        expand_w=_uniform(rng, (1, 1, d, d * r * r), d, dtype), expand_b=_zeros(d * r * r, dtype),
        fuse_w=_uniform(rng, (3, 3, 2 * d, d), 9 * 2 * d, dtype), fuse_b=_zeros(d, dtype),
        gamma_w=_uniform(rng, (3, 3, d, 1), 9 * d, dtype, zero=safe_start),
        gamma_b=_zeros(1, dtype),
    )


def channel_moments(x):
    """Per-channel spatial mean and sigma = sqrt(population variance + eps)."""
    mu = T.tmean(x, axis=(0, 1))
    var = T.tmean(T.square(x - mu), axis=(0, 1))
    sigma = T.sqrt(var + IN_EPS)
    return mu, sigma


def instance_standardize(x2):
    """Per channel: subtract the spatial mean, divide by sigma."""
    mu, sigma = channel_moments(x2)
    return (x2 - mu) / sigma


def compute_affine(x1, x2, weights: AdaINWeights, r):
    """Point-wise scale offset gamma [rh, rw, 1] from the fused streams (conv2d checks x2's extents)."""
    x1h = T.conv2d(x1, weights.expand_w, weights.expand_b)
    x1h = T.pixel_shuffle(x1h, r)
    xh = T.conv2d([x2, x1h], weights.fuse_w, weights.fuse_b)
    return T.conv2d(xh, weights.gamma_w, weights.gamma_b)


def adain_apply(x2_std, mu1, sigma1, gamma):
    """O[x,y,j] = X2'[x,y,j] (sigma1[j] + gamma[x,y]) + mu1[j].

    No shift beta[x,y]: the LayerNorm that opens tokenize would subtract it.
    """
    return x2_std * (sigma1 + gamma) + mu1


def adain(x1, x2, weights: AdaINWeights, r):
    """Align x2's feature distribution to x1's, with a point-wise scale residual."""
    mu1, sigma1 = channel_moments(x1)
    x2_std = instance_standardize(x2)
    return adain_apply(x2_std, mu1, sigma1, compute_affine(x1, x2, weights, r))


@dataclass
class InterModalityWeights:
    adain: AdaINWeights
    attn: AttentionWeights
    mlp: MLPWeights


def init_inter_modality_weights(d, M, r, p, rng, dtype=np.float64, safe_start=True):
    return InterModalityWeights(
        adain=init_adain_weights(d, r, rng, dtype, safe_start),
        attn=init_attention_weights(d, M, rng, dtype, safe_start, p=p, rho=r),
        mlp=init_mlp_weights(d, rng, dtype, safe_start),
    )


def inter_modality_attention(x1, x2, weights: InterModalityWeights, p,
                             use_inter_head=True, use_adain=True):
    """AdaIN-align x2 toward x1, attend with rho = r registration, then residual MLP.

    r is the side of the reference path's embedding kernel.
    """
    r = weights.attn.embed2.conv_w.shape[0]
    aligned = adain(x1, x2, weights.adain, r) if use_adain else x2
    out = basic_attention(x1, aligned, weights.attn, p, use_inter_head=use_inter_head)
    return residual_mlp(out, weights.mlp)
