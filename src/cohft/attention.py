"""Basic attention: tokenization, intra-head and inter-head correlation, residual output.

The module enhances an input feature map X1 [h1, w1, d] with context gathered
from a reference map X2 [h2, w2, d] (possibly X1 itself).  Both maps are
embedded and unfolded into N = h1 w1 / p^2 tokens; M heads of scaled
dot-product attention renew the value tokens, an inter-head correlation matrix
remixes the heads, and the folded result is post-processed by a 3x3 conv and
added back to X1.

The weights carry the layout: the reference embedding's kernel side is the
registration ratio rho, and the query bias is [M, d'].  Only the token patch
side p is passed at forward time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


@dataclass
class EmbedWeights:
    pre_gain: Tensor
    pre_shift: Tensor
    conv_w: Tensor
    conv_b: Tensor
    post_gain: Tensor
    post_shift: Tensor


@dataclass
class AttentionWeights:
    embed1: EmbedWeights   # 1x1 conv path for X1
    embed2: EmbedWeights   # rho x rho patch embedding for X2: unfold(rho), then a 1x1 conv
    wq: Tensor             # [M, d p^2, d']
    bq: Tensor             # [M, d']
    wk: Tensor             # no bias: a key bias adds one constant per softmax row, which cancels
    wv: Tensor
    bv: Tensor
    out_w: Tensor          # 3x3 conv, zero at safe start
    out_b: Tensor


def _uniform(rng, shape, fan_in, dtype, zero=False):
    """U(+-1/sqrt(fan_in)) weights; zeros, drawing nothing, for a path's last layer at safe
    start, or for every weight when there is no generator (rng None)."""
    if zero or rng is None:
        return _zeros(shape, dtype)
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape).astype(dtype), requires_grad=True)


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _ones(shape, dtype):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def _init_embed(d, k, rng, dtype):
    return EmbedWeights(
        pre_gain=_ones(d, dtype), pre_shift=_zeros(d, dtype),
        conv_w=_uniform(rng, (k, k, d, d), k * k * d, dtype),
        conv_b=_zeros(d, dtype),
        post_gain=_ones(d, dtype), post_shift=_zeros(d, dtype),
    )


def init_attention_weights(d, M, rng, dtype=np.float64, safe_start=True, p=1, rho=1):
    """Weights for d channels, M heads, p x p token patches and registration ratio rho = h2/h1."""
    dp2 = d * p * p
    if dp2 % M:
        raise ShapeError(f"d*p^2 = {dp2} not divisible by M = {M}")
    if rho < 1:
        raise ShapeError(f"rho must be a positive integer, got {rho}")
    dp = dp2 // M
    return AttentionWeights(
        embed1=_init_embed(d, 1, rng, dtype),
        embed2=_init_embed(d, rho, rng, dtype),
        wq=_uniform(rng, (M, dp2, dp), dp2, dtype), bq=_zeros((M, dp), dtype),
        wk=_uniform(rng, (M, dp2, dp), dp2, dtype),
        wv=_uniform(rng, (M, dp2, dp), dp2, dtype), bv=_zeros((M, dp), dtype),
        out_w=_uniform(rng, (3, 3, d, d), 9 * d, dtype, zero=safe_start),
        out_b=_zeros(d, dtype),
    )


def tokenize(x, emb: EmbedWeights, p):
    """LN -> patch embedding -> LN -> GELU -> unfold(p); returns [.., N, d p^2].

    The embedding is a linear map of each flattened k x k patch, k being the
    side of emb's kernel: k = 1 on the input path, k = rho on the reference
    path, where it registers X2's extents to X1's.  One rearrange takes the
    patches, in unfold's order, to [.., h/k, w/k, k^2 d]; a 1x1 conv reads the
    [k, k, d, d] weights as [1, 1, k^2 d, d].
    """
    k = emb.conv_w.shape[0]
    h, w, d = x.shape[-3:]
    h, w = h // k, w // k  # rearrange and unfold check the extents against k and p
    y = T.layer_norm(x, emb.pre_gain, emb.pre_shift)
    y = T.rearrange(y, ((h, k), (w, k), (d,)), (0, 2, 1, 3, 4), (h, w, k * k * d))
    y = T.conv2d(y, T.reshape(emb.conv_w, (1, 1, k * k * d, d)), emb.conv_b)
    y = T.layer_norm(y, emb.post_gain, emb.post_shift)
    y = T.gelu(y)
    return T.unfold(y, p)


def intra_head_attention(q, k, v):
    """Each head's tokens renewed by their affinity to the keys: softmax_j(q_i . k_j / sqrt(d')) v_j."""
    # scaling q [.., N, d'] costs N d' multiplies, the logits N N'
    return T.attend(q * (1.0 / math.sqrt(q.shape[-1])), k, v)


def remix_heads(vt):
    """u^(m)_n = sum_j (1 + A[n,m,j]) vhat^(j)_n on [.., N, M, d'] tokens.

    A[n] = softmax(vhat_n vhat_n^T), unscaled, is token n's head-to-head affinity.
    """
    return T.attend(vt, vt, vt) + T.tsum(vt, axis=-2, keepdims=True)


def _heads_linear(tokens, w):
    # tokens [.., N, D], w [M, D, d'] -> [.., M, N, d']; one BLAS contraction
    # over D for all heads
    return T.einsum("...nd,mde->...mne", tokens, w)


def basic_attention(x1, x2, weights: AttentionWeights, p=1, use_inter_head=True):
    """Full basic attention block with p x p token patches; output has X1's shape.

    Accepts leading batch axes on x1/x2 (used for per-window evaluation with
    shared weights).
    """
    h1, w1 = x1.shape[-3], x1.shape[-2]
    t1 = tokenize(x1, weights.embed1, p)
    t2 = tokenize(x2, weights.embed2, p)
    if t1.shape[-2] != t2.shape[-2]:
        raise ShapeError(f"token counts differ after registration: {t1.shape[-2]} vs {t2.shape[-2]}")
    bias_shape = (weights.bq.shape[0], 1, weights.bq.shape[1])  # [M, 1, d']
    q = _heads_linear(t1, weights.wq) + T.reshape(weights.bq, bias_shape)
    k = _heads_linear(t2, weights.wk)
    v = _heads_linear(t2, weights.wv) + T.reshape(weights.bv, bias_shape)
    vhat = intra_head_attention(q, k, v)  # [.., M, N, d']
    nb = vhat.ndim - 3
    vt = T.transpose(vhat, tuple(range(nb)) + (nb + 1, nb, nb + 2))  # [.., N, M, d']
    if use_inter_head:
        vt = remix_heads(vt)
    tokens_out = T.reshape(vt, vt.shape[:-2] + (vt.shape[-2] * vt.shape[-1],))
    folded = T.fold(tokens_out, p, h1, w1)
    return x1 + T.conv2d(folded, weights.out_w, weights.out_b)
