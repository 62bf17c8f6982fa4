import math

import numpy as np
import pytest
from test_tensor import conv_oracle

from cohft import tensor as T
from cohft.attention import basic_attention, init_attention_weights, remix_heads, tokenize
from cohft.checks import (check_attention_gradients, check_attention_permutation_invariance,
                          check_attention_safe_start, finite_diff_check)
from cohft.tensor import ShapeError, Tensor


def test_equal_heads_mixing():
    # M identical heads: uniform correlation, u = (M + 1) vhat for every head
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 5))
    for m in (2, 3, 4):
        vt = Tensor(np.stack([base] * m, axis=1))
        u = remix_heads(vt)
        assert np.allclose(u.data, (m + 1) * vt.data, atol=1e-10)


def test_tokenize_shapes():
    rng = np.random.default_rng(4)
    w = init_attention_weights(4, 2, rng, p=2, rho=2)
    x1 = Tensor(rng.standard_normal((6, 6, 4)))
    x2 = Tensor(rng.standard_normal((12, 12, 4)))
    t1 = tokenize(x1, w.embed1, 2)
    t2 = tokenize(x2, w.embed2, 2)
    assert t1.shape == (9, 16)
    assert t2.shape == (9, 16)
    with pytest.raises(ShapeError):
        tokenize(Tensor(rng.standard_normal((7, 7, 4))), w.embed2, 2)


def layer_norm_oracle(x, gain, shift):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + T.LN_EPS) * gain + shift


def tokenize_oracle(x, emb, k, p):
    """One [h, w, d] map: LN, k x k conv of stride k, LN, exact GELU, p x p patch order."""
    y = layer_norm_oracle(x, emb.pre_gain.data, emb.pre_shift.data)
    y = conv_oracle(y, emb.conv_w.data, emb.conv_b.data, stride=k, pad=0)
    y = layer_norm_oracle(y, emb.post_gain.data, emb.post_shift.data)
    y = y * 0.5 * (1.0 + np.vectorize(math.erf)(y / math.sqrt(2.0)))
    h, w, d = y.shape
    y = y.reshape(h // p, p, w // p, p, d).transpose(0, 2, 1, 3, 4)
    return y.reshape((h // p) * (w // p), p * p * d)


def test_tokenize_matches_numpy_oracle():
    rng = np.random.default_rng(11)
    for which, rho, p, shape in (("input", 1, 1, (4, 3, 3, 4)),   # k = 1 on [windows, g, g, d]
                                 ("reference", 1, 2, (6, 4, 4)),
                                 ("reference", 2, 2, (8, 12, 4))):
        w = init_attention_weights(4, 2, rng, p=p, rho=rho)
        emb = w.embed1 if which == "input" else w.embed2
        for t in (emb.pre_gain, emb.pre_shift, emb.conv_b, emb.post_gain, emb.post_shift):
            t.data[...] = rng.standard_normal(t.shape)
        x = rng.standard_normal(shape)
        k = 1 if which == "input" else rho
        got = tokenize(Tensor(x), emb, p).data
        want = np.stack([tokenize_oracle(xi, emb, k, p) for xi in x.reshape((-1,) + shape[-3:])])
        assert got.shape == shape[:-3] + want.shape[1:], which
        assert np.abs(got - want.reshape(got.shape)).max() <= 1e-12, (which, rho)


def test_reference_embedding_gradients():
    # the rho x rho embedding of X2 against central differences, each array on its own
    rng = np.random.default_rng(12)
    w = init_attention_weights(4, 2, rng, safe_start=False, p=2, rho=2)
    x1 = Tensor(rng.standard_normal((4, 4, 4)))
    x2 = Tensor(rng.standard_normal((8, 8, 4)), requires_grad=True)

    def loss():
        return T.tsum(T.square(basic_attention(x1, x2, w, 2)))

    for name, t in (("embed2.conv_w", w.embed2.conv_w), ("embed2.conv_b", w.embed2.conv_b),
                    ("x2", x2)):
        finite_diff_check(loss, [(name, t)], 4, rng, tol=1e-5)


def test_config_validation():
    rng = np.random.default_rng(13)
    with pytest.raises(ShapeError, match="not divisible by M"):
        init_attention_weights(5, 2, rng)
    with pytest.raises(ShapeError, match="rho must be a positive integer"):
        init_attention_weights(4, 2, rng, rho=0)
    w = init_attention_weights(6, 3, rng, p=2, rho=3)
    assert w.bq.shape == (3, 8) and w.wq.shape == (3, 24, 8)  # d' = d p^2 / M
    assert w.embed2.conv_w.shape == (3, 3, 6, 6)


def test_safe_start_is_identity():
    check_attention_safe_start(np.random.default_rng(5))


def test_output_shape_follows_x1():
    rng = np.random.default_rng(6)
    w = init_attention_weights(4, 2, rng, safe_start=False, p=2, rho=2)
    x1 = Tensor(rng.standard_normal((6, 6, 4)))
    x2 = Tensor(rng.standard_normal((12, 12, 4)))
    assert basic_attention(x1, x2, w, 2).shape == (6, 6, 4)


def test_reference_patch_permutation_invariance():
    check_attention_permutation_invariance(np.random.default_rng(7))


def test_batched_equals_loop():
    rng = np.random.default_rng(8)
    w = init_attention_weights(4, 2, rng, safe_start=False)
    xs = rng.standard_normal((3, 5, 5, 4))
    batched = basic_attention(Tensor(xs), Tensor(xs), w).data
    for i in range(3):
        single = basic_attention(Tensor(xs[i]), Tensor(xs[i]), w).data
        assert np.allclose(batched[i], single, atol=1e-12)


def test_inter_head_switch_changes_output():
    rng = np.random.default_rng(9)
    w = init_attention_weights(4, 2, rng, safe_start=False)
    x = Tensor(rng.standard_normal((6, 6, 4)))
    on = basic_attention(x, x, w, use_inter_head=True).data
    off = basic_attention(x, x, w, use_inter_head=False).data
    assert np.abs(on - off).max() > 1e-6


def test_attention_weight_gradients():
    check_attention_gradients(np.random.default_rng(10))
